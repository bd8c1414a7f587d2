//! Order statistics and process memory.

/// The `p`-th percentile (`0 < p <= 1`) of `sorted` by nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The `p`-th percentile of a run whose samples are grouped by window
/// and, inside a window, by CPU (`cells[window * cpus + cpu]`). Each
/// window contributes the mean over its CPUs of each CPU's own
/// percentile, and the run reports the median over its windows.
///
/// When the CPUs run at different speeds, the samples of one kind of
/// operation split into a fast and a slow mode, and a percentile of the
/// samples pooled can fall in the gap between the two. Taken per CPU, it
/// stays inside one mode. A slow moment of the host moves the windows it
/// falls in, and the median over the windows only once it covers half
/// of the run.
pub fn windowed(cells: &[Vec<f64>], cpus: usize, p: f64) -> f64 {
    median(
        cells
            .chunks(cpus)
            .filter_map(|window| {
                let per_cpu: Vec<f64> = window
                    .iter()
                    .filter(|c| !c.is_empty())
                    .map(|c| percentile(&sorted(c.clone()), p))
                    .collect();
                (!per_cpu.is_empty()).then(|| per_cpu.iter().sum::<f64>() / per_cpu.len() as f64)
            })
            .collect(),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

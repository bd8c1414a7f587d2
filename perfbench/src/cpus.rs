//! Placement of the client thread on the CPUs it may run on.
//!
//! On a shared host the CPUs of one machine can run at different speeds
//! for minutes at a time, as other tenants load their siblings. A thread
//! the scheduler leaves on one CPU then makes the whole run as fast or as
//! slow as that CPU happens to be. The benchmark instead moves its one
//! client thread round-robin over the allowed CPUs at fixed points of the
//! operation sequence, so every run spends the same share of its
//! operations on each.

#[cfg(target_os = "linux")]
mod sys {
    /// Words of the CPU mask: room for 1024 CPUs.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is writable for `size_of_val(&mask)` bytes; pid 0
        // names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is readable for `size_of_val(&mask)` bytes; pid 0
        // names the calling thread. A failure leaves the placement as it
        // was, which only makes the rotation a no-op.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}

/// The CPUs the client thread rotates over, as allowed at start.
pub struct Cpus {
    allowed: Vec<usize>,
}

impl Cpus {
    pub fn allowed() -> Cpus {
        Cpus {
            allowed: sys::allowed(),
        }
    }

    /// How many slots a rotation has (1 when placement is unknown).
    pub fn len(&self) -> usize {
        self.allowed.len().max(1)
    }

    /// Moves the calling thread to the CPU of rotation slot `slot`.
    pub fn pin(&self, slot: usize) {
        if self.allowed.len() > 1 {
            sys::pin(self.allowed[slot % self.allowed.len()]);
        }
    }
}

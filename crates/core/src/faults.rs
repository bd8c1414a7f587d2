//! Deterministic, seed-addressed fault injection.
//!
//! A [`FaultPlan`] names the injection points a governed run arms
//! before execution: a deadline that fires at checkpoint `N`, a cache
//! insert that fails, or an automaton compile that aborts. Every point
//! is a pure function of the plan — no randomness at fire time — so the
//! plan can be recorded into an [`ExecTrace`](crate::trace::ExecTrace) and the
//! run replayed bit-for-bit, SA4xx degradation sequence included.
//!
//! This is also how *real* deadline expiry becomes replayable: when a
//! production [`MonotonicClock`](crate::clock::MonotonicClock) fires at
//! checkpoint `N`, the recorder stores `deadline_at_checkpoint = N`
//! into the trace's fault plan, and replay re-arms the run with a
//! frozen virtual clock plus that fire point. Wall time stops being
//! the only sanctioned nondeterminism.

#![deny(clippy::unwrap_used)]

/// The deterministic injection points a run is armed with.
///
/// `FaultPlan::default()` injects nothing. Seed-addressed plans come
/// from [`FaultPlan::from_seed`], which derives the plan from one
/// `u64` via a splitmix finalizer, so a chaos schedule is reproducible
/// from its seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The seed this plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// Fire the run's deadline exactly at this checkpoint index.
    pub deadline_at_checkpoint: Option<u64>,
    /// Fail `AutomatonCache` inserts: artifacts compile but are not
    /// retained, so every lookup misses (SA431, cache event recorded).
    pub fail_cache_insert: bool,
    /// Abort automaton compilation before it starts; the run degrades
    /// to the bounded collapse-domain evaluation (SA413 + SA431).
    pub abort_compile: bool,
}

/// The checkpoint a seeded deadline fires at. Checkpoint indices are
/// 1-based, and every governed run polls its first one before any work:
/// a scan before its first batch, the automata route before compiling,
/// a `generate` program before its first binding. Later polls come once
/// per 4 096 rows or bindings, which a run over a small instance (the
/// chaos corpora's) never reaches, so a later fire point would arm a
/// fault that never fires.
const DEADLINE_FIRE_POINT: u64 = 1;

/// splitmix64 finalizer: a cheap, well-mixed u64 → u64 hash.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: no injection points armed.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Derives a plan deterministically from a seed: exactly one fault
    /// kind is armed per seed (so a chaos corpus attributes each
    /// degradation to one injection), selected by a splitmix draw. A
    /// deadline fires at the first checkpoint.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let kind = splitmix(seed) % 3;
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        match kind {
            0 => plan.deadline_at_checkpoint = Some(DEADLINE_FIRE_POINT),
            1 => plan.fail_cache_insert = true,
            _ => plan.abort_compile = true,
        }
        plan
    }

    /// Whether no injection point is armed.
    pub fn is_none(&self) -> bool {
        self.deadline_at_checkpoint.is_none() && !self.fail_cache_insert && !self.abort_compile
    }

    /// A short stable rendering for traces and logs, e.g.
    /// `deadline@3` or `abort-compile` or `none`.
    pub fn summary(&self) -> String {
        if self.is_none() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if let Some(n) = self.deadline_at_checkpoint {
            parts.push(format!("deadline@{n}"));
        }
        if self.fail_cache_insert {
            parts.push("fail-cache-insert".to_string());
        }
        if self.abort_compile {
            parts.push("abort-compile".to_string());
        }
        parts.join("+")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert_eq!(FaultPlan::none().summary(), "none");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_armed() {
        for seed in 0..64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b, "seed {seed} must be reproducible");
            assert!(!a.is_none(), "seed {seed} must arm exactly one fault");
            assert_eq!(a.seed, seed);
            let armed = usize::from(a.deadline_at_checkpoint.is_some())
                + usize::from(a.fail_cache_insert)
                + usize::from(a.abort_compile);
            assert_eq!(armed, 1, "seed {seed} arms exactly one point");
        }
    }

    #[test]
    fn all_fault_kinds_are_reachable_from_seeds() {
        let plans: Vec<FaultPlan> = (0..64).map(FaultPlan::from_seed).collect();
        assert!(plans.iter().any(|p| p.deadline_at_checkpoint.is_some()));
        assert!(plans.iter().any(|p| p.fail_cache_insert));
        assert!(plans.iter().any(|p| p.abort_compile));
    }

    #[test]
    fn deadline_seeds_fire_at_the_first_checkpoint() {
        for seed in 0..256 {
            if let Some(n) = FaultPlan::from_seed(seed).deadline_at_checkpoint {
                assert_eq!(n, DEADLINE_FIRE_POINT, "seed {seed}");
            }
        }
    }

    #[test]
    fn summary_renders_each_point() {
        let p = FaultPlan {
            seed: 7,
            deadline_at_checkpoint: Some(3),
            fail_cache_insert: true,
            abort_compile: true,
        };
        assert_eq!(p.summary(), "deadline@3+fail-cache-insert+abort-compile");
    }
}

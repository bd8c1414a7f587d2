//! Clocks and cooperative deadlines for in-flight budget enforcement.
//!
//! PR 9's budget governance checked wall time only at settlement: a
//! runaway dense scan or bounded search burned unbounded time before
//! anyone noticed, and the resulting post-hoc degradation carried an
//! elapsed-milliseconds payload that could never replay — wall time was
//! "the only sanctioned nondeterminism" in the trace diff.
//!
//! This module closes both gaps. A [`Deadline`] is threaded through
//! every long-running loop and polled at **coarse checkpoints** (one
//! per 4096-row dense batch, per 4096 bindings of a compiled program,
//! before compiling) so the overhead stays inside the 5% governance
//! gate. The deadline reads time through the [`Clock`] trait:
//! production uses [`MonotonicClock`] (a real `Instant`), while replay
//! re-arms the run with a frozen [`VirtualClock`] plus the recorded
//! fire checkpoint, so a deadline that fired at checkpoint `N` fires at
//! exactly checkpoint `N` again — degradations become deterministic
//! quantities (checkpoint index, rows-seen watermark), never elapsed
//! milliseconds, and they participate fully in the SA420 replay diff.

#![deny(clippy::unwrap_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::budget::UNLIMITED;

/// A monotonic millisecond clock. Implementations must be cheap: the
/// deadline polls one at every checkpoint on the governed hot path.
pub trait Clock: Send + Sync {
    /// Milliseconds elapsed since an arbitrary (per-clock) epoch.
    fn now_ms(&self) -> u64;
}

/// The production clock: milliseconds since the clock was created,
/// read from a monotonic [`Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> MonotonicClock {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// A clock whose reading only moves when told to: replay freezes it at
/// zero so a re-armed deadline can only fire at its recorded fault
/// checkpoint, and tests advance it to simulate the passage of time.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// A clock frozen at zero.
    pub fn frozen() -> VirtualClock {
        VirtualClock {
            now: AtomicU64::new(0),
        }
    }

    /// Advances the reading by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
    }

    /// Pins the reading to an absolute value.
    pub fn set(&self, ms: u64) {
        self.now.store(ms, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

struct DeadlineInner {
    clock: Arc<dyn Clock>,
    start_ms: u64,
    /// Wall-time allowance in ms; `UNLIMITED` disables clock reads.
    limit_ms: u64,
    /// Injected fire point: the deadline fires exactly when the
    /// checkpoint counter reaches this value, regardless of the clock.
    /// Replay arms this from the recorded trace.
    fire_at_checkpoint: u64,
    /// Checkpoints polled so far (1-based after the first poll).
    count: AtomicU64,
    /// The checkpoint index at which the deadline first fired, or
    /// `u64::MAX` while it has not.
    fired_at: AtomicU64,
}

const NOT_FIRED: u64 = u64::MAX;
/// A `fire_at_checkpoint` value no real counter reaches ("never").
const NO_INJECTION: u64 = u64::MAX;

/// A cooperative deadline: executors poll [`Deadline::checkpoint`] at
/// coarse intervals and degrade structurally when it returns `true`.
///
/// Cloning shares the underlying counter, so one logical run threads a
/// single deadline through the planner, the scan loops, and the
/// interpreters — the checkpoint indices recorded in degradations are
/// global to the run, which is what makes them replayable.
#[derive(Clone)]
pub struct Deadline {
    inner: Arc<DeadlineInner>,
}

impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deadline")
            .field("limit_ms", &self.inner.limit_ms)
            .field("fire_at_checkpoint", &self.inner.fire_at_checkpoint)
            .field("checkpoints", &self.checkpoints())
            .field("fired_at", &self.fired_at())
            .finish()
    }
}

impl Deadline {
    /// A deadline that never fires and never reads the clock: the
    /// checkpoint poll is a single relaxed atomic increment (measured
    /// inside the 5% `deadline_overhead` gate).
    pub fn unlimited() -> Deadline {
        Deadline {
            inner: Arc::new(DeadlineInner {
                clock: Arc::new(VirtualClock::frozen()),
                start_ms: 0,
                limit_ms: UNLIMITED,
                fire_at_checkpoint: NO_INJECTION,
                count: AtomicU64::new(0),
                fired_at: AtomicU64::new(NOT_FIRED),
            }),
        }
    }

    /// A deadline of `limit_ms` milliseconds read from `clock`
    /// (production passes a fresh [`MonotonicClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>, limit_ms: u64) -> Deadline {
        let start_ms = if limit_ms == UNLIMITED {
            0
        } else {
            clock.now_ms()
        };
        Deadline {
            inner: Arc::new(DeadlineInner {
                clock,
                start_ms,
                limit_ms,
                fire_at_checkpoint: NO_INJECTION,
                count: AtomicU64::new(0),
                fired_at: AtomicU64::new(NOT_FIRED),
            }),
        }
    }

    /// A deadline armed to fire exactly when the checkpoint counter
    /// reaches `n`, independent of any clock. Replay uses this with the
    /// checkpoint recorded in the trace; fault injection uses it to
    /// make "deadline fires at checkpoint N" a deterministic event.
    pub fn firing_at_checkpoint(n: u64) -> Deadline {
        Deadline {
            inner: Arc::new(DeadlineInner {
                clock: Arc::new(VirtualClock::frozen()),
                start_ms: 0,
                // The clock is frozen, so only the injection can fire.
                limit_ms: UNLIMITED,
                fire_at_checkpoint: n,
                count: AtomicU64::new(0),
                fired_at: AtomicU64::new(NOT_FIRED),
            }),
        }
    }

    /// Polls the deadline at a checkpoint. Returns `true` when the
    /// deadline has expired (and keeps returning `true` thereafter, so
    /// nested loops unwind consistently).
    ///
    /// The poll is designed to be cheap enough for per-candidate use:
    /// one atomic increment, then — only when a finite limit or an
    /// injected fire point is armed — a comparison and possibly a
    /// clock read.
    #[inline]
    pub fn checkpoint(&self) -> bool {
        let inner = &*self.inner;
        let n = inner.count.fetch_add(1, Ordering::Relaxed) + 1;
        if inner.fired_at.load(Ordering::Relaxed) != NOT_FIRED {
            return true;
        }
        if n >= inner.fire_at_checkpoint {
            self.fire(n);
            return true;
        }
        if inner.limit_ms != UNLIMITED
            && inner.clock.now_ms().saturating_sub(inner.start_ms) > inner.limit_ms
        {
            self.fire(n);
            return true;
        }
        false
    }

    fn fire(&self, n: u64) {
        // First firing wins; concurrent clones agree on the index.
        let _ = self.inner.fired_at.compare_exchange(
            NOT_FIRED,
            n,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Whether the deadline has fired.
    pub fn expired(&self) -> bool {
        self.inner.fired_at.load(Ordering::Relaxed) != NOT_FIRED
    }

    /// The checkpoint index at which the deadline fired, if it has.
    /// This — not elapsed time — is what degradations and traces
    /// record, so replay can re-arm the exact same event.
    pub fn fired_at(&self) -> Option<u64> {
        match self.inner.fired_at.load(Ordering::Relaxed) {
            NOT_FIRED => None,
            n => Some(n),
        }
    }

    /// Checkpoints polled so far.
    pub fn checkpoints(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Whether polling this deadline can ever fire (finite limit or an
    /// injected fire point). `false` for [`Deadline::unlimited`].
    pub fn is_armed(&self) -> bool {
        self.inner.limit_ms != UNLIMITED || self.inner.fire_at_checkpoint != NO_INJECTION
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_deadline_never_fires() {
        let d = Deadline::unlimited();
        for _ in 0..10_000 {
            assert!(!d.checkpoint());
        }
        assert!(!d.expired());
        assert_eq!(d.fired_at(), None);
        assert_eq!(d.checkpoints(), 10_000);
        assert!(!d.is_armed());
    }

    #[test]
    fn virtual_clock_deadline_fires_when_advanced() {
        let clock = Arc::new(VirtualClock::frozen());
        let d = Deadline::with_clock(clock.clone(), 5);
        assert!(!d.checkpoint());
        clock.advance(6);
        assert!(d.checkpoint());
        assert!(d.expired());
        assert_eq!(d.fired_at(), Some(2));
        // Sticky thereafter, without moving the fire index.
        assert!(d.checkpoint());
        assert_eq!(d.fired_at(), Some(2));
    }

    #[test]
    fn injected_fire_point_is_clock_independent() {
        let d = Deadline::firing_at_checkpoint(3);
        assert!(d.is_armed());
        assert!(!d.checkpoint());
        assert!(!d.checkpoint());
        assert!(d.checkpoint());
        assert_eq!(d.fired_at(), Some(3));
    }

    #[test]
    fn clones_share_the_counter() {
        let d = Deadline::firing_at_checkpoint(4);
        let d2 = d.clone();
        assert!(!d.checkpoint());
        assert!(!d2.checkpoint());
        assert!(!d.checkpoint());
        assert!(d2.checkpoint());
        assert_eq!(d.fired_at(), Some(4));
        assert!(d.expired() && d2.expired());
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn exact_limit_is_not_expiry() {
        let clock = Arc::new(VirtualClock::frozen());
        let d = Deadline::with_clock(clock.clone(), 5);
        clock.set(5);
        assert!(!d.checkpoint(), "elapsed == limit is within the allowance");
        clock.set(6);
        assert!(d.checkpoint());
    }
}

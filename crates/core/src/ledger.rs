//! Cross-query admission: a shared resource pool over concurrent runs.
//!
//! PR 9's `Budget` governs one run; nothing stopped ten concurrent
//! runs, each individually within budget, from collectively exhausting
//! the process. A [`SharedLedger`] is a global pool of automaton
//! states, artifact bytes, and concurrent-run slots that governed runs
//! **reserve against before execution** (the plan's peak planlint
//! certificate, the same bound its budget is seeded from) and release
//! at settlement via the [`Reservation`] guard's `Drop`.
//!
//! Over-subscription is never silent: [`SharedLedger::try_reserve`]
//! returns a structured [`AdmissionShortfall`] (surfaced as
//! `CoreError::AdmissionDenied`), and callers holding an
//! `AutomatonCache` may evict cold entries to cover a byte shortfall
//! before giving up (SA430).

#![deny(clippy::unwrap_used)]

use std::fmt;
use std::sync::{Arc, Mutex};

use strcalc_analyze::planlint::ResourceCert;

use crate::budget::UNLIMITED;

/// The structured reason a reservation could not be granted: how much
/// of each dimension was missing from the pool at the attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionShortfall {
    pub states: u64,
    pub bytes: u64,
    pub slots: u64,
}

impl AdmissionShortfall {
    pub fn is_zero(&self) -> bool {
        self.states == 0 && self.bytes == 0 && self.slots == 0
    }
}

impl fmt::Display for AdmissionShortfall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.states > 0 {
            parts.push(format!("{} states", self.states));
        }
        if self.bytes > 0 {
            parts.push(format!("{} bytes", self.bytes));
        }
        if self.slots > 0 {
            parts.push("a run slot".to_string());
        }
        write!(f, "short {}", parts.join(", "))
    }
}

#[derive(Debug, Clone, Copy)]
struct Avail {
    states: u64,
    bytes: u64,
    slots: u64,
}

/// An atomic global pool of states, bytes, and concurrent-run slots.
///
/// Admission is a cold path (once per run, not per tuple), so the pool
/// is a mutex rather than lock-free atomics.
#[derive(Debug)]
pub struct SharedLedger {
    avail: Mutex<Avail>,
    capacity: Avail,
}

impl SharedLedger {
    /// A ledger with the given capacities. `UNLIMITED` (`u64::MAX`)
    /// disables accounting for that dimension.
    pub fn new(states: u64, bytes: u64, slots: u64) -> SharedLedger {
        let capacity = Avail {
            states,
            bytes,
            slots,
        };
        SharedLedger {
            avail: Mutex::new(capacity),
            capacity,
        }
    }

    /// A ledger that admits everything: unlimited in every dimension.
    pub fn unlimited() -> SharedLedger {
        SharedLedger::new(UNLIMITED, UNLIMITED, UNLIMITED)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Avail> {
        // A panic while holding the pool lock leaves only plain
        // counters behind; recover the guard rather than poisoning
        // every future admission.
        self.avail
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn shortfall(avail: &Avail, req: ResourceCert) -> AdmissionShortfall {
        AdmissionShortfall {
            states: if avail.states == UNLIMITED {
                0
            } else {
                req.states.saturating_sub(avail.states)
            },
            bytes: if avail.bytes == UNLIMITED {
                0
            } else {
                req.bytes.saturating_sub(avail.bytes)
            },
            slots: u64::from(avail.slots != UNLIMITED && avail.slots == 0),
        }
    }

    fn debit(avail: &mut Avail, req: ResourceCert) {
        if avail.states != UNLIMITED {
            avail.states -= req.states;
        }
        if avail.bytes != UNLIMITED {
            avail.bytes -= req.bytes;
        }
        if avail.slots != UNLIMITED {
            avail.slots -= 1;
        }
    }

    /// Attempts to reserve `req` — the plan's peak certificate — plus
    /// one run slot; an interpreter-only plan, whose certificate is
    /// zero, reserves a slot and nothing else. On success the returned
    /// guard holds the reservation until dropped (settlement). On
    /// failure the pool is untouched and the shortfall reports what was
    /// missing.
    pub fn try_reserve(
        self: &Arc<Self>,
        req: ResourceCert,
    ) -> Result<Reservation, AdmissionShortfall> {
        let mut avail = self.lock();
        let short = Self::shortfall(&avail, req);
        if !short.is_zero() {
            return Err(short);
        }
        Self::debit(&mut avail, req);
        Ok(Reservation {
            ledger: Arc::clone(self),
            req,
        })
    }

    /// Returns `n` bytes to the pool outside any reservation — the hook
    /// for reclaimed memory (e.g. cache entries evicted to cover a
    /// shortfall) entering the admission account. Clamped to capacity.
    pub fn credit_bytes(&self, n: u64) {
        let mut avail = self.lock();
        if avail.bytes != UNLIMITED {
            avail.bytes = avail.bytes.saturating_add(n).min(self.capacity.bytes);
        }
    }

    /// A snapshot of the currently available pool
    /// `(states, bytes, slots)`.
    pub fn available(&self) -> (u64, u64, u64) {
        let avail = self.lock();
        (avail.states, avail.bytes, avail.slots)
    }
}

/// A granted reservation; releases its states, bytes, and run slot
/// back to the pool when dropped.
#[derive(Debug)]
pub struct Reservation {
    ledger: Arc<SharedLedger>,
    req: ResourceCert,
}

impl Drop for Reservation {
    fn drop(&mut self) {
        let mut avail = self.ledger.lock();
        if avail.states != UNLIMITED {
            avail.states = avail
                .states
                .saturating_add(self.req.states)
                .min(self.ledger.capacity.states);
        }
        if avail.bytes != UNLIMITED {
            avail.bytes = avail
                .bytes
                .saturating_add(self.req.bytes)
                .min(self.ledger.capacity.bytes);
        }
        if avail.slots != UNLIMITED {
            avail.slots = avail
                .slots
                .saturating_add(1)
                .min(self.ledger.capacity.slots);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn req(states: u64, bytes: u64) -> ResourceCert {
        ResourceCert { states, bytes }
    }

    #[test]
    fn reserve_and_release_round_trips() {
        let ledger = Arc::new(SharedLedger::new(100, 1000, 2));
        let r = ledger.try_reserve(req(40, 400)).unwrap();
        assert_eq!(ledger.available(), (60, 600, 1));
        drop(r);
        assert_eq!(ledger.available(), (100, 1000, 2));
    }

    #[test]
    fn oversubscription_reports_the_shortfall() {
        let ledger = Arc::new(SharedLedger::new(100, 1000, 2));
        let _held = ledger.try_reserve(req(80, 0)).unwrap();
        let short = ledger.try_reserve(req(50, 0)).unwrap_err();
        assert_eq!(short.states, 30);
        assert_eq!(short.bytes, 0);
        assert_eq!(short.slots, 0);
        assert!(short.to_string().contains("30 states"));
        // The failed attempt must not have debited anything.
        assert_eq!(ledger.available(), (20, 1000, 1));
    }

    #[test]
    fn slots_gate_concurrency_even_with_zero_demand() {
        let ledger = Arc::new(SharedLedger::new(UNLIMITED, UNLIMITED, 1));
        let held = ledger.try_reserve(req(0, 0)).unwrap();
        let short = ledger.try_reserve(req(0, 0)).unwrap_err();
        assert_eq!(short.slots, 1);
        drop(held);
        assert!(ledger.try_reserve(req(0, 0)).is_ok());
    }

    #[test]
    fn unlimited_dimensions_are_not_accounted() {
        let ledger = Arc::new(SharedLedger::unlimited());
        let _a = ledger.try_reserve(req(u64::MAX / 2, u64::MAX / 2)).unwrap();
        let _b = ledger.try_reserve(req(u64::MAX / 2, u64::MAX / 2)).unwrap();
        assert_eq!(ledger.available(), (UNLIMITED, UNLIMITED, UNLIMITED));
    }
}

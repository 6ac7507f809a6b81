//! Machine-internal synchronisation: the poisonable superstep barrier and
//! the abort flag that lets a panicking virtual processor wake its peers.
//!
//! `std::sync::Barrier` has no failure story: if one processor panics while
//! its peers are already parked in `wait()`, those peers sleep forever, and
//! so does a peer blocked in a receive while the others keep its channel
//! open.  A panicking processor of a [`crate::CgmMachine`] therefore
//! *actively* wakes everything that is blocked.  Two pieces cooperate:
//!
//! * [`SuperstepBarrier`] — a generation-counting barrier that can be
//!   **poisoned**: `poison(culprit)` wakes every current and future waiter,
//!   which then unwind with an [`AbortPanic`] payload instead of blocking.
//! * [`AbortFlag`] — a machine-wide flag recording which processor panicked
//!   first.  The culprit raises it and then sends every peer an abort
//!   envelope on both planes; a receive that wakes checks the flag (see
//!   `Communicator::recv`), so a processor waiting for a message its dead
//!   peer will never send unwinds at once.
//!
//! Panics caused by the abort protocol carry the [`AbortPanic`] payload so
//! the machine can tell the *root cause* (the processor whose own code
//! panicked) apart from the secondary unwinds it triggered, and report only
//! the former to the caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Panic payload used for the *secondary* panics of the abort protocol:
/// processors that unwind only because a peer died carry this payload, so
/// outcome collection can skip them when attributing the failure.
#[derive(Debug)]
pub(crate) struct AbortPanic {
    /// The processor whose panic triggered the abort.
    pub culprit: usize,
}

/// Unwinds the current virtual processor because `culprit` panicked.
pub(crate) fn abort_unwind(culprit: usize) -> ! {
    std::panic::panic_any(AbortPanic { culprit })
}

/// Best-effort textual rendering of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(a) = payload.downcast_ref::<AbortPanic>() {
        format!("aborted because virtual processor {} panicked", a.culprit)
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Machine-wide "a processor has panicked" flag.
///
/// Encoded in one atomic: `0` means clear, `proc + 1` means processor
/// `proc` panicked.  Only the first trigger wins — later panics are
/// secondary casualties of the abort and keep the original culprit.
#[derive(Debug, Default)]
pub(crate) struct AbortFlag {
    state: AtomicUsize,
}

impl AbortFlag {
    pub(crate) fn new() -> Self {
        AbortFlag::default()
    }

    /// Records that `proc` panicked, unless an earlier panic already did.
    pub(crate) fn trigger(&self, proc: usize) {
        let _ = self
            .state
            .compare_exchange(0, proc + 1, Ordering::AcqRel, Ordering::Acquire);
    }

    /// The first processor that panicked, if any.
    pub(crate) fn culprit(&self) -> Option<usize> {
        match self.state.load(Ordering::Acquire) {
            0 => None,
            n => Some(n - 1),
        }
    }
}

#[derive(Debug, Default)]
struct BarrierState {
    /// Processors currently parked in `wait()`.
    arrived: usize,
    /// Incremented every time a full cohort is released; parked waiters key
    /// off it to tell "my cohort released" from a spurious wakeup.
    generation: u64,
    /// `Some(culprit)` once poisoned; every current and future waiter
    /// returns [`BarrierWait::Poisoned`].
    poisoned: Option<usize>,
}

/// What `wait()` observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BarrierWait {
    /// The whole cohort arrived; proceed with the next superstep.
    Released,
    /// The barrier was poisoned because the given processor panicked.
    Poisoned(usize),
}

/// A reusable, poisonable barrier for `parties` virtual processors.
#[derive(Debug)]
pub(crate) struct SuperstepBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

impl SuperstepBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        SuperstepBarrier {
            parties,
            state: Mutex::new(BarrierState::default()),
            cvar: Condvar::new(),
        }
    }

    /// Parks until all `parties` processors arrive, or until the barrier is
    /// poisoned — whichever happens first.
    pub(crate) fn wait(&self) -> BarrierWait {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(culprit) = state.poisoned {
            return BarrierWait::Poisoned(culprit);
        }
        state.arrived += 1;
        if state.arrived == self.parties {
            state.arrived = 0;
            state.generation = state.generation.wrapping_add(1);
            self.cvar.notify_all();
            return BarrierWait::Released;
        }
        let generation = state.generation;
        loop {
            state = self.cvar.wait(state).unwrap_or_else(|e| e.into_inner());
            if let Some(culprit) = state.poisoned {
                return BarrierWait::Poisoned(culprit);
            }
            if state.generation != generation {
                return BarrierWait::Released;
            }
        }
    }

    /// Poisons the barrier on behalf of `culprit`: every parked waiter wakes
    /// with [`BarrierWait::Poisoned`] and every later `wait()` returns it
    /// immediately.
    pub(crate) fn poison(&self, culprit: usize) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.poisoned.is_none() {
            state.poisoned = Some(culprit);
        }
        self.cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn barrier_releases_full_cohort() {
        let barrier = Arc::new(SuperstepBarrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        assert_eq!(b.wait(), BarrierWait::Released);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn poison_wakes_parked_waiters() {
        let barrier = Arc::new(SuperstepBarrier::new(3));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || b.wait())
            })
            .collect();
        // Give both waiters time to park, then poison instead of arriving.
        std::thread::sleep(std::time::Duration::from_millis(20));
        barrier.poison(7);
        for w in waiters {
            assert_eq!(w.join().unwrap(), BarrierWait::Poisoned(7));
        }
        // Still poisoned for late arrivals, under the first culprit.
        barrier.poison(1);
        assert_eq!(barrier.wait(), BarrierWait::Poisoned(7));
    }

    #[test]
    fn abort_flag_first_trigger_wins() {
        let flag = AbortFlag::new();
        assert_eq!(flag.culprit(), None);
        flag.trigger(3);
        flag.trigger(5);
        assert_eq!(flag.culprit(), Some(3));
    }
}

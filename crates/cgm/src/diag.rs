//! Thread-local startup counters: how many channel fabrics were built and
//! how many worker threads were spawned *by the current thread*.
//!
//! The point of a `cgp-core` permutation session is that steady-state work
//! makes **zero** thread spawns and **zero** fabric constructions: the
//! session builds one [`crate::LoopbackCgm`] and spawns its `t − 1` helper
//! threads once.  These counters make that property testable: snapshot,
//! run the steady-state loop, snapshot again, assert the deltas are zero.
//!
//! The counters are thread-local on purpose.  Every fabric construction and
//! every worker spawn happens on the thread that *submits* the work (the
//! one-shot machine builds its fabric and spawns its scoped threads from the
//! caller; a session spawns its helpers when it is opened), so a test
//! observes exactly its own activity — concurrent tests on other threads
//! cannot perturb the deltas.
//!
//! ```
//! use cgp_cgm::{diag, CgmConfig, CgmMachine, LoopbackCgm, ProcCtx};
//!
//! let before = diag::startup_counters();
//! let mut machine: LoopbackCgm<u64> = LoopbackCgm::new(CgmConfig::new(2)); // builds here
//! let after_build = diag::startup_counters();
//! assert_eq!(after_build.fabric_builds, before.fabric_builds + 1);
//! for _ in 0..10 {
//!     for ctx in machine.contexts() {
//!         ctx.comm_mut().barrier(); // played on this thread: no spawn
//!     }
//! }
//! assert_eq!(diag::startup_counters(), after_build);
//!
//! CgmMachine::with_procs(2).run(|ctx: &mut ProcCtx<u64>| ctx.id());
//! let after = diag::startup_counters();
//! assert_eq!(after.fabric_builds, after_build.fabric_builds + 1);
//! assert_eq!(after.thread_spawns, after_build.thread_spawns + 2);
//! ```

use std::cell::Cell;

thread_local! {
    static FABRIC_BUILDS: Cell<u64> = const { Cell::new(0) };
    static THREAD_SPAWNS: Cell<u64> = const { Cell::new(0) };
}

pub(crate) fn note_fabric_build() {
    FABRIC_BUILDS.with(|c| c.set(c.get() + 1));
}

/// Counts one worker-thread spawn on the current thread.  The one-shot
/// machine calls it per processor thread; a runner outside this crate that
/// spawns its own helper threads calls it per helper, so the counters see
/// every spawn.
pub fn note_thread_spawn() {
    THREAD_SPAWNS.with(|c| c.set(c.get() + 1));
}

/// A snapshot of the current thread's cumulative startup activity.
///
/// Both counters are monotone; tests compare two snapshots and look at the
/// difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartupCounters {
    /// Channel fabrics (the all-pairs sender/receiver sets of both planes
    /// plus barrier and abort flag) built by this thread so far.
    pub fabric_builds: u64,
    /// Worker threads spawned by this thread so far: the one-shot machine's
    /// scoped threads and the helpers of `cgp-core`'s runs.
    pub thread_spawns: u64,
}

/// Reads the current thread's startup counters.
pub fn startup_counters() -> StartupCounters {
    StartupCounters {
        fabric_builds: FABRIC_BUILDS.with(Cell::get),
        thread_spawns: THREAD_SPAWNS.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_thread_local() {
        let before = startup_counters();
        note_fabric_build();
        note_thread_spawn();
        note_thread_spawn();
        let after = startup_counters();
        assert_eq!(after.fabric_builds, before.fabric_builds + 1);
        assert_eq!(after.thread_spawns, before.thread_spawns + 2);
        // Another thread's activity is invisible here.
        std::thread::spawn(|| {
            note_fabric_build();
            note_thread_spawn();
        })
        .join()
        .unwrap();
        assert_eq!(startup_counters(), after);
    }
}

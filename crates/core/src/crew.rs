//! The helper threads a run of Algorithm 1 plays its data phases on.
//!
//! A run plays its `p` virtual processors on `t` threads: the calling
//! thread and the `t − 1` helpers of a [`Crew`] (see the `parallel` module
//! docs).  A helper parks in a blocking receive between phases, so an idle
//! crew costs no CPU, and a crew is built once per session: a steady-state
//! call spawns nothing.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use cgp_cgm::{diag, CgmError};

/// `t − 1` parked helper threads.
pub(crate) struct Crew {
    helpers: Vec<Helper>,
}

struct Helper {
    tasks: Sender<Task>,
    done: Receiver<()>,
    thread: JoinHandle<()>,
}

/// One part of a phase, handed to a helper: the phase body, its lifetime
/// erased (see [`Crew::run`]), and the index of the part to play.
struct Task {
    body: &'static (dyn Fn(usize) + Sync),
    part: usize,
}

impl Crew {
    /// A crew of `threads − 1` helpers (none for `threads ≤ 1`).  A helper
    /// the OS refuses comes back as [`CgmError::WorkerSpawnFailed`], naming
    /// the first processor of its part when `p` processors are split over
    /// `threads`; the helpers spawned before it are joined.
    pub(crate) fn new(threads: usize, procs: usize) -> Result<Self, CgmError> {
        let mut crew = Crew {
            helpers: Vec::with_capacity(threads.saturating_sub(1)),
        };
        for part in 1..threads {
            let (tasks, inbox) = channel();
            let (finished, done) = channel();
            let thread = std::thread::Builder::new()
                .name(format!("cgp-helper-{part}"))
                .spawn(move || serve(inbox, finished))
                .map_err(|e| CgmError::WorkerSpawnFailed {
                    proc: part * procs / threads,
                    message: e.to_string(),
                })?;
            diag::note_thread_spawn();
            crew.helpers.push(Helper {
                tasks,
                done,
                thread,
            });
        }
        Ok(crew)
    }

    /// `t`: the helpers plus the calling thread.
    pub(crate) fn threads(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Calls `body(k)` once for every part `k` in `0..threads()`: part 0 on
    /// the calling thread, part `k` on helper `k`, all at once.  Returns
    /// when every call has returned; a part whose helper is gone runs on
    /// the calling thread after the others.  A panic in `body` on a helper
    /// is caught there and lost, so `body` reports its failures itself.
    pub(crate) fn run(&self, body: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the `'static` borrow never outlives this call.  A helper
        // drops it before it reports `done`, and `Join` waits for every
        // helper's report (or its exit) before this returns or unwinds.
        let shared: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let mut orphans = Vec::new();
        {
            let _join = Join(&self.helpers);
            for (k, helper) in self.helpers.iter().enumerate() {
                let task = Task {
                    body: shared,
                    part: k + 1,
                };
                if helper.tasks.send(task).is_err() {
                    orphans.push(k + 1);
                }
            }
            body(0);
        }
        orphans.into_iter().for_each(body);
    }
}

/// Waits, on drop, until every helper reported its part done or exited.
struct Join<'a>(&'a [Helper]);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        for helper in self.0 {
            // `Err`: the helper exited, so it holds no task.
            let _ = helper.done.recv();
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        // Dropping a helper's task sender ends its loop; then join it.
        let threads: Vec<JoinHandle<()>> = self.helpers.drain(..).map(|h| h.thread).collect();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// A helper's loop: plays each part it is handed and reports it done,
/// until the crew is dropped.
fn serve(inbox: Receiver<Task>, finished: Sender<()>) {
    while let Ok(Task { body, part }) = inbox.recv() {
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| body(part)));
        if finished.send(()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn every_part_runs_once_on_its_own_thread() {
        for threads in 1..=4 {
            let crew = Crew::new(threads, 8).unwrap();
            assert_eq!(crew.threads(), threads);
            for _ in 0..3 {
                let seen: Vec<Mutex<Vec<std::thread::ThreadId>>> =
                    (0..threads).map(|_| Mutex::new(Vec::new())).collect();
                crew.run(&|k| seen[k].lock().unwrap().push(std::thread::current().id()));
                let ids: Vec<_> = seen.into_iter().map(|m| m.into_inner().unwrap()).collect();
                assert!(ids.iter().all(|v| v.len() == 1), "{ids:?}");
                assert_eq!(ids[0][0], std::thread::current().id());
                let distinct: std::collections::HashSet<_> = ids.iter().map(|v| v[0]).collect();
                assert_eq!(distinct.len(), threads);
            }
        }
    }

    #[test]
    fn a_panicking_part_still_joins_and_the_crew_goes_on() {
        let crew = Crew::new(3, 3).unwrap();
        let ran = AtomicUsize::new(0);
        crew.run(&|k| {
            ran.fetch_add(1, Ordering::SeqCst);
            if k == 2 {
                panic!("a part fails on its helper");
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        crew.run(&|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn helpers_are_counted_and_reused() {
        let before = diag::startup_counters();
        let crew = Crew::new(3, 5).unwrap();
        let built = diag::startup_counters();
        assert_eq!(built.thread_spawns, before.thread_spawns + 2);
        for _ in 0..10 {
            crew.run(&|_| {});
        }
        assert_eq!(diag::startup_counters(), built);
        drop(crew);
    }
}

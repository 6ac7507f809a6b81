//! The waker-based completion core behind [`JobTicket`].
//!
//! A submitted job and its ticket share one [`Completion`] cell.  The
//! executor that finishes the job **completes** the cell exactly once;
//! the ticket side redeems it.  What makes the core *waker-based* is that
//! the completing thread always knows who (if anyone) is waiting and wakes
//! them directly — there is **no poll loop anywhere in the path**:
//!
//! * a thread blocked in [`JobTicket::wait`] / [`JobTicket::wait_timeout`]
//!   sleeps on the cell's `Condvar` and is woken by the completer
//!   (Condvar-on-state: the predicate is re-checked under the same mutex
//!   that the completer sets it under, so a wake is never missed and a
//!   sleep is never spurious-looped against a ready outcome);
//! * a callback armed with [`JobTicket::on_complete`] is invoked by the
//!   completing thread itself (or inline, when the job already finished);
//! * a ticket parked in a [`CompletionSet`] pushes its key onto the set's
//!   ready list and wakes the set's `Condvar` — one blocking wait
//!   multiplexing any number of in-flight tickets, select-style.
//!
//! Dropping the producer half without completing (an executor dying
//! abnormally mid-job) completes the cell with
//! [`ServiceError::ShutDown`], so a ticket can never hang on a job the
//! service will no longer serve — the same guarantee the old
//! channel-disconnect path gave, now explicit.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use super::{JobOutcome, ServiceError};
use crate::parallel::PermutationReport;

/// Who to wake when the outcome lands.
enum Waker<T> {
    /// Nobody is waiting yet; `wait`/`wait_timeout` sleepers are covered by
    /// the cell's `Condvar` and need no registration.
    None,
    /// Run this callback on the completing thread, handing it the outcome.
    Callback(Box<dyn FnOnce(JobOutcome<T>) + Send>),
    /// Push `key` onto the set's ready list and wake its `Condvar`.
    Set { shared: Arc<SetShared>, key: u64 },
}

struct CompletionState<T> {
    outcome: Option<JobOutcome<T>>,
    waker: Waker<T>,
}

/// The shared cell between one job and its ticket.
pub(crate) struct Completion<T> {
    state: Mutex<CompletionState<T>>,
    /// Wakes `wait`/`wait_timeout` sleepers (Condvar-on-`outcome`).
    done: Condvar,
}

impl<T> Completion<T> {
    fn lock(&self) -> MutexGuard<'_, CompletionState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sets the outcome and wakes whoever is waiting.  Callbacks run on
    /// the calling (completing) thread, outside the cell's lock.
    fn complete(&self, outcome: JobOutcome<T>) {
        let mut st = self.lock();
        if st.outcome.is_some() {
            return; // already completed (defensive; completers are unique)
        }
        match std::mem::replace(&mut st.waker, Waker::None) {
            Waker::None => {
                st.outcome = Some(outcome);
                drop(st);
                self.done.notify_all();
            }
            Waker::Callback(callback) => {
                drop(st);
                callback(outcome);
            }
            Waker::Set { shared, key } => {
                st.outcome = Some(outcome);
                drop(st);
                shared.push_ready(key);
            }
        }
    }
}

/// Creates one job↔ticket completion pair.
pub(crate) fn completion_pair<T>(
    job_id: u64,
    tenant: usize,
) -> (CompletionHandle<T>, JobTicket<T>) {
    let cell = Arc::new(Completion {
        state: Mutex::new(CompletionState {
            outcome: None,
            waker: Waker::None,
        }),
        done: Condvar::new(),
    });
    (
        CompletionHandle {
            cell: Arc::clone(&cell),
            completed: false,
        },
        JobTicket {
            cell,
            job_id,
            tenant,
        },
    )
}

/// The producer half: completes the cell exactly once.  Dropping it
/// uncompleted completes with [`ServiceError::ShutDown`] so the ticket
/// never hangs.
pub(crate) struct CompletionHandle<T> {
    cell: Arc<Completion<T>>,
    completed: bool,
}

impl<T> CompletionHandle<T> {
    /// Delivers the job's outcome, waking the ticket side.
    pub(crate) fn complete(mut self, outcome: JobOutcome<T>) {
        self.completed = true;
        self.cell.complete(outcome);
    }
}

impl<T> Drop for CompletionHandle<T> {
    fn drop(&mut self) {
        if !self.completed {
            self.cell.complete(Err(ServiceError::ShutDown));
        }
    }
}

// Manual impl so `T` need not be `Debug`.
impl<T> std::fmt::Debug for CompletionHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionHandle")
            .field("completed", &self.completed)
            .finish()
    }
}

/// A claim on one submitted job.
///
/// Redeem it blocking ([`JobTicket::wait`], [`JobTicket::wait_timeout`]),
/// non-blocking ([`JobTicket::try_wait`], [`JobTicket::is_done`]), as a
/// callback ([`JobTicket::on_complete`]), or through a [`CompletionSet`]
/// that multiplexes many tickets in one wait.  All of them ride the same
/// waker-based completion cell — no wait in this module ever spins or
/// polls.
///
/// Tickets are `Send`, so a job can be submitted on one thread and awaited
/// on another.  Dropping a ticket abandons the result (the job still runs
/// and is metered).
pub struct JobTicket<T> {
    cell: Arc<Completion<T>>,
    pub(crate) job_id: u64,
    pub(crate) tenant: usize,
}

// Manual impl so `T` (and the cell's callback box) need not be `Debug`.
impl<T> std::fmt::Debug for JobTicket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("job_id", &self.job_id)
            .field("tenant", &self.tenant)
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> JobTicket<T> {
    /// Whether the job has already completed (successfully or not): a
    /// non-consuming, non-blocking probe.  A `true` means the matching
    /// [`JobTicket::wait`]/[`JobTicket::try_wait`] returns immediately.
    pub fn is_done(&self) -> bool {
        self.cell.lock().outcome.is_some()
    }

    /// Blocks until the job completes, yielding the permuted vector and its
    /// run report — or the error that felled it: a contained
    /// [`ServiceError::JobFailed`] panic, a shed
    /// [`ServiceError::DeadlineExceeded`] deadline, or
    /// [`ServiceError::ShutDown`] if the service died before serving the
    /// job (not reachable through a clean shutdown, which drains the queue
    /// first).  The wait parks on the completion cell's condition variable;
    /// the completing executor wakes it directly.
    pub fn wait(self) -> Result<(Vec<T>, PermutationReport), ServiceError> {
        let mut st = self.cell.lock();
        while st.outcome.is_none() {
            st = self.cell.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.outcome.take().expect("loop exited on Some")
    }

    /// Non-blocking poll: the job's outcome if it already completed, or
    /// the ticket handed back (`Err`) while the job is still in flight —
    /// no parking, ever.
    ///
    /// ```
    /// use cgp_core::Permuter;
    ///
    /// let permuter = Permuter::new(2).seed(9);
    /// let service = permuter.service::<u64>();
    /// let handle = service.handle();
    /// let mut ticket = handle.submit((0..64u64).collect()).unwrap();
    /// // Poll; do other work (here: yield) while the job is in flight.
    /// let (out, _report) = loop {
    ///     match ticket.try_wait() {
    ///         Ok(outcome) => break outcome.unwrap(),
    ///         Err(in_flight) => {
    ///             ticket = in_flight;
    ///             std::thread::yield_now();
    ///         }
    ///     }
    /// };
    /// assert_eq!(out.len(), 64);
    /// service.shutdown();
    /// ```
    pub fn try_wait(self) -> Result<Result<(Vec<T>, PermutationReport), ServiceError>, Self> {
        let outcome = self.cell.lock().outcome.take();
        match outcome {
            Some(outcome) => Ok(outcome),
            None => Err(self),
        }
    }

    /// Bounded wait: parks for at most `timeout` on the completion cell's
    /// condition variable, then hands the ticket back (`Err`) if the job
    /// is still in flight.  A completion arriving mid-wait wakes the
    /// sleeper immediately — the full timeout is only ever slept when the
    /// job genuinely takes that long.
    ///
    /// ```
    /// use cgp_core::Permuter;
    /// use std::time::Duration;
    ///
    /// let permuter = Permuter::new(2).seed(9);
    /// let service = permuter.service::<u64>();
    /// let handle = service.handle();
    /// let ticket = handle.submit((0..64u64).collect()).unwrap();
    /// match ticket.wait_timeout(Duration::from_secs(30)) {
    ///     Ok(outcome) => assert_eq!(outcome.unwrap().0.len(), 64),
    ///     Err(still_in_flight) => {
    ///         // Timed out: the ticket is handed back; keep waiting.
    ///         still_in_flight.wait().unwrap();
    ///     }
    /// }
    /// service.shutdown();
    /// ```
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<(Vec<T>, PermutationReport), ServiceError>, Self> {
        let deadline = Instant::now() + timeout;
        let mut st = self.cell.lock();
        loop {
            if let Some(outcome) = st.outcome.take() {
                return Ok(outcome);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                drop(st);
                return Err(self);
            }
            let (guard, _timed_out) = self
                .cell
                .done
                .wait_timeout(st, left)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Arms a completion callback, consuming the ticket: `callback` runs
    /// with the job's outcome **on the completing executor thread** when
    /// the job finishes — or inline on the calling thread, if it already
    /// has.  This is the push-style (async) completion path: no thread
    /// blocks, results stream out the moment they exist (the wire server
    /// uses exactly this to write result frames as tickets complete).
    ///
    /// The callback must be quick and must not block on other service
    /// results (it runs on the thread that serves them).
    ///
    /// ```
    /// use cgp_core::Permuter;
    /// use std::sync::mpsc;
    ///
    /// let permuter = Permuter::new(2).seed(9);
    /// let service = permuter.service::<u64>();
    /// let handle = service.handle();
    /// let (tx, rx) = mpsc::channel();
    /// handle
    ///     .submit((0..64u64).collect())
    ///     .unwrap()
    ///     .on_complete(move |outcome| {
    ///         tx.send(outcome.map(|(data, _report)| data.len())).unwrap()
    ///     });
    /// assert_eq!(rx.recv().unwrap().unwrap(), 64);
    /// service.shutdown();
    /// ```
    pub fn on_complete<F>(self, callback: F)
    where
        F: FnOnce(Result<(Vec<T>, PermutationReport), ServiceError>) + Send + 'static,
    {
        let mut st = self.cell.lock();
        if let Some(outcome) = st.outcome.take() {
            drop(st);
            callback(outcome);
            return;
        }
        st.waker = Waker::Callback(Box::new(callback));
    }

    /// Service-wide sequence number of this job (admission order).
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// The tenant (handle lineage) that submitted this job.
    pub fn tenant(&self) -> usize {
        self.tenant
    }
}

// ---------------------------------------------------------------------------
// CompletionSet
// ---------------------------------------------------------------------------

/// The ready list shared by a [`CompletionSet`] and its registered tickets.
pub(crate) struct SetShared {
    ready: Mutex<VecDeque<u64>>,
    wake: Condvar,
}

impl SetShared {
    fn push_ready(&self, key: u64) {
        self.ready
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(key);
        self.wake.notify_all();
    }
}

/// A select-style multiplexer over many in-flight [`JobTicket`]s: one
/// blocking wait that resolves whichever job finishes first, in completion
/// order.
///
/// Each inserted ticket registers a waker on its completion cell; the
/// completing executor pushes the ticket's key onto the set's ready list
/// and wakes the set.  [`CompletionSet::wait_any`] therefore sleeps on a
/// single condition variable however many jobs are outstanding — no
/// polling, no per-ticket threads, no ordering assumption.
///
/// ```
/// use cgp_core::{CompletionSet, Permuter};
///
/// let permuter = Permuter::new(2).seed(9);
/// let service = permuter.service::<u64>();
/// let handle = service.handle();
/// let mut set = CompletionSet::new();
/// for _ in 0..4 {
///     set.insert(handle.submit((0..64u64).collect()).unwrap());
/// }
/// // Resolve all four in whatever order they complete.
/// let mut seen = 0;
/// while let Some((key, outcome)) = set.wait_any() {
///     assert_eq!(outcome.unwrap().0.len(), 64);
///     assert!(key < 4, "keys are insertion-ordered");
///     seen += 1;
/// }
/// assert_eq!(seen, 4);
/// service.shutdown();
/// ```
pub struct CompletionSet<T> {
    shared: Arc<SetShared>,
    pending: HashMap<u64, JobTicket<T>>,
    next_key: u64,
}

impl<T> Default for CompletionSet<T> {
    fn default() -> Self {
        CompletionSet::new()
    }
}

impl<T> CompletionSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        CompletionSet {
            shared: Arc::new(SetShared {
                ready: Mutex::new(VecDeque::new()),
                wake: Condvar::new(),
            }),
            pending: HashMap::new(),
            next_key: 0,
        }
    }

    /// Adds a ticket to the set, returning the **key** later handed back by
    /// [`CompletionSet::wait_any`] (keys are assigned in insertion order,
    /// starting at 0).  A ticket whose job already completed is immediately
    /// ready.
    pub fn insert(&mut self, ticket: JobTicket<T>) -> u64 {
        let key = self.next_key;
        self.next_key += 1;
        {
            let mut st = ticket.cell.lock();
            if st.outcome.is_some() {
                // Already done: straight onto the ready list.
                self.shared.push_ready(key);
            } else {
                st.waker = Waker::Set {
                    shared: Arc::clone(&self.shared),
                    key,
                };
            }
        }
        self.pending.insert(key, ticket);
        key
    }

    /// Tickets inserted but not yet resolved by a `wait_any` call.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether every inserted ticket has been resolved.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    fn resolve(&mut self, key: u64) -> (u64, JobOutcome<T>) {
        let ticket = self
            .pending
            .remove(&key)
            .expect("a ready key always has a pending ticket");
        let outcome = ticket
            .cell
            .lock()
            .outcome
            .take()
            .expect("a ready ticket has its outcome set");
        (key, outcome)
    }

    /// Blocks until **any** registered job completes, returning its key and
    /// outcome; `None` once the set is empty (every ticket resolved).  Jobs
    /// resolve in completion order, not insertion order.
    pub fn wait_any(&mut self) -> Option<(u64, JobOutcome<T>)> {
        if self.pending.is_empty() {
            return None;
        }
        let mut ready = self.shared.ready.lock().unwrap_or_else(|e| e.into_inner());
        let key = loop {
            if let Some(key) = ready.pop_front() {
                break key;
            }
            ready = self
                .shared
                .wake
                .wait(ready)
                .unwrap_or_else(|e| e.into_inner());
        };
        drop(ready);
        Some(self.resolve(key))
    }

    /// Bounded [`CompletionSet::wait_any`]: parks for at most `timeout`,
    /// returning `None` when the set is empty **or** no job completed in
    /// time (check [`CompletionSet::is_empty`] to tell the cases apart).
    pub fn wait_any_timeout(&mut self, timeout: Duration) -> Option<(u64, JobOutcome<T>)> {
        if self.pending.is_empty() {
            return None;
        }
        let deadline = Instant::now() + timeout;
        let mut ready = self.shared.ready.lock().unwrap_or_else(|e| e.into_inner());
        let key = loop {
            if let Some(key) = ready.pop_front() {
                break key;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _timed_out) = self
                .shared
                .wake
                .wait_timeout(ready, left)
                .unwrap_or_else(|e| e.into_inner());
            ready = guard;
        };
        drop(ready);
        Some(self.resolve(key))
    }
}

impl<T> std::fmt::Debug for CompletionSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSet")
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    fn dummy_outcome(len: usize) -> JobOutcome<u64> {
        // pub(crate) fields make a literal possible here; the report's
        // contents are irrelevant to completion plumbing.
        Ok((
            vec![0u64; len],
            PermutationReport {
                backend: crate::MatrixBackend::Sequential,
                matrix_elapsed: Duration::ZERO,
                exchange_elapsed: Duration::ZERO,
                shuffle_elapsed: Duration::ZERO,
                matrix_metrics: Default::default(),
                exchange_metrics: Default::default(),
                matrix: None,
                total_elapsed: Duration::ZERO,
            },
        ))
    }

    #[test]
    fn wait_blocks_until_completed_and_wakes_promptly() {
        let (handle, ticket) = completion_pair::<u64>(0, 0);
        assert!(!ticket.is_done());
        let completer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            handle.complete(dummy_outcome(3));
        });
        let started = Instant::now();
        let (data, _) = ticket.wait().unwrap();
        assert_eq!(data.len(), 3);
        assert!(started.elapsed() >= Duration::from_millis(45));
        completer.join().unwrap();
    }

    #[test]
    fn wait_timeout_sleeps_vs_wakes_deterministically() {
        // The acceptance soak for "no poll loops": an uncompleted wait
        // honours its timeout (sleeps), a completed one returns promptly
        // (wakes) — over many rounds, with the completer racing the waiter.
        for round in 0..200u64 {
            let (handle, ticket) = completion_pair::<u64>(round, 0);
            if round % 2 == 0 {
                // Sleep case: nobody completes; the full (short) timeout
                // elapses and the ticket is handed back.
                let started = Instant::now();
                let ticket = ticket
                    .wait_timeout(Duration::from_millis(2))
                    .expect_err("uncompleted ticket must time out");
                assert!(started.elapsed() >= Duration::from_millis(2));
                handle.complete(dummy_outcome(1));
                ticket.wait().unwrap();
            } else {
                // Wake case: a concurrent completer must cut a long wait
                // short — if the wait polled instead of parking, this soak
                // would burn seconds; if it missed wakes, it would sleep
                // the full 30s timeout and the suite would hang.
                let completer = std::thread::spawn(move || handle.complete(dummy_outcome(2)));
                let started = Instant::now();
                ticket
                    .wait_timeout(Duration::from_secs(30))
                    .expect("completed ticket must not time out")
                    .unwrap();
                assert!(started.elapsed() < Duration::from_secs(5));
                completer.join().unwrap();
            }
        }
    }

    #[test]
    fn try_wait_never_blocks() {
        let (handle, ticket) = completion_pair::<u64>(0, 0);
        let ticket = ticket.try_wait().expect_err("still in flight");
        handle.complete(dummy_outcome(2));
        assert!(ticket.is_done());
        let (data, _) = ticket.try_wait().expect("completed").unwrap();
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn on_complete_runs_on_the_completing_thread_or_inline() {
        // Armed before completion: the callback runs on the completer.
        let (handle, ticket) = completion_pair::<u64>(0, 0);
        let (tx, rx) = std::sync::mpsc::channel();
        ticket.on_complete(move |outcome| {
            tx.send((std::thread::current().id(), outcome.unwrap().0.len()))
                .unwrap();
        });
        let completer = std::thread::spawn(move || {
            let me = std::thread::current().id();
            handle.complete(dummy_outcome(5));
            me
        });
        let completer_id = completer.join().unwrap();
        let (ran_on, len) = rx.recv().unwrap();
        assert_eq!(ran_on, completer_id);
        assert_eq!(len, 5);

        // Armed after completion: the callback runs inline, immediately.
        let (handle, ticket) = completion_pair::<u64>(1, 0);
        handle.complete(dummy_outcome(7));
        let ran = Arc::new(AtomicBool::new(false));
        let ran_clone = Arc::clone(&ran);
        ticket.on_complete(move |outcome| {
            assert_eq!(outcome.unwrap().0.len(), 7);
            ran_clone.store(true, Ordering::SeqCst);
        });
        assert!(
            ran.load(Ordering::SeqCst),
            "inline callback ran before return"
        );
    }

    #[test]
    fn dropping_the_producer_half_completes_with_shutdown() {
        let (handle, ticket) = completion_pair::<u64>(0, 0);
        drop(handle);
        assert_eq!(ticket.wait().unwrap_err(), ServiceError::ShutDown);
    }

    #[test]
    fn completion_set_resolves_in_completion_order() {
        let mut set = CompletionSet::new();
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let (handle, ticket) = completion_pair::<u64>(i, 0);
            let key = set.insert(ticket);
            assert_eq!(key, i);
            handles.push(handle);
        }
        assert_eq!(set.len(), 4);
        // Complete out of insertion order: 2, 0, 3, 1.
        for &i in &[2usize, 0, 3, 1] {
            handles.remove(i.min(handles.len() - 1));
        }
        // (handles dropped => ShutDown outcomes; order of drops above is
        // what wait_any must reproduce — but Vec::remove reshuffles, so
        // just assert all four resolve.)
        let mut keys = Vec::new();
        while let Some((key, outcome)) = set.wait_any() {
            assert!(outcome.is_err());
            keys.push(key);
        }
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3]);
        assert!(set.is_empty());
        assert!(set.wait_any().is_none());
    }

    #[test]
    fn completion_set_wait_any_wakes_on_late_completion() {
        let mut set = CompletionSet::new();
        let (handle, ticket) = completion_pair::<u64>(0, 0);
        let key = set.insert(ticket);
        let completer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            handle.complete(dummy_outcome(9));
        });
        let started = Instant::now();
        let (got, outcome) = set.wait_any().expect("one ticket pending");
        assert_eq!(got, key);
        assert_eq!(outcome.unwrap().0.len(), 9);
        assert!(started.elapsed() >= Duration::from_millis(35));
        assert!(started.elapsed() < Duration::from_secs(5));
        completer.join().unwrap();
    }

    #[test]
    fn completion_set_timeout_hands_back_nothing_but_keeps_pending() {
        let mut set = CompletionSet::new();
        let (handle, ticket) = completion_pair::<u64>(0, 0);
        set.insert(ticket);
        let started = Instant::now();
        assert!(set.wait_any_timeout(Duration::from_millis(5)).is_none());
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert_eq!(set.len(), 1, "timeout does not resolve the ticket");
        handle.complete(dummy_outcome(1));
        assert!(set.wait_any_timeout(Duration::from_secs(5)).is_some());
        assert!(set.is_empty());
    }

    #[test]
    fn already_completed_tickets_are_immediately_ready_in_a_set() {
        let (handle, ticket) = completion_pair::<u64>(0, 0);
        handle.complete(dummy_outcome(4));
        let mut set = CompletionSet::new();
        let key = set.insert(ticket);
        let (got, outcome) = set
            .wait_any_timeout(Duration::from_millis(1))
            .expect("pre-completed ticket is ready without any wait");
        assert_eq!(got, key);
        assert_eq!(outcome.unwrap().0.len(), 4);
    }
}

//! Point-to-point communication between virtual processors.
//!
//! Each processor owns a [`Communicator`]: its endpoint of one in-process
//! channel plane plus a small mailbox that re-orders messages by sender.
//! Semantics mirror what the paper's SSCRAP/MPI substrate provides:
//!
//! * messages between a fixed (sender, receiver) pair arrive in sending
//!   order;
//! * a receive names the sender and a tag and blocks until the matching
//!   message arrives;
//! * an **all-to-all exchange** ([`Communicator::all_to_all`]) realises the
//!   h-relation of one superstep: every processor hands over one outgoing
//!   vector per peer and receives one incoming vector per peer;
//! * every word and message is metered into [`ProcMetrics`].
//!
//! Self-sends never touch the channels: the payload is moved locally (but
//! still counted as volume, since the paper's accounting counts the data a
//! processor has to touch, not only what crosses the network).
//!
//! Payloads are **moved, never cloned**: `send` takes the `Vec<T>` by
//! value, the envelope carries it through a channel, and `recv` hands the
//! same allocation back.  The meters count the moved words
//! (`words_sent`/`words_received` are payload lengths), which is what makes
//! the simulator's volume figures comparable to the paper's bandwidth
//! accounting.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::channel::{Endpoint, Envelope};
use crate::metrics::ProcMetrics;
use crate::sync::{abort_unwind, AbortFlag, BarrierWait, SuperstepBarrier};

/// The per-processor communication endpoint.
pub struct Communicator<T> {
    id: usize,
    procs: usize,
    /// This processor's endpoint of its plane; everything that moves
    /// between processors goes through it.
    endpoint: Endpoint<T>,
    /// Messages that arrived but have not been asked for yet, grouped by
    /// sender (the channels preserve per-sender FIFO order).
    mailbox: Vec<VecDeque<Envelope<T>>>,
    /// Payloads this processor sent to itself, by tag order.
    self_queue: VecDeque<Envelope<T>>,
    barrier: Arc<SuperstepBarrier>,
    abort: Arc<AbortFlag>,
    /// Set on a [`crate::LoopbackCgm`]'s contexts, which all run on one
    /// thread: a receive never waits, and panics if its message has not
    /// been sent yet.
    loopback: bool,
    metrics: ProcMetrics,
}

impl<T: Send> Communicator<T> {
    pub(crate) fn new(
        id: usize,
        procs: usize,
        endpoint: Endpoint<T>,
        barrier: Arc<SuperstepBarrier>,
        abort: Arc<AbortFlag>,
        loopback: bool,
    ) -> Self {
        Communicator {
            id,
            procs,
            endpoint,
            mailbox: (0..procs).map(|_| VecDeque::new()).collect(),
            self_queue: VecDeque::new(),
            barrier,
            abort,
            loopback,
            metrics: ProcMetrics::default(),
        }
    }

    /// This processor's id in `0..p`.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The number of processors `p` of the machine.
    #[inline]
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Sends `payload` to processor `to` under `tag`.
    ///
    /// Sending to oneself is allowed and does not use the channels.
    ///
    /// # Panics
    /// Panics if `to` is out of range or the destination processor has
    /// already terminated, which indicates a bug in the algorithm's
    /// superstep structure.
    pub fn send(&mut self, to: usize, tag: u64, payload: Vec<T>) {
        assert!(to < self.procs, "send to processor {to} of {}", self.procs);
        self.metrics.words_sent += payload.len() as u64;
        if to == self.id {
            self.self_queue.push_back(Envelope {
                from: self.id,
                tag,
                payload,
            });
            return;
        }
        self.metrics.messages_sent += 1;
        self.endpoint
            .send(
                to,
                Envelope {
                    from: self.id,
                    tag,
                    payload,
                },
            )
            .unwrap_or_else(|_| panic!("processor {to} terminated before receiving a message"));
    }

    /// Receives the next message from processor `from` with the given `tag`,
    /// blocking until it arrives.
    ///
    /// # Panics
    /// Panics if the tag of the next message from `from` does not match
    /// `tag` (the superstep structure of every algorithm in this workspace
    /// guarantees matched tags), or if `from` terminated without sending.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<T> {
        assert!(
            from < self.procs,
            "recv from processor {from} of {}",
            self.procs
        );
        let envelope = if from == self.id {
            self.self_queue
                .pop_front()
                .expect("processor tried to receive a self-message it never sent")
        } else {
            self.take_from(from)
        };
        assert_eq!(
            envelope.tag, tag,
            "processor {}: message from {} carries tag {} but {} was expected",
            self.id, from, envelope.tag, tag
        );
        self.metrics.messages_received += u64::from(from != self.id);
        self.metrics.words_received += envelope.payload.len() as u64;
        envelope.payload
    }

    /// Pulls messages off the endpoint until one from `from` is available.
    ///
    /// The wait blocks, and an abort wakes it: a processor whose code
    /// panics on a [`crate::CgmMachine`] raises the machine's abort flag and
    /// then sends every peer an empty envelope ([`Communicator::wake_peers`]).
    /// Whatever arrives, this receive checks the flag first and unwinds
    /// (with the secondary [`crate::sync::AbortPanic`] payload) once it is
    /// raised, instead of sleeping forever on a message that will never be
    /// sent.
    fn take_from(&mut self, from: usize) -> Envelope<T> {
        if let Some(env) = self.mailbox[from].pop_front() {
            return env;
        }
        loop {
            let env = if self.loopback {
                self.endpoint.try_recv().unwrap_or_else(|_| {
                    panic!(
                        "processor {} received from {from} before {from} sent: a serial \
                         replay must run each phase on the processors in id order",
                        self.id
                    )
                })
            } else {
                self.endpoint.recv().unwrap_or_else(|_| {
                    panic!(
                        "all peers terminated while processor {} waited for a message from {from}",
                        self.id
                    )
                })
            };
            if let Some(culprit) = self.abort.culprit() {
                abort_unwind(culprit);
            }
            if env.from == from {
                return env;
            }
            self.mailbox[env.from].push_back(env);
        }
    }

    /// Wakes every peer blocked in a receive on this plane: sends each one
    /// an empty envelope, which the peer reads as an abort once the
    /// machine's abort flag is raised (see [`Communicator::take_from`]).  A
    /// peer that has already finished is skipped.
    pub(crate) fn wake_peers(&self) {
        for to in (0..self.procs).filter(|&to| to != self.id) {
            let _ = self.endpoint.send(
                to,
                Envelope {
                    from: self.id,
                    tag: 0,
                    payload: Vec::new(),
                },
            );
        }
    }

    /// Performs one all-to-all exchange (the h-relation of a superstep).
    ///
    /// `outgoing[j]` is the payload destined for processor `j` (the entry for
    /// this processor itself is delivered locally).  Returns `incoming` where
    /// `incoming[i]` is the payload received from processor `i`.
    ///
    /// # Panics
    /// Panics if `outgoing.len() != p`.
    pub fn all_to_all(&mut self, outgoing: Vec<Vec<T>>, tag: u64) -> Vec<Vec<T>> {
        assert_eq!(
            outgoing.len(),
            self.procs,
            "all_to_all needs one vector per processor"
        );
        // Everything leaves before anything is awaited, so the exchange
        // cannot deadlock regardless of processor ordering (the channels are
        // unbounded, so sends never wait on receivers).
        self.all_to_all_send(outgoing, tag);
        self.all_to_all_recv(tag)
    }

    /// The send half of [`Communicator::all_to_all`]: `outgoing[j]` goes to
    /// processor `j`.  A serial replay runs this half on every processor
    /// before any runs [`Communicator::all_to_all_recv`].
    pub fn all_to_all_send(&mut self, outgoing: Vec<Vec<T>>, tag: u64) {
        for (to, payload) in outgoing.into_iter().enumerate() {
            self.send(to, tag, payload);
        }
    }

    /// The receive half of [`Communicator::all_to_all`]: one message from
    /// every processor, indexed by sender.
    pub fn all_to_all_recv(&mut self, tag: u64) -> Vec<Vec<T>> {
        (0..self.procs).map(|from| self.recv(from, tag)).collect()
    }

    /// Meters an all-to-all exchange whose payload moved outside the
    /// channels (for instance by direct placement into a shared buffer):
    /// `words_sent` words out and `words_received` words in, counted exactly
    /// as [`Communicator::all_to_all`] counts them — one message to and one
    /// from every other processor, self-delivery as volume only.
    pub fn meter_all_to_all(&mut self, words_sent: u64, words_received: u64) {
        let peers = self.procs as u64 - 1;
        self.metrics.words_sent += words_sent;
        self.metrics.messages_sent += peers;
        self.metrics.words_received += words_received;
        self.metrics.messages_received += peers;
    }

    /// Barrier synchronisation with all other processors, marking the end of
    /// a superstep.
    ///
    /// If a peer panics while this processor is parked at the barrier, the
    /// barrier is poisoned and this call unwinds instead of deadlocking.
    pub fn barrier(&mut self) {
        self.metrics.barriers += 1;
        if let BarrierWait::Poisoned(culprit) = self.barrier.wait() {
            abort_unwind(culprit);
        }
    }

    /// Marks the beginning of a new superstep (metering only; the barrier at
    /// the end of the previous superstep provides the synchronisation).
    pub fn begin_superstep(&mut self) {
        self.metrics.supersteps += 1;
    }

    /// The metrics accumulated by this communicator so far.
    pub fn metrics(&self) -> &ProcMetrics {
        &self.metrics
    }

    /// Consumes the communicator, returning its metrics (called by the
    /// machine after the processor function returns).
    pub(crate) fn into_metrics(self) -> ProcMetrics {
        self.metrics
    }

    /// Hands out the metrics accumulated since the last take, resetting the
    /// counters — the per-run metering of a [`crate::LoopbackCgm`].
    pub(crate) fn take_metrics(&mut self) -> ProcMetrics {
        std::mem::take(&mut self.metrics)
    }

    /// Clears every buffered message (mailbox, self-queue and anything still
    /// in flight on the channels).  [`crate::LoopbackCgm::recover`] calls
    /// it after a failed run, so partially delivered envelopes of that run
    /// cannot leak into the next one; no peer is sending then, which is the
    /// precondition of the endpoint's drain contract.
    pub(crate) fn clear_in_flight(&mut self) {
        for q in &mut self.mailbox {
            q.clear();
        }
        self.self_queue.clear();
        self.endpoint.drain();
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::{CgmConfig, CgmMachine};

    #[test]
    fn ring_exchange_delivers_in_order() {
        let machine = CgmMachine::new(CgmConfig::new(5));
        let results = machine
            .run(|ctx| {
                let p = ctx.procs();
                let next = (ctx.id() + 1) % p;
                let prev = (ctx.id() + p - 1) % p;
                // Two messages with different tags; they must arrive in order.
                let id = ctx.id();
                ctx.comm_mut().send(next, 1, vec![id as u64]);
                ctx.comm_mut().send(next, 2, vec![(id * 10) as u64]);
                let a = ctx.comm_mut().recv(prev, 1);
                let b = ctx.comm_mut().recv(prev, 2);
                (a[0], b[0])
            })
            .into_results();
        for (i, &(a, b)) in results.iter().enumerate() {
            let prev = (i + 5 - 1) % 5;
            assert_eq!(a, prev as u64);
            assert_eq!(b, (prev * 10) as u64);
        }
    }

    #[test]
    fn all_to_all_transposes() {
        // Processor i sends value i*p + j to processor j; afterwards each j
        // holds the j-th "column".
        let p = 4;
        let machine = CgmMachine::new(CgmConfig::new(p));
        let results = machine
            .run(move |ctx| {
                let i = ctx.id();
                let outgoing: Vec<Vec<u64>> = (0..p).map(|j| vec![(i * p + j) as u64]).collect();
                let incoming = ctx.comm_mut().all_to_all(outgoing, 0);
                incoming.into_iter().map(|v| v[0]).collect::<Vec<u64>>()
            })
            .into_results();
        for (j, row) in results.iter().enumerate() {
            let expected: Vec<u64> = (0..p).map(|i| (i * p + j) as u64).collect();
            assert_eq!(row, &expected);
        }
    }

    #[test]
    fn self_send_is_local_but_counted() {
        let machine = CgmMachine::new(CgmConfig::new(1));
        let outcome = machine.run(|ctx| {
            ctx.comm_mut().send(0, 7, vec![1u64, 2, 3]);
            ctx.comm_mut().recv(0, 7)
        });
        assert_eq!(outcome.results()[0], vec![1, 2, 3]);
        let metrics = &outcome.metrics().per_proc[0];
        assert_eq!(
            metrics.messages_sent, 0,
            "self-sends do not use the network"
        );
        assert_eq!(metrics.words_sent, 3, "but their volume is accounted");
        assert_eq!(metrics.words_received, 3);
    }

    #[test]
    fn out_of_order_senders_are_buffered() {
        // Processor 0 receives from 2 first even though 1's message may
        // arrive earlier; the mailbox must buffer it.
        let machine = CgmMachine::new(CgmConfig::new(3));
        let results = machine
            .run(|ctx| match ctx.id() {
                0 => {
                    let from2 = ctx.comm_mut().recv(2, 0);
                    let from1 = ctx.comm_mut().recv(1, 0);
                    from2[0] * 100 + from1[0]
                }
                id => {
                    ctx.comm_mut().send(0, 0, vec![id as u64]);
                    0
                }
            })
            .into_results();
        assert_eq!(results[0], 201);
    }

    #[test]
    fn metrics_count_messages_and_words() {
        let machine = CgmMachine::new(CgmConfig::new(2));
        let outcome = machine.run(|ctx| {
            let other = 1 - ctx.id();
            ctx.comm_mut().send(other, 0, vec![0u64; 10]);
            let _ = ctx.comm_mut().recv(other, 0);
            ctx.comm_mut().barrier();
        });
        for m in &outcome.metrics().per_proc {
            assert_eq!(m.messages_sent, 1);
            assert_eq!(m.words_sent, 10);
            assert_eq!(m.messages_received, 1);
            assert_eq!(m.words_received, 10);
            assert_eq!(m.barriers, 1);
        }
    }

    #[test]
    fn metered_all_to_all_counts_like_a_real_one() {
        let p = 3;
        let machine = CgmMachine::new(CgmConfig::new(p));
        let row = |i: usize| -> Vec<usize> { (0..p).map(|j| i + 2 * j).collect() };
        let real = machine.run(move |ctx| {
            let outgoing = row(ctx.id()).into_iter().map(|w| vec![0u64; w]).collect();
            let _ = ctx.comm_mut().all_to_all(outgoing, 0);
        });
        let metered = machine.run(move |ctx: &mut crate::ProcCtx<u64>| {
            let id = ctx.id();
            let sent: usize = row(id).iter().sum();
            let received: usize = (0..p).map(|i| row(i)[id]).sum();
            ctx.comm_mut()
                .meter_all_to_all(sent as u64, received as u64);
        });
        assert_eq!(real.metrics().per_proc, metered.metrics().per_proc);
    }

    #[test]
    #[should_panic(expected = "one vector per processor")]
    fn all_to_all_wrong_arity_panics() {
        let machine = CgmMachine::new(CgmConfig::new(2));
        machine.run(|ctx| {
            let _ = ctx.comm_mut().all_to_all(vec![vec![1u64]], 0);
        });
    }
}

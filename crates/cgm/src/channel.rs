//! The in-process channel fabric: how envelopes move between virtual
//! processors.
//!
//! Every plane of a machine is `p` endpoints, one per processor.  An
//! endpoint owns the receiver of its own unbounded channel and a sender to
//! every *peer* (its own slot is empty — self-sends stay local in the
//! [`crate::Communicator`]).  Payloads move by value: a `Vec<T>` sent here
//! is the same allocation the peer receives.
//!
//! The [`crate::Communicator`] relies on three properties of an endpoint:
//!
//! * **Per-pair FIFO** — envelopes from a fixed sender to a fixed receiver
//!   arrive in sending order (the mailbox re-ordering relies on it).
//! * **Sends never wait on the receiver** — the channels are unbounded, so
//!   an all-to-all exchange can send everything before receiving anything.
//! * **Drain** — after [`Endpoint::drain`] returns, no envelope sent to
//!   this endpoint *before* the call will ever be received from it;
//!   envelopes sent after the drain are unaffected.  Only sound while no
//!   peer is sending (a [`crate::LoopbackCgm`] recovers on its one thread).

use crossbeam_channel::{unbounded, Receiver, RecvError, Sender, TryRecvError};

/// A message in flight between two virtual processors.
#[derive(Debug)]
pub(crate) struct Envelope<T> {
    /// Sending virtual processor.
    pub(crate) from: usize,
    /// Message tag (matched by [`crate::Communicator::recv`]).
    pub(crate) tag: u64,
    /// The payload, moved to the peer.
    pub(crate) payload: Vec<T>,
}

/// One virtual processor's end of one plane.
pub(crate) struct Endpoint<T> {
    senders: Vec<Option<Sender<Envelope<T>>>>,
    receiver: Receiver<Envelope<T>>,
}

/// Builds one plane of `procs` endpoints, indexed by processor id.  Not
/// holding a self-sender is what lets a channel disconnect — and
/// [`Endpoint::recv`] report it — once every peer is gone.
pub(crate) fn open_plane<T>(procs: usize) -> Vec<Endpoint<T>> {
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..procs).map(|_| unbounded()).unzip();
    receivers
        .into_iter()
        .enumerate()
        .map(|(id, receiver)| Endpoint {
            senders: senders
                .iter()
                .enumerate()
                .map(|(to, tx)| (to != id).then(|| tx.clone()))
                .collect(),
            receiver,
        })
        .collect()
}

impl<T> Endpoint<T> {
    /// Delivers `envelope` to peer `to`; `Err` hands it back when the peer's
    /// endpoint no longer exists.
    ///
    /// # Panics
    /// Panics if `to` is this endpoint's own processor (self-sends never
    /// reach the fabric).
    pub(crate) fn send(&self, to: usize, envelope: Envelope<T>) -> Result<(), Envelope<T>> {
        self.senders[to]
            .as_ref()
            .expect("self-sends never reach the fabric")
            .send(envelope)
            .map_err(|e| e.0)
    }

    /// Receives the next envelope addressed to this endpoint, blocking
    /// until one arrives.  `Err` means every peer is gone and nothing will
    /// ever arrive again.
    pub(crate) fn recv(&self) -> Result<Envelope<T>, RecvError> {
        self.receiver.recv()
    }

    /// The next envelope addressed to this endpoint, if one is waiting.
    pub(crate) fn try_recv(&self) -> Result<Envelope<T>, TryRecvError> {
        self.receiver.try_recv()
    }

    /// Discards everything in flight towards this endpoint.
    pub(crate) fn drain(&self) {
        while self.receiver.try_recv().is_ok() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(from: usize, tag: u64, payload: Vec<u64>) -> Envelope<u64> {
        Envelope { from, tag, payload }
    }

    #[test]
    fn envelopes_arrive_with_headers_intact() {
        let plane = open_plane::<u64>(3);
        plane[0].send(2, envelope(0, 11, vec![1, 2, 3])).unwrap();
        let env = plane[2].recv().unwrap();
        assert_eq!((env.from, env.tag, env.payload), (0, 11, vec![1, 2, 3]));
    }

    #[test]
    fn per_pair_delivery_is_fifo() {
        let plane = open_plane::<u64>(2);
        for tag in 0..64 {
            plane[0].send(1, envelope(0, tag, vec![tag])).unwrap();
        }
        for tag in 0..64 {
            assert_eq!(plane[1].recv().unwrap().tag, tag);
        }
    }

    #[test]
    fn idle_endpoint_has_nothing_waiting() {
        let plane = open_plane::<u64>(2);
        assert!(matches!(plane[0].try_recv(), Err(TryRecvError::Empty)));
    }

    #[test]
    fn drain_discards_only_prior_envelopes() {
        let plane = open_plane::<u64>(2);
        plane[0].send(1, envelope(0, 1, vec![1])).unwrap();
        plane[1].drain();
        assert!(matches!(plane[1].try_recv(), Err(TryRecvError::Empty)));
        plane[0].send(1, envelope(0, 2, vec![2])).unwrap();
        assert_eq!(plane[1].recv().unwrap().tag, 2);
    }

    #[test]
    fn closed_plane_reports_disconnected() {
        let mut plane = open_plane::<u64>(2);
        let keep = plane.remove(1);
        drop(plane); // endpoint 0 (and its senders) gone
        assert!(keep.recv().is_err());
        // The peer's receiver is gone too: sends hand the envelope back.
        assert!(keep.send(0, envelope(1, 0, vec![9])).is_err());
    }
}

//! # cgp-cgm — a coarse grained multicomputer simulator
//!
//! Gustedt's paper evaluates its algorithms inside SSCRAP, a C++/MPI runtime
//! for coarse grained (BSP/CGM/PRO) algorithms, running on clusters and
//! ccNUMA machines with up to 48 processors.  That substrate is not
//! available here, so this crate builds the closest equivalent that exercises
//! the same code paths:
//!
//! * **`p` virtual processors**, each an OS thread with its own block of
//!   data, its own random stream, and its own metrics counters;
//! * **point-to-point messages** over in-process channels, with the same
//!   semantics as MPI send/recv between supersteps (per-sender FIFO order,
//!   matched by sender id and tag) — payloads move by value, never
//!   serialized or cloned;
//! * **supersteps** separated by barriers, so algorithms are expressed
//!   exactly as in the BSP/CGM/PRO papers;
//! * **metering** of every word sent and received, every message, every
//!   barrier, and the per-processor wall-clock time — these are the
//!   quantities the PRO model (and Theorems 1 and 2 of the paper) make
//!   claims about, and they are independent of the host machine's actual
//!   core count.
//!
//! The simulator runs real threads, so wall-clock scaling trends are
//! observable too (experiment E3), but the *primary* reproduction currency is
//! the metered work/communication per processor, which is exact.
//!
//! Two forms share the same [`ProcCtx`] semantics.  The one-shot
//! [`CgmMachine`] spawns one thread per processor and builds its channel
//! fabric per `run` call; a processor blocks in a receive or at a barrier
//! until its peers catch up.  [`LoopbackCgm`] holds the `p` contexts of
//! one fabric for a caller that plays the processors itself, phase by
//! phase: Algorithm 1 in `cgp-core` plays them on `t ≤ p` threads that way
//! (see its `parallel` module docs), since nothing in a CGM program
//! requires one thread per processor.
//!
//! Every fabric carries **two typed channel planes** over one barrier: the
//! data plane (`Vec<T>` payloads, [`ProcCtx::comm_mut`]) and the word plane
//! (`Vec<u64>` envelopes, [`ProcCtx::matrix_ctx`] → [`MatrixCtx`]).  The
//! word plane is what lets a single job fuse the `O(p)`-sized
//! communication-matrix phase of Algorithm 1 with its `O(m)` data exchange
//! — one run, still separately metered per phase
//! ([`MachineMetrics::matrix_plane`]).  Whether any of that startup happens
//! at all is observable through the [`diag`] counters.
//!
//! ## Quick example
//!
//! ```
//! use cgp_cgm::{CgmConfig, CgmMachine};
//!
//! // 4 virtual processors; each sends its id to the next one around a ring.
//! let machine = CgmMachine::new(CgmConfig::new(4).with_seed(7));
//! let outcome = machine.run(|ctx| {
//!     let id = ctx.id() as u64;
//!     let next = (ctx.id() + 1) % ctx.procs();
//!     let prev = (ctx.id() + ctx.procs() - 1) % ctx.procs();
//!     ctx.comm_mut().send(next, 0, vec![id]);
//!     let got = ctx.comm_mut().recv(prev, 0);
//!     got[0]
//! });
//! let values = outcome.into_results();
//! assert_eq!(values, vec![3, 0, 1, 2]);
//! ```

pub mod block;
mod channel;
pub mod comm;
pub mod diag;
pub mod error;
pub mod machine;
pub mod metrics;
mod sync;

pub use block::BlockDistribution;
pub use comm::Communicator;
pub use error::CgmError;
pub use machine::{CgmConfig, CgmMachine, LoopbackCgm, MatrixCtx, ProcCtx, RunOutcome};
pub use metrics::{CostModel, MachineMetrics, ProcMetrics};

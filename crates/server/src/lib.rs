//! # cgp-server — the wire front-end for the permutation fleet
//!
//! A [`PermutationService`](cgp_core::PermutationService) is an in-process
//! fleet: callers hold a [`ServiceHandle`](cgp_core::ServiceHandle) and
//! submit `Vec<T>` jobs directly.  This crate puts a **socket** in front
//! of it, so non-Rust tooling, sibling processes, and remote hosts can
//! drive the same fleet:
//!
//! - [`WireServer`] binds a Unix domain socket ([`WireServer::bind_uds`])
//!   or TCP listener ([`WireServer::bind_tcp`]) and maps each connection
//!   to its own tenant — fair-share admission, quotas, and per-tenant
//!   metrics all apply per connection.
//! - [`Client`] is a small blocking client speaking the same frames, with
//!   pipelined submits ([`Client::submit`] / [`Client::wait`]) and a
//!   one-call [`Client::permute`].
//! - [`protocol`] documents the length-prefixed little-endian frame
//!   layout (hello / submit / result / error / metrics / shutdown); the
//!   normative spec lives in `docs/wire-protocol.md`.
//!
//! Payload bytes ride the [`Wire`] codecs in [`codec`]: the server and the
//! client are generic over `T: Wire`, so any codable type crosses the
//! socket unchanged, and a wire-submitted job returns the
//! **byte-identical** permutation of an in-process `submit` with the same
//! fleet seed.
//!
//! Results stream back in completion order, pushed by the fleet's
//! completion core ([`cgp_core::JobTicket::on_complete`]): the server
//! parks no threads per in-flight job and never polls.
//!
//! ```no_run
//! use cgp_core::{PermuteOptions, ServiceConfig};
//! use cgp_server::{Client, WireServer};
//!
//! let config = ServiceConfig::new(2).machines(2).seed(7);
//! let server: WireServer<u64> =
//!     WireServer::bind_tcp("127.0.0.1:0", config, PermuteOptions::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//!
//! let mut client: Client<u64> = Client::connect_tcp(addr).unwrap();
//! let shuffled = client.permute(&(0..1000).collect::<Vec<u64>>()).unwrap();
//! assert_eq!(shuffled.len(), 1000);
//! server.shutdown();
//! ```

pub mod codec;
pub mod protocol;

mod client;
mod server;

pub use client::{Client, ClientError, ServerHello, WireMetrics};
pub use codec::{Wire, WireError};
pub use protocol::{ErrorCode, Stream, CONNECTION_REQUEST_ID, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use server::{ServerError, WireServer};

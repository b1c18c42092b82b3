//! # faaspipe-exchange — pluggable intermediate data-exchange backends
//!
//! The paper's central question is *how* pipeline stages exchange
//! intermediate data: through object storage or through a VM. This crate
//! makes that choice a first-class, pluggable subsystem: the
//! [`DataExchange`] trait models the all-to-all partition hand-off between
//! mappers and reducers, and three backends span the design space:
//!
//! - [`ObjectStoreExchange`] — the paper's serverless pattern: every byte
//!   moves through the simulated COS, either as W² scatter objects or as
//!   W coalesced blobs with byte-range reads
//!   ([`ExchangeStrategy`]).
//! - [`ShardedRelayExchange`] — Pocket-style in-memory relays hosted on
//!   simulated VMs: provisioning delay, per-second billing, their own NIC
//!   bandwidth, and a capacity limit with disk spill. One cold shard is
//!   the paper's single relay VM (`vm_relay`); N shards route
//!   `(map, part)` cells deterministically, so aggregate relay NIC
//!   bandwidth scales with the shard count, and the pre-warming mode
//!   overlaps provisioning with the caller's next phase instead of
//!   blocking `prepare`.
//! - [`DirectExchange`] — rendezvous function-to-function streaming
//!   through the DES fluid-flow network, gated on the sender's container
//!   still being warm.
//!
//! The trait is exactly the four calls the shuffle makes: `prepare`,
//! `write_run` (a mapper's sorted run plus its partition cuts),
//! `read_gather` (a reducer's column, empty runs skipped) and `cleanup`.
//!
//! All backends charge virtual time for every operation, record
//! [`faaspipe_trace`] spans on the same `StoreRequest`/`Flow` categories
//! the store uses (so critical-path attribution keeps working), and send
//! every request batch through one crate-internal funnel. The funnel
//! retries each request with the shared [`with_retry`] helper
//! (exponential backoff, deterministic jitter drawn from the DES rng).
//! It runs the batch in sequence on the caller at an I/O window of 1,
//! and otherwise fans it out to at most `io_window` worker processes.

mod api;
mod direct;
mod error;
mod object_store;
mod relay;
mod retry;
mod sharded;

pub use api::{DataExchange, ExchangeEnv, ExchangeKind, ExchangeStrategy};
pub use direct::{DirectConfig, DirectExchange};
pub use error::{ExchangeError, ExchangeParseError, ExchangeParseIssue, EXCHANGE_KIND_FORMS};
pub use object_store::ObjectStoreExchange;
pub use relay::RelayConfig;
pub use retry::{with_retry, Retryable};
pub use sharded::{ShardedRelayConfig, ShardedRelayExchange};

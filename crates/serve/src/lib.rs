//! `gpumc-serve` — the persistent verification service.
//!
//! gpumc started as a batch CLI: one process per request, cold caches
//! every time, and the only resource limit anywhere was a conflict
//! budget that *panicked* on exhaustion. This crate turns the pipeline
//! into a long-running daemon:
//!
//! * a JSON-lines request/response protocol over TCP (or stdio), see
//!   [`protocol`];
//! * a bounded FIFO job queue with non-blocking backpressure (`sched`):
//!   a full queue answers `status: rejected` at once, the server's one
//!   answer to overload (DESIGN.md §18);
//! * a worker pool sharing parsed models (`gpumc_models::load_shared`)
//!   across requests;
//! * per-request deadlines riding the cooperative cancellation layer in
//!   `gpumc-sat` (`CancelToken`), so a timed-out request yields
//!   `status: unknown` and the worker lives on;
//! * a metrics registry ([`metrics`]) exposed through the `metrics`
//!   verb;
//! * panic isolation: each job runs once under one `catch_unwind`, and
//!   a job that panics is answered `status: "failed"` with an error
//!   class while its worker takes the next job — see the pool invariant
//!   in [`server`] and the failure taxonomy in DESIGN.md §13.
//!
//! The JSON plumbing ([`json`]) is hand-rolled: the offline dependency
//! set has no serde, and the protocol needs very little. It lives in
//! `gpumc-fleet` (re-exported here) so the persistent cache store can
//! speak the wire format without a server dependency. The fleet layer
//! itself — request digest and content-addressed result cache — is
//! described in DESIGN.md §16.

pub mod client;
pub mod metrics;
pub mod protocol;
mod sched;
pub mod server;

pub use gpumc_fleet::json;

pub use client::Client;
pub use json::Json;
pub use metrics::Metrics;
pub use protocol::{
    parse_request, verdict_json, Envelope, Request, VerifyRequest, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ShutdownHandle};

//! `gpumc-fleet` — request identity and the result cache behind
//! `gpumc serve`.
//!
//! The paper's whole evaluation (Tables 5–7) re-runs the same litmus
//! and kernel queries across models, bounds, and properties; real
//! verification traffic is overwhelmingly duplicate work. This crate
//! lets one `gpumc-serve` daemon answer that duplicate work from a
//! warm cache (DESIGN.md §16):
//!
//! * [`digest`] — a canonical, persistable request identity: a stable
//!   128-bit digest of (test AST × model source × bound × property ×
//!   engine × protocol version). The protocol version,
//!   [`PROTOCOL_VERSION`], is defined there and re-exported by
//!   `gpumc-serve`. The digest is FNV-1a over a canonical
//!   rendering, not a process-local `DefaultHasher`, so it is safe to
//!   write to disk.
//! * [`cache`] — a content-addressed result cache keyed by that digest:
//!   a bounded in-memory LRU ([`lru`]) plus an optional persistent
//!   JSONL store ([`store`]) with versioned invalidation keyed on the
//!   verifier fingerprint. Only definitive verdicts are cached — never
//!   `unknown` or `failed`.
//!
//! Everything is std-only, like the rest of the serving stack. The JSON
//! plumbing ([`json`]) lives here (moved from `gpumc-serve`, which
//! re-exports it) so the persistent store can speak the wire format
//! without depending on the server.

pub mod cache;
pub mod digest;
pub mod json;
pub mod lru;
pub mod store;

pub use cache::{CachedVerdict, ResultCache};
pub use digest::{request_digest, RequestKey, DIGEST_SCHEME_VERSION, PROTOCOL_VERSION};
pub use json::Json;

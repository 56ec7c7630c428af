//! # xdx-server — async serving front-end for XML data exchange
//!
//! The network layer of the XML data exchange system reproducing
//! Arenas & Libkin, *"XML Data Exchange: Consistency and Query Answering"*
//! (PODS 2005 / JACM 2008): a dependency-free server exposing the four
//! long-running operations of the exchange pipeline —
//!
//! * **CheckConsistency** — is each source document a conforming instance
//!   with a solution?
//! * **CanonicalSolution** — the Section 6.1 chase result per document;
//! * **CertainAnswers** / **CertainAnswersBoolean** — certain answers of a
//!   conjunctive tree query (Section 7 semantics) per document;
//!
//! over both TCP and Unix-domain sockets, speaking a length-prefixed binary
//! protocol (see `PROTOCOL.md` and [`wire`]). Protocol v2 adds an opt-in
//! zero-copy serving path, negotiated per connection with a `Hello` frame:
//! documents travel as [`xdx_xmltree::binary`] preorder frames instead of
//! text ([`wire::FEATURE_BINARY_DOCS`]), and large responses stream as
//! bounded `STATUS_OK_PARTIAL` chunks ([`wire::FEATURE_CHUNKED_RESPONSES`])
//! serialized by the workers directly into the connection's write queue.
//! Connections that never send `Hello` speak v1 unchanged.
//!
//! When [`server::ServerConfig::store_dir`] is set the server also mounts a
//! resident [`xdx_store::DocStore`]: documents persist across restarts
//! (binary snapshot + write-ahead log), node-local edit batches re-validate
//! in time proportional to the touched region, and per-document answer
//! caches serve repeated queries without re-running the chase. The store
//! ops are `PutDoc`/`GetDoc`/`EditDoc`/`DeleteDoc` and the `*Stored` query
//! variants; each `*Stored` variant runs its base op's one handler over the
//! stored document, so it answers byte-for-byte like shipping that document.
//!
//! The design (see [`server`] for details): a **single-threaded
//! non-blocking event loop** on raw `epoll` ([`sys`]) owns every socket and
//! enforces backpressure (bounded per-connection pipelining, a global
//! in-flight budget, `Busy` frames when saturated), while a **worker pool**
//! sharing one [`xdx_core::CompiledSetting`] — the same substrate
//! [`xdx_core::BatchEngine`] batches over — parses documents, runs the
//! exchange pipeline with per-worker scratch reuse, and hands encoded
//! frames back through a completion queue and a wake pipe.
//!
//! The container this workspace builds in has no crates.io access, so
//! there is no `tokio`/`mio`/`libc` here: [`sys`] declares the three
//! `epoll` entry points itself, `std` provides the sockets, and everything
//! else is hand-rolled — which also keeps the event loop honest about
//! every allocation and syscall on the hot path.
//!
//! [`client`] is a small blocking client used by the integration tests,
//! `examples/serve.rs` and the E14 serving benchmark.

#![warn(missing_docs)]
// `unsafe` is confined to the epoll FFI in `sys`; everything else in the
// crate (and the rest of the workspace) forbids it.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
mod registry;
pub mod server;
pub mod sys;
mod transport;
pub mod wire;

pub use client::{Client, ClientError, RetryPolicy, StatsSnapshot, DEFAULT_TIMEOUT};
pub use server::{ConfigError, Server, ServerConfig, ServerControl, StatsHandle};
pub use wire::{
    Codec, DocResult, ErrorCode, OpCode, RequestBody, RequestFrame, ResponseBody, ResponseFrame,
    SettingEntry, StatsHistogram, WireDoc, WireError, FEATURE_BINARY_DOCS,
    FEATURE_CHUNKED_RESPONSES, FEATURE_SETTINGS, FEATURE_STATS_V2, SUPPORTED_FEATURES,
};

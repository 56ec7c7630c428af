//! The serving front-end: a single-threaded epoll event loop feeding a
//! worker pool that shares one compiled setting.
//!
//! ## Architecture
//!
//! ```text
//!                    ┌───────────── event-loop thread ─────────────┐
//!  TCP listener ──▶  │ accept / non-blocking read / frame parse /  │
//!  Unix listener ──▶ │ backpressure / non-blocking write           │
//!                    └───────┬───────────────────────▲─────────────┘
//!                       jobs │ (bounded queue)       │ completions + wake pipe
//!                    ┌───────▼───────────────────────┴─────────────┐
//!                    │ worker pool: N threads ×                    │
//!                    │   (&BatchEngine's CompiledSetting,          │
//!                    │    one ExchangeScratch each)                │
//!                    └─────────────────────────────────────────────┘
//! ```
//!
//! * The **event loop** owns every socket. It never parses documents or
//!   chases anything — it only moves bytes, frames, and verdicts.
//! * **Workers** decode documents/queries (the expensive parsing stays off
//!   the loop), run the exchange pipeline on the shared [`CompiledSetting`]
//!   (per-setting caches warm up once for all connections), and serialize
//!   responses *directly into the connection's write queue* in bounded
//!   segments ([`ResponseWriter`]): each sealed segment is handed to the
//!   loop as a ready-to-send frame, moved (never re-copied) into a
//!   per-connection segment queue and flushed with `writev`. Connections
//!   that negotiated [`wire::FEATURE_CHUNKED_RESPONSES`] receive large
//!   responses as `STATUS_OK_PARTIAL` chunks of at most
//!   [`ServerConfig::chunk_bytes`] body bytes each, so a huge solution
//!   neither pins its full size in worker memory nor head-of-line-blocks
//!   other connections' flushes.
//! * Each of the four **exchange ops** has one handler over a document
//!   source, shipped documents or a stored one, and every per-document
//!   result ([`DocAnswer`]) is written by `wire`'s row writers, the ones
//!   [`wire::encode_response`] uses. A `*Stored` op therefore answers with
//!   its base op's bytes by construction, cached or not.
//! * The **wake pipe** (a non-blocking Unix socketpair) lets workers and
//!   [`ServerControl::shutdown`] interrupt `epoll_wait`.
//!
//! ## Backpressure
//!
//! Admission control is enforced *before* work is queued, in the loop
//! thread, so saturation costs one branch, not a thread handoff:
//!
//! * **per-connection pipelining cap** ([`ServerConfig::max_inflight_per_conn`]):
//!   a connection may pipeline at most this many unanswered requests;
//! * **global in-flight budget** ([`ServerConfig::max_inflight_total`]):
//!   across all connections at most this many requests may sit in the job
//!   queue + workers.
//!
//! A request over either limit is answered immediately with a `Busy` frame
//! (its id echoed) and is **not** queued — the queue is bounded by
//! construction and memory stays flat under overload. On the write side,
//! a connection whose peer stops reading may buffer at most
//! [`ServerConfig::max_buffered_response_bytes`] of pending responses
//! before it is closed, so un-drained output is bounded too. Frames whose
//! announced length exceeds [`ServerConfig::max_frame_bytes`] poison the
//! connection (error frame, flush, close), since the stream can no longer
//! be framed safely; merely malformed payloads only fail their own request.

use crate::registry::Registry;
use crate::sys::{Epoll, Event, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::transport::Duplex;
use crate::wire::{
    self, Codec, DecodeError, OpCode, RequestBody, RequestFrame, ResponseBody, ResponseFrame,
    WireDoc, WireError,
};
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};
use xdx_core::cache::CacheKey;
use xdx_core::compiled::{CompiledSetting, ExchangeScratch};
use xdx_core::engine::BatchEngine;
use xdx_core::settext::setting_to_text;
use xdx_core::setting::DataExchangeSetting;
use xdx_core::solution::SolutionError;
use xdx_obs::{Histogram, HistogramSnapshot, MetricRegistry, Trace, Unit};
use xdx_patterns::parser::parse_query;
use xdx_patterns::plan::QueryPlan;
use xdx_patterns::UnionQuery;
use xdx_store::{decode_edits_exact, DocKey, DocStore, StoreConfig, StoreError};
use xdx_xmltree::binary::ByteSink;
use xdx_xmltree::XmlTree;

/// One document's result of an exchange op, for shipped and stored
/// documents alike; it is also what the per-document answer cache holds.
/// [`DocAnswer::put_row`] is the only way a result reaches the wire, so a
/// cache hit, a fresh computation and a shipped document all stream the
/// same bytes under every codec.
#[derive(Debug, Clone)]
enum DocAnswer {
    /// Consistency verdict.
    Consistency(bool),
    /// Canonical solution, or the chase's error.
    Solution(Result<XmlTree, WireError>),
    /// Certain-answer tuples (already in deterministic set order).
    Answers(Result<Vec<Vec<String>>, WireError>),
    /// Boolean certain answer.
    Boolean(Result<bool, WireError>),
}

impl DocAnswer {
    fn solution(result: Result<XmlTree, SolutionError>) -> DocAnswer {
        DocAnswer::Solution(result.map_err(|e| WireError::of_solution_error(&e)))
    }

    /// Stream this result as one response row through `wire`'s writers.
    fn put_row<S: ByteSink>(&self, out: &mut S, codec: Codec) {
        match self {
            DocAnswer::Consistency(b) => wire::put_bool(out, *b),
            DocAnswer::Solution(r) => {
                wire::put_doc_result(out, r.as_ref(), |out, t| wire::put_tree(out, t, codec))
            }
            DocAnswer::Answers(r) => {
                wire::put_doc_result(out, r.as_ref(), |out, t| wire::put_tuples(out, t))
            }
            DocAnswer::Boolean(r) => {
                wire::put_doc_result(out, r.as_ref(), |out, &b| wire::put_bool(out, b))
            }
        }
    }
}

/// The server's resident store: documents plus version-tagged cached
/// answers, serialized behind one mutex (ops hold it only for O(doc)
/// copies and bookkeeping — the chase itself runs unlocked).
type ServerStore = Mutex<DocStore<DocAnswer>>;

/// Server tuning knobs; the defaults suit tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads computing responses (0 = available parallelism).
    pub workers: usize,
    /// Maximum request-frame payload size; larger announced lengths poison
    /// the connection.
    pub max_frame_bytes: usize,
    /// Maximum documents in one request (micro-batch size cap; the
    /// protocol's own cap [`wire::MAX_DOCS_PER_REQUEST`] applies on top).
    pub max_docs_per_request: usize,
    /// Per-connection pipelining cap: unanswered requests beyond this get
    /// `Busy`.
    pub max_inflight_per_conn: usize,
    /// Global in-flight budget across all connections: requests beyond this
    /// get `Busy`.
    pub max_inflight_total: usize,
    /// Maximum simultaneous connections; beyond it, new sockets are
    /// accepted and immediately closed.
    pub max_connections: usize,
    /// Per-connection cap on *buffered* (computed but unwritable) response
    /// bytes. A client that pipelines requests without ever reading its
    /// responses would otherwise grow the write buffer without bound —
    /// responses can legitimately exceed the request-frame cap. Crossing
    /// the cap closes the connection: the peer has stopped cooperating.
    pub max_buffered_response_bytes: usize,
    /// Segment size for chunked responses (v2, per-connection negotiated):
    /// a worker seals and hands off a response segment every time this many
    /// body bytes accumulate, so its peak serialization buffer — and the
    /// granularity at which other responses can interleave on the socket —
    /// is this, not the full response size. Ignored for connections that
    /// did not negotiate [`wire::FEATURE_CHUNKED_RESPONSES`].
    pub chunk_bytes: usize,
    /// Directory of the resident document store (snapshot + WAL). `None`
    /// disables the store: every store op answers
    /// [`wire::ErrorCode::StoreDisabled`].
    pub store_dir: Option<PathBuf>,
    /// Admission cap on resident documents — `PutDoc` of a *new* id beyond
    /// it answers [`wire::ErrorCode::StoreFull`] (existing ids can always
    /// be overwritten). Ignored when the store is disabled.
    pub max_resident_docs: usize,
    /// Opportunistic checkpoint threshold: after a store mutation, the
    /// worker that still holds the store lock checkpoints (snapshot + WAL
    /// reset) if the WAL has grown past this many bytes — so a long-running
    /// server's WAL stays bounded by roughly this plus one record, instead
    /// of growing until clean shutdown. Ignored when the store is disabled.
    pub wal_checkpoint_bytes: u64,
    /// Cap on setting *bindings* (v3 registry), counting the pinned
    /// default binding 0. `PutSetting` of a new id beyond it answers
    /// [`wire::ErrorCode::SettingLimit`].
    pub max_settings: usize,
    /// Cost budget of the compiled-setting LRU cache, in canonical
    /// setting-text bytes. Past it, least-recently-used artifacts are
    /// evicted (bindings, their text, and their stored documents survive;
    /// the next request recompiles).
    pub max_compiled_cost: u64,
    /// Per-setting in-flight admission budget: across all connections, at
    /// most this many unanswered requests may address one setting id, so a
    /// flood against one tenant cannot starve the rest. The default equals
    /// [`ServerConfig::max_inflight_total`], which makes the check
    /// unobservable for v1/v2 traffic (it all addresses setting 0).
    pub max_inflight_per_setting: usize,
    /// Close a connection with no unanswered requests, no pending output
    /// and no partial frame after this long without activity, so abandoned
    /// sockets cannot pin `max_connections` slots forever. `None` disables
    /// the check.
    pub idle_timeout: Option<Duration>,
    /// A started request frame must *complete* within this long of its
    /// first byte (the clock restarts whenever a whole frame is parsed,
    /// not on every byte) — a slow-loris peer dribbling one byte per
    /// second holds a connection slot for at most this, while a healthy
    /// pipelining client at any pace never has a partial frame older than
    /// one frame's transmission. `None` disables the check.
    pub read_progress_timeout: Option<Duration>,
    /// Per-request phase tracing: when `true` (the default) every
    /// worker-path request carries an [`xdx_obs::Trace`] from frame decode
    /// to final flush, feeding the per-`(op, setting)` phase histograms of
    /// the Stats-v2 export and the slow-request log. Off, requests carry
    /// no trace and only the plain counters remain (bench `E18` measures
    /// the difference).
    pub instrumentation: bool,
    /// Log a rate-limited one-line phase breakdown (to stderr) for every
    /// fully flushed request whose wall time reaches this threshold, and
    /// count it in `server.slow_requests`. `None` (the default) disables
    /// the log; the counter still counts nothing.
    pub slow_request_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            max_frame_bytes: wire::DEFAULT_MAX_FRAME_BYTES,
            max_docs_per_request: 64,
            max_inflight_per_conn: 32,
            max_inflight_total: 256,
            max_connections: 1024,
            max_buffered_response_bytes: 64 * 1024 * 1024,
            chunk_bytes: 256 * 1024,
            store_dir: None,
            max_resident_docs: 1024,
            wal_checkpoint_bytes: xdx_xmltree::limits::DEFAULT_FRAME_BYTES as u64,
            max_settings: 64,
            max_compiled_cost: 64 * xdx_core::settext::MAX_SETTING_TEXT_BYTES as u64,
            max_inflight_per_setting: 256,
            idle_timeout: Some(Duration::from_secs(60)),
            read_progress_timeout: Some(Duration::from_secs(10)),
            instrumentation: true,
            slow_request_threshold: None,
        }
    }
}

/// Why a [`ServerConfig`] was rejected at construction
/// ([`ServerConfig::validate`], called by [`Server::bind`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A limit that must be positive was zero.
    Zero {
        /// The offending field.
        field: &'static str,
    },
    /// A limit beyond any sane deployment — almost certainly a typo
    /// (bytes where kilobytes were meant, etc.).
    TooLarge {
        /// The offending field.
        field: &'static str,
        /// The configured value.
        value: usize,
        /// The largest accepted value.
        max: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero { field } => write!(f, "config: {field} must be positive"),
            ConfigError::TooLarge { field, value, max } => {
                write!(f, "config: {field} = {value} exceeds the maximum {max}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ServerConfig {
    /// Reject zero and absurd limits before any socket is bound. A zero
    /// budget would deadlock admission (every request answered `Busy`
    /// forever); an absurd one is a typo that would defeat the memory
    /// bounds the budgets exist to enforce.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use xdx_xmltree::limits::MAX_DOCUMENT_BYTES;
        let positive: [(&'static str, usize); 9] = [
            ("max_frame_bytes", self.max_frame_bytes),
            ("max_docs_per_request", self.max_docs_per_request),
            ("max_inflight_per_conn", self.max_inflight_per_conn),
            ("max_inflight_total", self.max_inflight_total),
            ("max_inflight_per_setting", self.max_inflight_per_setting),
            ("max_connections", self.max_connections),
            ("chunk_bytes", self.chunk_bytes),
            ("max_settings", self.max_settings),
            (
                "max_compiled_cost",
                self.max_compiled_cost.min(usize::MAX as u64) as usize,
            ),
        ];
        for (field, value) in positive {
            if value == 0 {
                return Err(ConfigError::Zero { field });
            }
        }
        if self.max_buffered_response_bytes == 0 {
            return Err(ConfigError::Zero {
                field: "max_buffered_response_bytes",
            });
        }
        let capped: [(&'static str, usize, usize); 9] = [
            ("workers", self.workers, 4096),
            ("max_frame_bytes", self.max_frame_bytes, MAX_DOCUMENT_BYTES),
            (
                "max_docs_per_request",
                self.max_docs_per_request,
                wire::MAX_DOCS_PER_REQUEST,
            ),
            ("max_inflight_per_conn", self.max_inflight_per_conn, 1 << 20),
            ("max_inflight_total", self.max_inflight_total, 1 << 20),
            (
                "max_inflight_per_setting",
                self.max_inflight_per_setting,
                1 << 20,
            ),
            ("max_connections", self.max_connections, 1 << 20),
            ("max_settings", self.max_settings, 1 << 20),
            ("chunk_bytes", self.chunk_bytes, MAX_DOCUMENT_BYTES),
        ];
        for (field, value, max) in capped {
            if value > max {
                return Err(ConfigError::TooLarge { field, value, max });
            }
        }
        if self.store_dir.is_some() && self.max_resident_docs == 0 {
            return Err(ConfigError::Zero {
                field: "max_resident_docs",
            });
        }
        if self.store_dir.is_some() && self.wal_checkpoint_bytes == 0 {
            return Err(ConfigError::Zero {
                field: "wal_checkpoint_bytes",
            });
        }
        // A zero deadline would reap every connection on its first tick;
        // "no deadline" is spelled `None`.
        if self.idle_timeout.is_some_and(|t| t.is_zero()) {
            return Err(ConfigError::Zero {
                field: "idle_timeout",
            });
        }
        if self.read_progress_timeout.is_some_and(|t| t.is_zero()) {
            return Err(ConfigError::Zero {
                field: "read_progress_timeout",
            });
        }
        // A zero threshold would log (and count) every request; "log
        // everything" is not a sane production setting and is almost
        // certainly a milliseconds-vs-nanoseconds typo.
        if self.slow_request_threshold.is_some_and(|t| t.is_zero()) {
            return Err(ConfigError::Zero {
                field: "slow_request_threshold",
            });
        }
        Ok(())
    }
}

/// Handle for stopping a running server from another thread.
#[derive(Debug)]
pub struct ServerControl {
    stop: AtomicBool,
    draining: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    wake: Mutex<UnixStream>,
}

impl ServerControl {
    /// Ask the event loop to exit. Idempotent; safe from any thread.
    /// In-flight work is abandoned (connections close without their
    /// responses); prefer [`ServerControl::drain`] for a graceful exit.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.nudge();
    }

    /// Ask the server to drain and exit gracefully: stop accepting, answer
    /// every *new* request with [`wire::STATUS_GOAWAY`] (never starting
    /// work on it), flush the responses already in flight, and close each
    /// connection as it settles. Connections still unsettled `grace` from
    /// now are force-closed; then [`Server::run`] returns (checkpointing
    /// the store on the way out, as on any clean exit). Idempotent — the
    /// first call's deadline wins; safe from any thread.
    pub fn drain(&self, grace: Duration) {
        {
            let mut deadline = self.drain_deadline.lock().expect("drain deadline poisoned");
            if deadline.is_none() {
                *deadline = Some(Instant::now() + grace);
            }
        }
        self.draining.store(true, Ordering::SeqCst);
        self.nudge();
    }

    /// Has [`ServerControl::drain`] been called?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn drain_deadline(&self) -> Option<Instant> {
        if !self.is_draining() {
            return None;
        }
        *self.drain_deadline.lock().expect("drain deadline poisoned")
    }

    /// Wake the event loop without stopping it (used by workers after
    /// pushing a completion).
    fn nudge(&self) {
        if let Ok(mut wake) = self.wake.lock() {
            // A full pipe already guarantees a pending wake-up.
            let _ = wake.write(&[1]);
        }
    }
}

/// Operational counters behind the `Stats` wire op (v4). Everything is a
/// monotonically increasing `u64` (or a level read at request time), so a
/// scraper can diff consecutive snapshots without special cases.
#[derive(Debug)]
struct ServerStats {
    started: Instant,
    /// Connections accepted and registered (shed ones excluded).
    accepted_conns: AtomicU64,
    /// Requests answered `Busy` by admission control.
    busy_rejected: AtomicU64,
    /// Requests answered `GoAway` while draining.
    goaway_rejected: AtomicU64,
    /// Connections reaped by the idle deadline.
    reaped_idle: AtomicU64,
    /// Connections reaped by the read-progress (slow-loris) deadline.
    reaped_slow: AtomicU64,
    /// Highest simultaneous in-flight request count ever observed.
    inflight_highwater: AtomicU64,
    /// Highest in-flight count any single setting ever reached.
    setting_inflight_highwater: AtomicU64,
    /// Stored-query answers served from the per-document result cache.
    store_cache_hits: AtomicU64,
    /// Stored-query answers that had to be computed.
    store_cache_misses: AtomicU64,
    /// Requests whose wall time reached
    /// [`ServerConfig::slow_request_threshold`].
    slow_requests: AtomicU64,
    /// Highest live-assignment count any worker's evaluation scratch ever
    /// reached ([`ExchangeScratch::assign_highwater`]) — the peak working
    /// set of pattern matching.
    assign_highwater: AtomicU64,
}

/// Counter names of every [`ServerStats`]-backed `Stats` row that exists
/// regardless of a store, ascending — the order [`collect_stats`] emits
/// and the wire contract requires. Kept as one table (rather than inline
/// strings) so ascending order is asserted **once at construction**
/// ([`ServerStats::new`]), not re-checked per `Stats` request.
const BASE_STAT_NAMES: [&str; 12] = [
    "engine.assign_highwater",
    "registry.artifact_hits",
    "registry.artifact_misses",
    "server.accepted_conns",
    "server.busy_rejected",
    "server.goaway_rejected",
    "server.inflight_highwater",
    "server.reaped_idle",
    "server.reaped_slow",
    "server.setting_inflight_highwater",
    "server.slow_requests",
    "server.uptime_secs",
];

/// Counter names appended when a store is mounted; ascending, and every
/// entry sorts after the whole base table (`store.` > `server.`).
const STORE_STAT_NAMES: [&str; 11] = [
    "store.cache_hits",
    "store.cache_misses",
    "store.degraded",
    "store.dirty_docs",
    "store.replay_ns",
    "store.replayed_records",
    "store.resident_docs",
    "store.resident_tree_bytes",
    "store.seq",
    "store.wal_bytes",
    "store.wal_rollbacks",
];

fn assert_stat_names_ascending() {
    let sorted = |names: &[&str]| names.windows(2).all(|w| w[0] < w[1]);
    assert!(
        sorted(&BASE_STAT_NAMES)
            && sorted(&STORE_STAT_NAMES)
            && BASE_STAT_NAMES.last() < STORE_STAT_NAMES.first(),
        "Stats counter name tables must be strictly ascending"
    );
}

impl ServerStats {
    fn new() -> ServerStats {
        // The ordering invariant the wire contract needs is established
        // here, once per server, instead of debug-asserted on every
        // `collect_stats` call.
        assert_stat_names_ascending();
        ServerStats {
            started: Instant::now(),
            accepted_conns: AtomicU64::new(0),
            busy_rejected: AtomicU64::new(0),
            goaway_rejected: AtomicU64::new(0),
            reaped_idle: AtomicU64::new(0),
            reaped_slow: AtomicU64::new(0),
            inflight_highwater: AtomicU64::new(0),
            setting_inflight_highwater: AtomicU64::new(0),
            store_cache_hits: AtomicU64::new(0),
            store_cache_misses: AtomicU64::new(0),
            slow_requests: AtomicU64::new(0),
            assign_highwater: AtomicU64::new(0),
        }
    }
}

/// Snapshot every counter for one `Stats` response: the loop-side and
/// worker-side atomics, the registry's compiled-cache counters, and — when
/// a store is mounted — the store's own health gauges, taken under its
/// lock. Rows ascend by name (the wire contract).
fn collect_stats(
    stats: &ServerStats,
    registry: &Registry,
    store: Option<&ServerStore>,
) -> Vec<(String, u64)> {
    let (hits, misses) = registry.artifact_counters();
    // Values in the same positional order as the name tables, whose
    // ascending order [`ServerStats::new`] asserted at construction.
    let base: [u64; BASE_STAT_NAMES.len()] = [
        stats.assign_highwater.load(Ordering::Relaxed),
        hits,
        misses,
        stats.accepted_conns.load(Ordering::Relaxed),
        stats.busy_rejected.load(Ordering::Relaxed),
        stats.goaway_rejected.load(Ordering::Relaxed),
        stats.inflight_highwater.load(Ordering::Relaxed),
        stats.reaped_idle.load(Ordering::Relaxed),
        stats.reaped_slow.load(Ordering::Relaxed),
        stats.setting_inflight_highwater.load(Ordering::Relaxed),
        stats.slow_requests.load(Ordering::Relaxed),
        stats.started.elapsed().as_secs(),
    ];
    let mut counters: Vec<(String, u64)> = BASE_STAT_NAMES
        .iter()
        .zip(base)
        .map(|(&n, v)| (n.to_string(), v))
        .collect();
    if let Some(store) = store {
        let s = store.lock().expect("store poisoned");
        let m = s.metrics();
        let store_vals: [u64; STORE_STAT_NAMES.len()] = [
            stats.store_cache_hits.load(Ordering::Relaxed),
            stats.store_cache_misses.load(Ordering::Relaxed),
            s.is_degraded() as u64,
            s.dirty_total() as u64,
            m.replay_ns,
            m.replayed_records,
            s.len() as u64,
            s.resident_tree_bytes(),
            s.seq(),
            s.wal_len(),
            s.wal_rollbacks(),
        ];
        counters.extend(
            STORE_STAT_NAMES
                .iter()
                .zip(store_vals)
                .map(|(&n, v)| (n.to_string(), v)),
        );
    }
    counters
}

// ---------------------------------------------------------------------------
// Per-request tracing and latency histograms
// ---------------------------------------------------------------------------

/// Phase indices of a request's [`Trace`] (slots of `Trace`'s fixed
/// array). The phases partition a request's wall time: every interval
/// from frame decode to final flush is charged to exactly one of them, so
/// the per-phase histogram sums reconstruct the total (the property
/// `tests/server_integration.rs` pins at ≥ 90%).
const PHASE_DECODE: usize = 0;
const PHASE_QUEUE: usize = 1;
const PHASE_RESOLVE: usize = 2;
const PHASE_PLAN: usize = 3;
const PHASE_EXEC: usize = 4;
const PHASE_STORE: usize = 5;
const PHASE_ENCODE: usize = 6;
const PHASE_FLUSH: usize = 7;

/// Wire/export names of the phases, indexed by the constants above.
const PHASE_NAMES: [&str; 8] = [
    "decode", "queue", "resolve", "plan", "exec", "store", "encode", "flush",
];

/// A request's trace plus the key it will be recorded under. Boxed on the
/// [`Job`]/[`Done`] handoffs so the untraced configuration pays one
/// pointer, not the trace array.
struct ReqTrace {
    /// The op byte (key half one; [`OpCode::name`] at export time).
    op: u8,
    /// The addressed setting (key half two).
    setting: u64,
    trace: Trace,
}

/// The latency histograms of one `(op, setting)` key.
struct PhaseSet {
    /// One histogram per [`PHASE_NAMES`] entry, nanoseconds.
    phases: [Histogram; PHASE_NAMES.len()],
    /// Wall time decode-start → fully-flushed, nanoseconds.
    total: Histogram,
}

impl PhaseSet {
    const fn new() -> PhaseSet {
        // Repeat-initializer idiom: each array element gets its own copy.
        #[allow(clippy::declare_interior_mutable_const)]
        const H: Histogram = Histogram::new();
        PhaseSet {
            phases: [H; PHASE_NAMES.len()],
            total: H,
        }
    }
}

/// Construction indices of [`GLOBAL_HISTOGRAMS`] (asserted by the
/// registry's own ordering check at startup).
const HIST_CHASE_REPAIRS: usize = 0;
const HIST_CHASE_STEPS: usize = 1;

/// The static-name global histograms (engine-side work distributions,
/// recorded once per engine-path request).
const GLOBAL_HISTOGRAMS: [(&str, Unit); 2] = [
    ("engine.chase_repairs", Unit::Count),
    ("engine.chase_steps", Unit::Count),
];

/// Server-side latency/work histograms, shared by workers (record), the
/// event loop (trace finalization) and exporters (Stats v2, Prometheus).
struct ServerMetrics {
    /// Static-name histograms ([`GLOBAL_HISTOGRAMS`]).
    global: MetricRegistry,
    /// Per-`(op, setting)` phase histograms. The map only ever grows (an
    /// entry per *op actually used* per live setting — bounded by 18 ×
    /// `max_settings`); reads take the lock briefly to clone the `Arc`,
    /// records then run lock-free on the histograms themselves.
    phases: RwLock<HashMap<(u8, u64), Arc<PhaseSet>>>,
    /// Last slow-request line's timestamp (the ~1/sec rate limit).
    slow_log_last: Mutex<Option<Instant>>,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        ServerMetrics {
            global: MetricRegistry::new(&[], &[], &GLOBAL_HISTOGRAMS),
            phases: RwLock::new(HashMap::new()),
            slow_log_last: Mutex::new(None),
        }
    }

    /// The phase set of `(op, setting)`, creating it on first use.
    fn phase_set(&self, op: u8, setting: u64) -> Arc<PhaseSet> {
        if let Some(set) = self
            .phases
            .read()
            .expect("phase table poisoned")
            .get(&(op, setting))
        {
            return Arc::clone(set);
        }
        Arc::clone(
            self.phases
                .write()
                .expect("phase table poisoned")
                .entry((op, setting))
                .or_insert_with(|| Arc::new(PhaseSet::new())),
        )
    }

    /// May another slow-request line be emitted? Takes the token when yes.
    fn slow_log_permit(&self) -> bool {
        let mut last = self.slow_log_last.lock().expect("slow log clock poisoned");
        let now = Instant::now();
        match *last {
            Some(at) if now.duration_since(at) < Duration::from_secs(1) => false,
            _ => {
                *last = Some(now);
                true
            }
        }
    }
}

/// One [`wire::StatsHistogram`] row from a snapshot.
fn histogram_row(name: String, unit: Unit, snap: &HistogramSnapshot) -> wire::StatsHistogram {
    wire::StatsHistogram {
        name,
        unit: unit.tag(),
        count: snap.count,
        sum: snap.sum,
        min: snap.min,
        max: snap.max,
        buckets: snap.nonzero_buckets().collect(),
    }
}

/// Snapshot every histogram for a Stats-v2 response (or the Prometheus
/// rendering): the global engine rows, every non-empty per-`(op, setting)`
/// phase row, and — when a store is mounted — its fsync/checkpoint
/// latencies. Rows ascend by name, like the counters.
fn collect_histograms(
    metrics: &ServerMetrics,
    store: Option<&ServerStore>,
) -> Vec<wire::StatsHistogram> {
    let mut rows: Vec<wire::StatsHistogram> = Vec::new();
    for (name, unit, snap) in metrics.global.histogram_rows() {
        rows.push(histogram_row(name.to_string(), unit, &snap));
    }
    {
        let table = metrics.phases.read().expect("phase table poisoned");
        for (&(op, setting), set) in table.iter() {
            let op_name = OpCode::from_u8(op).map(OpCode::name).unwrap_or("unknown");
            for (i, phase) in PHASE_NAMES.iter().enumerate() {
                let snap = set.phases[i].snapshot();
                if snap.count == 0 {
                    continue;
                }
                rows.push(histogram_row(
                    format!("req.{op_name}.s{setting}.{phase}"),
                    Unit::Nanos,
                    &snap,
                ));
            }
            let total = set.total.snapshot();
            if total.count > 0 {
                rows.push(histogram_row(
                    format!("req.{op_name}.s{setting}.total"),
                    Unit::Nanos,
                    &total,
                ));
            }
        }
    }
    if let Some(store) = store {
        let s = store.lock().expect("store poisoned");
        let m = s.metrics();
        rows.push(histogram_row(
            "store.checkpoint".to_string(),
            Unit::Nanos,
            &m.checkpoint.snapshot(),
        ));
        rows.push(histogram_row(
            "store.fsync".to_string(),
            Unit::Nanos,
            &m.fsync.snapshot(),
        ));
    }
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    rows
}

/// One unit of work: a decoded request owned by a connection generation.
/// Carries a snapshot of the connection's negotiated codec and chunk limit
/// at dispatch time, so a mid-pipeline `Hello` cannot change the shape of
/// responses already in flight.
struct Job {
    slot: usize,
    generation: u64,
    frame: RequestFrame,
    codec: Codec,
    /// Maximum response-body bytes per segment; `usize::MAX` disables
    /// chunking (the whole response is one `STATUS_OK` frame).
    chunk_bytes: usize,
    /// Did the connection negotiate [`wire::FEATURE_STATS_V2`] (snapshot
    /// at dispatch, like `codec`)? Shapes `Stats` responses only.
    stats_v2: bool,
    /// The request's phase trace (instrumentation on), running since frame
    /// decode; rides to the worker and back so queue/handoff latencies
    /// stay inside measured phases.
    trace: Option<Box<ReqTrace>>,
}

/// One finished response *segment*, already framed (length prefix
/// included). An unchunked response is a single segment with `last =
/// true`; a chunked response is any number of `STATUS_OK_PARTIAL` segments
/// followed by the final `STATUS_OK` one. Only the last segment releases
/// the in-flight budget.
struct Done {
    slot: usize,
    generation: u64,
    /// The setting the request addressed — releases its per-setting
    /// admission budget when `last`.
    setting_id: u64,
    bytes: Vec<u8>,
    last: bool,
    /// The request's trace, handed back with the *final* segment (its
    /// encode phase already stamped); the event loop finishes the flush
    /// phase when the segment leaves the socket.
    trace: Option<Box<ReqTrace>>,
}

/// State shared between the loop and the workers.
struct Shared {
    jobs: Mutex<VecDeque<Job>>,
    jobs_ready: Condvar,
    done: Mutex<Vec<Done>>,
    workers_stop: AtomicBool,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            jobs: Mutex::new(VecDeque::new()),
            jobs_ready: Condvar::new(),
            done: Mutex::new(Vec::new()),
            workers_stop: AtomicBool::new(false),
        }
    }
}

struct Conn {
    stream: Duplex,
    generation: u64,
    /// Unparsed input; `rpos` is the consumed prefix.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Pending output as a queue of framed segments, moved (not copied)
    /// from worker completions; flushed with gathered writes. `wfront` is
    /// the written prefix of the front segment, `wq_bytes` the total bytes
    /// queued (including that prefix).
    wq: VecDeque<WqSeg>,
    wfront: usize,
    wq_bytes: usize,
    inflight: usize,
    /// Negotiated document codec (v2 `Hello`); text until negotiated.
    codec: Codec,
    /// Did the peer negotiate chunked responses?
    chunked: bool,
    /// Did the peer negotiate the v3 settings frame layout?
    settings: bool,
    /// Did the peer negotiate Stats-v2 histogram rows?
    stats_v2: bool,
    /// Poisoned: flush remaining output, then close. No more reads parsed.
    closing: bool,
    /// Is `EPOLLOUT` currently part of the registration?
    want_write: bool,
    /// The peer closed its write half (no more requests will arrive).
    peer_eof: bool,
    /// Last observed progress (bytes read, response queued, bytes
    /// written) — the idle deadline measures from here.
    last_activity: Instant,
    /// When the partial frame at the head of `rbuf` started. Restarted
    /// each time a whole frame completes, *not* on every arriving byte, so
    /// a drip-feeding peer cannot keep resetting the read-progress clock.
    partial_since: Option<Instant>,
}

/// One queued output segment: the framed bytes, plus — on a response's
/// final segment — the request's trace, finalized when the segment's last
/// byte leaves the socket (so the flush phase covers real sink latency,
/// not just queueing).
struct WqSeg {
    bytes: Vec<u8>,
    trace: Option<Box<ReqTrace>>,
}

const TOK_TCP: u64 = 0;
const TOK_UNIX: u64 = 1;
const TOK_WAKE: u64 = 2;
const TOK_CONN_BASE: u64 = 3;

/// Segments gathered into one `writev` call. Linux caps an iovec array at
/// `IOV_MAX` (1024); 32 covers deep response queues while keeping the
/// per-flush stack small.
const MAX_FLUSH_IOV: usize = 32;

/// The serving front-end, bound but not yet running. Construct with
/// [`Server::bind`], then call [`Server::run`] (typically on a dedicated
/// thread, with the [`ServerControl`] from [`Server::control`] kept for
/// shutdown).
pub struct Server {
    registry: Arc<Registry>,
    config: ServerConfig,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    unix_path: Option<PathBuf>,
    control: Arc<ServerControl>,
    wake_rx: UnixStream,
    store: Option<Arc<ServerStore>>,
    stats: Arc<ServerStats>,
    metrics: Arc<ServerMetrics>,
}

/// A read-only observability handle onto a (possibly running) server:
/// counters, latency histograms, and a Prometheus-style text rendering.
/// Cheap to clone; obtained from [`Server::stats_handle`] before `run`
/// consumes the server, and usable from any thread while it runs.
#[derive(Clone)]
pub struct StatsHandle {
    stats: Arc<ServerStats>,
    metrics: Arc<ServerMetrics>,
    registry: Arc<Registry>,
    store: Option<Arc<ServerStore>>,
}

impl StatsHandle {
    /// The counter rows a `Stats` wire response would carry, ascending by
    /// name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        collect_stats(&self.stats, &self.registry, self.store.as_deref())
    }

    /// Render every counter and histogram in the Prometheus text format
    /// (`examples/serve.rs` prints this for the `stats` stdin command and
    /// the periodic dump).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters() {
            // Every row is rendered as a gauge: several (uptime, levels,
            // highwaters) genuinely are, and a scraper can rate() either.
            xdx_obs::prom::scalar(&mut out, &name, value, true);
        }
        for row in collect_histograms(&self.metrics, self.store.as_deref()) {
            let snap = HistogramSnapshot::from_sparse(
                row.count,
                row.sum,
                row.min,
                row.max,
                row.buckets.iter().copied(),
            );
            xdx_obs::prom::histogram(&mut out, &row.name, Unit::from_tag(row.unit), &snap);
        }
        out
    }

    /// How many requests crossed the slow threshold so far.
    pub fn slow_requests(&self) -> u64 {
        self.stats.slow_requests.load(Ordering::Relaxed)
    }
}

impl Server {
    /// Bind listeners for `setting`. At least one of `tcp_addr` (e.g.
    /// `"127.0.0.1:0"`) and `unix_path` must be given; both may be. The
    /// Unix socket file must not exist yet and is removed again when
    /// [`Server::run`] returns.
    pub fn bind(
        setting: &DataExchangeSetting,
        tcp_addr: Option<&str>,
        unix_path: Option<&Path>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        if tcp_addr.is_none() && unix_path.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "bind at least one of a TCP address and a Unix socket path",
            ));
        }
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let store = config
            .store_dir
            .as_ref()
            .map(|dir| {
                let store_config = StoreConfig {
                    max_resident_docs: config.max_resident_docs,
                    ..StoreConfig::new(dir.clone())
                };
                DocStore::open(store_config)
                    .map(|s| Arc::new(Mutex::new(s)))
                    .map_err(|e| {
                        let message = e.to_string();
                        match e {
                            StoreError::Io(io) => io,
                            _ => io::Error::new(io::ErrorKind::InvalidData, message),
                        }
                    })
            })
            .transpose()?;
        let tcp = tcp_addr
            .map(|addr| {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok::<_, io::Error>(l)
            })
            .transpose()?;
        let unix = unix_path
            .map(|path| {
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok::<_, io::Error>(l)
            })
            .transpose()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        // The startup setting becomes the registry's pinned binding 0 —
        // every v1/v2 request (and any v3 request that does not name a
        // setting) runs against it, so pre-registry deployments behave
        // identically.
        let engine = BatchEngine::new_owned(Arc::new(setting.clone())).parallelism(workers);
        let registry = Arc::new(Registry::new(
            engine,
            setting_to_text(setting),
            workers,
            config.max_settings,
            config.max_compiled_cost,
        ));
        Ok(Server {
            registry,
            config: ServerConfig { workers, ..config },
            tcp,
            unix,
            unix_path: unix_path.map(Path::to_path_buf),
            control: Arc::new(ServerControl {
                stop: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                drain_deadline: Mutex::new(None),
                wake: Mutex::new(wake_tx),
            }),
            wake_rx,
            store,
            stats: Arc::new(ServerStats::new()),
            metrics: Arc::new(ServerMetrics::new()),
        })
    }

    /// The shutdown handle.
    pub fn control(&self) -> Arc<ServerControl> {
        Arc::clone(&self.control)
    }

    /// An observability handle that outlives [`Server::run`] (counters,
    /// histograms, Prometheus rendering).
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle {
            stats: Arc::clone(&self.stats),
            metrics: Arc::clone(&self.metrics),
            registry: Arc::clone(&self.registry),
            store: self.store.clone(),
        }
    }

    /// The bound TCP address (useful after binding port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Run the event loop until [`ServerControl::shutdown`]. Spawns the
    /// worker pool as scoped threads; joins everything before returning.
    pub fn run(self) -> io::Result<()> {
        let Server {
            registry,
            config,
            tcp,
            unix,
            unix_path,
            control,
            wake_rx,
            store,
            stats,
            metrics,
        } = self;
        let shared = Arc::new(Shared::new());
        let registry = &registry;
        let store = &store;
        let stats = &stats;
        let metrics = &metrics;
        let result = std::thread::scope(|scope| {
            // The epoll instance is created *before* any worker spawns, so
            // an early `?` cannot leave workers waiting forever.
            let epoll = Epoll::new()?;
            let wal_checkpoint_bytes = config.wal_checkpoint_bytes;
            for _ in 0..config.workers {
                let shared = Arc::clone(&shared);
                let control = Arc::clone(&control);
                scope.spawn(move || {
                    worker_loop(
                        registry,
                        store.as_deref(),
                        stats,
                        metrics,
                        wal_checkpoint_bytes,
                        &shared,
                        &control,
                    )
                });
            }
            let mut event_loop = EventLoop {
                config: &config,
                tcp,
                unix,
                wake_rx,
                control: &control,
                shared: &shared,
                stats,
                metrics,
                epoll,
                conns: Vec::new(),
                free_slots: Vec::new(),
                live_conns: 0,
                total_inflight: 0,
                inflight_per_setting: HashMap::new(),
                next_generation: 0,
            };
            let result = event_loop.run();
            // Stop the pool: workers drain the remaining queue, then exit.
            shared.workers_stop.store(true, Ordering::SeqCst);
            shared.jobs_ready.notify_all();
            result
        });
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(path);
        }
        // Best-effort checkpoint on clean shutdown: compacts the WAL so the
        // next open replays a snapshot instead of the whole edit history.
        if let Some(store) = store {
            if let Ok(mut guard) = store.lock() {
                let _ = guard.checkpoint();
            }
        }
        result
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(
    registry: &Registry,
    store: Option<&ServerStore>,
    stats: &ServerStats,
    metrics: &ServerMetrics,
    wal_checkpoint_bytes: u64,
    shared: &Shared,
    control: &ServerControl,
) {
    let mut scratch = ExchangeScratch::new();
    loop {
        let mut job = {
            let mut jobs = shared.jobs.lock().expect("job queue poisoned");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if shared.workers_stop.load(Ordering::SeqCst) {
                    return;
                }
                jobs = shared.jobs_ready.wait(jobs).expect("job queue poisoned");
            }
        };
        // Taking the writer stamps the queue phase: everything between
        // frame decode and this pop — enqueue, wake, contention — was
        // queue wait.
        let mut w = ResponseWriter::new(shared, control, &mut job);
        scratch.reset_counters();
        let mut cx = Ctx {
            registry,
            store,
            stats,
            wal_checkpoint_bytes,
            setting: job.frame.setting_id,
            codec: job.codec,
            scratch: &mut scratch,
            w: &mut w,
        };
        let handled = match job.frame.body {
            // `Ping` and `Hello` are answered inline by the event loop; a
            // job carrying one would be a dispatch bug, but answer it anyway.
            RequestBody::Ping => Ok(Some(ResponseBody::Pong)),
            RequestBody::Hello { features } => Ok(Some(ResponseBody::HelloOk {
                features: features & wire::SUPPORTED_FEATURES,
            })),
            // Registry ops run here so compilation (potentially long)
            // stays off the event loop, like every other expensive path.
            RequestBody::PutSetting { bind_id, text } => cx.put_setting(bind_id, &text),
            RequestBody::ListSettings => Ok(Some(ResponseBody::SettingList {
                entries: registry.list(),
            })),
            RequestBody::EvictSetting { bind_id } => registry
                .evict(bind_id)
                .map(|dropped| Some(ResponseBody::EvictSettingOk { dropped })),
            // `Stats` aggregates server-wide counters — it addresses no
            // setting, so it never resolves (or compiles) an engine.
            RequestBody::Stats => {
                let histograms = if job.stats_v2 {
                    collect_histograms(metrics, store)
                } else {
                    Vec::new()
                };
                Ok(Some(ResponseBody::StatsOk {
                    counters: collect_stats(stats, registry, store),
                    histograms,
                }))
            }
            // Each exchange op has one handler; a `*Stored` op is its base
            // op over a stored document.
            RequestBody::CheckConsistency { docs } => {
                cx.exchange(Exchange::Consistency, Source::Inline(docs))
            }
            RequestBody::CheckConsistencyStored { doc_id } => {
                cx.exchange(Exchange::Consistency, Source::Stored(doc_id))
            }
            RequestBody::CanonicalSolution { docs } => {
                cx.exchange(Exchange::Solution, Source::Inline(docs))
            }
            RequestBody::CanonicalSolutionStored { doc_id } => {
                cx.exchange(Exchange::Solution, Source::Stored(doc_id))
            }
            RequestBody::CertainAnswers { query, docs } => {
                cx.exchange(Exchange::Answers(query), Source::Inline(docs))
            }
            RequestBody::CertainAnswersStored { query, doc_id } => {
                cx.exchange(Exchange::Answers(query), Source::Stored(doc_id))
            }
            RequestBody::CertainAnswersBoolean { query, docs } => {
                cx.exchange(Exchange::Boolean(query), Source::Inline(docs))
            }
            RequestBody::CertainAnswersBooleanStored { query, doc_id } => {
                cx.exchange(Exchange::Boolean(query), Source::Stored(doc_id))
            }
            RequestBody::PutDoc { doc_id, doc } => cx.put_doc(doc_id, &doc),
            RequestBody::GetDoc { doc_id } => cx.get_doc(doc_id),
            RequestBody::EditDoc {
                doc_id,
                base_version,
                edits,
            } => cx.edit_doc(doc_id, base_version, &edits),
            RequestBody::DeleteDoc { doc_id } => cx.delete_doc(doc_id),
        };
        match handled {
            Ok(Some(body)) => w.whole(body),
            Ok(None) => w.finish(),
            Err(e) => w.whole(ResponseBody::Error(e)),
        }
        // Chase work the request just did, as per-request distributions
        // (how many pops/repairs a request costs), plus the
        // assignment-store highwater. Requests that never chased (store
        // mutations, gets, registry ops) record nothing.
        let c = scratch.counters;
        if c.chase_steps > 0 {
            metrics
                .global
                .histogram(HIST_CHASE_STEPS)
                .record(c.chase_steps);
            metrics
                .global
                .histogram(HIST_CHASE_REPAIRS)
                .record(c.chase_repairs);
        }
        stats
            .assign_highwater
            .fetch_max(scratch.assign_highwater() as u64, Ordering::Relaxed);
    }
}

/// A handler's outcome: `Ok(Some(body))` is a whole response, `Ok(None)` a
/// body already streamed through the [`ResponseWriter`], and `Err` fails
/// the whole request. Handlers validate everything (documents, queries,
/// the addressed setting) before streaming their first body byte, so a
/// logical response is either one whole frame or a complete OK stream —
/// never a half-written success.
type Handled = Result<Option<ResponseBody>, WireError>;

/// The paper's four exchange services. `Q` is the query of the two
/// certain-answer ops as a handler refines it: text, parsed, planned.
enum Exchange<Q> {
    /// Is the source document consistent: conforming, with a solution?
    Consistency,
    /// The Section 6.1 canonical solution.
    Solution,
    /// Section 7 certain answers of a conjunctive tree query.
    Answers(Q),
    /// Section 7 Boolean certain answer.
    Boolean(Q),
}

/// Where an exchange op's documents come from.
enum Source {
    /// Shipped in the request, in the connection's codec.
    Inline(Vec<WireDoc>),
    /// One resident document of the addressed setting.
    Stored(u64),
}

impl<Q> Exchange<Q> {
    /// The op code of the response, which both sources share.
    fn op(&self) -> OpCode {
        match self {
            Exchange::Consistency => OpCode::CheckConsistency,
            Exchange::Solution => OpCode::CanonicalSolution,
            Exchange::Answers(_) => OpCode::CertainAnswers,
            Exchange::Boolean(_) => OpCode::CertainAnswersBoolean,
        }
    }

    /// The same op with its query (if it has one) mapped through `f`.
    fn try_map<R, E>(&self, f: impl FnOnce(&Q) -> Result<R, E>) -> Result<Exchange<R>, E> {
        Ok(match self {
            Exchange::Consistency => Exchange::Consistency,
            Exchange::Solution => Exchange::Solution,
            Exchange::Answers(q) => Exchange::Answers(f(q)?),
            Exchange::Boolean(q) => Exchange::Boolean(f(q)?),
        })
    }
}

impl Exchange<String> {
    /// Parse the query, failing with its `Query*` error code.
    fn parse(&self) -> Result<Exchange<UnionQuery>, WireError> {
        self.try_map(|q| parse_query(q).map_err(|e| WireError::of_query_error(&e)))
    }

    /// The answer-cache key: a query's cached answers are keyed by its text.
    fn cache_key(self) -> CacheKey {
        match self {
            Exchange::Consistency => CacheKey::Consistency,
            Exchange::Solution => CacheKey::CanonicalSolution,
            Exchange::Answers(q) => CacheKey::CertainAnswers(q),
            Exchange::Boolean(q) => CacheKey::CertainBoolean(q),
        }
    }
}

impl Exchange<UnionQuery> {
    fn plan(&self, compiled: &CompiledSetting<'_>) -> Exchange<QueryPlan> {
        let Ok(planned) =
            self.try_map(|q| Ok::<_, Infallible>(QueryPlan::new(q, compiled.target_dtd())));
        planned
    }
}

impl Exchange<QueryPlan> {
    /// Run the op on one document with this worker's scratch: exactly the
    /// computation [`BatchEngine`]'s `*_batch` methods run, so every
    /// response row is what a local batch call would produce.
    fn answer(
        &self,
        compiled: &CompiledSetting<'_>,
        tree: &XmlTree,
        scratch: &mut ExchangeScratch,
    ) -> DocAnswer {
        match self {
            Exchange::Consistency => {
                DocAnswer::Consistency(compiled.check_instance_consistency_with(tree, scratch))
            }
            Exchange::Solution => {
                DocAnswer::solution(compiled.canonical_solution_with(tree, scratch))
            }
            Exchange::Answers(plan) => DocAnswer::Answers(
                compiled
                    .certain_answers_planned_with(tree, plan, scratch)
                    .map(|answers| answers.tuples.into_iter().collect())
                    .map_err(|e| WireError::of_solution_error(&e)),
            ),
            Exchange::Boolean(plan) => DocAnswer::Boolean(
                compiled
                    .certain_boolean_planned_with(tree, plan, scratch)
                    .map_err(|e| WireError::of_solution_error(&e)),
            ),
        }
    }
}

/// What a queued request needs besides its body: the server-wide state the
/// workers share, the job's setting and codec, this worker's scratch and
/// the request's response writer.
struct Ctx<'a, 'w> {
    registry: &'a Registry,
    store: Option<&'a ServerStore>,
    stats: &'a ServerStats,
    wal_checkpoint_bytes: u64,
    setting: u64,
    codec: Codec,
    scratch: &'a mut ExchangeScratch,
    w: &'a mut ResponseWriter<'w>,
}

impl<'a> Ctx<'a, '_> {
    /// Resolve the addressed setting's engine. Every op but the registry
    /// ops and `Stats` addresses a bound setting, store ops included. An
    /// LRU/cache hit is an `Arc` clone; a cold binding recompiles from its
    /// retained text right here, on this worker, and the resolve phase
    /// covers that recompile (potentially milliseconds).
    fn resolve(&mut self) -> Result<Arc<BatchEngine<'static>>, WireError> {
        let engine = self.registry.resolve(self.setting)?;
        self.w.step(PHASE_RESOLVE);
        Ok(engine)
    }

    fn store(&self) -> Result<&'a ServerStore, WireError> {
        self.store.ok_or_else(|| {
            WireError::new(
                wire::ErrorCode::StoreDisabled,
                "this server mounts no document store",
            )
        })
    }

    /// Bind a setting (v3). A rebind that changes a setting's text
    /// invalidates that setting's derived store state — cached answers and
    /// validation baselines — while stored documents and versions survive
    /// untouched (they belong to the setting id, not the compiled artifact).
    fn put_setting(&self, bind_id: u64, text: &str) -> Handled {
        let outcome = self.registry.put(bind_id, text)?;
        if outcome.rebound {
            if let Some(store) = self.store {
                store
                    .lock()
                    .expect("store poisoned")
                    .invalidate_setting(bind_id);
            }
        }
        Ok(Some(ResponseBody::PutSettingOk {
            content_hash: outcome.content_hash,
            reused: outcome.reused,
        }))
    }

    /// Answer one exchange op over its document source, streaming one row
    /// per document. This is the op's single code path: a `*Stored` op
    /// differs from its base op only in where the document comes from, so
    /// both answer with the same bytes by construction.
    fn exchange(&mut self, op: Exchange<String>, source: Source) -> Handled {
        let engine = self.resolve()?;
        let compiled = engine.compiled();
        match source {
            Source::Inline(docs) => {
                let parsed = op.parse()?;
                let trees = parse_docs(&docs)?;
                self.w.step(PHASE_DECODE);
                // Plan once per request, not per document.
                let planned = parsed.plan(compiled);
                if matches!(planned, Exchange::Answers(_) | Exchange::Boolean(_)) {
                    self.w.step(PHASE_PLAN);
                }
                wire::put_rows_header(self.w, planned.op(), trees.len());
                // Fan out on the engine's *configured* parallelism alone.
                // Consulting live `available_parallelism()` here made the
                // branch untestable (a 1-core CI box could never exercise
                // the reorder buffer below) and second-guessed an explicit
                // `workers` configuration; whoever builds the engine owns
                // the single-core-pool-is-a-loss call.
                if matches!(planned, Exchange::Solution)
                    && trees.len() > 1
                    && engine.configured_parallelism() > 1
                {
                    // Multi-document request: fan the per-document chase out
                    // across the engine's pool ([`BatchEngine::canonical_solutions_for_each`]),
                    // exactly what a local batch call runs. Results arrive in
                    // completion order; the stream must be in document order,
                    // so out-of-order solutions wait in a reorder buffer and
                    // each is serialized and dropped as soon as its turn
                    // comes — peak extra memory is the in-flight skew, not
                    // the batch.
                    let mut pending: Vec<Option<DocAnswer>> =
                        (0..trees.len()).map(|_| None).collect();
                    let mut cursor = 0usize;
                    engine.canonical_solutions_for_each(&trees, |i, result| {
                        pending[i] = Some(DocAnswer::solution(result));
                        while let Some(slot) = pending.get_mut(cursor) {
                            let Some(ready) = slot.take() else { break };
                            ready.put_row(self.w, self.codec);
                            cursor += 1;
                        }
                    });
                } else {
                    // Every other op, and a single document or no pool: this
                    // worker's warm scratch beats spawning compute threads.
                    for t in &trees {
                        let answer = planned.answer(compiled, t, self.scratch);
                        answer.put_row(self.w, self.codec);
                    }
                }
                // Streaming interleaves compute and serialization, so the
                // exec phase deliberately includes per-document encoding;
                // the encode phase then covers only the residue after the
                // last document.
                self.w.step(PHASE_EXEC);
            }
            Source::Stored(doc_id) => {
                let store = self.store()?;
                // Parse before the cache lookup so a malformed query fails
                // identically whether or not an answer is cached.
                let parsed = op.parse()?;
                let scratch = &mut *self.scratch;
                let answer = stored_answer(
                    store,
                    self.stats,
                    self.w,
                    DocKey::new(self.setting, doc_id),
                    op.cache_key(),
                    |tree| parsed.plan(compiled).answer(compiled, tree, scratch),
                )?;
                wire::put_rows_header(self.w, parsed.op(), 1);
                answer.put_row(self.w, self.codec);
            }
        }
        Ok(None)
    }

    fn put_doc(&mut self, doc_id: u64, doc: &WireDoc) -> Handled {
        self.resolve()?;
        let store = self.store()?;
        let tree = doc.to_tree()?;
        self.w.step(PHASE_DECODE);
        let key = DocKey::new(self.setting, doc_id);
        let version = self.mutate(store, |s| s.put(key, tree))?;
        Ok(Some(ResponseBody::PutDocOk { version }))
    }

    fn get_doc(&mut self, doc_id: u64) -> Handled {
        self.resolve()?;
        let store = self.store()?;
        // Encode under the lock: the returned frame must be one consistent
        // (version, bytes) pair even if an edit races in.
        let result = store
            .lock()
            .expect("store poisoned")
            .get(DocKey::new(self.setting, doc_id))
            .map(|(tree, version)| (version, WireDoc::from_tree(tree, self.codec)));
        self.w.step(PHASE_STORE);
        let (version, doc) = result.map_err(|e| WireError::of_store_error(&e))?;
        Ok(Some(ResponseBody::GetDocOk { version, doc }))
    }

    fn edit_doc(&mut self, doc_id: u64, base_version: u64, edits: &[u8]) -> Handled {
        self.resolve()?;
        let store = self.store()?;
        let batch = decode_edits_exact(edits).map_err(|e| {
            WireError::new(
                wire::ErrorCode::BadEdit,
                format!("malformed edit batch: {e}"),
            )
        })?;
        self.w.step(PHASE_DECODE);
        let key = DocKey::new(self.setting, doc_id);
        let receipt = self.mutate(store, |s| s.edit(key, base_version, &batch))?;
        Ok(Some(ResponseBody::EditDocOk {
            version: receipt.version,
        }))
    }

    fn delete_doc(&mut self, doc_id: u64) -> Handled {
        self.resolve()?;
        let store = self.store()?;
        let key = DocKey::new(self.setting, doc_id);
        self.mutate(store, |s| s.delete(key))?;
        Ok(Some(ResponseBody::DeleteDocOk))
    }

    /// Apply one mutation under the store lock. After a success, compact
    /// opportunistically while still holding the lock: once the WAL
    /// outgrows the configured threshold, checkpoint (snapshot + WAL reset)
    /// so a long-running server's log — and the replay the next open pays —
    /// stays bounded. Best-effort: a failed checkpoint leaves the WAL (and
    /// thus durability) intact, and the next mutation simply tries again.
    fn mutate<T>(
        &mut self,
        store: &ServerStore,
        apply: impl FnOnce(&mut DocStore<DocAnswer>) -> Result<T, StoreError>,
    ) -> Result<T, WireError> {
        let result = {
            let mut s = store.lock().expect("store poisoned");
            let result = apply(&mut s);
            if result.is_ok() && s.wal_len() >= self.wal_checkpoint_bytes {
                let _ = s.checkpoint();
            }
            result
        };
        self.w.step(PHASE_STORE);
        result.map_err(|e| WireError::of_store_error(&e))
    }
}

/// Length prefix (4) + status (1) + request id (8): the bytes every
/// response segment starts with. The length and status are placeholders
/// until the segment is sealed.
const SEG_HEADER: usize = 4 + 1 + 8;

/// Serializes one response *directly into the connection's write queue*,
/// in bounded segments, from the worker thread.
///
/// The writer appends body bytes to the current segment; when the
/// negotiated chunk limit fills, the segment is sealed as
/// [`wire::STATUS_OK_PARTIAL`] and handed to the event loop immediately
/// (a [`Done`] push + wake), so a huge solution streams out while the
/// worker is still serializing its tail — peak buffering per response is
/// one chunk, not the whole response, and the loop can interleave other
/// connections' flushes between chunks. [`ResponseWriter::finish`] seals
/// the final [`wire::STATUS_OK`] segment.
///
/// For an unchunked connection (`chunk_bytes == usize::MAX`) the single
/// final segment is byte-for-byte `wire::frame(wire::encode_response(..))`
/// — v1 clients cannot tell the difference.
struct ResponseWriter<'w> {
    shared: &'w Shared,
    control: &'w ServerControl,
    slot: usize,
    generation: u64,
    id: u64,
    setting_id: u64,
    chunk_bytes: usize,
    seg: Vec<u8>,
    /// The request's phase trace, carried from the event loop through this
    /// worker and handed back (on the final segment's [`Done`]) so the event
    /// loop can charge the flush phase and finalize it.
    trace: Option<Box<ReqTrace>>,
}

impl<'w> ResponseWriter<'w> {
    fn new(shared: &'w Shared, control: &'w ServerControl, job: &mut Job) -> ResponseWriter<'w> {
        let mut writer = ResponseWriter {
            shared,
            control,
            slot: job.slot,
            generation: job.generation,
            id: job.frame.id,
            setting_id: job.frame.setting_id,
            chunk_bytes: job.chunk_bytes.max(1),
            seg: Vec::new(),
            trace: job.trace.take(),
        };
        // Everything since the decode step — completion-queue enqueue, the
        // wake, lock contention, sitting behind other jobs — was queue wait.
        writer.step(PHASE_QUEUE);
        writer.start_segment();
        writer
    }

    /// Charge the elapsed-since-last-mark to `phase`. No-op when the
    /// request is untraced (instrumentation off).
    fn step(&mut self, phase: usize) {
        if let Some(t) = &mut self.trace {
            t.trace.step(phase);
        }
    }

    fn start_segment(&mut self) {
        let cap = SEG_HEADER + self.chunk_bytes.min(64 * 1024);
        self.seg = Vec::with_capacity(cap);
        self.seg.extend_from_slice(&[0u8; 4]); // length, patched on seal
        self.seg.push(wire::STATUS_OK); // status, patched on seal
        self.seg.extend_from_slice(&self.id.to_be_bytes());
    }

    /// Body bytes already in the open segment.
    fn body_len(&self) -> usize {
        self.seg.len() - SEG_HEADER
    }

    /// Seal the open segment (patch length + status) and hand it to the
    /// event loop. `last` decides `STATUS_OK` vs `STATUS_OK_PARTIAL` and
    /// whether the completion releases the in-flight budget.
    fn seal(&mut self, last: bool) {
        let payload_len = u32::try_from(self.seg.len() - 4).expect("segment exceeds u32::MAX");
        self.seg[0..4].copy_from_slice(&payload_len.to_be_bytes());
        self.seg[4] = if last {
            wire::STATUS_OK
        } else {
            wire::STATUS_OK_PARTIAL
        };
        if last {
            // Body bytes were streamed (encoded) between the last compute
            // step and this seal.
            self.step(PHASE_ENCODE);
        }
        let bytes = std::mem::take(&mut self.seg);
        self.push(bytes, last);
        if !last {
            self.start_segment();
        }
    }

    /// Seal the final segment; the logical response is complete.
    fn finish(mut self) {
        self.seal(true);
    }

    /// Replace the (still body-less) response with one whole pre-encoded
    /// frame — the path for small responses and request-level errors,
    /// which are never chunked.
    fn whole(mut self, body: ResponseBody) {
        debug_assert_eq!(self.body_len(), 0, "whole() after body bytes were streamed");
        let bytes = wire::frame(wire::encode_response(&ResponseFrame { id: self.id, body }));
        self.step(PHASE_ENCODE);
        self.push(bytes, true);
    }

    /// Hand one framed segment to the event loop (a [`Done`] push + wake).
    /// Only the final segment carries the trace back: the event loop
    /// finalizes it when that segment is fully written to the socket, so
    /// the flush phase spans the whole response, not one chunk.
    fn push(&mut self, bytes: Vec<u8>, last: bool) {
        let trace = if last { self.trace.take() } else { None };
        self.shared
            .done
            .lock()
            .expect("completion queue poisoned")
            .push(Done {
                slot: self.slot,
                generation: self.generation,
                setting_id: self.setting_id,
                bytes,
                last,
                trace,
            });
        self.control.nudge();
    }
}

/// Appending body bytes cuts segments at the chunk limit.
impl ByteSink for ResponseWriter<'_> {
    fn put(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let room = self.chunk_bytes - self.body_len();
            if room == 0 {
                self.seal(false);
                continue;
            }
            let n = room.min(bytes.len());
            self.seg.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
    }
}

/// Parse every document of a request, or fail the whole request with the
/// index of the offending document.
fn parse_docs(docs: &[WireDoc]) -> Result<Vec<XmlTree>, WireError> {
    docs.iter()
        .enumerate()
        .map(|(i, doc)| {
            doc.to_tree()
                .map_err(|e| WireError::new(e.code, format!("document {i}: {}", e.message)))
        })
        .collect()
}

/// Answer a stored-document query through the per-document result cache:
/// under the lock, return a hit computed at the current version, or clone
/// the tree out; compute *unlocked* (the chase can be long); re-lock and
/// insert tagged with the version the computation actually saw — if an edit
/// landed meanwhile the insert is discarded and the response still reflects
/// the version it announced to no one (stored queries carry no version, so
/// serving the version that was current at dispatch is linearizable).
fn stored_answer(
    store: &ServerStore,
    stats: &ServerStats,
    w: &mut ResponseWriter<'_>,
    doc: DocKey,
    key: CacheKey,
    compute: impl FnOnce(&XmlTree) -> DocAnswer,
) -> Result<DocAnswer, WireError> {
    let (tree, version) = {
        let mut s = store.lock().expect("store poisoned");
        if let Some(hit) = s.result_cache(doc).and_then(|c| c.get(&key).cloned()) {
            stats.store_cache_hits.fetch_add(1, Ordering::Relaxed);
            drop(s);
            // A cache hit is pure store time: lock + lookup + clone.
            w.step(PHASE_STORE);
            return Ok(hit);
        }
        match s.get(doc) {
            Ok((tree, version)) => (tree.clone(), version),
            Err(e) => return Err(WireError::of_store_error(&e)),
        }
    };
    w.step(PHASE_STORE);
    stats.store_cache_misses.fetch_add(1, Ordering::Relaxed);
    let value = compute(&tree);
    w.step(PHASE_EXEC);
    let mut s = store.lock().expect("store poisoned");
    if let Some(cache) = s.result_cache(doc) {
        cache.insert(key, version, value.clone());
    }
    drop(s);
    w.step(PHASE_STORE);
    Ok(value)
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

struct EventLoop<'e> {
    config: &'e ServerConfig,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    wake_rx: UnixStream,
    control: &'e ServerControl,
    shared: &'e Shared,
    stats: &'e ServerStats,
    metrics: &'e ServerMetrics,
    epoll: Epoll,
    conns: Vec<Option<Conn>>,
    free_slots: Vec<usize>,
    live_conns: usize,
    total_inflight: usize,
    /// In-flight requests per addressed setting id (entries removed at
    /// zero, so the map stays as small as the set of *active* settings).
    inflight_per_setting: HashMap<u64, usize>,
    next_generation: u64,
}

impl EventLoop<'_> {
    fn run(&mut self) -> io::Result<()> {
        if let Some(l) = &self.tcp {
            self.epoll.add(l.as_raw_fd(), EPOLLIN, TOK_TCP)?;
        }
        if let Some(l) = &self.unix {
            self.epoll.add(l.as_raw_fd(), EPOLLIN, TOK_UNIX)?;
        }
        self.epoll
            .add(self.wake_rx.as_raw_fd(), EPOLLIN, TOK_WAKE)?;
        let mut events: Vec<Event> = Vec::new();
        while !self.control.stop.load(Ordering::SeqCst) {
            let timeout_ms = self.next_timeout_ms();
            self.epoll.wait(&mut events, timeout_ms)?;
            for &event in &events {
                match event.token {
                    TOK_TCP => self.accept_tcp(),
                    TOK_UNIX => self.accept_unix(),
                    TOK_WAKE => self.drain_wake(),
                    token => self.handle_conn_event(token, event),
                }
            }
            self.drain_completions();
            self.enforce_deadlines();
            // A draining server exits once every connection has settled
            // and closed (or the drain deadline force-closed it). Workers
            // may still be finishing jobs whose connections died; their
            // completions have no taker either way.
            if self.control.is_draining() && self.live_conns == 0 {
                break;
            }
        }
        Ok(())
    }

    /// How long `epoll_wait` may sleep: until the earliest live deadline —
    /// drain, read-progress or idle — or forever when none is armed.
    fn next_timeout_ms(&self) -> i32 {
        let mut next: Option<Instant> = self.control.drain_deadline();
        let mut consider = |candidate: Instant| {
            next = Some(match next {
                Some(current) => current.min(candidate),
                None => candidate,
            });
        };
        for conn in self.conns.iter().flatten() {
            if let (Some(limit), Some(since)) =
                (self.config.read_progress_timeout, conn.partial_since)
            {
                consider(since + limit);
            }
            if let Some(limit) = self.config.idle_timeout {
                if conn.inflight == 0 && conn.partial_since.is_none() {
                    consider(conn.last_activity + limit);
                }
            }
        }
        match next {
            None => -1,
            Some(deadline) => {
                // Round up so one wake-up does not land just *before* the
                // deadline and schedule a second, zero-length sleep.
                let millis = deadline
                    .saturating_duration_since(Instant::now())
                    .as_millis();
                millis.saturating_add(1).min(i32::MAX as u128) as i32
            }
        }
    }

    /// Close every connection past a deadline: drain-settled connections,
    /// anything still open at the drain deadline, slow-loris peers past
    /// the read-progress limit, and idle connections past the idle limit.
    fn enforce_deadlines(&mut self) {
        let now = Instant::now();
        let drain_deadline = self.control.drain_deadline();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            if drain_deadline.is_some_and(|deadline| now >= deadline) {
                self.close(slot); // grace expired: abandon what is left
                continue;
            }
            if drain_deadline.is_some() && conn.inflight == 0 && conn.wq.is_empty() {
                self.close(slot); // drained clean
                continue;
            }
            if self
                .config
                .read_progress_timeout
                .zip(conn.partial_since)
                .is_some_and(|(limit, since)| now.duration_since(since) >= limit)
            {
                self.stats.reaped_slow.fetch_add(1, Ordering::Relaxed);
                self.close(slot);
                continue;
            }
            if self.config.idle_timeout.is_some_and(|limit| {
                conn.inflight == 0
                    && conn.partial_since.is_none()
                    && now.duration_since(conn.last_activity) >= limit
            }) {
                self.stats.reaped_idle.fetch_add(1, Ordering::Relaxed);
                self.close(slot);
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn accept_tcp(&mut self) {
        loop {
            match self
                .tcp
                .as_ref()
                .expect("TCP event without listener")
                .accept()
            {
                Ok((stream, _)) => {
                    if self.control.is_draining() {
                        continue; // drop the socket: the server is leaving
                    }
                    let _ = stream.set_nodelay(true);
                    self.register(Duplex::Tcp(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn accept_unix(&mut self) {
        loop {
            match self
                .unix
                .as_ref()
                .expect("Unix event without listener")
                .accept()
            {
                Ok((stream, _)) => {
                    if self.control.is_draining() {
                        continue; // drop the socket: the server is leaving
                    }
                    self.register(Duplex::Unix(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: Duplex) {
        if self.live_conns >= self.config.max_connections {
            return; // drop the socket: accept-and-close sheds load
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        self.next_generation += 1;
        let conn = Conn {
            stream,
            generation: self.next_generation,
            rbuf: Vec::new(),
            rpos: 0,
            wq: VecDeque::new(),
            wfront: 0,
            wq_bytes: 0,
            inflight: 0,
            codec: Codec::Text,
            chunked: false,
            settings: false,
            stats_v2: false,
            closing: false,
            want_write: false,
            peer_eof: false,
            last_activity: Instant::now(),
            partial_since: None,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let conn = self.conns[slot].as_ref().expect("just inserted");
        if self
            .epoll
            .add(
                conn.stream.raw_fd(),
                EPOLLIN | EPOLLRDHUP,
                TOK_CONN_BASE + slot as u64,
            )
            .is_err()
        {
            self.conns[slot] = None;
            self.free_slots.push(slot);
            return;
        }
        self.live_conns += 1;
        self.stats.accepted_conns.fetch_add(1, Ordering::Relaxed);
    }

    fn handle_conn_event(&mut self, token: u64, event: Event) {
        let slot = (token - TOK_CONN_BASE) as usize;
        if self.conns.get(slot).map(Option::is_none).unwrap_or(true) {
            return; // stale event for a slot already closed this batch
        }
        if event.writable() && !self.flush(slot) {
            return;
        }
        if event.readable() || event.closed() {
            self.read_and_dispatch(slot, event.closed());
        }
    }

    /// Read all available bytes, parse complete frames, dispatch them.
    fn read_and_dispatch(&mut self, slot: usize, hangup: bool) {
        let mut chunk = [0u8; 64 * 1024];
        let mut eof = hangup;
        loop {
            let conn = match &mut self.conns[slot] {
                Some(c) => c,
                None => return,
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    if !conn.closing {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                    }
                    // A poisoned connection drains and discards input so the
                    // peer's pending writes cannot stall the close.
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.parse_frames(slot);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if eof {
            conn.peer_eof = true;
        }
        // A finished peer with nothing pending can be dropped now;
        // otherwise pending responses flush first (drain_completions /
        // writable events call `close` when everything settles).
        if conn.peer_eof && conn.inflight == 0 && conn.wq.is_empty() {
            self.close(slot);
        }
    }

    /// Extract complete frames from the read buffer and dispatch each.
    fn parse_frames(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.closing {
                conn.rbuf.clear();
                conn.rpos = 0;
                conn.partial_since = None;
                return;
            }
            let unread = conn.rbuf.len() - conn.rpos;
            if unread < 4 {
                break;
            }
            let header = &conn.rbuf[conn.rpos..conn.rpos + 4];
            let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
            if len == 0 || len > self.config.max_frame_bytes {
                // The stream cannot be re-synchronised: poison it.
                let code = if len == 0 {
                    wire::ErrorCode::MalformedFrame
                } else {
                    wire::ErrorCode::FrameTooLarge
                };
                let frame = ResponseFrame {
                    id: 0,
                    body: ResponseBody::Error(WireError::new(
                        code,
                        format!(
                            "frame length {len} outside 1..={}; closing",
                            self.config.max_frame_bytes
                        ),
                    )),
                };
                // Poison *before* queueing the error frame: the flush inside
                // `enqueue_response` tears the connection down as soon as the
                // frame is fully written.
                conn.closing = true;
                conn.rbuf.clear();
                conn.rpos = 0;
                conn.partial_since = None;
                self.enqueue_response(slot, &frame);
                return;
            }
            if unread < 4 + len {
                break; // partial frame: wait for more bytes
            }
            let start = conn.rpos + 4;
            let payload: Vec<u8> = conn.rbuf[start..start + len].to_vec();
            conn.rpos += 4 + len;
            self.dispatch_payload(slot, &payload);
        }
        // Compact the consumed prefix, and keep the read-progress clock
        // honest: it restarts when a frame *completes* (progress was made)
        // or starts when a partial first appears — arriving bytes that
        // complete nothing leave it running, which is exactly what defeats
        // a drip-feed.
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            let progressed = conn.rpos > 0;
            if progressed {
                conn.rbuf.drain(..conn.rpos);
                conn.rpos = 0;
            }
            conn.partial_since = if conn.rbuf.is_empty() {
                None
            } else if progressed || conn.partial_since.is_none() {
                Some(Instant::now())
            } else {
                conn.partial_since
            };
        }
    }

    /// Decode one request payload and either answer inline (errors, `Ping`,
    /// `Hello`, `Busy`) or queue a job for the worker pool.
    fn dispatch_payload(&mut self, slot: usize, payload: &[u8]) {
        // Start the clock before the frame decode so the decode phase
        // covers it; inline answers (Ping/Hello/errors) drop the trace —
        // only pool-dispatched requests are measured.
        let mut trace = if self.config.instrumentation {
            Some(Trace::new())
        } else {
            None
        };
        let codec = self
            .conns
            .get(slot)
            .and_then(Option::as_ref)
            .map(|c| c.codec)
            .unwrap_or_default();
        let settings = self
            .conns
            .get(slot)
            .and_then(Option::as_ref)
            .map(|c| c.settings)
            .unwrap_or(false);
        let request = match wire::decode_request(
            payload,
            self.config.max_docs_per_request,
            codec,
            settings,
        ) {
            Ok(request) => {
                if let Some(t) = &mut trace {
                    t.step(PHASE_DECODE);
                }
                request
            }
            Err(DecodeError { id, error }) => {
                // The framing is intact — only this request fails.
                self.enqueue_response(
                    slot,
                    &ResponseFrame {
                        id,
                        body: ResponseBody::Error(error),
                    },
                );
                return;
            }
        };
        if self.control.is_draining() {
            // The request was decoded but never started: GoAway is an
            // unconditional retry-elsewhere signal, for every op.
            self.stats.goaway_rejected.fetch_add(1, Ordering::Relaxed);
            self.enqueue_response(
                slot,
                &ResponseFrame {
                    id: request.id,
                    body: ResponseBody::GoAway,
                },
            );
            return;
        }
        if matches!(request.body, RequestBody::Ping) {
            // Health checks bypass the pool (and the budget): they must
            // answer even when the server is saturated.
            self.enqueue_response(
                slot,
                &ResponseFrame {
                    id: request.id,
                    body: ResponseBody::Pong,
                },
            );
            return;
        }
        if let RequestBody::Hello { features } = request.body {
            // Negotiation is loop-local state, so it is handled here (and,
            // like `Ping`, bypasses the budget). The accepted feature set
            // applies to every frame parsed *after* this one; responses to
            // earlier frames still in flight keep the codec they were
            // dispatched with.
            let accepted = features & wire::SUPPORTED_FEATURES;
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                conn.codec = if accepted & wire::FEATURE_BINARY_DOCS != 0 {
                    Codec::Binary
                } else {
                    Codec::Text
                };
                conn.chunked = accepted & wire::FEATURE_CHUNKED_RESPONSES != 0;
                conn.settings = accepted & wire::FEATURE_SETTINGS != 0;
                conn.stats_v2 = accepted & wire::FEATURE_STATS_V2 != 0;
            }
            self.enqueue_response(
                slot,
                &ResponseFrame {
                    id: request.id,
                    body: ResponseBody::HelloOk { features: accepted },
                },
            );
            return;
        }
        if !settings
            && matches!(
                request.body,
                RequestBody::PutSetting { .. }
                    | RequestBody::ListSettings
                    | RequestBody::EvictSetting { .. }
            )
        {
            // To a v1/v2 peer these opcodes do not exist; rejecting them
            // before negotiation keeps pre-v3 behavior exact.
            self.enqueue_response(
                slot,
                &ResponseFrame {
                    id: request.id,
                    body: ResponseBody::Error(WireError::new(
                        wire::ErrorCode::UnknownOp,
                        "registry ops require negotiating FEATURE_SETTINGS",
                    )),
                },
            );
            return;
        }
        let over_conn_cap = self
            .conns
            .get(slot)
            .and_then(Option::as_ref)
            .map(|c| c.inflight >= self.config.max_inflight_per_conn)
            .unwrap_or(true);
        let over_setting_cap = self
            .inflight_per_setting
            .get(&request.setting_id)
            .is_some_and(|&n| n >= self.config.max_inflight_per_setting);
        if over_conn_cap
            || over_setting_cap
            || self.total_inflight >= self.config.max_inflight_total
        {
            self.stats.busy_rejected.fetch_add(1, Ordering::Relaxed);
            self.enqueue_response(
                slot,
                &ResponseFrame {
                    id: request.id,
                    body: ResponseBody::Busy,
                },
            );
            return;
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.inflight += 1;
        self.total_inflight += 1;
        self.stats
            .inflight_highwater
            .fetch_max(self.total_inflight as u64, Ordering::Relaxed);
        let setting_inflight = self
            .inflight_per_setting
            .entry(request.setting_id)
            .or_insert(0);
        *setting_inflight += 1;
        self.stats
            .setting_inflight_highwater
            .fetch_max(*setting_inflight as u64, Ordering::Relaxed);
        let job = Job {
            slot,
            generation: conn.generation,
            codec: conn.codec,
            chunk_bytes: if conn.chunked {
                self.config.chunk_bytes.max(1)
            } else {
                usize::MAX
            },
            stats_v2: conn.stats_v2,
            trace: trace.map(|t| {
                Box::new(ReqTrace {
                    op: request.body.op() as u8,
                    setting: request.setting_id,
                    trace: t,
                })
            }),
            frame: request,
        };
        self.shared
            .jobs
            .lock()
            .expect("job queue poisoned")
            .push_back(job);
        self.shared.jobs_ready.notify_one();
    }

    /// Move worker completions into their connections' write queues. The
    /// segment `Vec` is *moved*, not copied — the bytes a worker serialized
    /// are the bytes `writev` sends. Only a response's last segment
    /// releases the in-flight budget; partial segments of a streaming
    /// response keep their request counted until the stream completes.
    fn drain_completions(&mut self) {
        let done: Vec<Done> =
            std::mem::take(&mut *self.shared.done.lock().expect("completion queue poisoned"));
        for completion in done {
            if completion.last {
                self.total_inflight -= 1;
                if let Some(n) = self.inflight_per_setting.get_mut(&completion.setting_id) {
                    *n -= 1;
                    if *n == 0 {
                        self.inflight_per_setting.remove(&completion.setting_id);
                    }
                }
            }
            // Dead connection or recycled slot: the response has no taker,
            // but the work still happened — finalize the trace (its flush
            // phase collapses to the drop itself).
            let orphaned = match self.conns.get(completion.slot).and_then(Option::as_ref) {
                None => true,
                Some(conn) => conn.generation != completion.generation,
            };
            if orphaned {
                if let Some(t) = completion.trace {
                    self.finalize_trace(t);
                }
                continue;
            }
            let conn = self
                .conns
                .get_mut(completion.slot)
                .and_then(Option::as_mut)
                .expect("liveness checked above");
            if completion.last {
                conn.inflight -= 1;
            }
            conn.last_activity = Instant::now();
            conn.wq_bytes += completion.bytes.len();
            conn.wq.push_back(WqSeg {
                bytes: completion.bytes,
                trace: completion.trace,
            });
            self.flush(completion.slot);
        }
    }

    /// Encode a loop-generated response and queue it for writing.
    fn enqueue_response(&mut self, slot: usize, frame: &ResponseFrame) {
        let bytes = wire::frame(wire::encode_response(frame));
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.wq_bytes += bytes.len();
        conn.wq.push_back(WqSeg { bytes, trace: None });
        self.flush(slot);
    }

    /// Write as much pending output as the socket accepts, gathering up to
    /// [`MAX_FLUSH_IOV`] queued segments per `writev`. Returns `false` when
    /// the connection was closed. Keeps the `EPOLLOUT` registration in sync
    /// with whether output is pending.
    fn flush(&mut self, slot: usize) -> bool {
        let epoll = &self.epoll;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        let mut dead = false;
        // Traces of segments fully written this flush; finalized after the
        // connection borrow ends.
        let mut finished: Vec<Box<ReqTrace>> = Vec::new();
        loop {
            if conn.wq.is_empty() {
                break;
            }
            let wrote = {
                let mut segs = conn.wq.iter();
                let front = segs.next().expect("queue checked non-empty");
                let mut slices: Vec<IoSlice<'_>> =
                    Vec::with_capacity(conn.wq.len().min(MAX_FLUSH_IOV));
                slices.push(IoSlice::new(&front.bytes[conn.wfront..]));
                slices.extend(segs.take(MAX_FLUSH_IOV - 1).map(|s| IoSlice::new(&s.bytes)));
                conn.stream.write_vectored(&slices)
            };
            match wrote {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(mut n) => {
                    conn.last_activity = Instant::now();
                    // Retire fully written segments, advance the front one.
                    while n > 0 {
                        let front_left = conn.wq[0].bytes.len() - conn.wfront;
                        if n >= front_left {
                            n -= front_left;
                            let seg = conn.wq.pop_front().expect("front exists");
                            conn.wq_bytes -= seg.bytes.len();
                            conn.wfront = 0;
                            if let Some(t) = seg.trace {
                                finished.push(t);
                            }
                        } else {
                            conn.wfront += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        // Write-path backpressure: a peer that does not read its responses
        // cannot be allowed to pin unbounded buffered output (the in-flight
        // budget is released when a response is *buffered*, so this cap is
        // what bounds per-connection memory end to end).
        if !dead && conn.wq_bytes - conn.wfront > self.config.max_buffered_response_bytes {
            dead = true;
        }
        if !dead {
            if conn.wq.is_empty() {
                conn.wfront = 0;
                if conn.closing || (conn.peer_eof && conn.inflight == 0) {
                    dead = true;
                } else if conn.want_write {
                    conn.want_write = false;
                    let _ = epoll.modify(
                        conn.stream.raw_fd(),
                        EPOLLIN | EPOLLRDHUP,
                        TOK_CONN_BASE + slot as u64,
                    );
                }
            } else if !conn.want_write {
                conn.want_write = true;
                let _ = epoll.modify(
                    conn.stream.raw_fd(),
                    EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                    TOK_CONN_BASE + slot as u64,
                );
            }
        }
        for t in finished {
            self.finalize_trace(t);
        }
        if dead {
            self.close(slot);
            return false;
        }
        true
    }

    /// Tear a connection down. In-flight jobs keep running; their
    /// completions are dropped by the generation check. Responses still
    /// queued (fully or partially unwritten) finalize their traces here —
    /// the work happened even if the peer never read it.
    fn close(&mut self, slot: usize) {
        if let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.epoll.delete(conn.stream.raw_fd());
            self.live_conns -= 1;
            self.free_slots.push(slot);
            for seg in conn.wq.drain(..) {
                if let Some(t) = seg.trace {
                    self.finalize_trace(t);
                }
            }
        }
    }

    /// Retire a finished request's trace: charge the flush phase (final
    /// seal → last byte handed to the socket), fold every phase plus the
    /// wall-clock total into the request's `(op, setting)` histogram set,
    /// and emit the rate-limited slow-request log line when the wall time
    /// crosses [`ServerConfig::slow_request_threshold`].
    // Traces travel boxed (an `Option<Box<_>>` on every job keeps the
    // uninstrumented path to one pointer); take the box whole here rather
    // than re-flatten it at the last hop.
    #[allow(clippy::boxed_local)]
    fn finalize_trace(&self, mut t: Box<ReqTrace>) {
        t.trace.step(PHASE_FLUSH);
        let wall = t.trace.wall_ns();
        let set = self.metrics.phase_set(t.op, t.setting);
        for i in 0..PHASE_NAMES.len() {
            let ns = t.trace.phase_ns(i);
            if ns > 0 {
                set.phases[i].record(ns);
            }
        }
        set.total.record(wall);
        let slow = self
            .config
            .slow_request_threshold
            .is_some_and(|th| wall >= th.as_nanos() as u64);
        if slow {
            self.stats.slow_requests.fetch_add(1, Ordering::Relaxed);
            if self.metrics.slow_log_permit() {
                let op = OpCode::from_u8(t.op).map(OpCode::name).unwrap_or("unknown");
                let mut phases = String::new();
                for (i, name) in PHASE_NAMES.iter().enumerate() {
                    let ns = t.trace.phase_ns(i);
                    if ns > 0 {
                        use std::fmt::Write as _;
                        let _ = write!(phases, " {name}_us={}", ns / 1_000);
                    }
                }
                eprintln!(
                    "slow-request op={op} setting={} wall_ms={:.3}{phases}",
                    t.setting,
                    wall as f64 / 1e6,
                );
            }
        }
    }
}

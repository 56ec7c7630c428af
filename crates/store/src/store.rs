//! The resident document store.
//!
//! A [`DocStore`] keeps a set of documents in memory (as [`XmlTree`]s),
//! makes every acknowledged mutation durable through the WAL, and maintains
//! the per-document machinery that turns "a node changed" into cheap
//! re-answers:
//!
//! * a **version** per document, drawn from a store-wide monotone mutation
//!   sequence (every `put`/`edit`/`delete` advances it; results computed
//!   against an old version are invalidated for free). Because the sequence
//!   is global, a version value is never reused — not even across a
//!   delete + re-put of the same id — which makes the `edit` base-version
//!   check ABA-proof and gives WAL replay an unambiguous "already in the
//!   snapshot" test;
//! * a **dirty set** of nodes touched since the last validation, which
//!   feeds the `O(dirty)` incremental conformance check
//!   ([`DocStore::validate`]) and the incremental chase
//!   ([`xdx_core::CompiledSetting::chase_incremental`]);
//! * a **violation set** — the nodes currently failing their node-local
//!   DTD check — kept incrementally: a document is valid iff the set is
//!   empty, and an edit only re-checks the nodes it dirtied;
//! * a version-tagged **result cache** ([`xdx_core::DocResultCache`]) the
//!   embedder fills with whatever it computes per version (the server
//!   caches encoded response bodies for byte-identical replays).
//!
//! # Recovery
//!
//! `open` loads the snapshot (if any), replays the WAL's consistent prefix
//! on top of it, and truncates any torn tail. Snapshot frames are checksum
//! verified at open but decoded lazily on first access, so a restart over a
//! large corpus costs one bulk read — documents never touched again are
//! never rebuilt node by node. The snapshot footer records the store-wide
//! mutation sequence at checkpoint time, and replay skips every WAL record
//! whose version (a stamp from that same sequence) is at or below it —
//! which makes a crash *between* snapshot rename and WAL reset harmless:
//! the stale records are exactly the ones at or below the footer sequence,
//! regardless of how puts, edits and deletes of the same id interleave.
//! (A per-document comparison would not survive delete + re-put: the
//! re-put document would look "older" than a stale edit record of its
//! predecessor.) [`DocStore::checkpoint`] writes the snapshot atomically
//! (tmp + rename) and only then resets the WAL, so a kill at any point
//! leaves a state `open` reconstructs exactly.
//!
//! # Setting scoping
//!
//! Every index is keyed by a [`DocKey`] — a `(setting, doc)` pair — so one
//! store serves every setting binding of a multi-tenant server without id
//! collisions. A bare `u64` converts into the default setting's key, which
//! is what protocol v1/v2 clients (and single-setting embedders) address.
//! Rebinding a setting id to a different compiled setting calls
//! [`DocStore::invalidate_setting`]: derived state (result caches,
//! validation baselines) is discarded, the documents themselves survive.
//!
//! `open` also takes an exclusive advisory lock on a `store.lock` file in
//! the directory, so two processes pointed at the same store fail fast
//! ([`StoreError::Locked`]) instead of silently corrupting each other.

use crate::edit::{apply_edits, DocEdit, EditError};
use crate::key::DocKey;
use crate::snapshot::{load_snapshot, write_snapshot, SnapshotSource, SnapshotWriteError};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{SyncPolicy, Wal, WalError, WalOp, WalRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use xdx_core::DocResultCache;
use xdx_obs::Histogram;
use xdx_xmltree::limits::MAX_DOCUMENT_BYTES;
use xdx_xmltree::{decode_tree, encode_tree, CompiledDtd, NodeId, Value, XmlTree};

/// File name of the snapshot segment inside the store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// File name of the write-ahead log inside the store directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the advisory lock inside the store directory.
pub const LOCK_FILE: &str = "store.lock";

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the snapshot and WAL (created if absent).
    pub dir: PathBuf,
    /// WAL durability policy.
    pub sync: SyncPolicy,
    /// Admission cap: `put` of a *new* document beyond this many residents
    /// is rejected with [`StoreError::StoreFull`]. Recovery always loads
    /// what is on disk, even past the cap.
    pub max_resident_docs: usize,
    /// The filesystem the store performs its I/O through. Production uses
    /// [`RealVfs`]; tests inject a [`crate::vfs::FaultVfs`] to reach every
    /// error path deterministically.
    pub vfs: Arc<dyn Vfs>,
}

impl StoreConfig {
    /// A config with the default durability (`fsync` every 256 KiB),
    /// admission cap (1024 documents), and the real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            sync: SyncPolicy::EveryBytes(256 * 1024),
            max_resident_docs: 1024,
            vfs: Arc::new(RealVfs),
        }
    }

    /// The same config with `vfs` substituted.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> StoreConfig {
        self.vfs = vfs;
        self
    }
}

/// Store errors. `Corrupt` is reserved for damage the prefix-consistent
/// recovery cannot absorb (a corrupt snapshot, or a WAL record that passed
/// its checksum but does not apply) — the store refuses to open rather than
/// guess at history.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure.
    Io(std::io::Error),
    /// Persistent state is damaged beyond prefix recovery.
    Corrupt {
        /// What was damaged, and how.
        context: String,
    },
    /// The document key is not resident.
    UnknownDoc {
        /// The key.
        key: DocKey,
    },
    /// An `edit` named a base version that is no longer current.
    VersionConflict {
        /// The key.
        key: DocKey,
        /// The version the caller edited against.
        expected: u64,
        /// The document's actual current version.
        actual: u64,
    },
    /// The edit batch was rejected (document unchanged).
    BadEdit(EditError),
    /// Admission cap reached.
    StoreFull {
        /// The configured cap.
        limit: usize,
    },
    /// Another process holds the store directory (advisory lock).
    Locked {
        /// The contested directory.
        dir: PathBuf,
    },
    /// A `put` or `edit` would grow the document's binary encoding past
    /// [`MAX_DOCUMENT_BYTES`] — the decoder's hard cap. Admitting it would
    /// checkpoint a frame that can never be loaded back.
    DocTooLarge {
        /// The key.
        key: DocKey,
        /// Encoded size (for `edit`, a conservative upper bound).
        bytes: usize,
        /// The cap.
        limit: usize,
    },
    /// The store is in **sticky degraded read-only mode**: an earlier I/O
    /// failure (a failed fsync, or a WAL rollback that itself failed) left
    /// on-disk durability unknown, so the store stopped acknowledging
    /// mutations. Reads and pure-compute operations keep serving the
    /// in-memory state, which reflects exactly the acknowledged history.
    /// Recovery is a process restart: `open` replays the consistent
    /// on-disk prefix. See `DESIGN.md` § failure semantics.
    Degraded {
        /// The failure that degraded the store.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
            StoreError::Corrupt { context } => write!(f, "store corrupt: {context}"),
            StoreError::UnknownDoc { key } => write!(f, "unknown document {key}"),
            StoreError::VersionConflict {
                key,
                expected,
                actual,
            } => write!(
                f,
                "version conflict on document {key}: edit against {expected}, current {actual}"
            ),
            StoreError::BadEdit(e) => write!(f, "bad edit: {e}"),
            StoreError::StoreFull { limit } => {
                write!(f, "store full ({limit} resident documents)")
            }
            StoreError::Locked { dir } => write!(
                f,
                "store directory {} is locked by another process",
                dir.display()
            ),
            StoreError::DocTooLarge { key, bytes, limit } => write!(
                f,
                "document {key} too large: {bytes} encoded bytes exceeds the {limit}-byte cap"
            ),
            StoreError::Degraded { reason } => {
                write!(f, "store degraded (read-only): {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<EditError> for StoreError {
    fn from(e: EditError) -> StoreError {
        StoreError::BadEdit(e)
    }
}

/// What an accepted edit batch reports back.
#[derive(Debug)]
pub struct EditReceipt {
    /// The document's new version.
    pub version: u64,
    /// The nodes the batch dirtied (see [`crate::edit::AppliedEdits::dirty`]).
    pub dirty: Vec<NodeId>,
}

/// One resident document and its incremental bookkeeping.
#[derive(Debug)]
struct Resident<V> {
    /// The document's snapshot frame, still undecoded: snapshot load keeps
    /// the checksum-verified bytes and defers per-node tree construction to
    /// the first access (`Some` until then, `None` once materialized). This
    /// is what makes `open` O(bytes) instead of O(nodes) — a restart over a
    /// large corpus costs one bulk read plus checksums, and documents that
    /// are never touched again are never decoded (their frames also pass
    /// through the next checkpoint verbatim).
    frame: Option<Vec<u8>>,
    /// The document (a 1-node placeholder while `frame` is `Some`).
    tree: XmlTree,
    /// Lazily built preorder-rank → node map; `None` after structural edits.
    preorder: Option<Vec<NodeId>>,
    /// Nodes touched since the last [`DocStore::validate`] call.
    dirty: BTreeSet<NodeId>,
    /// Nodes currently failing their node-local check (valid baseline only
    /// when `validated`).
    violations: BTreeSet<NodeId>,
    /// Has a full-scan validation baseline been established since load?
    validated: bool,
    /// Upper bound on the document's binary-encoded size: exact after a
    /// `put`, load or checkpoint (the frame was in hand), then grown by a
    /// conservative per-edit bound. Guards the [`MAX_DOCUMENT_BYTES`]
    /// admission check without re-encoding on every edit.
    encoded_bytes: usize,
    /// Version counter + version-tagged result cache.
    cache: DocResultCache<V>,
}

impl<V> Resident<V> {
    fn new(tree: XmlTree, version: u64, encoded_bytes: usize) -> Resident<V> {
        Resident {
            frame: None,
            tree,
            preorder: None,
            dirty: BTreeSet::new(),
            violations: BTreeSet::new(),
            validated: false,
            encoded_bytes,
            cache: DocResultCache::new(version),
        }
    }

    fn from_frame(frame: Vec<u8>, version: u64) -> Resident<V> {
        let encoded_bytes = frame.len();
        Resident {
            frame: Some(frame),
            tree: XmlTree::new("pending"),
            preorder: None,
            dirty: BTreeSet::new(),
            violations: BTreeSet::new(),
            validated: false,
            encoded_bytes,
            cache: DocResultCache::new(version),
        }
    }

    /// Decode the pending snapshot frame, if any. The frame's checksum was
    /// verified at load, so a decode failure means the bytes were written
    /// wrong in the first place (or the codec regressed) — the document is
    /// reported as [`StoreError::Corrupt`] rather than silently replaced by
    /// an empty tree. The frame is kept, so the error is stable across
    /// calls and the document still passes through checkpoints verbatim.
    fn materialize(&mut self, key: DocKey) -> Result<(), StoreError> {
        if let Some(frame) = self.frame.take() {
            match decode_tree(&frame) {
                Ok(tree) => self.tree = tree,
                Err(e) => {
                    let err = StoreError::Corrupt {
                        context: format!("snapshot frame for document {key} does not decode: {e}"),
                    };
                    self.frame = Some(frame);
                    return Err(err);
                }
            }
        }
        Ok(())
    }

    fn version(&self) -> u64 {
        self.cache.version()
    }
}

/// Conservative upper bound on how many bytes one edit can add to a
/// document's binary encoding ([`xdx_xmltree::binary`] layout: 10 bytes of
/// node header + a possible `4 + len` interner entry per fresh label;
/// `4 + 1 + (4 + len | 8)` per attribute plus a possible interner entry
/// for the name; removals never grow the frame).
fn edit_growth_bound(edit: &DocEdit) -> usize {
    match edit {
        DocEdit::InsertChild { label, .. } => 16 + label.as_str().len(),
        DocEdit::SetAttr { name, value, .. } => {
            let value_bytes = match value {
                Value::Const(s) => s.len(),
                Value::Null(_) => 8,
            };
            24 + name.as_str().len() + value_bytes
        }
        DocEdit::RemoveChild { .. } | DocEdit::RemoveAttr { .. } => 0,
    }
}

/// Durability and recovery timings the store records about itself —
/// latency histograms for the I/O it performs and one-shot recovery facts
/// from `open`. Exposed by [`DocStore::metrics`]; histogram snapshots are
/// what the serving layer exports as `store.fsync` / `store.checkpoint`
/// Stats-v2 rows.
#[derive(Debug)]
pub struct StoreMetrics {
    /// Latency of each data-`fsync` the WAL performed (shared with the
    /// [`Wal`], which records into it at the `sync_data` call site).
    pub fsync: Arc<Histogram>,
    /// Wall time of each successful [`DocStore::checkpoint`] (WAL sync +
    /// snapshot write + WAL reset). Failed checkpoints are not recorded.
    pub checkpoint: Histogram,
    /// Wall time of WAL replay inside [`DocStore::open`] (reading, decoding
    /// and re-applying the post-snapshot records), nanoseconds. One value
    /// per process lifetime.
    pub replay_ns: u64,
    /// WAL records re-applied by that replay (records at or below the
    /// snapshot sequence are skipped and not counted).
    pub replayed_records: u64,
}

impl StoreMetrics {
    fn new() -> StoreMetrics {
        StoreMetrics {
            fsync: Arc::new(Histogram::new()),
            checkpoint: Histogram::new(),
            replay_ns: 0,
            replayed_records: 0,
        }
    }
}

/// The resident document store (see the module docs). Generic over the
/// cached result type `V` — the store never interprets cached values, it
/// only version-tags and invalidates them.
#[derive(Debug)]
pub struct DocStore<V = ()> {
    config: StoreConfig,
    wal: Wal,
    docs: BTreeMap<DocKey, Resident<V>>,
    /// Store-wide mutation sequence: the version stamp of the most recent
    /// acknowledged mutation (0 for a fresh store). Strictly increasing
    /// across puts, edits *and* deletes, so no version value is ever
    /// reused — see the module docs.
    seq: u64,
    /// The sequence recorded in the last snapshot: the one loaded at open,
    /// then the one each successful checkpoint writes. A resident document
    /// whose version is above it changed since that snapshot.
    snapshot_seq: u64,
    /// `Some(reason)` once the store has entered sticky degraded read-only
    /// mode (see [`StoreError::Degraded`]); never cleared in-process.
    degraded: Option<String>,
    /// Mutations rejected by a *rolled-back* WAL append (disk stayed
    /// consistent, the store stayed healthy) — an observability counter.
    wal_rollbacks: u64,
    /// Self-recorded durability/recovery timings (see [`StoreMetrics`]).
    metrics: StoreMetrics,
    /// Exclusive advisory lock on [`LOCK_FILE`]; held (by the open file
    /// handle) for the store's lifetime, released on drop.
    _lock: std::fs::File,
}

/// Take the exclusive advisory lock on `dir`, or fail with
/// [`StoreError::Locked`] if another process holds it.
fn lock_dir(dir: &std::path::Path) -> Result<std::fs::File, StoreError> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(dir.join(LOCK_FILE))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(StoreError::Locked {
            dir: dir.to_path_buf(),
        }),
        Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
    }
}

impl<V> DocStore<V> {
    /// Open (or create) the store in `config.dir`: take the directory
    /// lock, load the snapshot, replay the WAL, truncate any torn tail.
    pub fn open(config: StoreConfig) -> Result<DocStore<V>, StoreError> {
        config.vfs.create_dir_all(&config.dir)?;
        let lock = lock_dir(&config.dir)?;
        let snapshot_path = config.dir.join(SNAPSHOT_FILE);
        // A leftover tmp is a checkpoint that died before its rename; the
        // named snapshot is still the authoritative previous state.
        let _ = config.vfs.remove_file(&snapshot_path.with_extension("tmp"));
        let snapshot = load_snapshot(config.vfs.as_ref(), &snapshot_path)?;
        let mut seq = snapshot.seq;
        let mut docs: BTreeMap<DocKey, Resident<V>> = BTreeMap::new();
        for doc in snapshot.docs {
            // Checksums verified; trees materialize on first access.
            seq = seq.max(doc.version);
            docs.insert(doc.key, Resident::from_frame(doc.frame, doc.version));
        }
        let mut metrics = StoreMetrics::new();
        let replay_start = Instant::now();
        let (mut wal, records) =
            Wal::open(config.vfs.as_ref(), &config.dir.join(WAL_FILE), config.sync)?;
        for rec in records {
            // Records at or below the snapshot's sequence are already
            // reflected in it (a checkpoint that crashed before its WAL
            // reset, or a reset whose truncation did not persist). The
            // comparison is against the *global* checkpoint sequence, not
            // any per-document version: after a delete + re-put of the
            // same id, a stale edit record of the predecessor can carry a
            // higher version than the re-put document, and a per-document
            // test would wrongly replay it.
            if rec.version <= snapshot.seq {
                continue;
            }
            seq = seq.max(rec.version);
            Self::replay_record(&mut docs, rec)?;
            metrics.replayed_records += 1;
        }
        metrics.replay_ns = u64::try_from(replay_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        wal.set_fsync_histogram(Arc::clone(&metrics.fsync));
        Ok(DocStore {
            config,
            wal,
            docs,
            seq,
            snapshot_seq: snapshot.seq,
            degraded: None,
            wal_rollbacks: 0,
            metrics,
            _lock: lock,
        })
    }

    /// Reject the call if the store is degraded (mutations only; reads and
    /// pure-compute operations keep serving).
    fn check_writable(&self) -> Result<(), StoreError> {
        match &self.degraded {
            Some(reason) => Err(StoreError::Degraded {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Enter sticky degraded read-only mode and return the error to hand
    /// the caller. Idempotent in effect: the first reason wins.
    fn degrade(&mut self, context: &str, e: std::io::Error) -> StoreError {
        let reason = format!("{context}: {e}");
        if self.degraded.is_none() {
            self.degraded = Some(reason.clone());
        }
        StoreError::Degraded { reason }
    }

    /// Map a WAL append failure per the failure-semantics table: a rolled-
    /// back append rejects only this operation (the store stays healthy); a
    /// broken log degrades the store.
    fn wal_failure(&mut self, context: &str, e: WalError) -> StoreError {
        match e {
            WalError::RolledBack(e) => {
                self.wal_rollbacks += 1;
                StoreError::Io(e)
            }
            WalError::Broken(e) => self.degrade(context, e),
        }
    }

    fn replay_record(
        docs: &mut BTreeMap<DocKey, Resident<V>>,
        rec: WalRecord,
    ) -> Result<(), StoreError> {
        match rec.op {
            WalOp::Put(frame) => {
                let tree = decode_tree(&frame).map_err(|e| StoreError::Corrupt {
                    context: format!("WAL put of document {} does not decode: {e}", rec.key),
                })?;
                docs.insert(rec.key, Resident::new(tree, rec.version, frame.len()));
            }
            WalOp::Edit(edits) => {
                let r = docs.get_mut(&rec.key).ok_or_else(|| StoreError::Corrupt {
                    context: format!("WAL edit of unknown document {}", rec.key),
                })?;
                r.materialize(rec.key)?;
                apply_edits(&mut r.tree, &mut r.preorder, &edits).map_err(|e| {
                    StoreError::Corrupt {
                        context: format!("WAL edit of document {} does not apply: {e}", rec.key),
                    }
                })?;
                let growth: usize = edits.iter().map(edit_growth_bound).sum();
                r.encoded_bytes = r.encoded_bytes.saturating_add(growth);
                r.cache.set_version(rec.version);
            }
            WalOp::Delete => {
                docs.remove(&rec.key);
            }
        }
        Ok(())
    }

    /// Store (or replace) a whole document. Returns the new version (the
    /// advanced store-wide sequence — monotone, but not dense per key).
    pub fn put(&mut self, key: impl Into<DocKey>, tree: XmlTree) -> Result<u64, StoreError> {
        let key = key.into();
        self.check_writable()?;
        if !self.docs.contains_key(&key) && self.docs.len() >= self.config.max_resident_docs {
            return Err(StoreError::StoreFull {
                limit: self.config.max_resident_docs,
            });
        }
        let frame = encode_tree(&tree);
        if frame.len() > MAX_DOCUMENT_BYTES {
            return Err(StoreError::DocTooLarge {
                key,
                bytes: frame.len(),
                limit: MAX_DOCUMENT_BYTES,
            });
        }
        let encoded_bytes = frame.len();
        let version = self.seq + 1;
        if let Err(e) = self.wal.append(&WalRecord {
            key,
            version,
            op: WalOp::Put(frame),
        }) {
            // Nothing was inserted yet: memory matches acknowledged
            // history in both outcomes.
            return Err(self.wal_failure("WAL append (put)", e));
        }
        self.seq = version;
        self.docs
            .insert(key, Resident::new(tree, version, encoded_bytes));
        Ok(version)
    }

    /// The document and its current version. Takes `&mut self` because a
    /// lazily loaded document materializes (decodes its snapshot frame) on
    /// first access — which is also the only error path
    /// ([`StoreError::UnknownDoc`] aside).
    pub fn get(&mut self, key: impl Into<DocKey>) -> Result<(&XmlTree, u64), StoreError> {
        let key = key.into();
        let r = self
            .docs
            .get_mut(&key)
            .ok_or(StoreError::UnknownDoc { key })?;
        r.materialize(key)?;
        Ok((&r.tree, r.version()))
    }

    /// The document's current version.
    pub fn version(&self, key: impl Into<DocKey>) -> Option<u64> {
        self.docs.get(&key.into()).map(|r| r.version())
    }

    /// Apply an edit batch. `base_version` is an optimistic-concurrency
    /// check: the batch is rejected with [`StoreError::VersionConflict`]
    /// unless it equals the document's current version; pass `0` to skip
    /// the check (last-writer-wins). An empty batch is a no-op that leaves
    /// the version unchanged.
    pub fn edit(
        &mut self,
        key: impl Into<DocKey>,
        base_version: u64,
        edits: &[DocEdit],
    ) -> Result<EditReceipt, StoreError> {
        let key = key.into();
        self.check_writable()?;
        let r = self
            .docs
            .get_mut(&key)
            .ok_or(StoreError::UnknownDoc { key })?;
        r.materialize(key)?;
        let current = r.version();
        if base_version != 0 && base_version != current {
            return Err(StoreError::VersionConflict {
                key,
                expected: base_version,
                actual: current,
            });
        }
        if edits.is_empty() {
            return Ok(EditReceipt {
                version: current,
                dirty: Vec::new(),
            });
        }
        // Size guard, against a conservative growth bound: a document that
        // encodes past MAX_DOCUMENT_BYTES would checkpoint fine but hit the
        // decoder cap on the restart after — a persistent crash loop. The
        // bound only resets to the exact size when a frame is in hand
        // (put/load/checkpoint), so long edit churn may reject early; a
        // checkpoint re-admits.
        let growth: usize = edits.iter().map(edit_growth_bound).sum();
        let bound = r.encoded_bytes.saturating_add(growth);
        if bound > MAX_DOCUMENT_BYTES {
            return Err(StoreError::DocTooLarge {
                key,
                bytes: bound,
                limit: MAX_DOCUMENT_BYTES,
            });
        }
        // Applying *is* the validation (all-or-nothing); only an applied
        // batch reaches the WAL, so replay can never fail on a record the
        // running store accepted. If the append itself fails, the batch is
        // rolled back so memory never diverges from the log.
        let applied = apply_edits(&mut r.tree, &mut r.preorder, edits)?;
        let version = self.seq + 1;
        if let Err(e) = self.wal.append(&WalRecord {
            key,
            version,
            op: WalOp::Edit(edits.to_vec()),
        }) {
            // Whatever the log's fate, the batch rolls back in memory so
            // reads keep serving exactly the acknowledged history.
            applied.rollback(&mut r.tree);
            r.preorder = None;
            return Err(self.wal_failure("WAL append (edit)", e));
        }
        self.seq = version;
        r.encoded_bytes = bound;
        r.cache.set_version(version);
        // Merge the batch's dirty set *before* stripping detached subtrees:
        // a node inserted and then detached within one batch is in both
        // lists, and only this order drops it. (`validate`'s reachability
        // check only sees the detached *root*'s cleared parent link — a
        // node deeper in a detached subtree still has its parent pointer,
        // so leaving it dirty would fabricate violations on nodes the
        // document no longer contains.)
        r.dirty.extend(applied.dirty.iter().copied());
        for &root in &applied.detached {
            for n in r.tree.descendants_or_self(root) {
                r.dirty.remove(&n);
                r.violations.remove(&n);
            }
        }
        Ok(EditReceipt {
            version,
            dirty: applied.dirty,
        })
    }

    /// Delete a document. Advances the store-wide sequence, so a later
    /// re-put of the same key gets a version above every version the
    /// predecessor ever had.
    pub fn delete(&mut self, key: impl Into<DocKey>) -> Result<(), StoreError> {
        let key = key.into();
        self.check_writable()?;
        if !self.docs.contains_key(&key) {
            return Err(StoreError::UnknownDoc { key });
        }
        let version = self.seq + 1;
        if let Err(e) = self.wal.append(&WalRecord {
            key,
            version,
            op: WalOp::Delete,
        }) {
            return Err(self.wal_failure("WAL append (delete)", e));
        }
        self.seq = version;
        self.docs.remove(&key);
        Ok(())
    }

    /// Does the document conform to `dtd` (ordered conformance, the check
    /// source documents must pass)?
    ///
    /// The first call after load scans the whole document and establishes
    /// the violation baseline; every later call re-checks **only the nodes
    /// dirtied since the previous call** — `O(dirty)`, not `O(document)`.
    /// The baseline is only meaningful against one fixed DTD: each setting
    /// binding pins one source DTD, so the store does not fingerprint the
    /// DTD — a setting *rebind* must call [`DocStore::invalidate_setting`]
    /// to discard the stale baselines (pass a mismatched DTD without that
    /// and the stale baseline is yours to keep).
    pub fn validate(
        &mut self,
        key: impl Into<DocKey>,
        dtd: &CompiledDtd,
    ) -> Result<bool, StoreError> {
        let key = key.into();
        let r = self
            .docs
            .get_mut(&key)
            .ok_or(StoreError::UnknownDoc { key })?;
        r.materialize(key)?;
        if !r.validated {
            r.violations.clear();
            let root = r.tree.root();
            for n in r.tree.preorder() {
                if !node_conforms(dtd, &r.tree, n, n == root) {
                    r.violations.insert(n);
                }
            }
            r.validated = true;
            r.dirty.clear();
        } else {
            let root = r.tree.root();
            let dirty = std::mem::take(&mut r.dirty);
            for n in dirty {
                // A dirtied node may since have been detached (removed in a
                // later batch); it no longer counts.
                let reachable = n == root || r.tree.parent(n).is_some();
                if reachable && !node_conforms(dtd, &r.tree, n, n == root) {
                    r.violations.insert(n);
                } else {
                    r.violations.remove(&n);
                }
            }
        }
        Ok(r.violations.is_empty())
    }

    /// The nodes dirtied since the last [`DocStore::validate`] — the seed
    /// set for [`xdx_core::CompiledSetting::chase_incremental`].
    pub fn dirty_nodes(&self, key: impl Into<DocKey>) -> Option<impl Iterator<Item = NodeId> + '_> {
        self.docs.get(&key.into()).map(|r| r.dirty.iter().copied())
    }

    /// The document's version-tagged result cache.
    pub fn result_cache(&mut self, key: impl Into<DocKey>) -> Option<&mut DocResultCache<V>> {
        self.docs.get_mut(&key.into()).map(|r| &mut r.cache)
    }

    /// Discard every *derived* artifact of `setting`'s resident documents —
    /// cached results, validation baselines, dirty bookkeeping — while
    /// keeping the documents (and their versions) themselves. This is what
    /// a setting **rebind** calls: cached answers and violation baselines
    /// were computed against the old setting's DTDs and patterns, but the
    /// documents are tenant data that must survive a setting upload (and a
    /// compiled-setting eviction must cost nothing here at all). The next
    /// `validate` per document is a full scan. Returns how many documents
    /// were invalidated.
    pub fn invalidate_setting(&mut self, setting: u64) -> usize {
        let mut n = 0;
        for (_, r) in self
            .docs
            .range_mut(DocKey::setting_min(setting)..=DocKey::setting_max(setting))
        {
            r.cache.clear();
            r.validated = false;
            r.dirty.clear();
            r.violations.clear();
            n += 1;
        }
        n
    }

    /// Write a snapshot of every resident document (atomically), recording
    /// the store-wide sequence in its footer, then reset the WAL. Also
    /// refreshes each materialized document's exact encoded size (the
    /// frames are in hand anyway) and compacts the arena of documents whose
    /// detached-slot garbage exceeds their live size (which resets their
    /// validation baseline — the next `validate` is a full scan).
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.check_writable()?;
        let checkpoint_start = Instant::now();
        // Never retry a failed fsync: if the WAL's tail cannot be made
        // durable, no snapshot may supersede it either.
        if let Err(e) = self.wal.sync() {
            return Err(self.degrade("WAL fsync at checkpoint", e));
        }
        // Encode every materialized document once up front: the frames are
        // the snapshot payload, the refreshed exact `encoded_bytes`, and
        // the compaction source below.
        let frames: BTreeMap<DocKey, Vec<u8>> = self
            .docs
            .iter()
            .filter(|(_, r)| r.frame.is_none())
            .map(|(&key, r)| (key, encode_tree(&r.tree)))
            .collect();
        if let Err(e) = write_snapshot(
            self.config.vfs.as_ref(),
            &self.config.dir.join(SNAPSHOT_FILE),
            self.seq,
            self.docs.iter().map(|(&key, r)| {
                // A still-undecoded document's frame is byte-identical to
                // the document; copy it through instead of decode+re-encode.
                let source = match &r.frame {
                    Some(frame) => SnapshotSource::Frame(frame),
                    None => SnapshotSource::Frame(&frames[&key]),
                };
                (key, r.version(), source)
            }),
        ) {
            return Err(match e {
                // The old snapshot (plus the intact WAL) is still the
                // authoritative durable state: the checkpoint just did not
                // happen, the store stays healthy.
                SnapshotWriteError::Abandoned(e) => StoreError::Io(e),
                SnapshotWriteError::SyncFailed(e) => self.degrade("snapshot fsync", e),
            });
        }
        self.snapshot_seq = self.seq;
        if let Err(e) = self.wal.reset() {
            // The new snapshot is durable, so the stale WAL records would
            // be skipped on replay — but the log's own state is now
            // unknown, and further appends to it could not be trusted.
            return Err(self.degrade("WAL reset after checkpoint", e));
        }
        for (&key, r) in self.docs.iter_mut() {
            let Some(frame) = frames.get(&key) else {
                continue;
            };
            r.encoded_bytes = frame.len();
            if r.tree.arena_len() > 2 * r.tree.size() {
                r.tree = decode_tree(frame).expect("own encoding always decodes");
                r.preorder = None;
                r.dirty.clear();
                r.violations.clear();
                r.validated = false;
            }
        }
        self.metrics
            .checkpoint
            .record_duration(checkpoint_start.elapsed());
        Ok(())
    }

    /// Force the WAL to stable storage (for batched [`SyncPolicy`]s). A
    /// failure degrades the store: the unsynced tail's durability is
    /// unknown and a failed fsync is never retried.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.check_writable()?;
        if let Err(e) = self.wal.sync() {
            return Err(self.degrade("WAL fsync", e));
        }
        Ok(())
    }

    /// Resident document keys, ascending by `(setting, doc)`.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocKey> + '_ {
        self.docs.keys().copied()
    }

    /// The document ids resident in `setting`, ascending.
    pub fn docs_in_setting(&self, setting: u64) -> impl Iterator<Item = u64> + '_ {
        self.docs
            .range(DocKey::setting_min(setting)..=DocKey::setting_max(setting))
            .map(|(k, _)| k.doc)
    }

    /// Number of resident documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Current WAL length in bytes (a checkpointing heuristic for callers).
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// The store-wide mutation sequence (the version stamp of the most
    /// recent acknowledged mutation; 0 for a fresh store).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Why the store is in sticky degraded read-only mode, if it is.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Is the store in sticky degraded read-only mode?
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// How many mutations were rejected by a rolled-back WAL append (the
    /// store stayed healthy each time).
    pub fn wal_rollbacks(&self) -> u64 {
        self.wal_rollbacks
    }

    /// Resident documents changed since the last snapshot (the last
    /// checkpoint, or the snapshot loaded at open) — what the next
    /// checkpoint has to persist beyond the previous one.
    pub fn dirty_docs(&self) -> usize {
        self.docs
            .values()
            .filter(|r| r.version() > self.snapshot_seq)
            .count()
    }

    /// The store's self-recorded durability/recovery timings.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Approximate bytes of resident document state: undecoded snapshot
    /// frames at their exact length, materialized trees via
    /// [`XmlTree::approx_heap_bytes`]. An observability gauge (recomputed
    /// per call, `O(resident nodes)`), not an allocator measurement.
    pub fn resident_tree_bytes(&self) -> u64 {
        self.docs
            .values()
            .map(|r| match &r.frame {
                Some(frame) => frame.len() as u64,
                None => r.tree.approx_heap_bytes() as u64,
            })
            .sum()
    }
}

/// The node-local conformance check: label declared (and the root's label
/// equal to the DTD's root), attribute set exactly the declared one, child
/// word in the content model. A document conforms iff every node passes —
/// which is what lets validation re-check only dirtied nodes.
fn node_conforms(dtd: &CompiledDtd, tree: &XmlTree, node: NodeId, is_root: bool) -> bool {
    let Some(sym) = dtd.sym(tree.label(node)) else {
        return false;
    };
    if is_root && sym != dtd.root_sym() {
        return false;
    }
    let allowed = dtd.attrs(sym);
    let attrs = tree.attrs(node);
    if attrs.len() != allowed.len() || !attrs.keys().zip(allowed).all(|(a, b)| a == b) {
        return false;
    }
    let mut syms = Vec::with_capacity(tree.children(node).len());
    for &c in tree.children(node) {
        match dtd.sym(tree.label(c)) {
            Some(s) => syms.push(s),
            None => return false,
        }
    }
    dtd.matches_children(sym, &syms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::DocEdit;
    use std::path::Path;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use xdx_xmltree::{parse_tree, tree_to_text, Dtd};

    static DIRS: AtomicUsize = AtomicUsize::new(0);

    fn fresh_dir(tag: &str) -> PathBuf {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("xdx-store-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cleanup(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    fn config(dir: &Path) -> StoreConfig {
        StoreConfig {
            sync: SyncPolicy::Never,
            max_resident_docs: 8,
            ..StoreConfig::new(dir)
        }
    }

    fn open(dir: &Path) -> DocStore {
        DocStore::open(config(dir)).unwrap()
    }

    fn book_dtd() -> Dtd {
        Dtd::builder("db")
            .rule("db", "book*")
            .rule("book", "author*")
            .attributes("book", ["@title"])
            .attributes("author", ["@name"])
            .build()
            .unwrap()
    }

    fn sample() -> XmlTree {
        parse_tree("db[book(@title=\"CO\")[author(@name=\"P\")]]").unwrap()
    }

    #[test]
    fn put_edit_delete_survive_restart() {
        let dir = fresh_dir("crud");
        let mut s = open(&dir);
        // Versions come from the store-wide sequence: every mutation
        // (any document) advances it.
        assert_eq!(s.put(1, sample()).unwrap(), 1);
        assert_eq!(s.put(2, XmlTree::new("db")).unwrap(), 2);
        let receipt = s
            .edit(
                1,
                1,
                &[DocEdit::SetAttr {
                    node: 1,
                    name: "@title".into(),
                    value: "New".into(),
                }],
            )
            .unwrap();
        assert_eq!(receipt.version, 3);
        s.delete(2).unwrap();
        assert_eq!(s.seq(), 4);
        drop(s);

        let mut s = open(&dir);
        assert_eq!(s.len(), 1);
        assert_eq!(s.seq(), 4, "sequence recovered from the WAL");
        let (tree, version) = s.get(1).unwrap();
        assert_eq!(version, 3);
        assert_eq!(
            tree_to_text(tree),
            "db[book(@title=\"New\")[author(@name=\"P\")]]"
        );
        assert!(s.get(2).is_err());
        cleanup(&dir);
    }

    #[test]
    fn dirty_docs_counts_documents_changed_since_the_last_snapshot() {
        let dir = fresh_dir("dirty");
        let mut s = open(&dir);
        s.put(1, sample()).unwrap();
        s.put(2, sample()).unwrap();
        assert_eq!(s.dirty_docs(), 2);
        s.checkpoint().unwrap();
        assert_eq!(s.dirty_docs(), 0);
        // One batch touching three nodes of one document is one document.
        s.edit(
            1,
            0,
            &[
                DocEdit::SetAttr {
                    node: 1,
                    name: "@title".into(),
                    value: "New".into(),
                },
                DocEdit::SetAttr {
                    node: 2,
                    name: "@name".into(),
                    value: "Q".into(),
                },
                DocEdit::InsertChild {
                    parent: 1,
                    at: 0,
                    label: "author".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(s.dirty_docs(), 1);
        drop(s);
        // Reopening replays the edit from the WAL over the snapshot.
        let s = open(&dir);
        assert_eq!(s.dirty_docs(), 1);
        cleanup(&dir);
    }

    #[test]
    fn version_conflicts_are_rejected() {
        let dir = fresh_dir("cas");
        let mut s = open(&dir);
        s.put(1, sample()).unwrap();
        let stale = &[DocEdit::RemoveChild { parent: 0, at: 0 }];
        let err = s.edit(1, 7, stale).unwrap_err();
        assert!(matches!(
            err,
            StoreError::VersionConflict {
                expected: 7,
                actual: 1,
                ..
            }
        ));
        // base_version 0 skips the check.
        s.edit(1, 0, stale).unwrap();
        assert_eq!(s.version(1), Some(2));
        cleanup(&dir);
    }

    #[test]
    fn bad_edits_leave_no_wal_trace() {
        let dir = fresh_dir("atomic");
        let mut s = open(&dir);
        s.put(1, sample()).unwrap();
        let before = tree_to_text(s.get(1).unwrap().0);
        let err = s
            .edit(
                1,
                0,
                &[
                    DocEdit::SetAttr {
                        node: 0,
                        name: "@x".into(),
                        value: "v".into(),
                    },
                    DocEdit::RemoveChild { parent: 0, at: 9 },
                ],
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::BadEdit(_)));
        assert_eq!(s.version(1), Some(1), "version unchanged");
        assert_eq!(tree_to_text(s.get(1).unwrap().0), before);
        drop(s);
        let mut s = open(&dir);
        assert_eq!(tree_to_text(s.get(1).unwrap().0), before, "nothing logged");
        cleanup(&dir);
    }

    #[test]
    fn validation_is_incremental_and_tracks_edits() {
        let dir = fresh_dir("validate");
        let dtd = book_dtd();
        let dtd = dtd.compiled();
        let mut s = open(&dir);
        s.put(1, sample()).unwrap();
        assert!(s.validate(1, dtd).unwrap());
        // Remove @title: the book violates.
        s.edit(
            1,
            0,
            &[DocEdit::RemoveAttr {
                node: 1,
                name: "@title".into(),
            }],
        )
        .unwrap();
        assert!(!s.validate(1, dtd).unwrap());
        // Restore it: valid again, via a one-node recheck.
        s.edit(
            1,
            0,
            &[DocEdit::SetAttr {
                node: 1,
                name: "@title".into(),
                value: "CO".into(),
            }],
        )
        .unwrap();
        assert!(s.validate(1, dtd).unwrap());
        // An undeclared child label breaks the parent's word.
        s.edit(
            1,
            0,
            &[DocEdit::InsertChild {
                parent: 0,
                at: 0,
                label: "pamphlet".into(),
            }],
        )
        .unwrap();
        assert!(!s.validate(1, dtd).unwrap());
        // Removing it heals the document (and the violating subtree's
        // bookkeeping goes with it).
        s.edit(1, 0, &[DocEdit::RemoveChild { parent: 0, at: 0 }])
            .unwrap();
        assert!(s.validate(1, dtd).unwrap());
        cleanup(&dir);
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_restart_agrees() {
        let dir = fresh_dir("checkpoint");
        let mut s = open(&dir);
        s.put(1, sample()).unwrap();
        for i in 0..10u32 {
            s.edit(
                1,
                0,
                &[DocEdit::SetAttr {
                    node: 0,
                    name: "@rev".into(),
                    value: format!("{i}").into(),
                }],
            )
            .unwrap();
        }
        assert!(s.wal_len() > 0);
        s.checkpoint().unwrap();
        assert_eq!(s.wal_len(), 0);
        let after = tree_to_text(s.get(1).unwrap().0);
        let version = s.version(1).unwrap();
        drop(s);
        let mut s = open(&dir);
        assert_eq!(tree_to_text(s.get(1).unwrap().0), after);
        assert_eq!(s.version(1), Some(version));
        cleanup(&dir);
    }

    #[test]
    fn stale_wal_records_after_a_checkpoint_snapshot_are_skipped() {
        // Simulate a crash between snapshot rename and WAL reset: write the
        // snapshot at the current state but leave the full WAL in place.
        let dir = fresh_dir("stale");
        let mut s = open(&dir);
        s.put(1, sample()).unwrap();
        s.edit(
            1,
            0,
            &[DocEdit::SetAttr {
                node: 0,
                name: "@rev".into(),
                value: "x".into(),
            }],
        )
        .unwrap();
        let text = tree_to_text(s.get(1).unwrap().0);
        write_snapshot(
            &RealVfs,
            &dir.join(SNAPSHOT_FILE),
            s.seq,
            s.docs
                .iter()
                .map(|(&key, r)| (key, r.version(), SnapshotSource::Tree(&r.tree))),
        )
        .unwrap();
        drop(s); // WAL still holds put@1 + edit@2

        let mut s = open(&dir);
        assert_eq!(s.version(1), Some(2), "replay skipped both stale records");
        assert_eq!(tree_to_text(s.get(1).unwrap().0), text);
        cleanup(&dir);
    }

    #[test]
    fn stale_wal_after_a_delete_and_reput_checkpoint_crash_is_skipped() {
        // The regression the global sequence exists for: put, edit, delete,
        // re-put, then a crash between snapshot rename and WAL reset. The
        // stale edit record targets a node the re-put document does not
        // have; a per-document version comparison would replay it (the
        // re-put "restarts" below the stale edit's version) and refuse to
        // open. The global rule skips everything at or below the footer
        // sequence.
        let dir = fresh_dir("stale-reput");
        let mut s = open(&dir);
        s.put(1, sample()).unwrap(); // seq 1
        s.edit(
            1,
            0,
            &[DocEdit::SetAttr {
                node: 1,
                name: "@title".into(),
                value: "A".into(),
            }],
        )
        .unwrap(); // seq 2
        s.delete(1).unwrap(); // seq 3
        assert_eq!(s.put(1, XmlTree::new("db")).unwrap(), 4);
        let text = tree_to_text(s.get(1).unwrap().0);
        write_snapshot(
            &RealVfs,
            &dir.join(SNAPSHOT_FILE),
            s.seq,
            s.docs
                .iter()
                .map(|(&key, r)| (key, r.version(), SnapshotSource::Tree(&r.tree))),
        )
        .unwrap();
        drop(s); // WAL still holds all four records

        let mut s = open(&dir);
        assert_eq!(s.version(1), Some(4), "the re-put document survived");
        assert_eq!(s.seq(), 4);
        assert_eq!(tree_to_text(s.get(1).unwrap().0), text);
        cleanup(&dir);
    }

    #[test]
    fn base_versions_are_aba_proof_across_delete_and_reput() {
        let dir = fresh_dir("aba");
        let mut s = open(&dir);
        let attr = [DocEdit::SetAttr {
            node: 0,
            name: "@rev".into(),
            value: "x".into(),
        }];
        let v1 = s.put(1, sample()).unwrap();
        s.delete(1).unwrap();
        let v2 = s.put(1, sample()).unwrap();
        assert!(
            v2 > v1,
            "a re-put version is above every version its predecessor had"
        );
        let err = s.edit(1, v1, &attr).unwrap_err();
        assert!(
            matches!(err, StoreError::VersionConflict { .. }),
            "an edit pinned to the predecessor must not apply: {err}"
        );
        s.edit(1, v2, &attr).unwrap();
        cleanup(&dir);
    }

    #[test]
    fn the_store_directory_is_exclusively_locked() {
        let dir = fresh_dir("lock");
        let s = open(&dir);
        let err = DocStore::<()>::open(config(&dir)).unwrap_err();
        assert!(matches!(err, StoreError::Locked { .. }), "{err}");
        drop(s); // the lock is released with the store
        drop(open(&dir));
        cleanup(&dir);
    }

    #[test]
    fn edits_that_could_exceed_the_document_cap_are_rejected() {
        let dir = fresh_dir("toolarge");
        let mut s = open(&dir);
        s.put(1, sample()).unwrap();
        // Pretend the document is one insert away from the codec cap.
        s.docs.get_mut(&DocKey::from(1)).unwrap().encoded_bytes = MAX_DOCUMENT_BYTES - 4;
        let grow = [DocEdit::InsertChild {
            parent: 0,
            at: 0,
            label: "book".into(),
        }];
        let err = s.edit(1, 0, &grow).unwrap_err();
        assert!(matches!(err, StoreError::DocTooLarge { .. }), "{err}");
        assert_eq!(s.version(1), Some(1), "rejected before anything applied");
        // A checkpoint refreshes the exact encoded size and re-admits.
        s.checkpoint().unwrap();
        s.edit(1, 0, &grow).unwrap();
        cleanup(&dir);
    }

    #[test]
    fn edit_growth_bounds_dominate_real_encoding_growth() {
        use xdx_xmltree::NullId;
        let batches: Vec<Vec<DocEdit>> = vec![
            vec![DocEdit::InsertChild {
                parent: 0,
                at: 0,
                label: "chapter-with-a-longish-label".into(),
            }],
            vec![DocEdit::SetAttr {
                node: 0,
                name: "@summary".into(),
                value: "a constant value of some length".into(),
            }],
            vec![DocEdit::SetAttr {
                node: 1,
                name: "@title".into(),
                value: Value::Null(NullId(7)),
            }],
            vec![
                DocEdit::InsertChild {
                    parent: 0,
                    at: 0,
                    label: "book".into(),
                },
                DocEdit::SetAttr {
                    node: 1,
                    name: "@title".into(),
                    value: "t".into(),
                },
                DocEdit::RemoveChild { parent: 0, at: 1 },
            ],
        ];
        let mut tree = sample();
        for batch in &batches {
            let before = encode_tree(&tree).len();
            let bound: usize = batch.iter().map(edit_growth_bound).sum();
            apply_edits(&mut tree, &mut None, batch).unwrap();
            let after = encode_tree(&tree).len();
            assert!(
                after <= before + bound,
                "encoding grew {} > bound {bound}",
                after - before
            );
        }
    }

    #[test]
    fn undecodable_snapshot_frames_surface_as_corrupt_not_panic() {
        let dir = fresh_dir("badframe");
        std::fs::create_dir_all(&dir).unwrap();
        // A frame that passes the snapshot checksum but is not a document.
        write_snapshot(
            &RealVfs,
            &dir.join(SNAPSHOT_FILE),
            1,
            [(DocKey::from(1), 1u64, SnapshotSource::Frame(b"not a frame"))].into_iter(),
        )
        .unwrap();
        let mut s = open(&dir);
        let err = s.get(1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(s.get(1).is_err(), "stable across calls");
        // The bad frame still checkpoints verbatim; nothing is invented.
        s.checkpoint().unwrap();
        drop(s);
        let mut s = open(&dir);
        assert!(matches!(s.get(1).unwrap_err(), StoreError::Corrupt { .. }));
        cleanup(&dir);
    }

    #[test]
    fn admission_cap_applies_to_new_documents_only() {
        let dir = fresh_dir("cap");
        let mut s = DocStore::<()>::open(StoreConfig {
            max_resident_docs: 2,
            ..config(&dir)
        })
        .unwrap();
        s.put(1, XmlTree::new("db")).unwrap();
        s.put(2, XmlTree::new("db")).unwrap();
        assert!(matches!(
            s.put(3, XmlTree::new("db")),
            Err(StoreError::StoreFull { limit: 2 })
        ));
        // Replacing a resident document is fine at the cap. (The rejected
        // put did not advance the sequence; this one is the third mutation.)
        assert_eq!(s.put(2, sample()).unwrap(), 3);
        cleanup(&dir);
    }

    #[test]
    fn result_cache_is_invalidated_by_edits() {
        let dir = fresh_dir("cache");
        let mut s: DocStore<&'static str> = DocStore::open(config(&dir)).unwrap();
        s.put(1, sample()).unwrap();
        let v = s.version(1).unwrap();
        let cache = s.result_cache(1).unwrap();
        cache.insert(xdx_core::CacheKey::Consistency, v, "cached");
        assert_eq!(cache.get(&xdx_core::CacheKey::Consistency), Some(&"cached"));
        s.edit(
            1,
            0,
            &[DocEdit::SetAttr {
                node: 0,
                name: "@a".into(),
                value: "b".into(),
            }],
        )
        .unwrap();
        assert_eq!(
            s.result_cache(1)
                .unwrap()
                .get(&xdx_core::CacheKey::Consistency),
            None,
            "edit bumped the version"
        );
        cleanup(&dir);
    }

    #[test]
    fn checkpoint_compacts_garbage_heavy_arenas() {
        let dir = fresh_dir("compact");
        let mut s = open(&dir);
        s.put(1, sample()).unwrap();
        // Churn: insert and remove children until the arena is mostly junk.
        for _ in 0..8 {
            s.edit(
                1,
                0,
                &[
                    DocEdit::InsertChild {
                        parent: 0,
                        at: 0,
                        label: "book".into(),
                    },
                    DocEdit::RemoveChild { parent: 0, at: 0 },
                ],
            )
            .unwrap();
        }
        let (tree, _) = s.get(1).unwrap();
        assert!(tree.arena_len() > 2 * tree.size());
        let text = tree_to_text(tree);
        s.checkpoint().unwrap();
        let (tree, _) = s.get(1).unwrap();
        assert_eq!(tree.arena_len(), tree.size(), "arena compacted");
        assert_eq!(tree_to_text(tree), text, "document unchanged");
        cleanup(&dir);
    }

    /// Regression: a node inserted and then detached within one batch must
    /// not linger in the dirty set — its parent pointer survives the
    /// detach (only the detached *root*'s is cleared), so a stale entry
    /// would make `validate` fabricate a violation on a node the document
    /// no longer contains.
    #[test]
    fn insert_then_detach_in_one_batch_leaves_no_phantom_dirt() {
        let dir = fresh_dir("phantom");
        let mut s = open(&dir);
        s.put(1, sample()).unwrap();
        let dtd = book_dtd();
        assert!(s.validate(1, dtd.compiled()).unwrap());
        // Insert an undeclared label under the author (rank 2), then remove
        // the whole book subtree; the document is a bare `db` again.
        s.edit(
            1,
            0,
            &[
                DocEdit::InsertChild {
                    parent: 2,
                    at: 0,
                    label: "zzz".into(),
                },
                DocEdit::RemoveChild { parent: 0, at: 0 },
            ],
        )
        .unwrap();
        assert_eq!(tree_to_text(s.get(1).unwrap().0), "db");
        assert!(
            s.validate(1, dtd.compiled()).unwrap(),
            "a bare root conforms; detached nodes must not count"
        );
        cleanup(&dir);
    }

    #[test]
    fn settings_scope_documents_and_survive_restart() {
        let dir = fresh_dir("settings");
        let mut s: DocStore<&'static str> = DocStore::open(config(&dir)).unwrap();
        // The same doc id under two settings names two documents.
        s.put(7, sample()).unwrap();
        s.put((2, 7), XmlTree::new("db")).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(tree_to_text(s.get((2, 7)).unwrap().0), "db");
        assert_ne!(
            tree_to_text(s.get(7).unwrap().0),
            "db",
            "default-setting document is untouched"
        );
        assert_eq!(s.docs_in_setting(2).collect::<Vec<u64>>(), vec![7]);
        assert_eq!(s.docs_in_setting(0).collect::<Vec<u64>>(), vec![7]);
        // Scoping survives the WAL…
        drop(s);
        let mut s: DocStore<&'static str> = DocStore::open(config(&dir)).unwrap();
        assert_eq!(tree_to_text(s.get((2, 7)).unwrap().0), "db");
        // …and the snapshot.
        s.checkpoint().unwrap();
        drop(s);
        let mut s: DocStore<&'static str> = DocStore::open(config(&dir)).unwrap();
        assert_eq!(tree_to_text(s.get((2, 7)).unwrap().0), "db");
        assert_eq!(s.len(), 2);
        cleanup(&dir);
    }

    #[test]
    fn invalidate_setting_drops_derived_state_but_keeps_documents() {
        let dir = fresh_dir("invalidate");
        let mut s: DocStore<&'static str> = DocStore::open(config(&dir)).unwrap();
        let dtd = book_dtd();
        s.put((2, 1), sample()).unwrap();
        s.put(1, sample()).unwrap();
        let v = s.version((2, 1)).unwrap();
        assert!(s.validate((2, 1), dtd.compiled()).unwrap());
        s.result_cache((2, 1))
            .unwrap()
            .insert(xdx_core::CacheKey::Consistency, v, "stale");
        let v0 = s.version(1).unwrap();
        s.result_cache(1)
            .unwrap()
            .insert(xdx_core::CacheKey::Consistency, v0, "kept");
        assert_eq!(s.invalidate_setting(2), 1);
        // The document and its version survive; the derived state is gone.
        assert_eq!(s.version((2, 1)), Some(v));
        assert_eq!(
            s.result_cache((2, 1))
                .unwrap()
                .get(&xdx_core::CacheKey::Consistency),
            None,
            "cached result dropped on rebind"
        );
        assert_eq!(
            s.result_cache(1)
                .unwrap()
                .get(&xdx_core::CacheKey::Consistency),
            Some(&"kept"),
            "other settings untouched"
        );
        // The validation baseline was reset: the next validate is a full
        // scan (observable as still-correct answers after the reset).
        assert!(s.validate((2, 1), dtd.compiled()).unwrap());
        cleanup(&dir);
    }

    #[test]
    fn a_failed_wal_fsync_degrades_the_store_stickily() {
        use crate::vfs::{FaultPlan, FaultVfs};
        let dir = fresh_dir("degraded-fsync");
        let vfs = FaultVfs::real(FaultPlan::count_only());
        let mut s: DocStore = DocStore::open(StoreConfig {
            sync: SyncPolicy::Always,
            vfs: Arc::new(vfs.clone()),
            ..config(&dir)
        })
        .unwrap();
        s.put(1, sample()).unwrap();
        let text = tree_to_text(s.get(1).unwrap().0);
        // Fail the next fsync: the record's bytes may be written, but
        // durability is unknown — the put must not be acknowledged and the
        // store must go read-only.
        vfs.set_plan(FaultPlan::fail_sync(vfs.sync_ops()));
        let err = s.put(2, sample()).unwrap_err();
        assert!(matches!(err, StoreError::Degraded { .. }), "{err}");
        assert!(s.is_degraded());
        assert_eq!(vfs.injected(), 1);
        // Memory reflects exactly the acknowledged history...
        assert_eq!(s.seq(), 1);
        assert!(matches!(s.get(2), Err(StoreError::UnknownDoc { .. })));
        // ...reads keep serving...
        assert_eq!(tree_to_text(s.get(1).unwrap().0), text);
        assert!(s.validate(1, book_dtd().compiled()).unwrap());
        // ...and every further mutation is rejected, including checkpoints
        // (sticky: the failed fsync is never retried).
        assert!(matches!(
            s.put(3, sample()),
            Err(StoreError::Degraded { .. })
        ));
        assert!(matches!(s.delete(1), Err(StoreError::Degraded { .. })));
        assert!(matches!(s.checkpoint(), Err(StoreError::Degraded { .. })));
        drop(s);
        // A restart recovers a consistent prefix: doc 1 for sure; doc 2
        // only if its (unacknowledged) record reached the log in full.
        let mut s = open(&dir);
        assert!(!s.is_degraded());
        assert_eq!(tree_to_text(s.get(1).unwrap().0), text);
        assert!(s.seq() == 1 || s.seq() == 2);
        cleanup(&dir);
    }

    #[test]
    fn a_rolled_back_append_rejects_one_op_and_stays_healthy() {
        use crate::vfs::{FaultKind, FaultPlan, FaultVfs};
        let dir = fresh_dir("rollback");
        let vfs = FaultVfs::real(FaultPlan::count_only());
        let mut s: DocStore = DocStore::open(StoreConfig {
            sync: SyncPolicy::Always,
            vfs: Arc::new(vfs.clone()),
            ..config(&dir)
        })
        .unwrap();
        s.put(1, sample()).unwrap();
        // Tear the next WAL write: the append rolls the log back, the edit
        // rolls back in memory, and the store keeps serving writes.
        vfs.set_plan(FaultPlan::fail_op_with(vfs.ops(), FaultKind::ShortWrite));
        let before = tree_to_text(s.get(1).unwrap().0);
        let err = s
            .edit(
                1,
                0,
                &[DocEdit::SetAttr {
                    node: 0,
                    name: "@rev".into(),
                    value: "x".into(),
                }],
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        assert!(!s.is_degraded());
        assert_eq!(s.wal_rollbacks(), 1);
        assert_eq!(s.version(1), Some(1), "the failed edit was not applied");
        assert_eq!(tree_to_text(s.get(1).unwrap().0), before);
        // The same edit succeeds on retry.
        s.edit(
            1,
            0,
            &[DocEdit::SetAttr {
                node: 0,
                name: "@rev".into(),
                value: "x".into(),
            }],
        )
        .unwrap();
        drop(s);
        let mut s = open(&dir);
        assert_eq!(s.version(1), Some(2), "acknowledged history recovered");
        let (tree, _) = s.get(1).unwrap();
        assert!(tree.attrs(tree.root()).contains_key("@rev"));
        cleanup(&dir);
    }

    #[test]
    fn a_failed_snapshot_dir_sync_degrades_instead_of_being_swallowed() {
        use crate::vfs::{FaultPlan, FaultVfs};
        let dir = fresh_dir("dirsync");
        let vfs = FaultVfs::real(FaultPlan::count_only());
        let mut s: DocStore = DocStore::open(StoreConfig {
            sync: SyncPolicy::Always,
            vfs: Arc::new(vfs.clone()),
            ..config(&dir)
        })
        .unwrap();
        s.put(1, sample()).unwrap();
        // The checkpoint's sync order is: tmp-file fsync, then (after the
        // rename) the directory fsync. Fail the second sync from here.
        vfs.set_plan(FaultPlan::fail_sync(vfs.sync_ops() + 1));
        let err = s.checkpoint().unwrap_err();
        assert!(matches!(err, StoreError::Degraded { .. }), "{err}");
        assert!(
            s.degraded_reason().unwrap().contains("snapshot fsync"),
            "{:?}",
            s.degraded_reason()
        );
        // Crucially, the WAL was NOT reset: if the rename's durability is
        // unknown, the log must keep covering the full history.
        assert!(s.wal_len() > 0);
        drop(s);
        let s = open(&dir);
        assert_eq!(s.version(1), Some(1));
        cleanup(&dir);
    }

    #[test]
    fn an_abandoned_snapshot_write_fails_the_checkpoint_but_not_the_store() {
        use crate::vfs::{FaultPlan, FaultVfs};
        let dir = fresh_dir("abandon");
        let vfs = FaultVfs::real(FaultPlan::count_only());
        let mut s: DocStore = DocStore::open(StoreConfig {
            sync: SyncPolicy::Always,
            vfs: Arc::new(vfs.clone()),
            ..config(&dir)
        })
        .unwrap();
        s.put(1, sample()).unwrap();
        let wal_before = s.wal_len();
        // Fail the tmp-file create (the next non-sync op after wal.sync's
        // no-op): the old snapshot and the WAL stay authoritative.
        vfs.set_plan(FaultPlan::fail_op(vfs.ops()));
        let err = s.checkpoint().unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        assert!(!s.is_degraded());
        assert_eq!(s.wal_len(), wal_before, "WAL untouched");
        // The store still accepts writes, and a later checkpoint works.
        s.put(2, sample()).unwrap();
        s.checkpoint().unwrap();
        assert_eq!(s.wal_len(), 0);
        drop(s);
        let s = open(&dir);
        assert_eq!(s.len(), 2);
        cleanup(&dir);
    }
}

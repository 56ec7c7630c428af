//! The three workloads: their inputs, request streams and answer oracles.
//!
//! Inputs and expected answers are built here from the seed, before the
//! server starts. Expected answers come from a local [`BatchEngine`], so
//! the server's answers are checked byte for byte against the batch API.

use crate::conn::{request_frame, Check, Meta, Next, OpStream};
use crate::gen::{self, FieldDoc, Rng, Zipf};
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use xdx_core::{parse_setting, setting_to_text, BatchEngine, DataExchangeSetting};
use xdx_patterns::parse_query;
use xdx_server::wire::{Codec, OpCode, RequestBody, ResponseBody, WireDoc, WireError};
use xdx_store::{encode_edits, DocEdit};
use xdx_xmltree::XmlTree;

/// Zipf exponent of every skewed choice (settings, documents).
pub const ZIPF_S: f64 = 0.99;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ShipBatch,
    TenantSmall,
    ResidentMixed,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "ship_batch" => Some(Kind::ShipBatch),
            "tenant_small" => Some(Kind::TenantSmall),
            "resident_mixed" => Some(Kind::ResidentMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ShipBatch => "ship_batch",
            Kind::TenantSmall => "tenant_small",
            Kind::ResidentMixed => "resident_mixed",
        }
    }

    /// Names of the op classes, indexed by [`Meta::kind`].
    pub fn op_names(self) -> &'static [&'static str] {
        match self {
            Kind::ShipBatch => &["solution", "answers", "consistency"],
            Kind::TenantSmall => &["answers_bool", "consistency", "put_setting"],
            Kind::ResidentMixed => &[
                "answers_stored_q0",
                "answers_stored_q1",
                "consistency_stored",
                "solution_stored",
                "edit",
            ],
        }
    }

    /// Share of each round given to the open loop. `ship_batch` offers
    /// few requests per second, so it gets more open-loop time: 180
    /// samples per round of a 30-second run (18 beyond the round's p90).
    /// Its closed loop still completes over a hundred per round.
    pub fn open_share(self) -> f64 {
        match self {
            Kind::ShipBatch => 0.8,
            Kind::TenantSmall | Kind::ResidentMixed => 0.6,
        }
    }

    /// The open-loop offered rate in requests per second, summed over both
    /// connections. It is fixed, so that later runs offer the same load:
    /// about a third of the closed-loop throughput measured when the
    /// benchmark was defined, which keeps the server below saturation even
    /// while the shared machine runs at half speed.
    pub fn open_rps(self) -> f64 {
        match self {
            Kind::ShipBatch => 90.0,
            Kind::TenantSmall => 10000.0,
            Kind::ResidentMixed => 1500.0,
        }
    }
}

/// Op class of `EditDoc` in `resident_mixed`.
pub const EDIT_KIND: u8 = 4;

/// Requests per connection kept in flight by the closed loop.
pub const CLOSED_DEPTH: usize = 4;
/// Documents per `ship_batch` request and nodes per document.
pub const SHIP_DOCS_PER_REQ: usize = 8;
pub const SHIP_NODES: usize = 256;
/// Distinct `ship_batch` requests; the generator draws from this pool.
const SHIP_POOL: usize = 128;
/// Nodes per `tenant_small` document, and distinct requests in the pool.
pub const TENANT_NODES: usize = 16;
const TENANT_POOL: usize = 2048;
/// One `tenant_small` request in this many is a `PutSetting` re-upload.
const REUPLOAD_EVERY: u64 = 64;
/// Resident documents of `resident_mixed` and their size.
pub const RESIDENT_DOCS: u64 = 512;
pub const RESIDENT_NODES: usize = 256;
/// Documents checked through stored queries after the timed phase.
const VERIFY_SAMPLE: usize = 48;

/// One prepared request of a stateless workload.
pub struct PoolReq {
    pub frame: Vec<u8>,
    pub check: Arc<[u8]>,
    pub kind: u8,
}

/// The expected `Ok` body for `op` over `trees`, from the batch engine.
pub fn expected(
    engine: &BatchEngine<'_>,
    op: OpCode,
    query: Option<&str>,
    trees: &[XmlTree],
) -> Arc<[u8]> {
    let sol_err = |e: xdx_core::SolutionError| WireError::of_solution_error(&e);
    let plan_query = || parse_query(query.expect("query op has a query")).expect("valid query");
    let body = match op {
        OpCode::CheckConsistency => {
            ResponseBody::Consistency(engine.check_consistency_batch(trees))
        }
        OpCode::CanonicalSolution => ResponseBody::Solutions(
            engine
                .canonical_solutions_batch(trees)
                .into_iter()
                .map(|r| {
                    r.map(|t| WireDoc::from_tree(&t, Codec::Binary))
                        .map_err(sol_err)
                })
                .collect(),
        ),
        OpCode::CertainAnswers => ResponseBody::Answers(
            engine
                .certain_answers_batch(trees, &plan_query())
                .into_iter()
                .map(|r| r.map(|a| a.tuples.into_iter().collect()).map_err(sol_err))
                .collect(),
        ),
        OpCode::CertainAnswersBoolean => ResponseBody::Booleans(
            engine
                .certain_answers_batch(trees, &plan_query())
                .into_iter()
                .map(|r| r.map(|a| a.as_boolean()).map_err(sol_err))
                .collect(),
        ),
        other => panic!("no batch oracle for {other:?}"),
    };
    crate::conn::ok_body(body)
}

fn docs_of(trees: &[XmlTree]) -> Vec<WireDoc> {
    trees
        .iter()
        .map(|t| WireDoc::from_tree(t, Codec::Binary))
        .collect()
}

/// FNV-1a over the canonical setting text: the content hash `PutSetting`
/// answers with.
fn content_hash(text: &str) -> u64 {
    let canonical = setting_to_text(&parse_setting(text).expect("generated setting parses"));
    canonical.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Everything a run of one workload needs, generated from its seed.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    /// The server's startup setting (binding 0).
    pub default_setting: DataExchangeSetting,
    /// `ship_batch` / `tenant_small`: the request pool. For
    /// `tenant_small` the last [`gen::TENANTS`] entries are the re-uploads.
    pub pool: Arc<Vec<PoolReq>>,
    /// `tenant_small`: bind id, setting text and the parsed setting.
    pub tenants: Vec<(u64, String, DataExchangeSetting)>,
    /// `resident_mixed`: the initial documents, by id.
    pub resident: Vec<FieldDoc>,
    /// `resident_mixed`: per connection, the shadow state of its documents.
    pub shadows: [Arc<Mutex<Shadow>>; 2],
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let default_setting =
            parse_setting(&gen::ship_setting_text()).expect("ship setting parses");
        let mut inputs = Inputs {
            kind,
            seed,
            default_setting,
            pool: Arc::new(Vec::new()),
            tenants: Vec::new(),
            resident: Vec::new(),
            shadows: [
                Arc::new(Mutex::new(Shadow::default())),
                Arc::new(Mutex::new(Shadow::default())),
            ],
        };
        match kind {
            Kind::ShipBatch => inputs.pool = Arc::new(ship_pool(&inputs.default_setting, seed)),
            Kind::TenantSmall => {
                inputs.tenants = (0..gen::TENANTS)
                    .map(|t| {
                        let text = gen::tenant_setting_text(t);
                        let setting = parse_setting(&text).expect("tenant setting parses");
                        (t as u64 + 1, text, setting)
                    })
                    .collect();
                inputs.pool = Arc::new(tenant_pool(&inputs.tenants, seed));
            }
            Kind::ResidentMixed => {
                let mut rng = Rng::derive(seed, 3);
                inputs.resident = (0..RESIDENT_DOCS)
                    .map(|_| FieldDoc::random(&mut rng, RESIDENT_NODES))
                    .collect();
            }
        }
        inputs
    }

    /// Finite streams that bring a fresh server to its ready state.
    pub fn setup_streams(&self) -> [Box<dyn OpStream>; 2] {
        [0u64, 1].map(|c| {
            let mut reqs = Vec::new();
            match self.kind {
                Kind::ShipBatch => {}
                Kind::TenantSmall => {
                    for (bind_id, text, _) in self.tenants.iter().filter(|t| t.0 % 2 == c) {
                        let body = RequestBody::PutSetting {
                            bind_id: *bind_id,
                            text: text.clone(),
                        };
                        reqs.push((request_frame(0, body), Check::Op(OpCode::PutSetting as u8)));
                    }
                }
                Kind::ResidentMixed => {
                    for doc_id in (c..RESIDENT_DOCS).step_by(2) {
                        let doc = WireDoc::from_tree(
                            &self.resident[doc_id as usize].to_tree(),
                            Codec::Binary,
                        );
                        let body = RequestBody::PutDoc { doc_id, doc };
                        reqs.push((request_frame(0, body), Check::Op(OpCode::PutDoc as u8)));
                    }
                }
            }
            Box::new(ListStream { reqs, at: 0 }) as Box<dyn OpStream>
        })
    }

    /// The endless timed streams, one per connection. They continue
    /// across the warm-up, closed-loop and open-loop phases.
    pub fn timed_streams(&self, log: bool) -> [Box<dyn OpStream>; 2] {
        [0u64, 1].map(|c| {
            let rng = Rng::derive(self.seed, 100 + c);
            match self.kind {
                Kind::ShipBatch | Kind::TenantSmall => {
                    let reupload =
                        (self.kind == Kind::TenantSmall).then(|| Zipf::new(gen::TENANTS, ZIPF_S));
                    let regular =
                        self.pool.len() - if reupload.is_some() { gen::TENANTS } else { 0 };
                    Box::new(PoolStream {
                        pool: Arc::clone(&self.pool),
                        regular,
                        reupload,
                        rng,
                        sent: 0,
                    }) as Box<dyn OpStream>
                }
                Kind::ResidentMixed => {
                    {
                        let mut shadow = self.shadows[c as usize].lock().expect("shadow lock");
                        shadow.docs = (c..RESIDENT_DOCS)
                            .step_by(2)
                            .map(|d| self.resident[d as usize].clone())
                            .collect();
                        shadow.log.clear();
                    }
                    Box::new(ResidentStream {
                        conn: c,
                        shadow: Arc::clone(&self.shadows[c as usize]),
                        rng,
                        zipf: Zipf::new((RESIDENT_DOCS / 2) as usize, ZIPF_S),
                        deferred: VecDeque::new(),
                        locked: HashSet::new(),
                        log,
                        finishing: false,
                    })
                }
            }
        })
    }

    /// `resident_mixed` after the timed phase: every document through
    /// `GetDoc`, and a seeded sample through every stored query, each
    /// against the shadow copy (documents) or the batch engine run on it
    /// (answers).
    pub fn verify_streams(&self) -> [Box<dyn OpStream>; 2] {
        let engine = BatchEngine::new(&self.default_setting);
        let mut rng = Rng::derive(self.seed, 7);
        let sample: HashSet<u64> = (0..VERIFY_SAMPLE)
            .map(|_| rng.below(RESIDENT_DOCS as usize) as u64)
            .collect();
        [0u64, 1].map(|c| {
            let shadow = self.shadows[c as usize].lock().expect("shadow lock");
            let mut reqs = Vec::new();
            for (i, doc) in shadow.docs.iter().enumerate() {
                let doc_id = c + 2 * i as u64;
                let tree = doc.to_tree();
                let blob = crate::conn::ok_body(ResponseBody::GetDocOk {
                    version: 0,
                    doc: WireDoc::from_tree(&tree, Codec::Binary),
                });
                reqs.push((
                    request_frame(0, RequestBody::GetDoc { doc_id }),
                    Check::Tail {
                        op: OpCode::GetDoc as u8,
                        skip: 8,
                        tail: blob[9..].into(),
                    },
                ));
                if !sample.contains(&doc_id) {
                    continue;
                }
                let trees = [tree];
                for kind in 0..EDIT_KIND {
                    let (body, op, query) = stored_read(kind, doc_id);
                    let want = expected(&engine, op, query, &trees);
                    reqs.push((request_frame(0, body), Check::Exact(want)));
                }
            }
            Box::new(ListStream { reqs, at: 0 }) as Box<dyn OpStream>
        })
    }
}

fn ship_pool(setting: &DataExchangeSetting, seed: u64) -> Vec<PoolReq> {
    let engine = BatchEngine::new(setting);
    let mut rng = Rng::derive(seed, 1);
    (0..SHIP_POOL)
        .map(|i| {
            let trees: Vec<XmlTree> = (0..SHIP_DOCS_PER_REQ)
                .map(|_| FieldDoc::random(&mut rng, SHIP_NODES).to_tree())
                .collect();
            let docs = docs_of(&trees);
            // 50% solutions, 30% certain answers, 20% consistency checks.
            let (kind, op, body, query) = match i * 10 / SHIP_POOL {
                0..=4 => (
                    0,
                    OpCode::CanonicalSolution,
                    RequestBody::CanonicalSolution { docs },
                    None,
                ),
                5..=7 => {
                    let query = gen::SHIP_QUERIES[i % gen::SHIP_QUERIES.len()];
                    let body = RequestBody::CertainAnswers {
                        query: query.to_string(),
                        docs,
                    };
                    (1, OpCode::CertainAnswers, body, Some(query))
                }
                _ => (
                    2,
                    OpCode::CheckConsistency,
                    RequestBody::CheckConsistency { docs },
                    None,
                ),
            };
            PoolReq {
                check: expected(&engine, op, query, &trees),
                frame: request_frame(0, body),
                kind,
            }
        })
        .collect()
}

fn tenant_pool(tenants: &[(u64, String, DataExchangeSetting)], seed: u64) -> Vec<PoolReq> {
    let engines: Vec<BatchEngine<'_>> = tenants.iter().map(|t| BatchEngine::new(&t.2)).collect();
    let zipf = Zipf::new(tenants.len(), ZIPF_S);
    let mut rng = Rng::derive(seed, 2);
    let mut pool: Vec<PoolReq> = (0..TENANT_POOL)
        .map(|i| {
            let t = zipf.sample(&mut rng);
            let trees = [gen::tenant_doc(t, &mut rng, TENANT_NODES)];
            let docs = docs_of(&trees);
            let (kind, op, body, query) = if i % 2 == 0 {
                let query = gen::tenant_query(t);
                let body = RequestBody::CertainAnswersBoolean {
                    query: query.clone(),
                    docs,
                };
                (0, OpCode::CertainAnswersBoolean, body, Some(query))
            } else {
                (
                    1,
                    OpCode::CheckConsistency,
                    RequestBody::CheckConsistency { docs },
                    None,
                )
            };
            PoolReq {
                check: expected(&engines[t], op, query.as_deref(), &trees),
                frame: request_frame(tenants[t].0, body),
                kind,
            }
        })
        .collect();
    // Byte-identical re-uploads: the registry answers them by hash lookup.
    for (bind_id, text, _) in tenants {
        pool.push(PoolReq {
            frame: request_frame(
                0,
                RequestBody::PutSetting {
                    bind_id: *bind_id,
                    text: text.clone(),
                },
            ),
            check: crate::conn::ok_body(ResponseBody::PutSettingOk {
                content_hash: content_hash(text),
                reused: true,
            }),
            kind: 2,
        });
    }
    pool
}

/// A finite list of requests, sent in order.
struct ListStream {
    reqs: Vec<(Vec<u8>, Check)>,
    at: usize,
}

impl OpStream for ListStream {
    fn next(&mut self, out: &mut Vec<u8>) -> Next {
        let Some((frame, check)) = self.reqs.get(self.at) else {
            return Next::Done;
        };
        out.extend_from_slice(frame);
        self.at += 1;
        Next::Send(Meta {
            kind: 0,
            check: check.clone(),
            lock: None,
            tag: self.at as u64 - 1,
        })
    }
}

/// Uniform draws from a pool of prepared requests; for `tenant_small`,
/// every [`REUPLOAD_EVERY`]th request is a Zipf-chosen setting re-upload.
struct PoolStream {
    pool: Arc<Vec<PoolReq>>,
    regular: usize,
    reupload: Option<Zipf>,
    rng: Rng,
    sent: u64,
}

impl OpStream for PoolStream {
    fn next(&mut self, out: &mut Vec<u8>) -> Next {
        self.sent += 1;
        let index = match &self.reupload {
            Some(zipf) if self.sent.is_multiple_of(REUPLOAD_EVERY) => {
                self.regular + zipf.sample(&mut self.rng)
            }
            _ => self.rng.below(self.regular),
        };
        let req = &self.pool[index];
        out.extend_from_slice(&req.frame);
        Next::Send(Meta {
            kind: req.kind,
            check: Check::Exact(Arc::clone(&req.check)),
            lock: None,
            tag: index as u64,
        })
    }
}

/// What `resident_mixed` sent, in order, for the traced replay.
#[derive(Debug, Clone)]
pub enum Logged {
    Read { doc: u64, kind: u8 },
    Edit { doc: u64, edits: Vec<DocEdit> },
}

/// One connection's shadow copies (document `conn + 2i` at index `i`).
#[derive(Debug, Default)]
pub struct Shadow {
    pub docs: Vec<FieldDoc>,
    pub log: Vec<Logged>,
}

/// The request and its base op for stored read class `kind`.
pub fn stored_read(kind: u8, doc_id: u64) -> (RequestBody, OpCode, Option<&'static str>) {
    match kind {
        0 | 1 => {
            let query = gen::SHIP_QUERIES[kind as usize];
            let body = RequestBody::CertainAnswersStored {
                query: query.to_string(),
                doc_id,
            };
            (body, OpCode::CertainAnswers, Some(query))
        }
        2 => (
            RequestBody::CheckConsistencyStored { doc_id },
            OpCode::CheckConsistency,
            None,
        ),
        _ => (
            RequestBody::CanonicalSolutionStored { doc_id },
            OpCode::CanonicalSolution,
            None,
        ),
    }
}

/// `resident_mixed` traffic of one connection: Zipf over its own half of
/// the documents, 75% stored reads (the four kinds of [`stored_read`],
/// equally likely) and 25% edit batches. Each batch is drawn against the
/// shadow copy when its op is drawn. A batch for a
/// document whose previous batch is still unanswered is deferred (and the
/// schedule slot goes to the next op), so the server applies every
/// document's batches in the order they were drawn, and a slow edit does
/// not hold up the rest of the schedule.
struct ResidentStream {
    conn: u64,
    shadow: Arc<Mutex<Shadow>>,
    rng: Rng,
    zipf: Zipf,
    /// Drawn but unsent edit batches: (doc, frame, log tag), oldest first.
    deferred: VecDeque<(u64, Vec<u8>, u64)>,
    locked: HashSet<u64>,
    log: bool,
    finishing: bool,
}

/// Most edit batches a connection defers before it stops drawing.
const MAX_DEFERRED: usize = 256;

impl ResidentStream {
    fn edit_meta(&mut self, doc: u64, tag: u64) -> Meta {
        self.locked.insert(doc);
        Meta {
            kind: EDIT_KIND,
            check: Check::Op(OpCode::EditDoc as u8),
            lock: Some(doc),
            tag,
        }
    }
}

impl OpStream for ResidentStream {
    fn next(&mut self, out: &mut Vec<u8>) -> Next {
        // A deferred batch whose document is free goes first, unless an
        // older batch of the same document is still waiting.
        let mut seen = HashSet::new();
        for i in 0..self.deferred.len() {
            let doc = self.deferred[i].0;
            if !self.locked.contains(&doc) && !seen.contains(&doc) {
                let (doc, frame, tag) = self.deferred.remove(i).expect("index in range");
                out.extend_from_slice(&frame);
                return Next::Send(self.edit_meta(doc, tag));
            }
            seen.insert(doc);
        }
        if self.finishing {
            return if self.deferred.is_empty() {
                Next::Done
            } else {
                Next::Wait
            };
        }
        loop {
            if self.deferred.len() >= MAX_DEFERRED {
                return Next::Wait;
            }
            let doc = self.conn + 2 * self.zipf.sample(&mut self.rng) as u64;
            let kind = if self.rng.below(4) == 0 {
                EDIT_KIND
            } else {
                self.rng.below(4) as u8
            };
            let mut shadow = self.shadow.lock().expect("shadow lock");
            let tag = shadow.log.len() as u64;
            if kind != EDIT_KIND {
                let (body, op, _) = stored_read(kind, doc);
                out.extend_from_slice(&request_frame(0, body));
                if self.log {
                    shadow.log.push(Logged::Read { doc, kind });
                }
                return Next::Send(Meta {
                    kind,
                    check: Check::Op(op as u8),
                    lock: None,
                    tag,
                });
            }
            let edits = shadow.docs[(doc / 2) as usize].edit_batch(&mut self.rng);
            let mut blob = Vec::new();
            encode_edits(&edits, &mut blob);
            let frame = request_frame(
                0,
                RequestBody::EditDoc {
                    doc_id: doc,
                    base_version: 0,
                    edits: blob,
                },
            );
            if self.log {
                shadow.log.push(Logged::Edit { doc, edits });
            }
            drop(shadow);
            if self.locked.contains(&doc) || self.deferred.iter().any(|d| d.0 == doc) {
                self.deferred.push_back((doc, frame, tag));
                continue;
            }
            out.extend_from_slice(&frame);
            return Next::Send(self.edit_meta(doc, tag));
        }
    }

    fn answered(&mut self, meta: &Meta) {
        if let Some(doc) = meta.lock {
            self.locked.remove(&doc);
        }
    }

    fn finish(&mut self) {
        self.finishing = true;
    }
}

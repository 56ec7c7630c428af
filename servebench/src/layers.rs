//! Traced runs: per-layer attribution of the served latency.
//!
//! The server itself is not instrumented further. A traced run measures
//! it from outside, from three sources:
//!
//! * **Stats** — the diff of Stats v2 snapshots taken around the
//!   open-loop phase (per-phase histograms, engine and store counters);
//! * **replay** — the run's own requests replayed in-process, after the
//!   server has stopped, through each layer's public function, each call
//!   wrapped in a span whose root is the client span of the same request
//!   id;
//! * **gen** — the generator's own counts.
//!
//! Spans are kept in memory and written to `.servebench_out/` when the
//! run ends, with the per-layer table.

use crate::conn::ReqSpan;
use crate::work::{self, Inputs, Kind, Logged};
use crate::{median, pct, RunResult, OUT_DIR};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use xdx_core::{parse_setting, CompiledSetting, ExchangeScratch};
use xdx_obs::HistogramSnapshot;
use xdx_patterns::{parse_query, QueryPlan, TreeIndex};
use xdx_server::wire::{self, Codec, OpCode, RequestBody, ResponseBody, WireDoc, WireError};
use xdx_server::{ServerConfig, StatsSnapshot};
use xdx_store::{decode_edits_exact, encode_edits, DocStore, StoreConfig};
use xdx_xmltree::{NullGen, XmlTree};

/// Most wall time a traced run spends replaying requests; requests past
/// it are not replayed, and the table covers the replayed ones.
const REPLAY_BUDGET: Duration = Duration::from_secs(3);

pub struct LayerReport {
    pub text: String,
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// One span: a client request (`parent == 0`) or a replayed layer call.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self
            .stack
            .last()
            .map(|&i| self.spans[i].id)
            .unwrap_or(self.req);
        self.next_id += 1;
        let start_ns = self.now();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            id: self.next_id,
            parent,
            req: self.req,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    fn exit(&mut self) {
        let i = self.stack.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now();
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }
}

/// Work counts the replay gathers beside its spans.
#[derive(Default)]
struct Counts {
    requests: u64,
    decoded_nodes: u64,
    encoded_nodes: u64,
    chase_steps: u64,
    chase_repairs: u64,
    chased_docs: u64,
    edits: u64,
    wal_bytes: u64,
}

/// One document's result, before response encoding.
enum DocOut {
    Consistent(bool),
    Solution(Result<XmlTree, WireError>),
    Tuples(Result<Vec<Vec<String>>, WireError>),
    Bool(Result<bool, WireError>),
}

/// Replay the exchange pipeline of `op` on one document, as the server's
/// worker runs it on its own thread, one span per layer call. A
/// multi-document `CanonicalSolution` that the server fans out over its
/// `BatchEngine` pool is replayed one document after another, so the
/// replay does not model that path (thread spawns, channel, reorder).
fn exec_doc(
    t: &mut Tracer,
    cs: &CompiledSetting<'_>,
    op: OpCode,
    plan: Option<&QueryPlan>,
    tree: &XmlTree,
    scratch: &mut ExchangeScratch,
    counts: &mut Counts,
) -> DocOut {
    t.enter("core.exec");
    if op == OpCode::CheckConsistency
        && !t.span("xmltree.conform", || cs.source_dtd().conforms(tree))
    {
        t.exit();
        return DocOut::Consistent(false);
    }
    t.span("patterns.match", || {
        let index = TreeIndex::new(tree, cs.source_dtd());
        for std in cs.stds() {
            let _ = std.source_plan().try_for_each_restricted_match(
                tree,
                &index,
                &std.shared_vars,
                |_| Ok::<(), ()>(()),
            );
        }
    });
    let mut nulls = NullGen::new();
    let solution = t
        .span("core.presolution", || {
            cs.canonical_presolution_with(tree, &mut nulls, scratch)
        })
        .and_then(|mut pre| {
            t.span("core.chase", || cs.chase(&mut pre, &mut nulls))
                .map(|()| pre)
        });
    let err = |e: xdx_core::SolutionError| WireError::of_solution_error(&e);
    let out = match op {
        OpCode::CheckConsistency => DocOut::Consistent(solution.is_ok()),
        OpCode::CanonicalSolution => DocOut::Solution(solution.map_err(err)),
        OpCode::CertainAnswers | OpCode::CertainAnswersBoolean => {
            let plan = plan.expect("query ops carry a plan");
            match solution {
                Err(e) => {
                    if op == OpCode::CertainAnswers {
                        DocOut::Tuples(Err(err(e)))
                    } else {
                        DocOut::Bool(Err(err(e)))
                    }
                }
                Ok(sol) => t.span("patterns.query", || {
                    let index = TreeIndex::new(&sol, cs.target_dtd());
                    if op == OpCode::CertainAnswers {
                        let tuples = xdx_core::certain::certain_tuples_planned(&sol, plan, &index);
                        DocOut::Tuples(Ok(tuples.into_iter().collect()))
                    } else {
                        DocOut::Bool(Ok(plan.evaluate_boolean(&sol, &index)))
                    }
                }),
            }
        }
        other => panic!("no replay for {other:?}"),
    };
    t.exit();
    // Chase work counts, outside the layer spans (the public chase entry
    // point does not count; the counted one repeats the pipeline).
    scratch.reset_counters();
    let _ = cs.canonical_solution_with(tree, scratch);
    counts.chase_steps += scratch.counters.chase_steps;
    counts.chase_repairs += scratch.counters.chase_repairs;
    counts.chased_docs += 1;
    out
}

/// Encode per-document results into the response frame, the way the
/// server's encode phase does.
fn encode_response(t: &mut Tracer, op: OpCode, outs: Vec<DocOut>, counts: &mut Counts) {
    let mut docs = Vec::new();
    let mut flags = Vec::new();
    let mut tuples = Vec::new();
    let mut bools = Vec::new();
    for out in outs {
        match out {
            DocOut::Consistent(b) => flags.push(b),
            DocOut::Solution(r) => docs.push(r.map(|sol| {
                counts.encoded_nodes += sol.size() as u64;
                t.span("xmltree.encode", || WireDoc::from_tree(&sol, Codec::Binary))
            })),
            DocOut::Tuples(r) => tuples.push(r),
            DocOut::Bool(r) => bools.push(r),
        }
    }
    let body = match op {
        OpCode::CheckConsistency => ResponseBody::Consistency(flags),
        OpCode::CanonicalSolution => ResponseBody::Solutions(docs),
        OpCode::CertainAnswers => ResponseBody::Answers(tuples),
        _ => ResponseBody::Booleans(bools),
    };
    t.span("server.wire.encode", || {
        wire::encode_response(&wire::ResponseFrame { id: 1, body })
    });
}

/// Replay one shipped-document request frame.
fn replay_shipped(
    t: &mut Tracer,
    frame: &[u8],
    settings: &HashMap<u64, CompiledSetting<'_>>,
    scratch: &mut ExchangeScratch,
    counts: &mut Counts,
) {
    let max_docs = ServerConfig::default().max_docs_per_request;
    let request = t
        .span("server.wire.decode", || {
            wire::decode_request(&frame[4..], max_docs, Codec::Binary, true)
        })
        .expect("generated frames decode");
    let (op, query, docs) = match request.body {
        RequestBody::CheckConsistency { docs } => (OpCode::CheckConsistency, None, docs),
        RequestBody::CanonicalSolution { docs } => (OpCode::CanonicalSolution, None, docs),
        RequestBody::CertainAnswers { query, docs } => (OpCode::CertainAnswers, Some(query), docs),
        RequestBody::CertainAnswersBoolean { query, docs } => {
            (OpCode::CertainAnswersBoolean, Some(query), docs)
        }
        // A setting re-upload: canonicalize and hash, as the registry does.
        RequestBody::PutSetting { text, .. } => {
            t.span("server.registry.put", || {
                xdx_core::setting_to_text(&parse_setting(&text).expect("generated setting"))
            });
            return;
        }
        other => panic!("not a shipped-document request: {other:?}"),
    };
    let trees: Vec<XmlTree> = docs
        .iter()
        .map(|d| {
            let tree = t.span("xmltree.decode", || {
                d.to_tree().expect("generated docs decode")
            });
            counts.decoded_nodes += tree.size() as u64;
            tree
        })
        .collect();
    let cs = t
        .span("server.registry.resolve", || {
            settings.get(&request.setting_id)
        })
        .expect("replayed settings are bound");
    let plan = query.map(|q| {
        t.span("patterns.plan", || {
            QueryPlan::new(&parse_query(&q).expect("generated query"), cs.target_dtd())
        })
    });
    let outs = trees
        .iter()
        .map(|tree| exec_doc(t, cs, op, plan.as_ref(), tree, scratch, counts))
        .collect();
    encode_response(t, op, outs, counts);
}

/// Replay `resident_mixed`: rebuild the initial store in a scratch
/// directory, then apply every logged op in order. Ops of the traced
/// window are replayed through the layers under spans; earlier ones only
/// advance the store and the answer-cache model.
fn replay_resident(
    t: &mut Tracer,
    inputs: &Inputs,
    traced: &HashMap<(u8, u64), u64>,
    tmp: &Path,
    scratch: &mut ExchangeScratch,
    counts: &mut Counts,
    deadline: Instant,
) -> Result<HashSet<u64>, String> {
    let mut store: DocStore<()> = DocStore::open(StoreConfig::new(tmp.join("replay")))
        .map_err(|e| format!("replay store: {e}"))?;
    for (id, doc) in inputs.resident.iter().enumerate() {
        store
            .put(id as u64, doc.to_tree())
            .map_err(|e| format!("replay put: {e}"))?;
    }
    let cs = CompiledSetting::new(&inputs.default_setting);
    let mut cached: HashSet<(u64, u8)> = HashSet::new();
    let mut replayed = HashSet::new();
    for c in 0..2u8 {
        let log = inputs.shadows[c as usize]
            .lock()
            .expect("shadow lock")
            .log
            .clone();
        for (tag, entry) in log.iter().enumerate() {
            let req = traced
                .get(&(c, tag as u64))
                .copied()
                .filter(|_| Instant::now() < deadline);
            if let Some(req) = req {
                t.req = req;
                replayed.insert(req);
                counts.requests += 1;
                t.enter("replay");
            }
            match entry {
                Logged::Edit { doc, edits } => {
                    cached.retain(|k| k.0 != *doc);
                    if req.is_none() {
                        store
                            .edit(*doc, 0, edits)
                            .map_err(|e| format!("replay edit: {e}"))?;
                        continue;
                    }
                    let mut blob = Vec::new();
                    encode_edits(edits, &mut blob);
                    let batch = t
                        .span("server.wire.decode", || decode_edits_exact(&blob))
                        .map_err(|e| format!("replay decode: {e}"))?;
                    let wal_before = store.wal_len();
                    t.span("store.edit", || store.edit(*doc, 0, &batch))
                        .map_err(|e| format!("replay edit: {e}"))?;
                    counts.edits += 1;
                    counts.wal_bytes += store.wal_len().saturating_sub(wal_before);
                }
                Logged::Read { doc, kind } => {
                    let hit = !cached.insert((*doc, *kind));
                    if req.is_none() {
                        continue;
                    }
                    let (body, op, query) = work::stored_read(*kind, *doc);
                    let frame = crate::conn::request_frame(0, body);
                    t.span("server.wire.decode", || {
                        wire::decode_request(&frame[4..], 1, Codec::Binary, true)
                    })
                    .map_err(|e| format!("replay decode: {}", e.error))?;
                    let tree = t.span("store.lookup", || {
                        store
                            .get(*doc)
                            .map(|(tree, _)| (!hit).then(|| tree.clone()))
                    });
                    let tree = tree.map_err(|e| format!("replay get: {e}"))?;
                    if let Some(tree) = tree {
                        let plan = query.map(|q| {
                            t.span("patterns.plan", || {
                                QueryPlan::new(
                                    &parse_query(q).expect("generated query"),
                                    cs.target_dtd(),
                                )
                            })
                        });
                        let out = exec_doc(t, &cs, op, plan.as_ref(), &tree, scratch, counts);
                        encode_response(t, op, vec![out], counts);
                    }
                }
            }
            if req.is_some() {
                t.exit();
            }
        }
    }
    Ok(replayed)
}

/// Differences of Stats v2 snapshots, summed over one or more intervals.
#[derive(Default)]
pub struct StatsDiff {
    /// Per histogram: count, sum, max and per-bucket counts.
    hists: HashMap<String, (u64, u64, u64, [u64; 64])>,
    counters: HashMap<String, u64>,
}

impl StatsDiff {
    /// Add the interval from `before` to `after`.
    pub fn add(&mut self, before: &StatsSnapshot, after: &StatsSnapshot) {
        for h in &after.histograms {
            let prior = before.histogram(&h.name);
            let e = self
                .hists
                .entry(h.name.clone())
                .or_insert((0, 0, 0, [0; 64]));
            e.0 += h.count - prior.map_or(0, |p| p.count);
            e.1 =
                e.1.wrapping_add(h.sum.wrapping_sub(prior.map_or(0, |p| p.sum)));
            e.2 = e.2.max(h.max);
            for &(b, n) in &h.buckets {
                e.3[b as usize % 64] += n;
            }
            for &(b, n) in prior.map_or(&[][..], |p| &p.buckets[..]) {
                e.3[b as usize % 64] -= n;
            }
        }
        for (name, value) in &after.counters {
            *self.counters.entry(name.clone()).or_default() +=
                value.saturating_sub(before.counter(name).unwrap_or(0));
        }
    }

    /// The merged histogram of every row whose name satisfies `pick`.
    fn hist(&self, pick: impl Fn(&str) -> bool) -> HistogramSnapshot {
        let mut buckets = [0u64; 64];
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        for (_, (c, s, m, b)) in self.hists.iter().filter(|(n, _)| pick(n)) {
            count += c;
            sum = sum.wrapping_add(*s);
            max = max.max(*m);
            for (acc, n) in buckets.iter_mut().zip(b) {
                *acc += n;
            }
        }
        HistogramSnapshot::from_sparse(
            count,
            sum,
            0,
            max,
            buckets.iter().enumerate().map(|(i, &n)| (i as u8, n)),
        )
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

fn phase(name: &'static str) -> impl Fn(&str) -> bool {
    move |n: &str| n.starts_with("req.") && n.ends_with(name)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> HashMap<&'static str, (u64, u64)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_name: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    by_name
}

/// Write every span as one JSON object per line. Client spans run from
/// the intended send time to the last response byte (`sent_ns` is when the
/// request actually left); replayed spans carry their parent's id.
fn write_spans(
    path: &Path,
    ops: &[&str],
    client: &[ReqSpan],
    replay: &[Span],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in client {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":0,\"req\":{},\"name\":\"client.{}\",\"start_ns\":{},\"end_ns\":{},\"sent_ns\":{},\"ok\":{}}}",
            s.id, s.id, ops[s.kind as usize], s.intended_ns, s.done_ns, s.sent_ns, s.ok
        )?;
    }
    for s in replay {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Replay, attribute and summarise a traced run.
pub fn analyse(
    seed: u64,
    inputs: &Inputs,
    r: &RunResult,
    tmp: &Path,
) -> Result<LayerReport, String> {
    let kind = inputs.kind;
    let mut t = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        next_id: 1 << 62,
        stack: Vec::new(),
        req: 0,
    };
    let mut counts = Counts::default();
    let mut scratch = ExchangeScratch::new();
    let deadline = Instant::now() + REPLAY_BUDGET;

    // Registry put: parse + compile, per uploaded setting.
    let texts: Vec<String> = match kind {
        Kind::TenantSmall => inputs.tenants.iter().map(|t| t.1.clone()).collect(),
        _ => vec![crate::gen::ship_setting_text()],
    };
    let put_start = Instant::now();
    for text in &texts {
        let setting = parse_setting(text).map_err(|e| e.to_string())?;
        std::hint::black_box(CompiledSetting::new(&setting));
    }
    let put_ns = put_start.elapsed().as_nanos() as f64 / texts.len() as f64;

    let mut open: Vec<&ReqSpan> = r.open.spans.iter().collect();
    open.sort_by_key(|s| s.sent_ns);
    let replayed: HashSet<u64> = match kind {
        Kind::ShipBatch | Kind::TenantSmall => {
            let mut settings: HashMap<u64, CompiledSetting<'_>> = HashMap::new();
            settings.insert(0, CompiledSetting::new(&inputs.default_setting));
            for (bind_id, _, setting) in &inputs.tenants {
                settings.insert(*bind_id, CompiledSetting::new(setting));
            }
            let mut done = HashSet::new();
            for s in &open {
                if Instant::now() >= deadline {
                    break;
                }
                t.req = s.id;
                counts.requests += 1;
                t.enter("replay");
                let frame = &inputs.pool[s.tag as usize].frame;
                replay_shipped(&mut t, frame, &settings, &mut scratch, &mut counts);
                t.exit();
                done.insert(s.id);
            }
            done
        }
        Kind::ResidentMixed => {
            let traced: HashMap<(u8, u64), u64> =
                open.iter().map(|s| ((s.conn, s.tag), s.id)).collect();
            replay_resident(
                &mut t,
                inputs,
                &traced,
                tmp,
                &mut scratch,
                &mut counts,
                deadline,
            )?
        }
    };

    // Client-observed latency of the replayed requests.
    let chosen: Vec<&&ReqSpan> = open.iter().filter(|s| replayed.contains(&s.id)).collect();
    let n = chosen.len().max(1) as f64;
    let client_mean = chosen
        .iter()
        .map(|s| (s.done_ns - s.intended_ns) as f64)
        .sum::<f64>()
        / n;
    let rtt_mean_all = r
        .open
        .spans
        .iter()
        .map(|s| (s.done_ns - s.sent_ns) as f64)
        .sum::<f64>()
        / r.open.spans.len().max(1) as f64;

    // Stats v2 around the open-loop phases, and around the whole timed run.
    let (o, w) = (&r.open_stats, &r.run_stats);
    let queue = o.hist(phase(".queue"));
    let flush = o.hist(phase(".flush"));
    let total = o.hist(phase(".total"));
    let decode = o.hist(phase(".decode"));
    let encode = o.hist(phase(".encode"));
    let resolve = o.hist(phase(".resolve"));
    let exec = o.hist(phase(".exec"));
    let store_phase = o.hist(phase(".store"));
    let fsync = w.hist(|n| n == "store.fsync");
    let checkpoint = w.hist(|n| n == "store.checkpoint");
    let cache_hits = o.counter("store.cache_hits");
    let cache_misses = o.counter("store.cache_misses");
    let reg_hits = w.counter("registry.artifact_hits");
    let reg_misses = w.counter("registry.artifact_misses");

    // Documents the workers computed in the open-loop phase.
    let exec_docs = match kind {
        Kind::ShipBatch => r.open.completed as f64 * work::SHIP_DOCS_PER_REQ as f64,
        Kind::TenantSmall => r.open.lat.iter().filter(|l| l.0 != 2).count() as f64,
        Kind::ResidentMixed => cache_misses,
    };

    let selfs = self_times(&t.spans);
    let total_self = |name: &str| selfs.get(name).map_or(0.0, |e| e.1 as f64);
    let mean_self = |name: &str| {
        selfs
            .get(name)
            .map_or(0.0, |e| ratio(e.1 as f64, e.0 as f64))
    };
    let req_n = counts.requests.max(1) as f64;
    let template_total = (total_self("core.presolution") - total_self("patterns.match")).max(0.0);

    let rows: Vec<(&str, f64)> = vec![
        (
            "server.wire.decode",
            total_self("server.wire.decode") / req_n,
        ),
        ("xmltree.decode", total_self("xmltree.decode") / req_n),
        (
            "server.registry.resolve",
            total_self("server.registry.resolve") / req_n,
        ),
        (
            "server.registry.put",
            total_self("server.registry.put") / req_n,
        ),
        ("patterns.plan", total_self("patterns.plan") / req_n),
        ("xmltree.conform", total_self("xmltree.conform") / req_n),
        ("patterns.match", total_self("patterns.match") / req_n),
        ("core.template", template_total / req_n),
        ("core.chase", total_self("core.chase") / req_n),
        ("patterns.query", total_self("patterns.query") / req_n),
        ("core.exec (self)", total_self("core.exec") / req_n),
        ("xmltree.encode", total_self("xmltree.encode") / req_n),
        (
            "server.wire.encode",
            total_self("server.wire.encode") / req_n,
        ),
        ("store.lookup", total_self("store.lookup") / req_n),
        ("store.edit", total_self("store.edit") / req_n),
        ("server.loop.queue (Stats mean)", queue.mean() as f64),
        ("server.loop.flush (Stats mean)", flush.mean() as f64),
    ];
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    let unattributed = client_mean - attributed;

    let rate = |traced: bool| -> Vec<f64> {
        r.rounds
            .iter()
            .map(|round| &round.closed)
            .filter(|w| w.traced == traced)
            .map(|w| w.completed as f64 / w.secs)
            .collect()
    };
    let (plain, traced) = (rate(false), rate(true));
    let (plain_rps, traced_rps) = (median(plain), median(traced));
    let overhead = ratio(traced_rps, plain_rps);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "per-layer table ({}, {} replayed open-loop requests, mean per request):",
        kind.name(),
        counts.requests
    );
    for (name, ns) in &rows {
        let _ = writeln!(
            text,
            "  {name:<32} {:>12.0} ns  {:>5.1}%",
            ns,
            100.0 * ratio(*ns, client_mean)
        );
    }
    let _ = writeln!(text, "  {:<32} {:>12.0} ns", "sum of layers", attributed);
    let _ = writeln!(
        text,
        "  {:<32} {:>12.0} ns",
        "client-observed mean latency", client_mean
    );
    let _ = writeln!(
        text,
        "  {:<32} {:>12.0} ns  {:>5.1}%  (socket, event loop, scheduling, client)",
        "unattributed remainder",
        unattributed,
        100.0 * ratio(unattributed, client_mean)
    );
    let _ = writeln!(
        text,
        "  tracing overhead: traced closed-loop rounds {traced_rps:.1} req/s vs untraced {plain_rps:.1} req/s (median throughput ratio {overhead:.3})"
    );
    let _ = writeln!(text, "  replayed layer calls run single-threaded on an idle server, after the run; queue and flush come from the server's own Stats");
    if kind == Kind::ShipBatch {
        let pool = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(work::SHIP_DOCS_PER_REQ);
        if pool > 1 {
            let _ = writeln!(text, "  CanonicalSolution requests fan their {} documents out over the server's BatchEngine pool ({pool} scoped threads per request); the replay runs them one by one, and core.exec.ns_per_doc divides that parallel wall time by {}", work::SHIP_DOCS_PER_REQ, work::SHIP_DOCS_PER_REQ);
        }
    }

    let highwater = r.last_stats.counter("engine.assign_highwater").unwrap_or(0) as f64;
    let mut edits: Vec<u64> = r
        .open
        .lat
        .iter()
        .filter(|l| l.0 == work::EDIT_KIND)
        .map(|l| l.1)
        .collect();
    edits.sort_unstable();
    let mut pooled: Vec<u64> = r.open.lat.iter().map(|l| l.1).collect();
    pooled.sort_unstable();
    let m = |name: &str, value: f64, unit: &'static str| (name.to_string(), value, unit);
    let metrics = vec![
        m(
            "client.latency_p50_us",
            pct(&pooled, 50.0) as f64 / 1e3,
            "us",
        ),
        m(
            "client.latency_p90_us",
            pct(&pooled, 90.0) as f64 / 1e3,
            "us",
        ),
        m(
            "client.latency_p99_us",
            pct(&pooled, 99.0) as f64 / 1e3,
            "us",
        ),
        m("server.loop.queue_ns_p50", queue.p50() as f64, "ns"),
        m("server.loop.queue_ns_p99", queue.p99() as f64, "ns"),
        m("server.loop.flush_ns_p50", flush.p50() as f64, "ns"),
        m(
            "server.loop.outside_ns_mean",
            rtt_mean_all - total.mean() as f64,
            "ns",
        ),
        m(
            "server.loop.busy_rejected",
            w.counter("server.busy_rejected"),
            "count",
        ),
        m(
            "server.wire.decode_ns_per_req",
            ratio(decode.sum as f64, decode.count as f64),
            "ns",
        ),
        m(
            "server.wire.encode_ns_per_req",
            ratio(encode.sum as f64, encode.count as f64),
            "ns",
        ),
        m(
            "server.wire.req_bytes",
            ratio(r.open.req_bytes as f64, r.open.attempted as f64),
            "bytes",
        ),
        m(
            "server.wire.resp_bytes",
            ratio(r.open.resp_bytes as f64, r.open.completed as f64),
            "bytes",
        ),
        m("server.registry.resolve_ns_p50", resolve.p50() as f64, "ns"),
        m(
            "server.registry.hit_ratio",
            ratio(reg_hits, reg_hits + reg_misses),
            "ratio",
        ),
        m("server.registry.put_ns", put_ns, "ns"),
        m("patterns.plan.ns_per_req", mean_self("patterns.plan"), "ns"),
        m(
            "patterns.match.ns_per_doc",
            mean_self("patterns.match"),
            "ns",
        ),
        m(
            "patterns.query.ns_per_doc",
            mean_self("patterns.query"),
            "ns",
        ),
        m("patterns.assign_highwater", highwater, "count"),
        m(
            "xmltree.decode.ns_per_node",
            ratio(total_self("xmltree.decode"), counts.decoded_nodes as f64),
            "ns",
        ),
        m(
            "xmltree.encode.ns_per_node",
            ratio(total_self("xmltree.encode"), counts.encoded_nodes as f64),
            "ns",
        ),
        m(
            "xmltree.conform.ns_per_doc",
            mean_self("xmltree.conform"),
            "ns",
        ),
        m(
            "core.template.ns_per_doc",
            ratio(
                template_total,
                selfs.get("core.presolution").map_or(0.0, |e| e.0 as f64),
            ),
            "ns",
        ),
        m("core.chase.ns_per_doc", mean_self("core.chase"), "ns"),
        m(
            "core.chase.steps_per_doc",
            ratio(counts.chase_steps as f64, counts.chased_docs as f64),
            "count",
        ),
        m(
            "core.chase.repairs_per_step",
            ratio(counts.chase_repairs as f64, counts.chase_steps as f64),
            "ratio",
        ),
        m(
            "core.exec.ns_per_doc",
            ratio(exec.sum as f64, exec_docs),
            "ns",
        ),
        m("store.phase_ns_p50", store_phase.p50() as f64, "ns"),
        m("store.phase_ns_p99", store_phase.p99() as f64, "ns"),
        m("store.fsync.count", fsync.count as f64, "count"),
        m("store.fsync.ns_p99", fsync.p99() as f64, "ns"),
        m("store.checkpoint.count", checkpoint.count as f64, "count"),
        m(
            "store.checkpoint.ns_max",
            checkpoint.percentile(100.0) as f64,
            "ns",
        ),
        m(
            "store.cache.hit_ratio",
            ratio(cache_hits, cache_hits + cache_misses),
            "ratio",
        ),
        m(
            "store.edit.ns_per_edit",
            ratio(total_self("store.edit"), counts.edits as f64),
            "ns",
        ),
        m(
            "store.wal.bytes_per_edit",
            ratio(counts.wal_bytes as f64, counts.edits as f64),
            "bytes",
        ),
        m(
            "store.resident_tree_bytes",
            r.last_stats
                .counter("store.resident_tree_bytes")
                .unwrap_or(0) as f64,
            "bytes",
        ),
        m("store.edit_p99_us", pct(&edits, 99.0) as f64 / 1e3, "us"),
        m("store.space_amp", r.space_amp, "ratio"),
        m("trace.throughput_ratio", overhead, "ratio"),
        m("trace.unattributed_ns", unattributed, "ns"),
    ];
    let _ = writeln!(text, "per-layer metrics:");
    for (name, value, unit) in &metrics {
        let _ = writeln!(text, "  {name:<34} {value:.3} {unit}");
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let stem = format!("{OUT_DIR}/{}-seed{seed}", kind.name());
    write_spans(
        Path::new(&format!("{stem}.spans.jsonl")),
        kind.op_names(),
        &r.open.spans,
        &t.spans,
    )
    .map_err(|e| format!("write spans: {e}"))?;
    std::fs::write(format!("{stem}.layers.txt"), &text).map_err(|e| format!("write table: {e}"))?;
    let _ = writeln!(
        text,
        "  spans: {stem}.spans.jsonl  table: {stem}.layers.txt"
    );
    Ok(LayerReport { text, metrics })
}

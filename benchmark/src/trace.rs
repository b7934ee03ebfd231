//! The traced pass: a fixed, seeded op sequence replayed by one client
//! through each layer's *public* functions, with a span around every call
//! and the engine's counters read at the same boundaries.
//!
//! Real calls cannot be nested from outside, so a layer's self time comes
//! from replaying the same op one layer down: `serve.self_us` is
//! `Client::query` minus `Database::query_session`, `core.self_us` is
//! `Database::query_session` minus the executor's parts. A span's `parent`
//! is therefore the call it is a part *of*, not a call it ran inside; its
//! start and end are when the replay actually ran. The pass first replays
//! the sequence untraced (top-level calls only) on an identical fresh
//! system; the difference of the two medians is `trace.overhead_pct`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use xqp::{CancelToken, Database, QueryLimits, RuleSet, SessionOptions};
use xqp_exec::{DocVersion, ExecCounters, Executor, PlanCache, ResourceGovernor, Strategy};
use xqp_serve::protocol::{read_frame, write_frame, MAX_FRAME};
use xqp_serve::{Client, Request, Response};

use crate::fixture::{persons, set_up, Fixture, Steps};
use crate::json::quote;
use crate::ops::{point_query, traced_sequence, Op, RoundOrder, RoundQuery, FRAGMENT, XMARK};
use crate::oracle::{self, Answer, Oracle};
use crate::report::{set_up_repeatedly, RunResult};
use crate::spec::{Kind, Workload, PER_LAYER};
use crate::stats::median;
use crate::{ctx, Result};

/// The traced pass tolerates this much disagreement between a call and
/// the sum of its independently replayed parts.
const PARTS_MARGIN: f64 = 0.15;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Index of the traced op this call belongs to.
    pub op: u32,
    /// `<layer>.<function>`, plus the query id where one applies.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans in memory; written out once, at the end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Off during the untraced replay: calls are timed, nothing is kept.
    record: bool,
    op: u32,
}

/// What [`Tracer::call`] hands back: the call's result, its span id (to
/// parent its parts on) and its duration in µs.
struct Timed<T> {
    out: T,
    id: Option<u32>,
    us: f64,
}

impl Tracer {
    fn new(record: bool) -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), record, op: 0 }
    }

    fn call<T>(&mut self, parent: Option<u32>, name: &str, f: impl FnOnce() -> T) -> Timed<T> {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent,
                op: self.op,
                name: name.to_string(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
            id
        });
        Timed { out, id, us: (end - start).as_secs_f64() * 1e6 }
    }
}

/// Per-op samples by name; reduced to a median (times) or a mean (counts).
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn add_to_last(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default().last_mut().expect("op opened") += v;
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).and_then(|v| median(v)).unwrap_or(0.0)
    }

    fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum::<f64>() / v.len().max(1) as f64)
    }

    fn max(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().copied().fold(0.0, f64::max))
    }
}

/// What the traced pass of one workload produced.
pub struct Traced {
    pub result: RunResult,
    pub spans: Vec<Span>,
}

/// Names under which one op's counter deltas are sampled.
const COUNTS: [&str; 5] = ["nodes", "stream", "joins", "rows", "peak"];

fn count_values(c: &ExecCounters) -> [f64; 5] {
    [c.nodes_visited, c.stream_items, c.structural_joins, c.phys_rows, c.peak_bindings]
        .map(|v| v as f64)
}

/// An executor over `snap` the way `Database` builds one for a session:
/// the snapshot's index and statistics, default strategy, rules and mode.
/// `cache` replaces the document's own plan cache (a fresh one compiles
/// from scratch); `governed` attaches the governor a served query gets.
fn executor(snap: &DocVersion, cache: Option<Arc<PlanCache>>, governed: bool) -> Executor<'_> {
    let ex = match cache {
        Some(c) => snap.executor_with_cache(c, "trace"),
        None => snap.executor(),
    };
    if governed {
        let gov = ResourceGovernor::with_cancel(QueryLimits::none(), CancelToken::new());
        ex.with_governor(Arc::new(gov))
    } else {
        ex
    }
}

/// What [`query_parts`] measured: the parts' times and the serialized result.
struct QueryParts {
    cold_us: f64,
    warm_us: f64,
    serialize_us: f64,
    body: String,
}

/// The front end and the executor's parts of one XQuery, each replayed on
/// its own under `parent`: parse, rewrite, a cold run (empty plan cache:
/// compile + execute), a warm run (execute), serialize. `Database` builds
/// a fresh executor per query, so each run here gets one too; the two
/// share one plan cache, which is what makes the second warm.
fn query_parts(
    t: &mut Tracer,
    s: &mut Samples,
    parent: Option<u32>,
    snap: &DocVersion,
    qid: &str,
    query: &str,
    governed: bool,
) -> Result<QueryParts> {
    let parsed =
        t.call(parent, &format!("xquery.parse_query {qid}"), || xqp_xquery::parse_query(query));
    let parsed_body = ctx(parsed.out, "parse traced query")?.body;
    let rewritten = t.call(parent, &format!("algebra.optimize_expr {qid}"), || {
        xqp_algebra::optimize_expr(parsed_body, &RuleSet::all())
    });
    let cache = Arc::new(PlanCache::default());
    let ex = executor(snap, Some(Arc::clone(&cache)), governed);
    let cold = t.call(parent, &format!("exec.query_items.cold {qid}"), || ex.query_items(query));
    ctx(cold.out, "cold traced query")?;
    let ex = executor(snap, Some(cache), governed);
    let warm = t.call(parent, &format!("exec.query_items.warm {qid}"), || ex.query_items(query));
    let items = ctx(warm.out, "warm traced query")?;
    let counters = ex.counters();
    let ser = t.call(parent, &format!("exec.serialize_items {qid}"), || ex.serialize_items(&items));
    s.add_to_last("parse", parsed.us);
    s.add_to_last("rewrite", rewritten.us);
    s.add_to_last("compile", cold.us - warm.us);
    s.add_to_last("execute", warm.us);
    s.add_to_last("serialize", ser.us);
    s.add_to_last("bytes", ser.out.len() as f64);
    s.add_to_last("results", items.len() as f64);
    for (name, v) in COUNTS.iter().zip(count_values(&counters)) {
        if *name == "peak" {
            let peak = s.0.entry("peak").or_default().last_mut().expect("op opened");
            *peak = peak.max(v);
        } else {
            s.add_to_last(name, v);
        }
    }
    Ok(QueryParts { cold_us: cold.us, warm_us: warm.us, serialize_us: ser.us, body: ser.out })
}

/// Open one op's slot in every per-op sum.
fn open_op(s: &mut Samples) {
    for name in [
        "whole",
        "parts",
        "statistics",
        "parse",
        "rewrite",
        "compile",
        "execute",
        "serialize",
        "bytes",
        "results",
        "hits",
        "misses",
        "evictions",
        "resident_execute",
        "nok",
        "twig",
        "binary",
        "best",
    ] {
        s.push(name, 0.0);
    }
    for name in COUNTS {
        s.push(name, 0.0);
    }
}

/// Replay one embedded round. Untraced: the top-level calls only.
fn embedded_round(
    w: &Workload,
    t: &mut Tracer,
    s: &mut Samples,
    f: &Fixture,
    resident: Option<&Fixture>,
    oracle: &Oracle,
    order: &[usize],
) -> Result<bool> {
    let flwor = w.kind == Kind::FlworEmbedded;
    open_op(s);
    let mut ok = true;
    for &i in order {
        let (q, want) = (&oracle.round[i], &oracle.round_answers[i]);
        let RoundQuery { id, doc, text } = *q;
        let before = f.db.buffer_stats();
        let entry = if flwor { "core.Database::query" } else { "core.Database::select" };
        let whole =
            t.call(None, &format!("{entry} {id}"), || oracle::run_round_query(&f.db, w.kind, q));
        ok &= matches!(whole.out, Ok(got) if got == *want);
        s.add_to_last("whole", whole.us);
        if let (Some(b), Some(a)) = (before, f.db.buffer_stats()) {
            s.add_to_last("hits", (a.hits - b.hits) as f64);
            s.add_to_last("misses", (a.misses - b.misses) as f64);
            s.add_to_last("evictions", (a.evictions - b.evictions) as f64);
        }
        if !t.record {
            continue;
        }
        let snap = ctx(f.db.document(doc), "traced snapshot")?;
        if flwor {
            let parts = query_parts(t, s, whole.id, &snap, id, text, false)?;
            // The document's own plan cache is warm: the call paid no compile.
            s.add_to_last("parts", parts.warm_us + parts.serialize_us);
            ok &= Answer::of_str(&parts.body) == *want;
            continue;
        }
        let path_under = |t: &mut Tracer, snap: &DocVersion, name: &str, strategy| {
            let ex = executor(snap, None, false).with_strategy(strategy);
            let timed = t.call(whole.id, &format!("{name} {id}"), || ex.eval_path_str(text));
            let hits = ctx(timed.out, "traced path")?;
            Ok::<_, String>((timed.us, hits, ex.counters()))
        };
        let (us, hits, counters) = path_under(t, &snap, "exec.eval_path_str", Strategy::Auto)?;
        ok &= Answer::of_ids(&hits) == *want;
        s.add_to_last("execute", us);
        s.add_to_last("parts", us);
        s.add_to_last("results", hits.len() as f64);
        for (name, v) in COUNTS.iter().zip(count_values(&counters)) {
            s.add_to_last(name, v);
        }
        if let Some(r) = resident {
            let rsnap = ctx(r.db.document(doc), "resident snapshot")?;
            let (us, ..) = path_under(t, &rsnap, "exec.eval_path_str.resident", Strategy::Auto)?;
            s.add_to_last("resident_execute", us);
        } else {
            let mut best = f64::INFINITY;
            for (key, strategy) in [
                ("nok", Strategy::NoK),
                ("twig", Strategy::TwigStack),
                ("binary", Strategy::BinaryJoin),
            ] {
                let (us, ..) = path_under(t, &snap, &format!("exec.strategy.{key}"), strategy)?;
                s.add_to_last(key, us);
                best = best.min(us);
            }
            s.add_to_last("best", best);
        }
    }
    t.op += 1;
    Ok(ok)
}

/// The codec's share of one served read: request and response through
/// `encode`, `write_frame`, `read_frame`, `decode` over a `Vec<u8>`.
fn codec_round_trip(doc: &str, query: &str, generation: u64, body: &str) -> Result<()> {
    let mut wire = Vec::new();
    let req = Request::Query { doc: doc.to_string(), query: query.to_string() };
    ctx(write_frame(&mut wire, &req.encode()), "frame request")?;
    let payload = ctx(read_frame(&mut wire.as_slice(), MAX_FRAME), "unframe request")?;
    ctx(Request::decode(&payload), "decode request")?;
    wire.clear();
    let resp = Response::Value { generation, body: body.to_string() };
    ctx(write_frame(&mut wire, &resp.encode()), "frame response")?;
    let payload = ctx(read_frame(&mut wire.as_slice(), MAX_FRAME), "unframe response")?;
    ctx(Response::decode(&payload), "decode response")?;
    Ok(())
}

/// The systems one served traced replay drives: the server under test,
/// and the embedded copies the same ops are replayed against.
struct Served<'a> {
    client: Client,
    /// Replays `Database::query_session` and durable writes. The served
    /// database itself when the workload has no writer.
    embedded: &'a Database,
    /// Replays writes without a store (what a commit costs before the WAL)
    /// and the parts of reads.
    volatile: Option<&'a Database>,
    /// Stands in for the server's shared plan cache, same capacity.
    cache: Arc<PlanCache>,
}

/// Replay one served op. Untraced: the client call only.
fn served_op(
    t: &mut Tracer,
    s: &mut Samples,
    sys: &mut Served<'_>,
    oracle: &Oracle,
    op: Op,
) -> Result<bool> {
    let mut ok;
    match op {
        Op::Point { k } => {
            let q = point_query(k);
            open_op(s);
            let served = t.call(None, "serve.Client::query", || sys.client.query(XMARK, &q));
            ok = matches!(&served.out, Ok((_, body)) if oracle.point_ok(op, body));
            s.push("read", served.us);
            if t.record {
                let opts = SessionOptions {
                    limits: QueryLimits::none(),
                    cancel: Some(CancelToken::new()),
                    cache: Some(Arc::clone(&sys.cache)),
                };
                let misses_before = sys.cache.stats().1;
                let session = t.call(served.id, "core.Database::query_session", || {
                    sys.embedded.query_session(XMARK, &q, &opts)
                });
                let missed = sys.cache.stats().1 > misses_before;
                let (generation, body) = ctx(session.out, "replayed query_session")?;
                ok &= oracle.point_ok(op, &body);
                // A version's statistics are derived by the first query to
                // need them, so after a write that is this read. The
                // replayed session has already paid for them on its copy;
                // the volatile copy is in the same state and has not.
                let parts_db = sys.volatile.unwrap_or(sys.embedded);
                let snap = ctx(parts_db.document(XMARK), "traced snapshot")?;
                let stats = t.call(session.id, "exec.DocVersion::statistics", || snap.statistics());
                let parts = query_parts(t, s, session.id, &snap, "point", &q, true)?;
                let front = if missed { parts.cold_us } else { parts.warm_us };
                s.add_to_last("statistics", stats.us);
                s.add_to_last("whole", session.us);
                s.add_to_last("parts", stats.us + front + parts.serialize_us);
                s.push("serve_self", served.us - session.us);
                let codec = t.call(served.id, "serve.codec", || {
                    codec_round_trip(XMARK, &q, generation, &body)
                });
                codec.out?;
                s.push("codec", codec.us);
            }
        }
        Op::Insert { .. } | Op::Delete { .. } => {
            let path = op.path();
            let apply = |db: &Database| match op {
                Op::Insert { .. } => db.insert_into(XMARK, &path, FRAGMENT),
                _ => db.delete_matching(XMARK, &path),
            };
            let (name, served) = match op {
                Op::Insert { .. } => ("insert", {
                    t.call(None, "serve.Client::insert", || {
                        sys.client.insert(XMARK, &path, FRAGMENT)
                    })
                }),
                _ => (
                    "delete",
                    t.call(None, "serve.Client::delete", || sys.client.delete(XMARK, &path)),
                ),
            };
            ok = matches!(served.out, Ok(1));
            s.push("write", served.us);
            if t.record {
                let volatile = sys.volatile.expect("a writer workload has a volatile copy");
                // Whichever copy goes second finds the caches warm, so the
                // order alternates and the median difference cancels it.
                let durable_first = t.op % 4 < 2;
                let replay = |t: &mut Tracer, durable: bool| {
                    let (kind, db) =
                        if durable { ("durable", sys.embedded) } else { ("volatile", volatile) };
                    let timed =
                        t.call(served.id, &format!("core.Database::{name}.{kind}"), || apply(db));
                    (matches!(timed.out, Ok(1)), timed.us)
                };
                let (first_ok, first_us) = replay(t, durable_first);
                let (second_ok, second_us) = replay(t, !durable_first);
                ok &= first_ok && second_ok;
                let (durable, mem) =
                    if durable_first { (first_us, second_us) } else { (second_us, first_us) };
                s.push("serve_self", served.us - durable);
                s.push("update", mem);
                s.push("wal", durable - mem);
            }
        }
    }
    t.op += 1;
    Ok(ok)
}

/// Everything one traced pass accumulates, whichever kind of workload.
struct Pass {
    tracer: Tracer,
    samples: Samples,
    layers: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Step timings of the traced system's set-ups.
    setups: Vec<Steps>,
    /// Top-level op median of the untraced replay, µs.
    untraced_p50: f64,
}

impl Pass {
    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn check(&mut self, checked: Result<()>) {
        if let Err(e) = checked {
            self.problems.push(e);
        }
    }
}

/// Served workloads: the untraced replay on one fresh system, the traced
/// one on another, writes replayed on two embedded copies kept in step.
fn trace_served(
    w: &Workload,
    seed: u64,
    scratch: &Path,
    oracle: &Oracle,
    p: &mut Pass,
) -> Result<()> {
    let seq = traced_sequence(seed, persons(w), w.kind.has_writer(), w.sizes.trace_ops);
    let connect = |f: &Fixture| ctx(Client::connect(f.addr()), "connect traced client");
    {
        let f = set_up(w, scratch, true)?;
        let mut sys = Served {
            client: connect(&f)?,
            embedded: &f.db,
            volatile: None,
            cache: Arc::new(PlanCache::default()),
        };
        let (mut quiet, mut qs) = (Tracer::new(false), Samples::default());
        for &op in &seq {
            served_op(&mut quiet, &mut qs, &mut sys, oracle, op)?;
        }
        ctx(sys.client.close(), "close untraced client")?;
        p.untraced_p50 = qs.median("read");
        // On this system, not the traced one: the check's own queries
        // would warm the traced server's plan cache ahead of the replay.
        p.check(oracle::pre_check(w, &f, oracle));
    }
    let (f, setups) = set_up_repeatedly(w, scratch)?;
    p.setups = setups;
    // Writes are replayed on copies in the same state: one durable, one
    // not. Reads replay against the durable copy too.
    let copies = if w.kind.has_writer() {
        Some((set_up(w, scratch, true)?, set_up(w, scratch, false)?))
    } else {
        None
    };
    let embedded = copies.as_ref().map_or(&*f.db, |(d, _)| &*d.db);
    let before = ctx(embedded.persist_stats(XMARK), "persist stats")?;
    let generation_before = ctx(embedded.generation(XMARK), "generation")?;
    let mut sys = Served {
        client: connect(&f)?,
        embedded,
        volatile: copies.as_ref().map(|(_, v)| &*v.db),
        cache: Arc::new(PlanCache::default()),
    };
    let mut acked = Vec::new();
    for &op in &seq {
        let ok = served_op(&mut p.tracer, &mut p.samples, &mut sys, oracle, op)?;
        p.tally(ok);
        if op.is_write() && ok {
            acked.push(op);
        }
    }
    ctx(sys.client.close(), "close traced client")?;

    let (hits, misses, _) = sys.cache.stats();
    let server = f.server.as_ref().expect("served fixture");
    let (server_hits, server_misses, _) = server.cache_stats();
    if (hits, misses) != (server_hits, server_misses) {
        // Same capacity, same key sequence: the stand-in cache must have
        // made the server's hit/miss decisions.
        p.problems.push(format!(
            "replayed plan cache ({hits} hits, {misses} misses) diverged from the server's \
             ({server_hits}, {server_misses})"
        ));
    }
    let (s, layers) = (&p.samples, &mut p.layers);
    layers.insert("exec.plan_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    for (name, value) in server.stats_pairs() {
        match name.as_str() {
            "queued_total" => layers.insert("serve.queued_total", value as f64),
            "overload_rejections" => layers.insert("serve.overload_rejections", value as f64),
            _ => None,
        };
    }
    let after = ctx(embedded.persist_stats(XMARK), "persist stats")?;
    let generations = ctx(embedded.generation(XMARK), "generation")? - generation_before;
    let writes = seq.iter().filter(|op| op.is_write()).count().max(1) as f64;
    let written = after.bytes_written - before.bytes_written;
    layers.insert("persist.bytes_per_write", written as f64 / writes);
    layers.insert("persist.group_commits", (after.group_commits - before.group_commits) as f64);
    layers.insert("persist.compactions", (after.compactions - before.compactions) as f64);
    layers.insert("exec.generations", generations as f64);
    layers.insert("serve.codec_us", s.median("codec"));
    layers.insert("serve.self_us", s.median("serve_self"));
    layers.insert("storage.update_us", s.median("update"));
    layers.insert("persist.wal_us", s.median("wal"));
    layers.insert("trace.op_us", s.median("read"));
    layers.insert("trace.write_us", s.median("write"));
    drop(copies);
    if w.kind.has_writer() {
        let store = f.into_store_dir().ok_or("read/write workload without a store")?;
        let checked = oracle::reopen_check(w, &store, &acked);
        let _ = std::fs::remove_dir_all(&store);
        match checked {
            Ok(open) => {
                layers.insert("persist.open_ms", open.as_secs_f64() * 1e3);
            }
            Err(e) => p.problems.push(e),
        }
    }
    Ok(())
}

/// Embedded workloads: seeded rounds, untraced on one fresh system, then
/// traced on another (beside a resident copy when the workload is paged).
fn trace_embedded(
    w: &Workload,
    seed: u64,
    scratch: &Path,
    oracle: &Oracle,
    p: &mut Pass,
) -> Result<()> {
    let orders = || RoundOrder::new(seed, oracle.round.len()).take(w.sizes.trace_ops);
    {
        let f = set_up(w, scratch, true)?;
        let (mut quiet, mut qs) = (Tracer::new(false), Samples::default());
        for order in orders() {
            embedded_round(w, &mut quiet, &mut qs, &f, None, oracle, &order)?;
        }
        p.untraced_p50 = qs.median("whole");
    }
    let (f, setups) = set_up_repeatedly(w, scratch)?;
    p.setups = setups;
    p.check(oracle::pre_check(w, &f, oracle));
    let resident = if w.kind == Kind::TpmPaged {
        Some(set_up(&Workload { kind: Kind::TpmResident, ..*w }, scratch, true)?)
    } else {
        None
    };
    let plan_traffic = |db: &Database| -> Result<(u64, u64)> {
        db.document_names().iter().try_fold((0, 0), |(h, m), name| {
            let (hits, misses, _) = ctx(db.plan_cache_stats(name), "plan cache stats")?;
            Ok((h + hits, m + misses))
        })
    };
    let (hits_before, misses_before) = plan_traffic(&f.db)?;
    for order in orders() {
        let ok = embedded_round(
            w,
            &mut p.tracer,
            &mut p.samples,
            &f,
            resident.as_ref(),
            oracle,
            &order,
        )?;
        p.tally(ok);
    }
    let (hits, misses) = plan_traffic(&f.db)?;
    let (hits, misses) = (hits - hits_before, misses - misses_before);
    let (s, layers) = (&p.samples, &mut p.layers);
    layers.insert("exec.plan_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    let fetches = s.mean("hits") + s.mean("misses");
    layers.insert("storage.buffer_hits_per_op", s.mean("hits"));
    layers.insert("storage.buffer_misses_per_op", s.mean("misses"));
    layers.insert("storage.buffer_evictions_per_op", s.mean("evictions"));
    if fetches > 0.0 {
        layers.insert("storage.buffer_hit_ratio", s.mean("hits") / fetches);
    }
    if resident.is_some() {
        layers.insert("storage.paged_tax", s.median("execute") / s.median("resident_execute"));
    }
    if w.kind == Kind::TpmResident {
        layers.insert("exec.strategy_us.nok", s.median("nok"));
        layers.insert("exec.strategy_us.twig", s.median("twig"));
        layers.insert("exec.strategy_us.binary", s.median("binary"));
        layers.insert("exec.strategy_us.auto", s.median("execute"));
        layers.insert("exec.auto_regret", s.median("execute") / s.median("best"));
    }
    layers.insert("trace.op_us", s.median("whole"));
    Ok(())
}

/// Run the traced pass of `w`; spans are returned, not yet written.
pub fn trace(w: &Workload, seed: u64, scratch: &Path) -> Result<Traced> {
    let oracle = oracle::build(w, seed)?;
    let mut p = Pass {
        tracer: Tracer::new(true),
        samples: Samples::default(),
        layers: BTreeMap::new(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
        setups: Vec::new(),
        untraced_p50: 0.0,
    };
    if w.kind.served() {
        trace_served(w, seed, scratch, &oracle, &mut p)?;
    } else {
        trace_embedded(w, seed, scratch, &oracle, &mut p)?;
    }
    let Pass {
        tracer,
        samples: s,
        mut layers,
        mut problems,
        attempted,
        failed,
        setups,
        untraced_p50,
    } = p;

    // Each set-up step's median over the repetitions.
    let step = |name: &str| median(&setups.iter().map(|s| s.ms(name)).collect::<Vec<_>>());
    for (metric, name) in [
        ("xml.parse_ms", "xml.parse"),
        ("storage.build_ms", "storage.build"),
        ("storage.index_ms", "storage.index"),
        ("persist.save_ms", "persist.save"),
        ("serve.start_ms", "serve.start"),
    ] {
        layers.insert(metric, step(name).unwrap_or(0.0));
    }
    // On a read/write workload the after-run reopen has already filled it.
    layers.entry("persist.open_ms").or_insert_with(|| step("persist.open").unwrap_or(0.0));

    // Parts against the whole: per op, then the median ratio, so that one
    // preempted call cannot decide the verdict.
    let pairs = || s.0["whole"].iter().zip(&s.0["parts"]).filter(|(whole, _)| **whole > 0.0);
    let ratios: Vec<f64> = pairs().map(|(whole, parts)| parts / whole).collect();
    let selfs: Vec<f64> = pairs().map(|(whole, parts)| whole - parts).collect();
    let parts_ratio = median(&ratios).unwrap_or(1.0);
    let core_self = median(&selfs).unwrap_or(0.0);
    if (parts_ratio - 1.0).abs() > PARTS_MARGIN {
        problems.push(format!("parts sum to {parts_ratio:.3} of the enclosing call"));
    }
    let traced_p50 = layers["trace.op_us"];
    for (name, self_us, base) in [
        ("core.self_us", core_self, s.median("whole")),
        ("serve.self_us", s.median("serve_self"), traced_p50),
    ] {
        if self_us < -PARTS_MARGIN * base {
            problems.push(format!("{name} = {self_us:.1} us is negative beyond the margin"));
        }
    }
    layers.insert("trace.parts_ratio", parts_ratio);
    layers.insert("trace.overhead_pct", (traced_p50 - untraced_p50) / untraced_p50 * 100.0);
    layers.insert("trace.ops", attempted as f64);
    layers.insert("trace.spans", tracer.spans.len() as f64);
    layers.insert("core.self_us", core_self);
    layers.insert("xquery.parse_us", s.median("parse"));
    layers.insert("algebra.rewrite_us", s.median("rewrite"));
    layers.insert("exec.compile_us", s.median("compile"));
    layers.insert("exec.statistics_us", s.median("statistics"));
    layers.insert("exec.execute_us", s.median("execute"));
    layers.insert("exec.serialize_us", s.median("serialize"));
    layers.insert("exec.result_bytes_per_op", s.mean("bytes"));
    layers.insert("exec.nodes_visited_per_op", s.mean("nodes"));
    layers.insert("exec.stream_items_per_op", s.mean("stream"));
    layers.insert("exec.structural_joins_per_op", s.mean("joins"));
    layers.insert("exec.phys_rows_per_op", s.mean("rows"));
    layers.insert("exec.peak_bindings", s.max("peak"));
    let results: f64 = s.0["results"].iter().sum();
    if results > 0.0 {
        layers.insert("exec.nodes_per_result", s.0["nodes"].iter().sum::<f64>() / results);
    }

    debug_assert!(
        layers.keys().all(|k| PER_LAYER.iter().any(|m| m.name == *k)),
        "undeclared metric"
    );
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    let correct = problems.is_empty() && failed == 0;
    let notes = problems.into_iter().map(|p| format!("INCORRECT: {p}")).collect();
    let result = RunResult { correct, attempted: attempted.max(1), failed, metrics, notes };
    Ok(Traced { result, spans: tracer.spans })
}

/// Write the spans as `trace-<workload>.json` under `dir`.
pub fn write_spans(dir: &Path, w: &Workload, seed: u64, spans: &[Span]) -> Result<PathBuf> {
    let rows: Vec<String> = spans
        .iter()
        .map(|sp| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                sp.id,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.op,
                quote(&sp.name),
                sp.start_ns,
                sp.end_ns
            )
        })
        .collect();
    let text = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [\n{}\n]}}\n",
        quote(w.name),
        rows.join(",\n")
    );
    let path = dir.join(format!("trace-{}.json", w.name));
    ctx(std::fs::write(&path, text), "write span file")?;
    Ok(path)
}

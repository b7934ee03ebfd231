//! The benchmark's fixed parts: workloads with their pinned sizes, the
//! end-to-end metrics with their bounds, and the per-layer metric names.
//! `BENCHMARK.json` states the same lists for the driver; a unit test
//! keeps the two in step.

/// Which path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Database::select` over X1–X6 on a resident document.
    TpmResident,
    /// The same through the buffer pool at 25 % residency.
    TpmPaged,
    /// `Database::query` over joins, folds and a γ-constructing FLWOR.
    FlworEmbedded,
    /// Zipf point lookups through a loopback server, two sessions.
    ServedPoint,
    /// One reader and one writer session on a durable store; op = read.
    ServedRw,
    /// The same traffic; op = acknowledged write.
    ServedRwWrites,
}

impl Kind {
    /// Does the workload go through `Server`/`Client`?
    pub fn served(self) -> bool {
        matches!(self, Kind::ServedPoint | Kind::ServedRw | Kind::ServedRwWrites)
    }

    /// Does a writer session run beside the reader?
    pub fn has_writer(self) -> bool {
        matches!(self, Kind::ServedRw | Kind::ServedRwWrites)
    }
}

/// Input sizes of one workload. Pinned per workload so that results from
/// different commits measure the same work; tests shrink them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// `XmarkConfig::scale` factor of the auction document.
    pub xmark_scale: f64,
    /// Books in the bibliography (`flwor_embedded` only; 0 = none).
    pub bib_books: usize,
    /// Ops replayed by the traced pass (requests when served, full rounds
    /// over the query list when embedded).
    pub trace_ops: usize,
}

/// One workload: its name, what it drives, and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub sizes: Sizes,
    pub why: &'static str,
}

/// Requests replayed by the traced pass of a served workload.
const TRACE_REQUESTS: usize = 200;
/// Rounds replayed by the traced pass of an embedded workload (each round
/// is six to nine queries, replayed at every depth).
const TRACE_ROUNDS: usize = 40;

/// The six workloads. Sizes were shrunk once, at the commit that added the
/// benchmark, until every workload completed at least 250 ops in a 10 s
/// window on the 2-core baseline machine (see README.md).
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tpm_resident",
        kind: Kind::TpmResident,
        sizes: Sizes { xmark_scale: 0.25, bib_books: 0, trace_ops: TRACE_ROUNDS },
        why: "X1-X6 tree-pattern scans on a resident document: exec access methods and \
              storage navigation do the work; front end, server and buffer pool are idle",
    },
    Workload {
        name: "tpm_paged",
        kind: Kind::TpmPaged,
        sizes: Sizes { xmark_scale: 0.25, bib_books: 0, trace_ops: TRACE_ROUNDS },
        why: "the same document and queries through a buffer pool holding 25% of its pages: \
              adds only storage::buffer and persist::page, so paged/resident is the paged tax",
    },
    Workload {
        name: "flwor_embedded",
        kind: Kind::FlworEmbedded,
        sizes: Sizes { xmark_scale: 0.2, bib_books: 45, trace_ops: TRACE_ROUNDS },
        why: "value joins, aggregate folds and a constructing FLWOR via Database::query: the \
              physical pipeline, hash joins, construction and serialization dominate",
    },
    Workload {
        name: "served_point",
        kind: Kind::ServedPoint,
        sizes: Sizes { xmark_scale: 0.5, bib_books: 0, trace_ops: TRACE_REQUESTS },
        why: "Zipf point lookups over loopback, 2 sessions: distinct literals outnumber the \
              plan cache, so frame, parse, rewrite, lower, scan, serialize and send are all live",
    },
    Workload {
        name: "served_rw",
        kind: Kind::ServedRw,
        sizes: Sizes { xmark_scale: 0.2, bib_books: 0, trace_ops: TRACE_REQUESTS },
        why: "point lookups beside a writer session on a durable store (fsync per commit); \
              op = read, so a write-side gain that costs readers shows here",
    },
    Workload {
        name: "served_rw_writes",
        kind: Kind::ServedRwWrites,
        sizes: Sizes { xmark_scale: 0.2, bib_books: 0, trace_ops: TRACE_REQUESTS },
        why: "the served_rw traffic with op = acknowledged insert or delete: splice, version \
              install, index rebuild and WAL group commit, beside a live reader",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a caller of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Printed by every `--trace 0` run, gated by `--compare` and the driver.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "op_p50_us", unit: "us", higher_is_better: false, bound: 0.10 },
    EndToEnd { name: "op_p90_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", higher_is_better: true, bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", higher_is_better: false, bound: 0.15 },
    EndToEnd { name: "space_ratio", unit: "ratio", higher_is_better: false, bound: 0.02 },
];

/// A per-layer metric, named `<module>.<what>`; no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false }
}

const fn layer_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: true }
}

/// Printed by every `--trace 1` run; a metric that does not apply to a
/// workload reads 0 there. README.md maps each to the end-to-end metric
/// it should move.
pub const PER_LAYER: [PerLayer; 47] = [
    layer("xml.parse_ms", "ms"),
    layer("storage.build_ms", "ms"),
    layer("storage.index_ms", "ms"),
    layer("persist.save_ms", "ms"),
    layer("persist.open_ms", "ms"),
    layer("serve.start_ms", "ms"),
    layer("serve.codec_us", "us"),
    layer("serve.self_us", "us"),
    layer("serve.queued_total", "count"),
    layer("serve.overload_rejections", "count"),
    layer("core.self_us", "us"),
    layer("xquery.parse_us", "us"),
    layer("algebra.rewrite_us", "us"),
    layer("exec.compile_us", "us"),
    layer_up("exec.plan_hit_ratio", "ratio"),
    layer("exec.statistics_us", "us"),
    layer("exec.execute_us", "us"),
    layer("exec.nodes_visited_per_op", "count"),
    layer("exec.stream_items_per_op", "count"),
    layer("exec.structural_joins_per_op", "count"),
    layer("exec.phys_rows_per_op", "count"),
    layer("exec.peak_bindings", "count"),
    layer("exec.nodes_per_result", "ratio"),
    layer("exec.strategy_us.nok", "us"),
    layer("exec.strategy_us.twig", "us"),
    layer("exec.strategy_us.binary", "us"),
    layer("exec.strategy_us.auto", "us"),
    layer("exec.auto_regret", "ratio"),
    layer("exec.serialize_us", "us"),
    layer("exec.result_bytes_per_op", "count"),
    layer("storage.buffer_hits_per_op", "count"),
    layer("storage.buffer_misses_per_op", "count"),
    layer("storage.buffer_evictions_per_op", "count"),
    layer_up("storage.buffer_hit_ratio", "ratio"),
    layer("storage.paged_tax", "ratio"),
    layer("storage.update_us", "us"),
    layer("persist.wal_us", "us"),
    layer("persist.bytes_per_write", "count"),
    layer("persist.group_commits", "count"),
    layer("persist.compactions", "count"),
    layer("exec.generations", "count"),
    layer("trace.parts_ratio", "ratio"),
    layer("trace.overhead_pct", "%"),
    layer("trace.ops", "count"),
    layer("trace.spans", "count"),
    layer("trace.op_us", "us"),
    layer("trace.write_us", "us"),
];

/// Generator seed of every document, pinned with the sizes. An op costs
/// in proportion to the document's bytes, which move ±2 % with the XMark
/// seed, while the same document repeats within 0.5 %: a seeded document
/// would put an input lottery of ±4 % on every metric. So the run seed
/// drives the traffic (ids, regions, query order), and the data stays put.
pub const DOC_SEED: u64 = 42;
/// Seed used when none is given (`--all`, baselines).
pub const DEFAULT_SEED: u64 = 20040314;
/// Measured window when none is given; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;
/// Window of `--quick`.
pub const QUICK_SECONDS: u64 = 2;
/// Untimed closed-loop traffic before the window: fills the plan cache,
/// the buffer pool and the allocator's free lists.
pub const WARMUP_MS: u64 = 1000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Load threads / connections of the served workloads (`nproc` is 2 on
/// the baseline machine; one request in flight per session).
pub const SESSIONS: usize = 2;
/// Share of the paged document's pages the buffer pool may hold.
pub const POOL_SHARE: f64 = 0.25;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|e| e.get("name").and_then(Value::as_str).expect("name").to_string())
            .collect()
    }

    /// The driver reads BENCHMARK.json, the binary reads this module: they
    /// must name the same workloads, metrics, units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(names(&v, "workloads"), WORKLOADS.map(|w| w.name.to_string()));
        assert_eq!(names(&v, "end_to_end"), END_TO_END.map(|m| m.name.to_string()));
        assert_eq!(names(&v, "per_layer"), PER_LAYER.map(|m| m.name.to_string()));
        assert_eq!(v.get("run_seconds").and_then(Value::as_f64), Some(DEFAULT_SECONDS as f64));
        let better = |hi: bool| if hi { "higher" } else { "lower" };
        for (m, e) in END_TO_END.iter().zip(v.get("end_to_end").unwrap().as_array().unwrap()) {
            assert_eq!(e.get("unit").and_then(Value::as_str), Some(m.unit), "{}", m.name);
            assert_eq!(e.get("bound").and_then(Value::as_f64), Some(m.bound), "{}", m.name);
            assert_eq!(
                e.get("better").and_then(Value::as_str),
                Some(better(m.higher_is_better)),
                "{}",
                m.name
            );
        }
        for (m, e) in PER_LAYER.iter().zip(v.get("per_layer").unwrap().as_array().unwrap()) {
            assert_eq!(e.get("unit").and_then(Value::as_str), Some(m.unit), "{}", m.name);
            assert_eq!(
                e.get("better").and_then(Value::as_str),
                Some(better(m.higher_is_better)),
                "{}",
                m.name
            );
        }
        for (w, e) in WORKLOADS.iter().zip(v.get("workloads").unwrap().as_array().unwrap()) {
            assert_eq!(e.get("why").and_then(Value::as_str), Some(w.why), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
    }
}

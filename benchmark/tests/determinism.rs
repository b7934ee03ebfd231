//! Same seed ⇒ the same op sequence and the same traced counts; another
//! seed ⇒ another sequence. Runs at toy sizes so it is quick unoptimized.

use std::path::{Path, PathBuf};

use xqp_benchmark::ops::traced_sequence;
use xqp_benchmark::spec::{workload, Sizes, Workload};
use xqp_benchmark::stats::percentile;
use xqp_benchmark::trace::trace;

/// Counts the engine makes: with one client and no timers they must repeat
/// exactly, run after run.
const EXACT: [&str; 12] = [
    "exec.nodes_visited_per_op",
    "exec.stream_items_per_op",
    "exec.phys_rows_per_op",
    "exec.peak_bindings",
    "exec.plan_hit_ratio",
    "exec.result_bytes_per_op",
    "storage.buffer_hits_per_op",
    "storage.buffer_misses_per_op",
    "storage.buffer_evictions_per_op",
    "persist.bytes_per_write",
    "persist.group_commits",
    "exec.generations",
];

fn toy(name: &str, trace_ops: usize) -> Workload {
    let w = workload(name).expect("declared workload");
    let bib_books = w.sizes.bib_books.min(6);
    Workload { sizes: Sizes { xmark_scale: 0.04, bib_books, trace_ops }, ..*w }
}

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn exact_counts(w: &Workload, seed: u64, dir: &Path) -> Vec<(&'static str, f64)> {
    let traced = trace(w, seed, dir).expect("traced pass runs");
    assert_eq!(traced.result.failed, 0, "{}: wrong answers in the traced pass", w.name);
    EXACT.iter().map(|&name| (name, traced.result.metric(name).expect("declared metric"))).collect()
}

#[test]
fn traced_counts_repeat_exactly() {
    let dir = scratch("counts");
    for (name, ops) in [
        ("tpm_resident", 3),
        ("tpm_paged", 3),
        ("flwor_embedded", 2),
        ("served_point", 40),
        ("served_rw", 40),
    ] {
        let w = toy(name, ops);
        let first = exact_counts(&w, 11, &dir);
        assert_eq!(first, exact_counts(&w, 11, &dir), "{name}: counts differ between two runs");
        let count = |metric: &str| first.iter().find(|(n, _)| *n == metric).unwrap().1;
        assert!(count("exec.nodes_visited_per_op") > 0.0, "{name}: nothing was visited");
        match name {
            "tpm_paged" => assert!(count("storage.buffer_hits_per_op") > 0.0),
            "served_rw" => {
                assert!(count("persist.bytes_per_write") > 0.0);
                assert_eq!(count("exec.generations"), 20.0, "one install per write");
            }
            _ => assert_eq!(count("storage.buffer_hits_per_op"), 0.0, "{name} has no pool"),
        }
    }
}

#[test]
fn the_seed_decides_the_sequence() {
    assert_eq!(traced_sequence(5, 50, true, 200), traced_sequence(5, 50, true, 200));
    assert_ne!(traced_sequence(5, 50, true, 200), traced_sequence(6, 50, true, 200));
    assert_ne!(traced_sequence(5, 50, false, 200), traced_sequence(6, 50, false, 200));
}

#[test]
fn a_thin_tail_is_refused() {
    let sample: Vec<f64> = (0..209).map(f64::from).collect();
    // p95 of 209 is rank 199, ten samples beyond; p99 has two.
    assert!(percentile(&sample, 95.0).is_some());
    assert!(percentile(&sample[..199], 95.0).is_none());
    assert!(percentile(&sample, 99.0).is_none());
}

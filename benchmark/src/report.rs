//! One untraced run of one workload, reduced to the end-to-end metrics,
//! and the result object every run prints as its last line.

use std::path::Path;
use std::time::Duration;

use crate::fixture::{set_up, space_ratio, Fixture, Steps};
use crate::json::{number, quote};
use crate::run::Sample;
use crate::spec::{Workload, END_TO_END, SETUP_REPS, WARMUP_MS};
use crate::stats::{median, nearest_rank, percentile};
use crate::{oracle, run, Result};

/// What a run reports: the driver's four keys, plus notes for people.
#[derive(Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ungated extras (p99, max, sample counts, the other side's numbers)
    /// and any correctness problem found; printed to stderr.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The one-line JSON object the contract asks for.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(*value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| *n == name).map(|(_, v, _)| *v)
    }
}

/// Samples a time slice needs before its p90 has ten samples beyond it,
/// with some room for slices that came out short.
const SLICE_SAMPLES: usize = 120;
/// Most slices a window is cut into.
const MAX_SLICES: usize = 10;

/// The window's latencies cut into equal time slices, each ascending. The
/// timing metrics are medians over the slices, so a burst of interference
/// shorter than half the window cannot move them; a workload too slow to
/// fill several slices gets fewer, down to one (the whole window).
fn time_slices(ops: &[Sample], window_s: f64) -> Vec<Vec<f64>> {
    let k = (ops.len() / SLICE_SAMPLES).clamp(1, MAX_SLICES);
    let mut slices = vec![Vec::new(); k];
    for &(at, us) in ops {
        // An op that was in flight when the window closed lands in the last.
        let i = ((at / window_s * k as f64) as usize).min(k - 1);
        slices[i].push(us);
    }
    for s in &mut slices {
        s.sort_unstable_by(f64::total_cmp);
    }
    slices
}

/// Set the workload up [`SETUP_REPS`] times, keeping the last; returns the
/// fixture and every set-up's step timings.
pub fn set_up_repeatedly(w: &Workload, scratch: &Path) -> Result<(Fixture, Vec<Steps>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous system down first: one server, one store at a time.
        drop(fixture.take());
        let f = set_up(w, scratch, true)?;
        times.push(f.steps.clone());
        fixture = Some(f);
    }
    Ok((fixture.expect("SETUP_REPS is at least 1"), times))
}

/// Run `w` untraced: set-up, warm-up, a `window` of closed-loop traffic
/// with every answer checked, then the after-run checks. `strict_tail`
/// refuses a percentile with too few samples beyond it; `--quick` windows
/// are too short for that and report the nearest rank they have.
pub fn measure(
    w: &Workload,
    seed: u64,
    window: Duration,
    scratch: &Path,
    strict_tail: bool,
) -> Result<RunResult> {
    let mut notes = Vec::new();
    let oracle = oracle::build(w, seed)?;
    let (fixture, setups) = set_up_repeatedly(w, scratch)?;
    let setups: Vec<f64> = setups.iter().map(|s| s.total().as_secs_f64()).collect();
    let space = space_ratio(&fixture)?;
    notes.push(format!("{} bytes of XML loaded", fixture.xml_bytes));
    let mut problems = Vec::new();
    if let Err(e) = oracle::pre_check(w, &fixture, &oracle) {
        problems.push(e);
    }

    let warmup = Duration::from_millis(WARMUP_MS);
    let win = if w.kind.served() {
        run::run_served(w, &fixture, &oracle, seed, warmup, window)?
    } else {
        run::run_embedded(w, &fixture, &oracle, seed, warmup, window)
    };

    if w.kind.has_writer() {
        let store = fixture.into_store_dir().ok_or("read/write workload without a store")?;
        let checked = oracle::reopen_check(w, &store, &win.acked);
        let _ = std::fs::remove_dir_all(&store);
        match checked {
            Ok(open) => notes.push(format!(
                "reopen: {} acknowledged writes replayed, Database::open took {:.1} ms",
                win.acked.len(),
                open.as_secs_f64() * 1e3
            )),
            Err(e) => problems.push(e),
        }
    } else {
        drop(fixture);
    }

    let n = win.ops.len();
    let window_s = win.elapsed.as_secs_f64();
    let slices = time_slices(&win.ops, window_s);
    let across = |p: f64| {
        let per_slice: Vec<f64> = slices
            .iter()
            .filter_map(|s| {
                percentile(s, p).or_else(|| if strict_tail { None } else { nearest_rank(s, p) })
            })
            .collect();
        median(&per_slice).ok_or_else(|| {
            format!("{}: {n} ops in the window are too few for p{p}; lengthen --seconds", w.name)
        })
    };
    let slice_s = window_s / slices.len() as f64;
    let rates: Vec<f64> = slices.iter().map(|s| s.len() as f64 / slice_s).collect();
    let good_share = 1.0 - win.ops_failed as f64 / n.max(1) as f64;
    let values = [
        across(50.0)?,
        across(90.0)?,
        median(&rates).expect("at least one slice") * good_share,
        median(&setups).expect("at least one set-up"),
        run::peak_rss_mb()?,
        space,
    ];
    let metrics = END_TO_END.iter().zip(values).map(|(m, v)| (m.name, v, m.unit)).collect();

    let mut sorted: Vec<f64> = win.ops.iter().map(|(_, us)| *us).collect();
    sorted.sort_unstable_by(f64::total_cmp);
    let tail = |p: f64| percentile(&sorted, p).map_or("n/a".to_string(), |v| format!("{v:.1}"));
    notes.push(format!(
        "op n={n} in {} slice(s); whole window p95={} p99={} max={:.1} us; set-ups {setups:?} s",
        slices.len(),
        tail(95.0),
        tail(99.0),
        sorted.last().copied().unwrap_or(0.0),
    ));
    if !win.other_us.is_empty() {
        let mut other = win.other_us.clone();
        other.sort_unstable_by(f64::total_cmp);
        notes.push(format!(
            "other side n={} p50={:.1} max={:.1} us, {:.1}/s",
            other.len(),
            median(&other).unwrap_or(0.0),
            other.last().copied().unwrap_or(0.0),
            other.len() as f64 / win.elapsed.as_secs_f64()
        ));
    }
    let correct = problems.is_empty() && win.failed == 0;
    notes.extend(problems.into_iter().map(|p| format!("INCORRECT: {p}")));
    Ok(RunResult { correct, attempted: win.attempted.max(1), failed: win.failed, metrics, notes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_shorter_than_half_the_window_is_outvoted() {
        // 2000 ops over 10 s at 100 µs, except seconds 2–5 at 300 µs.
        let ops: Vec<Sample> = (0..2000)
            .map(|i| {
                let at = i as f64 / 200.0;
                (at, if (2.0..5.0).contains(&at) { 300.0 } else { 100.0 })
            })
            .collect();
        let slices = time_slices(&ops, 10.0);
        assert_eq!(slices.len(), MAX_SLICES);
        assert!(slices.iter().all(|s| s.len() == 200));
        let p90s: Vec<f64> = slices.iter().map(|s| percentile(s, 90.0).unwrap()).collect();
        assert_eq!(median(&p90s), Some(100.0));
        // The whole-window p90 would have reported the burst.
        let mut all: Vec<f64> = ops.iter().map(|(_, us)| *us).collect();
        all.sort_unstable_by(f64::total_cmp);
        assert_eq!(percentile(&all, 90.0), Some(300.0));
    }

    #[test]
    fn a_slow_workload_gets_fewer_slices() {
        let ops: Vec<Sample> = (0..390).map(|i| (i as f64 / 39.0, 25_000.0)).collect();
        assert_eq!(time_slices(&ops, 10.0).len(), 3);
        assert_eq!(time_slices(&ops[..50], 10.0).len(), 1);
    }
}

//! Result files (`--all` writes them) and `--compare A.json B.json`.
//!
//! A result file holds every run of every workload of one `--all`
//! invocation. Comparing two of them prints, per workload × end-to-end
//! metric, both medians, the ratio with its base, and a verdict against
//! the metric's bound: `ok`, `regressed`, or — when either side's own
//! run-to-run spread is wider than the bound — `unresolved`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, number, quote, Value};
use crate::spec::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use crate::Result;

/// One run as stored in a result file.
pub struct StoredRun {
    pub workload: &'static str,
    pub traced: bool,
    /// The run's result object, as it printed it.
    pub result_json: String,
}

/// Render a result file.
pub fn render_file(seed: u64, seconds: u64, nproc: usize, runs: &[StoredRun]) -> String {
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": {}, \"trace\": {}, \"result\": {}}}",
                quote(r.workload),
                u8::from(r.traced),
                r.result_json
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"nproc\": {nproc},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// workload → metric → one value per untraced run, from a result file.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Values> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = file.get("runs").and_then(Value::as_array).ok_or(format!("{path}: no `runs`"))?;
    let mut values = Values::new();
    for run in runs {
        let field = |k: &str| run.get(k).ok_or(format!("{path}: a run lacks `{k}`"));
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload =
            field("workload")?.as_str().ok_or(format!("{path}: workload not a string"))?;
        let metrics = field("result")?
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("{path}: a result lacks `metrics`"))?;
        for (name, m) in metrics {
            let v = m.get("value").and_then(Value::as_f64).ok_or(format!("{path}: {name}"))?;
            values
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
    Ok(values)
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judge `b` against base `a` under `m`'s bound.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a).expect("non-empty"), median(b).expect("non-empty"));
    if spread(a).max(spread(b)) > m.bound {
        return Verdict::Unresolved;
    }
    let worse = if m.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
    if worse > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compare two result files; returns the report and how many pairings
/// regressed or stayed unresolved.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, usize, usize)> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut out = String::new();
    let (mut regressed, mut unresolved) = (0, 0);
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    for w in WORKLOADS {
        for m in &END_TO_END {
            let side = |v: &Values| v.get(w.name).and_then(|ms| ms.get(m.name)).cloned();
            let (Some(va), Some(vb)) = (side(&a), side(&b)) else {
                return Err(format!("{} / {} is missing from one of the files", w.name, m.name));
            };
            let verdict = judge(m, &va, &vb);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let (ma, mb) = (median(&va).expect("non-empty"), median(&vb).expect("non-empty"));
            let _ = writeln!(
                out,
                "{:<18} {:<12} {:>14} {:>14} {:>9.4} {:>7.1}% {:>6.0}%  {}",
                w.name,
                m.name,
                number((ma * 1e4).round() / 1e4),
                number((mb * 1e4).round() / 1e4),
                mb / ma,
                spread(&va).max(spread(&vb)) * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    let _ = writeln!(
        out,
        "B/A is B's median over A's (base A, {} run(s)); B has {} run(s). \
         {regressed} regressed, {unresolved} unresolved.",
        a.values().flat_map(|m| m.values()).map(Vec::len).max().unwrap_or(0),
        b.values().flat_map(|m| m.values()).map(Vec::len).max().unwrap_or(0),
    );
    Ok((out, regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = END_TO_END.iter().find(|m| m.name == "op_p50_us").unwrap();
        let higher = END_TO_END.iter().find(|m| m.name == "ops_per_s").unwrap();
        assert_eq!(judge(lower, &[100.0], &[109.0]), Verdict::Ok);
        assert_eq!(judge(lower, &[100.0], &[111.0]), Verdict::Regressed);
        assert_eq!(judge(lower, &[100.0], &[50.0]), Verdict::Ok, "faster is never a regression");
        assert_eq!(judge(higher, &[100.0], &[89.0]), Verdict::Regressed);
        assert_eq!(judge(higher, &[100.0], &[120.0]), Verdict::Ok);
        // One side's own runs disagree by more than the bound: no verdict.
        assert_eq!(judge(lower, &[80.0, 100.0, 120.0, 140.0], &[100.0]), Verdict::Unresolved);
    }
}

//! `benchmark` — see README.md. Three ways in:
//!
//! * `--workload NAME --seed N --seconds N --trace 0|1`: one run of one
//!   workload in this process; the last stdout line is the result object.
//! * `--all [--seed N] [--seconds N] [--quick] [--repeat K] [--trace 0|1]
//!   [--out FILE]`: every workload, each run in a fresh child process,
//!   collected into one result file.
//! * `--compare A.json B.json`: judge result file B against base A.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use xqp_benchmark::compare::{self, StoredRun};
use xqp_benchmark::json::{self, Value};
use xqp_benchmark::spec::{
    workload, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, QUICK_SECONDS, WORKLOADS,
};
use xqp_benchmark::{ctx, report, trace, Result};

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--quick]
  benchmark --all [--seed N] [--seconds N] [--quick] [--repeat K] [--trace 0|1] [--out FILE]
  benchmark --compare A.json B.json";

/// Parsed command line.
#[derive(Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<String>,
}

impl Args {
    fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    fn seconds(&self) -> u64 {
        self.seconds.unwrap_or(if self.quick { QUICK_SECONDS } else { DEFAULT_SECONDS })
    }
}

fn parse_args() -> Result<Args> {
    let mut args = Args { repeat: 1, ..Args::default() };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        let number =
            |v: String| v.parse::<u64>().map_err(|_| format!("`{v}` is not a whole number"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--all" => args.all = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--seed" => args.seed = Some(number(value("a number")?)?),
            "--seconds" => args.seconds = Some(number(value("a number")?)?.max(1)),
            "--repeat" => args.repeat = number(value("a number")?)?.max(1) as usize,
            "--out" => args.out = Some(value("a file")?),
            "--quick" => args.quick = true,
            "--trace" => args.trace = number(value("0 or 1")?)? != 0,
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Where runs write: `out/` in the benchmark's own directory, found from
/// the working directory (the repository root, or `benchmark/` itself).
fn out_dir() -> Result<PathBuf> {
    let dir = if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else if Path::new("src/trace.rs").is_file() {
        PathBuf::from("out")
    } else {
        return Err("run from the repository root (or from benchmark/)".to_string());
    };
    ctx(std::fs::create_dir_all(&dir), "create output directory")?;
    Ok(dir)
}

/// One run of one workload in this process.
fn run_one(args: &Args, name: &str) -> Result<()> {
    let w = workload(name).ok_or_else(|| {
        format!("unknown workload `{name}`; one of: {}", WORKLOADS.map(|w| w.name).join(", "))
    })?;
    let out = out_dir()?;
    let seed = args.seed();
    let result = if args.trace {
        let traced = trace::trace(w, seed, &out)?;
        let path = trace::write_spans(&out, w, seed, &traced.spans)?;
        eprintln!("{name}: {} spans written to {}", traced.spans.len(), path.display());
        traced.result
    } else {
        report::measure(w, seed, Duration::from_secs(args.seconds()), &out, !args.quick)?
    };
    for note in &result.notes {
        eprintln!("{name}: {note}");
    }
    println!("{}", result.to_json());
    Ok(())
}

/// Run `benchmark --workload …` as a child and return its result line.
fn run_child(name: &str, seed: u64, seconds: u64, traced: bool, quick: bool) -> Result<String> {
    let exe = ctx(std::env::current_exe(), "locate own executable")?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = ctx(cmd.output(), "start child run")?;
    if !output.status.success() {
        return Err(format!("{name}: child run failed with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{name}: child printed nothing"))
}

/// Every workload, each run in a fresh process (so `peak_rss_mb` is the
/// workload's own), collected into one result file.
fn run_all(args: &Args) -> Result<bool> {
    let out = out_dir()?;
    let (seed, seconds) = (args.seed(), args.seconds());
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            let reps = if traced { usize::from(args.trace) } else { args.repeat };
            for _ in 0..reps {
                let line = run_child(w.name, seed, seconds, traced, args.quick)?;
                let v = json::parse(&line).map_err(|e| format!("{}: result line: {e}", w.name))?;
                let correct = v.get("correct").and_then(Value::as_bool) == Some(true);
                all_correct &= correct;
                let metrics = v.get("metrics").and_then(Value::as_object).ok_or("no metrics")?;
                let shown: Vec<String> = metrics
                    .iter()
                    .filter(|(n, _)| traced || END_TO_END.iter().any(|m| m.name == n.as_str()))
                    .filter_map(|(n, m)| {
                        let value = m.get("value")?.as_f64()?;
                        Some(format!("{n}={value:.4} {}", m.get("unit")?.as_str()?))
                    })
                    .collect();
                println!(
                    "{}{} correct={correct} attempted={} failed={}\n    {}",
                    w.name,
                    if traced { " (traced)" } else { "" },
                    v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0),
                    v.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
                    shown.join("\n    ")
                );
                runs.push(StoredRun { workload: w.name, traced, result_json: line });
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let path =
        args.out.as_ref().map_or_else(|| out.join(format!("results-{seed}.json")), PathBuf::from);
    ctx(std::fs::write(&path, compare::render_file(seed, seconds, nproc, &runs)), "write results")?;
    println!("results written to {} ({nproc} hardware threads)", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some((a, b)) = &args.compare {
            let (report, regressed, _) = compare::compare(a, b)?;
            print!("{report}");
            Ok(regressed == 0)
        } else if args.all {
            run_all(&args)
        } else if let Some(name) = &args.workload {
            // A run that finished reports its own correctness in its result.
            run_one(&args, name).map(|()| true)
        } else {
            Err(USAGE.to_string())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

//! The measured windows. All load is closed loop: an embedded caller
//! blocks on `Database::{select,query}` and a session has one request in
//! flight (`Client::request` blocks), so the next op starts when the
//! previous one returns.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use xqp_serve::Client;

use crate::fixture::{persons, Fixture};
use crate::ops::{point_query, Op, Reader, RoundOrder, Writer, FRAGMENT, XMARK};
use crate::oracle::{run_round_query, Oracle};
use crate::spec::{Kind, Workload, SESSIONS};
use crate::{ctx, Result};

/// One completed op: when it completed, in seconds since the window
/// opened, and how long it took, in µs.
pub type Sample = (f64, f64);

/// What one window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Every op of the reported kind.
    pub ops: Vec<Sample>,
    /// Latency of the other side's ops on a read/write workload, µs.
    pub other_us: Vec<f64>,
    /// Ops started inside the window, both sides.
    pub attempted: u64,
    /// Errors, refusals and wrong answers among them.
    pub failed: u64,
    /// The share of `failed` on the reported side (`ops`).
    pub ops_failed: u64,
    /// Length of the window as it actually ran.
    pub elapsed: Duration,
    /// Every write the server acknowledged, warm-up included, in order —
    /// the durable state must equal their serial replay.
    pub acked: Vec<Op>,
}

/// Embedded workloads: one thread, one op = one full round over the query
/// list, so a query getting slower moves the op time by its weight.
pub fn run_embedded(
    w: &Workload,
    f: &Fixture,
    oracle: &Oracle,
    seed: u64,
    warmup: Duration,
    window: Duration,
) -> Window {
    let mut orders = RoundOrder::new(seed, oracle.round.len());
    let mut round = || {
        let order = orders.next().expect("orders are endless");
        let t = Instant::now();
        let ok = order.iter().fold(true, |ok, &i| {
            // Evaluate every query even after a failure: a round is always
            // the same work.
            let got = run_round_query(&f.db, w.kind, &oracle.round[i]);
            matches!(got, Ok(got) if got == oracle.round_answers[i]) && ok
        });
        (t.elapsed(), ok)
    };
    let warm_end = Instant::now() + warmup;
    while Instant::now() < warm_end {
        round();
    }
    let mut out = Window::default();
    let start = Instant::now();
    while start.elapsed() < window {
        let (took, ok) = round();
        out.ops.push((start.elapsed().as_secs_f64(), took.as_secs_f64() * 1e6));
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    out.ops_failed = out.failed;
    out.elapsed = start.elapsed();
    out
}

const WARMING: u8 = 0;
const MEASURING: u8 = 1;
const STOPPED: u8 = 2;

/// One session's tally; sample times count from the sessions' common origin.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    acked: Vec<Op>,
}

/// Drive one session over its seeded stream `ops` until told to stop.
fn session(
    addr: std::net::SocketAddr,
    ops: impl Iterator<Item = Op>,
    oracle: &Oracle,
    phase: &AtomicU8,
    start: &Barrier,
    origin: Instant,
) -> Result<Tally> {
    let connected = Client::connect(addr);
    // Reach the barrier even when the connect failed, or the others hang.
    start.wait();
    let mut client = ctx(connected, "connect session")?;
    let mut tally = Tally::default();
    for op in ops {
        let now = phase.load(Ordering::Acquire);
        if now == STOPPED {
            break;
        }
        let (took, ok) = match op {
            Op::Point { k } => {
                let q = point_query(k);
                let t = Instant::now();
                let r = client.query(XMARK, &q);
                (t.elapsed(), matches!(&r, Ok((_, body)) if oracle.point_ok(op, body)))
            }
            Op::Insert { .. } | Op::Delete { .. } => {
                let path = op.path();
                let t = Instant::now();
                let r = match op {
                    Op::Insert { .. } => client.insert(XMARK, &path, FRAGMENT),
                    _ => client.delete(XMARK, &path),
                };
                let took = t.elapsed();
                if r.is_ok() {
                    tally.acked.push(op);
                }
                // Each write targets exactly one region, one marker.
                (took, matches!(r, Ok(1)))
            }
        };
        if now == MEASURING {
            tally.samples.push((origin.elapsed().as_secs_f64(), took.as_secs_f64() * 1e6));
            tally.attempted += 1;
            tally.failed += u64::from(!ok);
        }
    }
    ctx(client.close(), "close session")?;
    Ok(tally)
}

/// Served workloads: [`SESSIONS`] closed-loop sessions over loopback — all
/// readers, or one reader and one writer.
pub fn run_served(
    w: &Workload,
    f: &Fixture,
    oracle: &Oracle,
    seed: u64,
    warmup: Duration,
    window: Duration,
) -> Result<Window> {
    let addr = f.addr();
    let phase = AtomicU8::new(WARMING);
    let start = Barrier::new(SESSIONS + 1);
    let readers = if w.kind.has_writer() { SESSIONS - 1 } else { SESSIONS };
    let (phase, start) = (&phase, &start);
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let reads: Vec<_> = (0..readers)
            .map(|i| {
                let ops = Reader::new(seed, i as u64, persons(w));
                scope.spawn(move || session(addr, ops, oracle, phase, start, origin))
            })
            .collect();
        let writes: Vec<_> = (readers..SESSIONS)
            .map(|_| {
                scope.spawn(move || session(addr, Writer::new(seed), oracle, phase, start, origin))
            })
            .collect();
        start.wait();
        std::thread::sleep(warmup);
        phase.store(MEASURING, Ordering::Release);
        let opened = origin.elapsed();
        std::thread::sleep(window);
        phase.store(STOPPED, Ordering::Release);
        let elapsed = origin.elapsed() - opened;

        let join = |hs: Vec<std::thread::ScopedJoinHandle<'_, Result<Tally>>>| {
            hs.into_iter()
                .map(|h| h.join().map_err(|_| "a load session panicked".to_string())?)
                .collect::<Result<Vec<Tally>>>()
        };
        let (reads, writes) = (join(reads)?, join(writes)?);
        let mut out = Window { elapsed, ..Window::default() };
        let writes_are_the_op = w.kind == Kind::ServedRwWrites;
        for (tallies, is_write) in [(reads, false), (writes, true)] {
            for t in tallies {
                out.attempted += t.attempted;
                out.failed += t.failed;
                out.acked.extend(t.acked);
                let since_open = t.samples.iter().map(|(at, us)| (at - opened.as_secs_f64(), *us));
                if is_write == writes_are_the_op {
                    out.ops.extend(since_open);
                    out.ops_failed += t.failed;
                } else {
                    out.other_us.extend(since_open.map(|(_, us)| us));
                }
            }
        }
        Ok(out)
    })
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> Result<f64> {
    let status = ctx(std::fs::read_to_string("/proc/self/status"), "read /proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

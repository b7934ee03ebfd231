//! The correctness gate: expected answers from an independent evaluation
//! of the same inputs, and the checks run before, during and after timing.
//!
//! Expected answers come from `Strategy::Naive` on a resident copy of the
//! document (so a paged or served answer is compared against a resident,
//! in-process one). During a window each response is reduced to length +
//! hash and compared with its precomputed [`Answer`]; a mismatch is a
//! failed op.

use std::path::Path;
use std::time::{Duration, Instant};

use xqp::{Database, SNodeId};
use xqp_exec::{Executor, Strategy};
use xqp_gen::gen_xmark;
use xqp_serve::Client;

use crate::fixture::{xmark_config, xml_texts, Fixture};
use crate::ops::{point_query, tpm_round, Op, Reader, RoundQuery, FLWOR_ROUND, FRAGMENT, XMARK};
use crate::spec::{Kind, Workload};
use crate::{ctx, Result};

/// A result reduced to what a cheap in-window comparison needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    len: usize,
    hash: u64,
}

/// FNV-1a, 64 bit.
fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

impl Answer {
    pub fn of_str(s: &str) -> Self {
        Answer { len: s.len(), hash: fnv(s.bytes()) }
    }

    pub fn of_ids(ids: &[SNodeId]) -> Self {
        Answer { len: ids.len(), hash: fnv(ids.iter().flat_map(|id| id.0.to_le_bytes())) }
    }
}

/// Point-lookup ids cross-checked against `Strategy::Naive` and, when
/// served, against the in-process engine byte for byte. Naive costs ~2×
/// the measured path per id, so the whole id space is covered by the
/// DOM-derived table and a seeded sample by the engine's own reference.
const POINT_SAMPLE: usize = 24;

/// Expected answers of one workload; the seed picks the cross-checked ids.
#[derive(Debug)]
pub struct Oracle {
    /// The embedded round's queries (empty when served).
    pub round: Vec<RoundQuery>,
    /// One answer per round query.
    pub round_answers: Vec<Answer>,
    /// One answer per person id (empty when embedded).
    pub points: Vec<Answer>,
    /// The seeded ids [`pre_check`] cross-checks.
    sample: Vec<usize>,
}

impl Oracle {
    /// Is `got` the right answer to `op` (a read)?
    pub fn point_ok(&self, op: Op, got: &str) -> bool {
        matches!(op, Op::Point { k } if self.points[k] == Answer::of_str(got))
    }
}

/// The queries of an embedded workload's round.
pub fn round_of(kind: Kind) -> Vec<RoundQuery> {
    match kind {
        Kind::TpmResident | Kind::TpmPaged => tpm_round(),
        Kind::FlworEmbedded => FLWOR_ROUND.to_vec(),
        _ => Vec::new(),
    }
}

/// Evaluate every distinct query of the workload the slow, independent way.
pub fn build(w: &Workload, seed: u64) -> Result<Oracle> {
    let reference = Database::new();
    for (name, xml) in xml_texts(w) {
        ctx(reference.load_str(name, &xml), "load reference document")?;
    }
    let naive = |doc: &str| -> Result<_> { ctx(reference.document(doc), "reference snapshot") };
    let round = round_of(w.kind);
    let mut round_answers = Vec::new();
    for q in &round {
        let snap = naive(q.doc)?;
        let ex = Executor::new(snap.sdoc()).with_strategy(Strategy::Naive);
        round_answers.push(if w.kind == Kind::FlworEmbedded {
            Answer::of_str(&ctx(ex.query(q.text), q.id)?)
        } else {
            Answer::of_ids(&ctx(ex.eval_path_str(q.text), q.id)?)
        });
    }

    let (mut points, mut sample) = (Vec::new(), Vec::new());
    if w.kind.served() {
        // The whole table from the generator's own DOM: person k's answer
        // is its serialized <name> child.
        let dom = gen_xmark(&xmark_config(w));
        let is = |n, tag: &str| dom.name(n).is_some_and(|q| q.local == tag);
        let people = dom
            .descendants_or_self(dom.root())
            .find(|&n| is(n, "people"))
            .ok_or("generated document has no <people>")?;
        for person in dom.child_elements(people) {
            let name = dom
                .child_elements(person)
                .find(|&n| is(n, "name"))
                .ok_or("generated person has no <name>")?;
            points.push(Answer::of_str(&xqp_xml::serialize_node(&dom, name)));
        }
        // Hot ids first (they are most of the traffic), no repeats.
        for op in Reader::new(seed, 0, points.len()) {
            let Op::Point { k } = op else { unreachable!("readers only read") };
            if !sample.contains(&k) {
                sample.push(k);
            }
            if sample.len() == POINT_SAMPLE.min(points.len()) {
                break;
            }
        }
        let snap = naive(XMARK)?;
        let ex = Executor::new(snap.sdoc()).with_strategy(Strategy::Naive);
        for &k in &sample {
            let got = ctx(ex.query(&point_query(k)), "naive point lookup")?;
            if Answer::of_str(&got) != points[k] {
                return Err(format!("Strategy::Naive disagrees with the DOM on person{k}: {got}"));
            }
        }
    }
    Ok(Oracle { round, round_answers, points, sample })
}

/// One embedded query through the measured entry point, reduced to its
/// [`Answer`].
pub fn run_round_query(db: &Database, kind: Kind, q: &RoundQuery) -> Result<Answer> {
    Ok(if kind == Kind::FlworEmbedded {
        Answer::of_str(&ctx(db.query(q.doc, q.text), q.id)?)
    } else {
        Answer::of_ids(&ctx(db.select(q.doc, q.text), q.id)?)
    })
}

/// Before timing: every distinct embedded query, or the sampled point
/// lookups, must come back right from the system under test — and a
/// served answer must equal the in-process one byte for byte.
pub fn pre_check(w: &Workload, f: &Fixture, oracle: &Oracle) -> Result<()> {
    for (q, want) in oracle.round.iter().zip(&oracle.round_answers) {
        let got = run_round_query(&f.db, w.kind, q)?;
        if got != *want {
            return Err(format!(
                "{}: {} differs from Strategy::Naive on a resident copy",
                w.name, q.id
            ));
        }
    }
    if w.kind.served() {
        let mut client = ctx(Client::connect(f.addr()), "connect for pre-check")?;
        for &k in &oracle.sample {
            let q = point_query(k);
            let (_, served) = ctx(client.query(XMARK, &q), "served pre-check query")?;
            let local = ctx(f.db.query(XMARK, &q), "in-process pre-check query")?;
            if served != local {
                return Err(format!("{}: served person{k} differs from in-process", w.name));
            }
            if Answer::of_str(&served) != oracle.points[k] {
                return Err(format!("{}: person{k} differs from the reference", w.name));
            }
        }
        ctx(client.close(), "close pre-check session")?;
    }
    Ok(())
}

/// After a read/write run: reopen the store from disk and compare it with
/// a serial replay of the acknowledged writes on a fresh in-memory copy.
/// The OS cache is not dropped, so this checks reopen + WAL replay, not
/// power loss. Returns the time `Database::open` took.
pub fn reopen_check(w: &Workload, store: &Path, acked: &[Op]) -> Result<Duration> {
    let replay = Database::new();
    for (name, xml) in xml_texts(w) {
        ctx(replay.load_str(name, &xml), "load replay document")?;
    }
    for op in acked {
        let n = match op {
            Op::Insert { .. } => replay.insert_into(XMARK, &op.path(), FRAGMENT),
            Op::Delete { .. } => replay.delete_matching(XMARK, &op.path()),
            Op::Point { .. } => unreachable!("only writes are replayed"),
        };
        ctx(n, "replay acknowledged write")?;
    }
    let t = Instant::now();
    let reopened = ctx(Database::open(store), "reopen store")?;
    let open_time = t.elapsed();
    let want = ctx(replay.serialize(XMARK), "serialize replay")?;
    let got = ctx(reopened.serialize(XMARK), "serialize reopened store")?;
    if got != want {
        return Err(format!(
            "{}: reopened store differs from the serial replay of {} acknowledged writes",
            w.name,
            acked.len()
        ));
    }
    Ok(open_time)
}

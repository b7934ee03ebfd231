//! Seeded inputs: the query lists, the Zipf point-lookup stream and the
//! writer's insert/delete stream. The engine only ever sees what these
//! produce; the same seed always produces the same sequence.

use xqp_gen::{xmark_queries, Prng};

/// Document name of the auction site in every workload.
pub const XMARK: &str = "xmark";
/// Document name of the bibliography (`flwor_embedded`).
pub const BIB: &str = "bib";

/// One query of an embedded workload's round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundQuery {
    pub id: &'static str,
    pub doc: &'static str,
    pub text: &'static str,
}

/// The X1–X6 tree-pattern suite (`tpm_*`): NoK-only chains, twigs and
/// shapes that need a structural join, side by side.
pub fn tpm_round() -> Vec<RoundQuery> {
    xmark_queries().iter().map(|q| RoundQuery { id: q.id, doc: XMARK, text: q.path }).collect()
}

/// The FLWOR round: the three R10–R12 value joins of T18, the five
/// aggregate folds of T21, and one γ-constructing FLWOR with a large
/// serialized result (T16's keyword query).
pub const FLWOR_ROUND: [RoundQuery; 9] = [
    RoundQuery {
        id: "item_category",
        doc: XMARK,
        text: "for $i in doc()//item for $c in doc()//category \
               where $i/incategory/@category = $c/@id \
               return <hit>{$i/name}</hit>",
    },
    RoundQuery {
        id: "person_interest",
        doc: XMARK,
        text: "for $p in doc()//person for $c in doc()//category \
               where $p/profile/interest/@category = $c/@id \
               return <match>{$p/name}</match>",
    },
    RoundQuery {
        id: "auction_item_seller",
        doc: XMARK,
        text: "for $a in doc()//open_auction for $i in doc()//item for $p in doc()//person \
               where $a/itemref/@item = $i/@id and $a/seller/@person = $p/@id \
               return <deal>{$i/name}{$p/name}</deal>",
    },
    RoundQuery {
        id: "count_nested",
        doc: BIB,
        text: "count(for $b in doc()/bib/book \
               for $a in doc()/bib/book/author \
               return 1)",
    },
    RoundQuery {
        id: "sum_nested",
        doc: BIB,
        text: "sum(for $b in doc()/bib/book \
               for $a in doc()/bib/book/author \
               where $b/price >= 1 \
               return $b/price)",
    },
    RoundQuery {
        id: "min_join",
        doc: XMARK,
        text: "min(for $i in doc()//item \
               for $c in doc()//category \
               where $i/incategory/@category = $c/@id \
               return 1 + count($i/name))",
    },
    RoundQuery {
        id: "exists_join",
        doc: XMARK,
        text: "exists(for $i in doc()//item \
               for $c in doc()//category \
               where $i/incategory/@category = $c/@id \
               return $i)",
    },
    RoundQuery {
        id: "sum_flat",
        doc: XMARK,
        text: "sum(for $k in doc()//keyword \
               return count($k))",
    },
    RoundQuery {
        id: "keywords",
        doc: XMARK,
        text: "for $k in doc()//keyword \
               let $t := string($k) \
               where $t != \"\" \
               return <kw>{$t}</kw>",
    },
];

/// The point lookup for person `k`. Every `k` is a distinct query text and
/// so a distinct plan-cache key.
pub fn point_query(k: usize) -> String {
    format!("for $p in doc()//person where $p/@id = \"person{k}\" return $p/name")
}

/// The continents the writer inserts under.
pub const REGIONS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];

/// One request of a served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup of person `k`.
    Point { k: usize },
    /// Insert the marker fragment as last child of a region.
    Insert { region: usize },
    /// Delete the marker from that region again.
    Delete { region: usize },
}

impl Op {
    /// Target path of a write.
    pub fn path(self) -> String {
        match self {
            Op::Point { .. } => unreachable!("reads have no target path"),
            Op::Insert { region } => format!("/site/regions/{}", REGIONS[region]),
            Op::Delete { region } => format!("/site/regions/{}/bench-marker", REGIONS[region]),
        }
    }

    pub fn is_write(self) -> bool {
        !matches!(self, Op::Point { .. })
    }
}

/// What the writer inserts: small, so that the commit path and not the
/// fragment parse is what a write costs.
pub const FRAGMENT: &str = "<bench-marker><pad>x</pad></bench-marker>";

/// Derive an independent stream seed from the run seed (SplitMix's own
/// finalizer does the mixing: one draw from a generator seeded with both).
fn stream_seed(seed: u64, stream: u64) -> u64 {
    Prng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Zipf(1.0) point lookups over `persons` ids: rank r is drawn with
/// probability ∝ 1/r, and rank → id is the identity, so low ids are hot.
#[derive(Debug, Clone)]
pub struct Reader {
    rng: Prng,
    /// Cumulative probabilities, ascending to 1.
    cdf: Vec<f64>,
}

impl Reader {
    /// Stream number `session` (0-based) of a run.
    pub fn new(seed: u64, session: u64, persons: usize) -> Self {
        assert!(persons > 0, "no persons to look up");
        let total: f64 = (1..=persons).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=persons)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Reader { rng: Prng::seed_from_u64(stream_seed(seed, 1 + session)), cdf }
    }
}

impl Iterator for Reader {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let u = self.rng.next_f64();
        let k = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        Some(Op::Point { k })
    }
}

/// Insert-under-a-seeded-region, then delete-it, forever.
#[derive(Debug, Clone)]
pub struct Writer {
    rng: Prng,
    pending: Option<usize>,
}

impl Writer {
    pub fn new(seed: u64) -> Self {
        Writer { rng: Prng::seed_from_u64(stream_seed(seed, 1000)), pending: None }
    }
}

impl Iterator for Writer {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match self.pending.take() {
            Some(region) => Op::Delete { region },
            None => {
                let region = self.rng.gen_range(0..REGIONS.len());
                self.pending = Some(region);
                Op::Insert { region }
            }
        })
    }
}

/// The order of the queries within each round of an embedded workload: a
/// fresh seeded permutation per round. Every round is the same work; what
/// the seed varies is which query finds which other's leftovers in cache.
#[derive(Debug, Clone)]
pub struct RoundOrder {
    rng: Prng,
    order: Vec<usize>,
}

impl RoundOrder {
    pub fn new(seed: u64, queries: usize) -> Self {
        RoundOrder {
            rng: Prng::seed_from_u64(stream_seed(seed, 2000)),
            order: (0..queries).collect(),
        }
    }
}

impl Iterator for RoundOrder {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        // Fisher–Yates over the previous round's order.
        for i in (1..self.order.len()).rev() {
            self.order.swap(i, self.rng.gen_range(0..i + 1));
        }
        Some(self.order.clone())
    }
}

/// The traced pass's single-client sequence: reads only, or read and
/// write alternating (read, insert, read, delete, …) when a writer exists.
pub fn traced_sequence(seed: u64, persons: usize, with_writer: bool, n: usize) -> Vec<Op> {
    let mut reads = Reader::new(seed, 0, persons);
    let mut writes = Writer::new(seed);
    (0..n)
        .map(|i| if with_writer && i % 2 == 1 { writes.next() } else { reads.next() })
        .map(|op| op.expect("streams are endless"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let a: Vec<Op> = Reader::new(7, 0, 250).take(500).collect();
        let b: Vec<Op> = Reader::new(7, 0, 250).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, Reader::new(8, 0, 250).take(500).collect::<Vec<_>>());
        assert_ne!(a, Reader::new(7, 1, 250).take(500).collect::<Vec<_>>(), "sessions differ");
        let w: Vec<Op> = Writer::new(7).take(100).collect();
        assert_eq!(w, Writer::new(7).take(100).collect::<Vec<_>>());
        assert_ne!(w, Writer::new(8).take(100).collect::<Vec<_>>());
        let r: Vec<_> = RoundOrder::new(7, 6).take(20).collect();
        assert_eq!(r, RoundOrder::new(7, 6).take(20).collect::<Vec<_>>());
        assert_ne!(r, RoundOrder::new(8, 6).take(20).collect::<Vec<_>>());
        assert!(r.iter().all(|o| {
            let mut sorted = o.clone();
            sorted.sort_unstable();
            sorted == [0, 1, 2, 3, 4, 5]
        }));
        assert_eq!(traced_sequence(7, 100, true, 200), traced_sequence(7, 100, true, 200));
        assert_ne!(traced_sequence(7, 100, true, 200), traced_sequence(9, 100, true, 200));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let draws: Vec<usize> = Reader::new(3, 0, 250)
            .take(20_000)
            .map(|op| match op {
                Op::Point { k } => k,
                _ => unreachable!(),
            })
            .collect();
        assert!(draws.iter().all(|&k| k < 250));
        let share = |k: usize| draws.iter().filter(|&&d| d == k).count() as f64 / 20_000.0;
        // H(250) ≈ 6.1: rank 1 ≈ 16 %, rank 2 ≈ 8 %.
        assert!((0.13..0.20).contains(&share(0)), "rank 1 share {}", share(0));
        assert!((0.06..0.11).contains(&share(1)), "rank 2 share {}", share(1));
        let distinct: std::collections::BTreeSet<_> = draws.iter().collect();
        assert!(distinct.len() > 64, "distinct literals must outnumber the plan cache");
    }

    #[test]
    fn writer_alternates_insert_and_delete_of_one_region() {
        let w: Vec<Op> = Writer::new(1).take(6).collect();
        for pair in w.chunks(2) {
            match (pair[0], pair[1]) {
                (Op::Insert { region: a }, Op::Delete { region: b }) => assert_eq!(a, b),
                other => panic!("not a pair: {other:?}"),
            }
        }
    }
}

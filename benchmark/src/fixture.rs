//! Set-up: from a seed to a system ready to take traffic, with the time
//! each layer's share took. Everything here is what a user pays before
//! the first query: generate, parse, build, index, persist/open, start.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xqp::Database;
use xqp_gen::{gen_bib, gen_xmark, XmarkConfig};
use xqp_serve::{Client, Server, ServerConfig};
use xqp_storage::persist::FRAME_BYTES;

use crate::ops::{BIB, XMARK};
use crate::spec::{Kind, Workload, DOC_SEED, POOL_SHARE};
use crate::{ctx, Result};

/// Wall time of each set-up step, in the order taken. Step names are the
/// layer-metric names minus the `_ms` suffix (`gen` has no layer metric:
/// the generator is the benchmark's, not the engine's).
#[derive(Debug, Default, Clone)]
pub struct Steps(pub Vec<(&'static str, Duration)>);

impl Steps {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let t = Instant::now();
        let out = f()?;
        self.0.push((name, t.elapsed()));
        Ok(out)
    }

    /// Whole set-up time.
    pub fn total(&self) -> Duration {
        self.0.iter().map(|(_, d)| *d).sum()
    }

    /// Milliseconds spent in `name` (0 when the workload skips the step).
    pub fn ms(&self, name: &str) -> f64 {
        let of_step = self.0.iter().filter(|(n, _)| *n == name);
        of_step.fold(0.0, |ms, (_, d)| ms + d.as_secs_f64() * 1e3)
    }
}

/// A system under test, ready for traffic. Dropping it stops the server
/// (joining its threads) and removes the store directory.
pub struct Fixture {
    pub db: Arc<Database>,
    pub server: Option<Server>,
    /// Durable store directory (`tpm_paged`, `served_rw*`).
    pub dir: Option<PathBuf>,
    /// Bytes of XML text loaded.
    pub xml_bytes: u64,
    pub steps: Steps,
}

impl Fixture {
    /// Where the fixture's server listens (served workloads only).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("served workload").addr()
    }

    /// Stop serving and hand the database's directory over to the caller:
    /// the durable state stays on disk for a reopen check.
    pub fn into_store_dir(mut self) -> Option<PathBuf> {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        self.dir.take()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        if let Some(d) = self.dir.take() {
            let _ = fs::remove_dir_all(d);
        }
    }
}

/// The generator configuration of the workload's auction document. The
/// generator seed is pinned with the sizes ([`DOC_SEED`]): the run seed
/// drives the traffic, not the data.
pub fn xmark_config(w: &Workload) -> XmarkConfig {
    XmarkConfig::scale(w.sizes.xmark_scale).with_seed(DOC_SEED)
}

/// The XML texts a workload loads, by document name.
pub fn xml_texts(w: &Workload) -> Vec<(&'static str, String)> {
    let mut texts = vec![(XMARK, xqp_xml::serialize(&gen_xmark(&xmark_config(w))))];
    if w.sizes.bib_books > 0 {
        texts.push((BIB, xqp_xml::serialize(&gen_bib(w.sizes.bib_books, DOC_SEED))));
    }
    texts
}

/// Person ids in the workload's auction document.
pub fn persons(w: &Workload) -> usize {
    xmark_config(w).people
}

/// A store directory under `scratch` no other set-up of this process uses.
fn fresh_dir(scratch: &Path) -> Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch.join(format!("store-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    ctx(fs::create_dir_all(&dir), "create store directory")?;
    Ok(dir)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in ctx(fs::read_dir(dir), "list store directory")? {
        let entry = ctx(entry, "list store directory")?;
        let meta = ctx(entry.metadata(), "stat store file")?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}

/// Bring one workload's system up. `durable` overrides whether a
/// `served_rw*` database gets its store — the traced pass replays writes
/// against a non-durable copy to split the WAL's share out.
pub fn set_up(w: &Workload, scratch: &Path, durable: bool) -> Result<Fixture> {
    let mut steps = Steps::default();
    let texts = steps.time("gen", || Ok(xml_texts(w)))?;
    let xml_bytes = texts.iter().map(|(_, x)| x.len() as u64).sum();
    let doms = steps.time("xml.parse", || {
        texts
            .iter()
            .map(|(name, xml)| {
                Ok((*name, ctx(xqp_xml::parse_document(xml), "parse generated XML")?))
            })
            .collect::<Result<Vec<_>>>()
    })?;
    drop(texts);
    let mut db = Database::new();
    steps.time("storage.build", || {
        doms.iter().try_for_each(|(name, dom)| ctx(db.load_document(name, dom), "load document"))
    })?;
    drop(doms);

    let mut dir = None;
    if w.kind == Kind::TpmPaged {
        let d = fresh_dir(scratch)?;
        steps.time("persist.save", || {
            // With a pool configured, `persist_to` writes the paged format.
            db.set_buffer_pool(8);
            ctx(db.persist_to(&d), "persist paged store")
        })?;
        drop(db);
        let doc_pages = dir_bytes(&d)? / FRAME_BYTES as u64;
        let pool_pages = ((doc_pages as f64 * POOL_SHARE) as usize).max(2);
        db = steps.time("persist.open", || {
            ctx(Database::open_with_buffer(&d, pool_pages), "open paged store")
        })?;
        dir = Some(d);
    } else if w.kind.has_writer() && durable {
        let d = fresh_dir(scratch)?;
        // Default flush policy: one fsync per group commit.
        steps.time("persist.save", || ctx(db.persist_to(&d), "persist store"))?;
        dir = Some(d);
    }

    steps.time("storage.index", || {
        db.document_names().iter().try_for_each(|name| {
            ctx(db.create_index(name), "create index")?;
            ctx(db.statistics(name), "statistics").map(drop)
        })
    })?;

    let db = Arc::new(db);
    let mut fixture = Fixture { db, server: None, dir, xml_bytes, steps };
    if w.kind.served() {
        let db = Arc::clone(&fixture.db);
        let server = fixture.steps.time("serve.start", || {
            let server =
                ctx(Server::start(db, "127.0.0.1:0", ServerConfig::default()), "start server")?;
            // Up means "answers a request", not "bound a socket".
            let mut c = ctx(Client::connect(server.addr()), "connect to fresh server")?;
            ctx(c.ping(), "ping fresh server")?;
            ctx(c.close(), "close probe session")?;
            Ok(server)
        })?;
        fixture.server = Some(server);
    }
    Ok(fixture)
}

/// Stored bytes ÷ XML bytes: the store directory when the workload has one
/// (exact file sizes), the succinct representation otherwise.
pub fn space_ratio(f: &Fixture) -> Result<f64> {
    let stored = match &f.dir {
        Some(d) => dir_bytes(d)?,
        None => {
            let mut total = 0u64;
            for name in f.db.document_names() {
                total += ctx(f.db.storage_stats(&name), "storage stats")?.succinct_total() as u64;
            }
            total
        }
    };
    Ok(stored as f64 / f.xml_bytes as f64)
}

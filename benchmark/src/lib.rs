//! # xqp-benchmark — the repository's benchmark
//!
//! One binary runs six seeded, closed-loop workloads over the embedded,
//! paged, served and write paths of the engine, checks every answer, and
//! prints end-to-end metrics (`--trace 0`) or per-layer metrics from a
//! traced replay (`--trace 1`). Layers are timed from outside, around
//! calls into their public functions; no engine code knows it is being
//! measured. `README.md` holds the tables; `../BENCHMARK.json` the contract.

pub mod compare;
pub mod fixture;
pub mod json;
pub mod ops;
pub mod oracle;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;

/// Errors are rendered once, at the top of `main`; inside the benchmark a
/// message is all any caller needs.
pub type Result<T> = std::result::Result<T, String>;

/// Attach context to any displayable error.
pub fn ctx<T, E: std::fmt::Display>(r: std::result::Result<T, E>, what: &str) -> Result<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

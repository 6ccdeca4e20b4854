//! `sor-check`: the workspace checks the compiler cannot express.
//!
//! rustc, clippy and Cargo already enforce the lexical and structural
//! rules (see `[workspace.lints]` in the root manifest and DESIGN.md):
//! no `unwrap`/`expect`/`panic!` in library code, no truncating or
//! sign-losing casts, no exact float comparison, documented `sor-core`
//! items, no `unsafe`, and a crate graph that is exactly the manifests'
//! `[dependencies]`. What is left needs a whole-workspace call graph,
//! which no single-crate lint sees:
//!
//! - **panic reachability** (`panic-path`): no panic site reachable from
//!   a public solver-crate function, with a shortest witness chain;
//! - **the determinism audit** (`unseeded-rng`, `hash-order`): every
//!   sample is seeded and no hash iteration order leaks into output;
//! - **API hygiene** (`dead-api`): public items have a user elsewhere.
//!
//! Cost is not a static rule: the `perf` gate pins exact work counters
//! and the growth exponent of the Räcke set-up (see DESIGN.md).
//!
//! This crate is a std-only source scanner (the registry is unreachable
//! from CI, so no `syn`), run as `cargo run -p sor-check` and from CI;
//! `check.toml` at the workspace root scopes the rules. Any finding fails
//! the run.
//!
//! # Exceptions
//!
//! A site-level exception to a rule is a justified comment on the same
//! line or the line directly above, `// sor-check: allow(<rule>) —
//! <reason>`; a bare allow is ignored. A panic site that carries a
//! compiler-checked `#[expect(clippy::expect_used, reason = "…")]` (or
//! `clippy::panic` / `clippy::unwrap_used`) needs nothing more: that
//! attribute is `panic-path`'s justified allow as well, so each site
//! carries one annotation.

use std::fmt;
use std::path::Path;

pub mod config;
pub mod graph;
pub mod items;
pub mod report;
pub mod rules;
mod strip;
pub use strip::strip_line;

/// An analysis failure that is not a finding: unreadable sources or a
/// malformed `check.toml`.
#[derive(Debug)]
pub enum AnalysisError {
    /// Filesystem error while loading sources.
    Io(std::io::Error),
    /// `check.toml` did not parse.
    Config(config::ConfigError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Io(e) => write!(f, "io: {e}"),
            AnalysisError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl From<std::io::Error> for AnalysisError {
    fn from(e: std::io::Error) -> Self {
        AnalysisError::Io(e)
    }
}

impl From<config::ConfigError> for AnalysisError {
    fn from(e: config::ConfigError) -> Self {
        AnalysisError::Config(e)
    }
}

/// Run every rule over the workspace at `root`, returning every finding
/// sorted by path, line, and rule. `check.toml` at `root` scopes the
/// rules; without it they are skipped.
pub fn analyze_workspace(root: &Path) -> Result<Vec<report::Finding>, AnalysisError> {
    let cfg = config::Config::load(root)?;
    let ws = graph::load_workspace(root)?;
    let mut findings = rules::run_semantic(&ws, &cfg);
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
            .then(a.symbol.cmp(&b.symbol))
    });
    Ok(findings)
}

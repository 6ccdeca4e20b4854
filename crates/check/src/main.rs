//! Driver for the workspace analysis: `cargo run -p sor-check`.
//!
//! Runs the item-graph rules (panic reachability, determinism, dead API,
//! hot-path cost) over the workspace root (or an explicit root passed as
//! the first positional argument, used by the integration tests to point
//! at seeded fixtures).
//!
//! ```text
//! sor-check [ROOT] [--format text|json|sarif] [--output PATH]
//!           [--baseline PATH] [--no-baseline] [--fail-on-new]
//!           [--write-baseline PATH] [--hotpath-report PATH]
//! sor-check --explain <rule>
//! ```
//!
//! `--hotpath-report PATH` writes the per-entry hot-path cost report
//! (reachable functions, allocation/clone sites, max loop depth, deep
//! witness groups) as deterministic JSON — the committed
//! `check-hotpath.json` snapshot CI diffs against. `--explain <rule>`
//! prints the long-form documentation for one rule id and exits.
//!
//! A baseline at `<ROOT>/check-baseline.json` is picked up
//! automatically (override with `--baseline`, disable with
//! `--no-baseline`); findings whose fingerprint it contains are
//! *baselined* and do not fail the run — the gate is regression-only,
//! which is also what `--fail-on-new` names explicitly. Exit codes:
//! 0 no new findings, 1 new findings, 2 usage/configuration/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use sor_check::report::{explain, render_json, render_sarif, render_text, RULE_DESCRIPTIONS};
use sor_check::rules::hotpath::{render_cost_json, render_cost_table};
use sor_check::{analyze_workspace_with_cost, baseline};

/// Parsed command line.
struct Opts {
    root: PathBuf,
    format: Format,
    output: Option<PathBuf>,
    baseline: Option<PathBuf>,
    no_baseline: bool,
    write_baseline: Option<PathBuf>,
    hotpath_report: Option<PathBuf>,
    explain: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: workspace_root(),
        format: Format::Text,
        output: None,
        baseline: None,
        no_baseline: false,
        write_baseline: None,
        hotpath_report: None,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    let mut positional_seen = false;
    while let Some(arg) = args.next() {
        let mut value_of = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--format" => {
                opts.format = match value_of("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--output" => opts.output = Some(PathBuf::from(value_of("--output")?)),
            "--baseline" => opts.baseline = Some(PathBuf::from(value_of("--baseline")?)),
            "--no-baseline" => opts.no_baseline = true,
            // The gate is regression-only whenever a baseline is in
            // effect; the flag exists so CI invocations state the
            // policy explicitly.
            "--fail-on-new" => {}
            "--write-baseline" => {
                opts.write_baseline = Some(PathBuf::from(value_of("--write-baseline")?));
            }
            "--hotpath-report" => {
                opts.hotpath_report = Some(PathBuf::from(value_of("--hotpath-report")?));
            }
            "--explain" => opts.explain = Some(value_of("--explain")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            positional => {
                if positional_seen {
                    return Err(format!("unexpected extra argument `{positional}`"));
                }
                positional_seen = true;
                opts.root = PathBuf::from(positional);
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sor-check: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(id) = &opts.explain {
        return match explain(id) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                let ids: Vec<&str> = RULE_DESCRIPTIONS.iter().map(|(i, _)| *i).collect();
                eprintln!(
                    "sor-check: unknown rule `{id}` — valid ids: {}",
                    ids.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }
    if !opts.root.is_dir() {
        eprintln!(
            "sor-check: root `{}` is not a directory",
            opts.root.display()
        );
        return ExitCode::from(2);
    }

    let (findings, cost) = match analyze_workspace_with_cost(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sor-check: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    // The cost report is an inventory, not a gate: write it whenever
    // asked, in every mode, including --write-baseline runs (so CI
    // regenerates both snapshots from one invocation).
    if let Some(path) = &opts.hotpath_report {
        if let Err(e) = std::fs::write(path, render_cost_json(&cost)) {
            eprintln!(
                "sor-check: cannot write hot-path report {}: {e}",
                path.display()
            );
            return ExitCode::from(2);
        }
    }

    if let Some(path) = &opts.write_baseline {
        let text = baseline::render(&findings);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("sor-check: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "sor-check: wrote baseline with {} finding(s) to {}",
            findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline_path = if opts.no_baseline {
        None
    } else {
        Some(
            opts.baseline
                .clone()
                .unwrap_or_else(|| opts.root.join("check-baseline.json")),
        )
    };
    let baseline_set = match &baseline_path {
        Some(p) => match baseline::load(p) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sor-check: {e}");
                return ExitCode::from(2);
            }
        },
        None => Default::default(),
    };
    let (new, baselined) = baseline::partition(findings, &baseline_set);

    let rendered = match opts.format {
        // The cost table rides along in text mode only; json/sarif
        // stay pure findings documents (the JSON inventory lives
        // behind --hotpath-report).
        Format::Text => {
            let mut s = render_text(&new, baselined.len());
            if !cost.is_empty() {
                s.push('\n');
                s.push_str(&render_cost_table(&cost));
            }
            s
        }
        Format::Json => render_json(&new, &baselined),
        Format::Sarif => render_sarif(&new, &baselined),
    };
    match &opts.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("sor-check: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            // Keep the terminal summary even when the report goes to a
            // file, so CI logs stay readable.
            if opts.format != Format::Text {
                print!("{}", render_text(&new, baselined.len()));
            }
        }
        None => print!("{rendered}"),
    }

    if new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or(manifest)
}

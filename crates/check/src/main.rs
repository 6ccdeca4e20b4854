//! Driver for the workspace analysis: `cargo run -p sor-check`.
//!
//! Runs the item-graph rules (panic reachability, determinism, dead API)
//! over the workspace root (or an explicit root passed as the first
//! positional argument, used by the integration tests to point at
//! seeded fixtures).
//!
//! ```text
//! sor-check [ROOT] [--format text|json|sarif] [--output PATH]
//! sor-check --explain <rule>
//! ```
//!
//! `--explain <rule>` prints the long-form documentation for one rule id
//! and exits. Exit codes: 0 no findings, 1 any finding, 2
//! usage/configuration/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use sor_check::analyze_workspace;
use sor_check::report::{explain, render_json, render_sarif, render_text, RULE_DESCRIPTIONS};

/// Parsed command line.
struct Opts {
    root: PathBuf,
    format: Format,
    output: Option<PathBuf>,
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

    let findings = match analyze_workspace(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sor-check: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered = match opts.format {
        Format::Text => render_text(&findings),
        Format::Json => render_json(&findings),
        Format::Sarif => render_sarif(&findings),
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
                print!("{}", render_text(&findings));
            }
        }
        None => print!("{rendered}"),
    }

    if findings.is_empty() {
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

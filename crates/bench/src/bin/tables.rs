//! Regenerate the paper's results as tables.
//!
//! ```text
//! tables [--exp e1|e2|…|e18|all] [--quick] [--plot] [--metrics-dir DIR]
//! ```
//!
//! `--quick` shrinks instances for a fast smoke run; the default is the
//! paper-scale configuration recorded in EXPERIMENTS.md.
//!
//! `--metrics-dir DIR` records each experiment under its own recorder
//! and writes one `BENCH_<experiment>.json` snapshot (counters,
//! histograms, per-phase timings) per experiment into `DIR`, next to the
//! printed tables.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "driver code: a broken experiment setup stops the run"
)]

use std::env;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let plot = args.iter().any(|a| a == "--plot");
    let exp = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all");
    let metrics_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--metrics-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    if let Some(dir) = &metrics_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create metrics dir {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let show = |table: &sor_bench::Table| {
        println!("{table}");
        if plot {
            if let Some(col) = sor_bench::plot::default_plot_column(&table.title) {
                if let Some(chart) = sor_bench::plot::plot_column(table, col, 40) {
                    println!("{chart}");
                }
            }
        }
    };
    // Run one experiment under its own recorder (when metrics are
    // wanted), so each BENCH_<id>.json contains exactly that
    // experiment's counters and phase tree.
    let run = |id: &str| -> Option<sor_bench::Table> {
        let rec = sor_obs::Recorder::new();
        let table = {
            let _scope = metrics_dir.is_some().then(|| rec.install());
            let _span = sor_obs::span("bench/experiment");
            sor_bench::run_one(id, quick)?
        };
        if let Some(dir) = &metrics_dir {
            let snap = rec.snapshot();
            let json = snap.to_json_with_meta(&[
                ("experiment", id),
                ("quick", if quick { "true" } else { "false" }),
            ]);
            let path = dir.join(format!("BENCH_{id}.json"));
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        Some(table)
    };
    if exp == "all" {
        for id in sor_bench::IDS {
            let table = run(id).expect("known id");
            show(&table);
        }
    } else {
        match run(exp) {
            Some(table) => show(&table),
            None => {
                eprintln!(
                    "unknown experiment '{exp}'; known: {} or 'all'",
                    sor_bench::IDS.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
}

//! `perf`: the performance-trajectory and regression-gate binary.
//!
//! Runs the fixed seeded benchmark suite from [`sor_bench::perf`] and
//! either prints a summary, writes a new `BENCH_BASELINE.json`, or gates
//! the run against the committed baseline — failing the process (exit 1)
//! when a deterministic work counter or quality ratio moved, and, with
//! `--wall`, when a phase's median wall time regressed past the loose
//! ratio thresholds.
//!
//! ```text
//! perf --quick                      # run the suite, print a summary
//! perf --quick --gate               # gate work+quality vs BENCH_BASELINE.json
//! perf --gate --wall                # full trials, also gate wall medians
//! perf --write-baseline             # regenerate BENCH_BASELINE.json
//! perf --list                       # print suite bench names
//! perf --scale --scale-max 12       # gate the Räcke set-up's growth over n = 2^8..2^12
//! ```
//!
//! The modes are exclusive, and a flag that the chosen mode ignores is a
//! usage error (exit 2) rather than a silent no-op.
//!
//! Gated runs append one JSON line to `BENCH_TRAJECTORY.jsonl` (suppress
//! with `--no-trajectory`) recording git revision, status, and totals.

use sor_bench::perf::scale::{gate_scale, render_scale, run_scale, SCALE_BUDGET_S, SCALE_MIN_K};
use sor_bench::perf::{
    bench_names, gate, parse_baseline, render_suite_summary, run_suite, suite_to_json,
    trajectory_line, GatePolicy, PerfConfig, BASELINE_FORMAT,
};
use std::fs;
use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::{SystemTime, UNIX_EPOCH};

const USAGE: &str = "\
usage: perf [options]

modes (default: run the suite and print a summary)
  --gate                gate the run against the baseline; exit 1 on FAIL
  --write-baseline      run the suite and (re)write the baseline file
  --list                print the suite's bench names and exit
  --scale               time the 6-tree Raecke build on expander:2^k x4 for
                        k = 8..K and print wall, tree nodes, settled
                        vertices, peak RSS and log-log exponents; exit 1
                        when the settled exponent exceeds 1.6 (the wall
                        exponent is printed, not gated); sizes predicted
                        to take over 60 s are skipped
  --scale-max K         largest size exponent of --scale, 8..=20 (default 14)

--list and --scale take no suite, gate-policy or output options.

suite
  --quick               CI posture: fewer trials/warmups (same workloads,
                        same seeds -- work/quality metrics are identical
                        to a full run by construction)
  --trials N            override timed trials per bench
  --warmup N            override untimed warmup runs per bench
  --filter SUBSTR       only run benches whose name contains SUBSTR

gate policy
  --baseline PATH       baseline file (default BENCH_BASELINE.json)
  --tol-work X          relative tolerance for work metrics (default 0 = exact)
  --tol-quality X       relative tolerance for quality metrics (default 1e-9)
  --wall                also gate wall-time medians (loose ratios)
  --no-wall             never compare wall times (default)

outputs
  --report-json PATH    write the machine-readable gate report
  --report-md PATH      write the markdown gate report
  --trajectory PATH     trajectory file (default BENCH_TRAJECTORY.jsonl)
  --no-trajectory       do not append a trajectory line
";

/// The suite, gate-policy and output flags: only the suite-running modes
/// read them.
const SUITE_FLAGS: [&str; 13] = [
    "--quick",
    "--trials",
    "--warmup",
    "--filter",
    "--baseline",
    "--tol-work",
    "--tol-quality",
    "--wall",
    "--no-wall",
    "--report-json",
    "--report-md",
    "--trajectory",
    "--no-trajectory",
];

struct Args {
    gate: bool,
    write_baseline: bool,
    list: bool,
    scale: bool,
    scale_max: Option<u32>,
    /// The first of [`SUITE_FLAGS`] given, if any.
    suite_flag: Option<String>,
    quick: bool,
    trials: Option<usize>,
    warmup: Option<usize>,
    filter: Option<String>,
    baseline: String,
    tol_work: f64,
    tol_quality: f64,
    wall: bool,
    report_json: Option<String>,
    report_md: Option<String>,
    trajectory: String,
    no_trajectory: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        gate: false,
        write_baseline: false,
        list: false,
        scale: false,
        scale_max: None,
        suite_flag: None,
        quick: false,
        trials: None,
        warmup: None,
        filter: None,
        baseline: "BENCH_BASELINE.json".to_string(),
        tol_work: 0.0,
        tol_quality: 1e-9,
        wall: false,
        report_json: None,
        report_md: None,
        trajectory: "BENCH_TRAJECTORY.jsonl".to_string(),
        no_trajectory: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if args.suite_flag.is_none() && SUITE_FLAGS.contains(&arg.as_str()) {
            args.suite_flag = Some(arg.clone());
        }
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--gate" => args.gate = true,
            "--write-baseline" => args.write_baseline = true,
            "--list" => args.list = true,
            "--scale" => args.scale = true,
            "--scale-max" => {
                let k = value("--scale-max")?
                    .parse()
                    .map_err(|e| format!("--scale-max: {e}"))?;
                if !(SCALE_MIN_K..=20).contains(&k) {
                    return Err(format!("--scale-max must be in {SCALE_MIN_K}..=20"));
                }
                args.scale_max = Some(k);
            }
            "--quick" => args.quick = true,
            "--trials" => {
                args.trials = Some(
                    value("--trials")?
                        .parse()
                        .map_err(|e| format!("--trials: {e}"))?,
                );
            }
            "--warmup" => {
                args.warmup = Some(
                    value("--warmup")?
                        .parse()
                        .map_err(|e| format!("--warmup: {e}"))?,
                );
            }
            "--filter" => args.filter = Some(value("--filter")?),
            "--baseline" => args.baseline = value("--baseline")?,
            "--tol-work" => {
                args.tol_work = value("--tol-work")?
                    .parse()
                    .map_err(|e| format!("--tol-work: {e}"))?;
            }
            "--tol-quality" => {
                args.tol_quality = value("--tol-quality")?
                    .parse()
                    .map_err(|e| format!("--tol-quality: {e}"))?;
            }
            "--wall" => args.wall = true,
            "--no-wall" => args.wall = false,
            "--report-json" => args.report_json = Some(value("--report-json")?),
            "--report-md" => args.report_md = Some(value("--report-md")?),
            "--trajectory" => args.trajectory = value("--trajectory")?,
            "--no-trajectory" => args.no_trajectory = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let modes: Vec<&str> = [
        ("--gate", args.gate),
        ("--write-baseline", args.write_baseline),
        ("--list", args.list),
        ("--scale", args.scale),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    match (modes.as_slice(), &args.suite_flag) {
        ([a, b, ..], _) => return Err(format!("{a} and {b} are mutually exclusive")),
        ([mode @ ("--list" | "--scale")], Some(flag)) => {
            return Err(format!("{flag} has no effect with {mode}"));
        }
        _ => {}
    }
    if args.scale_max.is_some() && !args.scale {
        return Err("--scale-max requires --scale".to_string());
    }
    Ok(args)
}

/// `git rev-parse --short HEAD` plus a dirty bit; `"unknown"` outside a
/// work tree (the gate itself never depends on git).
fn git_state() -> (String, bool) {
    let rev = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    (rev, dirty)
}

fn unix_ts() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;

    if args.list {
        for name in bench_names() {
            println!("{name}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if args.scale {
        let rows = run_scale(args.scale_max.unwrap_or(14), SCALE_BUDGET_S);
        print!("{}", render_scale(&rows, SCALE_BUDGET_S));
        let (verdict, pass) = gate_scale(&rows);
        println!("{verdict}");
        return Ok(if pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let mut cfg = PerfConfig::new(args.quick);
    if let Some(t) = args.trials {
        cfg.trials = t;
    }
    if let Some(w) = args.warmup {
        cfg.warmup = w;
    }
    cfg.filter = args.filter.clone();

    let validators = if sor_flow::validate::validators_enabled() {
        "on"
    } else {
        "off"
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    eprintln!(
        "perf: suite={} trials={} warmup={} profile={profile} validators={validators}",
        if args.quick { "quick" } else { "full" },
        cfg.trials,
        cfg.warmup
    );

    let suite = run_suite(&cfg);
    if let Some(nd) = suite.runs.iter().find(|r| !r.deterministic) {
        eprintln!(
            "perf: WARNING: bench '{}' produced different work metrics across trials",
            nd.name
        );
    }

    if args.write_baseline {
        // The wall section is informational (and the only nondeterministic
        // part); work/quality serialize byte-identically run to run.
        let text = suite_to_json(
            &suite,
            true,
            &[("profile", profile), ("validators", validators)],
        );
        fs::write(&args.baseline, &text).map_err(|e| format!("write {}: {e}", args.baseline))?;
        println!(
            "wrote {} ({} benches, format {})",
            args.baseline,
            suite.runs.len(),
            BASELINE_FORMAT
        );
        print!("{}", render_suite_summary(&suite));
        return Ok(ExitCode::SUCCESS);
    }

    if !args.gate {
        print!("{}", render_suite_summary(&suite));
        return Ok(ExitCode::SUCCESS);
    }

    let text = fs::read_to_string(&args.baseline).map_err(|e| {
        format!(
            "read baseline {}: {e} (run `perf --write-baseline` to create it)",
            args.baseline
        )
    })?;
    let baseline = parse_baseline(&text)?;
    let policy = GatePolicy {
        work_tol: args.tol_work,
        quality_tol: args.tol_quality,
        wall: args.wall,
        ..GatePolicy::default()
    };
    let report = gate(&baseline, &suite, &policy);

    print!("{}", report.render_text());
    if let Some(path) = &args.report_json {
        fs::write(path, report.render_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &args.report_md {
        fs::write(path, report.render_markdown()).map_err(|e| format!("write {path}: {e}"))?;
    }

    if !args.no_trajectory {
        let (rev, dirty) = git_state();
        let line = trajectory_line(&report, &suite, &rev, dirty, unix_ts());
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&args.trajectory)
            .map_err(|e| format!("open {}: {e}", args.trajectory))?;
        writeln!(f, "{line}").map_err(|e| format!("append {}: {e}", args.trajectory))?;
    }

    Ok(if report.status() == sor_obs::snapshot::DiffStatus::Fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perf: error: {msg}");
            eprintln!("run `perf --help` for usage");
            ExitCode::from(2)
        }
    }
}

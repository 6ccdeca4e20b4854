//! `sor` rejects settings outside their valid range as a usage error —
//! exit 2 with a message naming the flag — instead of panicking or
//! silently serving nothing: engine settings, generator parameters,
//! the solvers' `--eps`, and workload sizes.

use std::process::Command;

#[test]
fn bad_engine_settings_are_usage_errors_naming_the_flag() {
    let serve = [
        "serve",
        "--graph",
        "hypercube:3",
        "--epochs",
        "1",
        "--quiet",
    ];
    let mut cases: Vec<(Vec<&str>, &str)> = [
        ("--s", "0"),
        ("--trees", "0"),
        ("--batch", "0"),
        ("--queue-bound", "0"),
        ("--cache-cap", "0"),
        ("--eps", "0"),
        ("--eps", "-1"),
        ("--eps", "1.5"),
        ("--eps", "inf"),
        ("--eps", "NaN"),
    ]
    .into_iter()
    .map(|(flag, value)| ([&serve[..], &[flag, value]].concat(), flag))
    .collect();
    // Generator, solver and workload preconditions the other subcommands
    // share: each used to panic on an assertion deep in a library crate.
    for (args, flag) in [
        (&["info", "--graph", "grid:1x1"][..], "--graph"),
        (&["info", "--graph", "expander:15x3"], "--graph"),
        (&["info", "--graph", "expander:4x9"], "--graph"),
        (&["info", "--graph", "hypercube:0"], "--graph"),
        (&["sim", "--graph", "hypercube:0"], "--graph"),
        (&["eval", "--graph", "grid:1x1"], "--graph"),
        (&["serve", "--graph", "expander:15x3", "--quiet"], "--graph"),
        (&["eval", "--graph", "grid:3x3", "--eps", "0"], "--eps"),
        (&["eval", "--graph", "grid:3x3", "--eps", "-1"], "--eps"),
        (&["sim", "--graph", "grid:3x3", "--eps", "1"], "--eps"),
        (
            &[
                "serve",
                "--graph",
                "expander:1024x4",
                "--pattern-pairs",
                "1000",
                "--quiet",
            ],
            "--pattern-pairs",
        ),
    ] {
        cases.push((args.to_vec(), flag));
    }
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_sor"))
            .args(&args)
            .output()
            .expect("run sor");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: want a usage error, got {:?}; stderr: {stderr}",
            out.status
        );
        assert!(
            stderr.starts_with(&format!("error: {flag} must be ")),
            "{args:?}: error must name the flag: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: nothing served before the rejection"
        );
    }
}

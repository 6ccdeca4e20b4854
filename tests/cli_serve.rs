//! `sor serve` rejects engine settings outside their valid range as a
//! usage error — exit 2 with a message naming the flag — instead of
//! panicking or silently serving nothing.

use std::process::Command;

#[test]
fn bad_engine_settings_are_usage_errors_naming_the_flag() {
    for (flag, value) in [
        ("--s", "0"),
        ("--trees", "0"),
        ("--batch", "0"),
        ("--queue-bound", "0"),
        ("--cache-cap", "0"),
        ("--eps", "0"),
        ("--eps", "-1"),
        ("--eps", "inf"),
        ("--eps", "NaN"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sor"))
            .args([
                "serve",
                "--graph",
                "hypercube:3",
                "--epochs",
                "1",
                "--quiet",
            ])
            .args([flag, value])
            .output()
            .expect("run sor");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value}: want a usage error, got {:?}; stderr: {stderr}",
            out.status
        );
        assert!(
            stderr.starts_with(&format!("error: {flag} must be ")),
            "{flag} {value}: error must name the flag: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{flag} {value}: nothing served before the rejection"
        );
    }
}

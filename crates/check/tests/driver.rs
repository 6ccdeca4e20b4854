//! End-to-end tests for the `sor-check` driver: the binary must exit
//! non-zero on a workspace seeded with findings, zero on a clean one,
//! and zero on the real workspace (the acceptance gate CI enforces).
//! Every rule fires on `bad_ws`, witness chains are exact, and every
//! output format renders the findings.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers: a failed setup fails the test"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

use sor_check::analyze_workspace;
use sor_obs::parse_json;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/check has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn binary_exits_nonzero_on_seeded_violations() {
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .status()
        .expect("run sor-check on bad_ws");
    assert_eq!(status.code(), Some(1), "expected exit 1 on seeded fixture");
}

#[test]
fn binary_exits_zero_on_clean_fixture() {
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("clean_ws"))
        .status()
        .expect("run sor-check on clean_ws");
    assert_eq!(status.code(), Some(0), "expected exit 0 on clean fixture");
}

#[test]
fn semantic_rules_all_fire_on_bad_ws() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    for rule in ["panic-path", "unseeded-rng", "hash-order", "dead-api"] {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "semantic rule {rule} did not fire on bad_ws; got: {findings:#?}"
        );
    }
}

#[test]
fn panic_path_reports_shortest_witness_chain() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    let f = findings
        .iter()
        .find(|f| f.rule == "panic-path" && f.symbol.ends_with("solver_entry"))
        .expect("panic-path finding for solver_entry");
    // entry → middle → deep → the concrete site
    assert_eq!(f.witness.len(), 4, "{:?}", f.witness);
    assert!(f.witness[0].contains("solver_entry"), "{:?}", f.witness);
    assert!(f.witness[1].contains("solver_middle"), "{:?}", f.witness);
    assert!(f.witness[2].contains("solver_deep"), "{:?}", f.witness);
    assert!(f.witness[3].contains(".expect("), "{:?}", f.witness);
    assert!(f.message.contains("2 calls deep"), "{}", f.message);
    // `excused_entry`'s only site carries `#[expect(clippy::expect_used, ..)]`.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == "panic-path" && f.symbol.ends_with("excused_entry")),
        "{findings:#?}"
    );
}

#[test]
fn clean_fixture_has_no_semantic_findings() {
    let findings = analyze_workspace(&fixture("clean_ws")).expect("analyze clean_ws");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn sarif_reports_the_panic_path_witness() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--format")
        .arg("sarif")
        .output()
        .expect("sarif run");
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("stdout is valid JSON");
    assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
    let results = doc.get("runs").and_then(|r| r.as_arr()).expect("runs")[0]
        .get("results")
        .and_then(|r| r.as_arr())
        .expect("results array");
    let panic = results
        .iter()
        .find(|r| r.get("ruleId").and_then(|id| id.as_str()) == Some("panic-path"))
        .expect("panic-path SARIF result");
    let msg = panic
        .get("message")
        .and_then(|m| m.get("text"))
        .and_then(|t| t.as_str())
        .expect("message text");
    assert!(msg.contains("[via sor-core::solver_entry"), "{msg}");
    let line = panic
        .get("locations")
        .and_then(|l| l.as_arr())
        .and_then(|l| l.first())
        .and_then(|l| l.get("physicalLocation"))
        .and_then(|l| l.get("region"))
        .and_then(|r| r.get("startLine"))
        .and_then(|n| n.as_u64());
    assert_eq!(line, Some(3), "solver_entry is declared on line 3");
}

#[test]
fn explain_prints_rule_doc_and_rejects_unknown_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg("--explain")
        .arg("hash-order")
        .output()
        .expect("explain run");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("hash-order — "), "{stdout}");
    assert!(stdout.contains("allow(hash-order)"), "{stdout}");
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg("--explain")
        .arg("no-such-rule")
        .output()
        .expect("explain unknown run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule"), "{stderr}");
    assert!(stderr.contains("dead-api"), "{stderr}");
}

#[test]
fn json_output_is_wellformed() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--format")
        .arg("json")
        .output()
        .expect("json run");
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("stdout is valid JSON");
    let findings = doc
        .get("findings")
        .and_then(|f| f.as_arr())
        .expect("findings array");
    assert_eq!(
        findings.len(),
        analyze_workspace(&fixture("bad_ws"))
            .expect("analyze bad_ws")
            .len()
    );
}

#[test]
fn real_workspace_has_no_findings() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(workspace_root())
        .output()
        .expect("run sor-check on the real workspace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(stdout, "sor-check: clean\n");
}

#[test]
fn stale_cost_section_is_a_usage_error() {
    let root = std::env::temp_dir().join(format!("sor_check_stale_{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create temp root");
    std::fs::write(
        root.join("check.toml"),
        "[panics]\npublic_crates = [\"sor-core\"]\n\n[hotpath]\nentries = [\"sample_k\"]\n",
    )
    .expect("write check.toml");
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(&root)
        .output()
        .expect("run sor-check on a stale config");
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("check.toml:5: unknown configuration key [hotpath] entries"),
        "{stderr}"
    );
}

#[test]
fn binary_rejects_missing_root() {
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("no_such_dir"))
        .status()
        .expect("run sor-check on missing dir");
    assert_eq!(status.code(), Some(2), "expected exit 2 on bad root");
}

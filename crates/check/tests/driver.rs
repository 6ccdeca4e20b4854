//! End-to-end tests for the `sor-check` driver: the binary must exit
//! non-zero on a workspace seeded with findings, zero on a clean one,
//! and zero on the real workspace (the acceptance gate CI enforces).
//! Every rule fires on `bad_ws`, witness chains are exact, and the
//! baseline turns the gate regression-only.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers: a failed setup fails the test"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

use sor_check::analyze_workspace;
use sor_check::baseline::{parse_json, Json};

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
    for rule in [
        "panic-path",
        "unseeded-rng",
        "hash-order",
        "dead-api",
        "alloc-in-hot",
        "clone-in-loop",
        "growth-without-capacity",
        "quadratic-scan",
    ] {
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
fn alloc_in_hot_reports_the_interprocedural_chain_verbatim() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    let f = findings
        .iter()
        .find(|f| f.rule == "alloc-in-hot")
        .expect("alloc-in-hot finding");
    // entry → callee → the allocation site, with the effective loop depth
    assert_eq!(
        f.witness,
        vec![
            "sor-core::hot::hot_entry (crates/core/src/hot.rs:10)".to_string(),
            "sor-core::hot::alloc_helper (crates/core/src/hot.rs:23)".to_string(),
            "`Vec::new` at crates/core/src/hot.rs:24 (loop depth 1)".to_string(),
        ],
        "{:?}",
        f.witness
    );
    assert!(
        f.message.contains("effective loop depth 1")
            && f.message.contains("hot path of `hot_entry`"),
        "{}",
        f.message
    );
}

#[test]
fn clone_in_loop_reports_depth_and_chain_verbatim() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    let f = findings
        .iter()
        .find(|f| f.rule == "clone-in-loop")
        .expect("clone-in-loop finding");
    assert_eq!(
        f.witness,
        vec![
            "sor-core::hot::hot_entry (crates/core/src/hot.rs:10)".to_string(),
            "sor-core::hot::clone_spin (crates/core/src/hot.rs:29)".to_string(),
            "`name.clone()` at crates/core/src/hot.rs:32 (loop depth 1)".to_string(),
        ],
        "{:?}",
        f.witness
    );
}

#[test]
fn growth_and_scan_report_two_step_witnesses_verbatim() {
    let findings = analyze_workspace(&fixture("bad_ws")).expect("analyze bad_ws");
    let growth = findings
        .iter()
        .find(|f| f.rule == "growth-without-capacity")
        .expect("growth-without-capacity finding");
    assert_eq!(
        growth.witness,
        vec![
            "`out` constructed without capacity at crates/core/src/hot.rs:41".to_string(),
            "`out.push(..)` in a loop at crates/core/src/hot.rs:43 (loop depth 1)".to_string(),
        ],
        "{:?}",
        growth.witness
    );
    let scan = findings
        .iter()
        .find(|f| f.rule == "quadratic-scan")
        .expect("quadratic-scan finding");
    assert_eq!(
        scan.witness,
        vec![
            "loop over `xs` at crates/core/src/hot.rs:52 (loop depth 1)".to_string(),
            "`ys.contains(..)` at crates/core/src/hot.rs:53".to_string(),
        ],
        "{:?}",
        scan.witness
    );
}

#[test]
fn sarif_reports_alloc_in_hot() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--no-baseline")
        .arg("--format")
        .arg("sarif")
        .output()
        .expect("sarif run");
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("stdout is valid JSON");
    let results = doc.get("runs").and_then(|r| r.as_arr()).expect("runs")[0]
        .get("results")
        .and_then(|r| r.as_arr())
        .expect("results array");
    let alloc = results
        .iter()
        .find(|r| r.get("ruleId").and_then(|id| id.as_str()) == Some("alloc-in-hot"))
        .expect("alloc-in-hot SARIF result");
    let msg = alloc
        .get("message")
        .and_then(|m| m.get("text"))
        .and_then(|t| t.as_str())
        .expect("message text");
    assert!(msg.contains("via sor-core::hot::hot_entry"), "{msg}");
}

#[test]
fn text_output_includes_the_cost_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--no-baseline")
        .arg("--format")
        .arg("text")
        .output()
        .expect("text run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hot-path cost report"), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.trim_start().starts_with("hot_entry")),
        "{stdout}"
    );
}

#[test]
fn hotpath_report_flag_writes_cost_json() {
    let tmp = std::env::temp_dir().join("sor_check_bad_ws_hotpath.json");
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--no-baseline")
        .arg("--hotpath-report")
        .arg(&tmp)
        .status()
        .expect("hotpath-report run");
    assert_eq!(status.code(), Some(1), "seeded findings still gate");
    let text = std::fs::read_to_string(&tmp).expect("cost report written");
    std::fs::remove_file(&tmp).ok();
    let doc = parse_json(&text).expect("cost report is valid JSON");
    let entries = doc
        .get("entries")
        .and_then(|e| e.as_arr())
        .expect("entries array");
    let hot = entries
        .iter()
        .find(|e| e.get("entry").and_then(|s| s.as_str()) == Some("hot_entry"))
        .expect("hot_entry cost row");
    assert_eq!(hot.get("functions"), Some(&Json::Num(5.0)));
    assert_eq!(hot.get("alloc_sites"), Some(&Json::Num(2.0)));
    assert_eq!(hot.get("clone_sites"), Some(&Json::Num(1.0)));
    assert_eq!(hot.get("max_loop_depth"), Some(&Json::Num(1.0)));
}

#[test]
fn explain_prints_rule_doc_and_rejects_unknown_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg("--explain")
        .arg("alloc-in-hot")
        .output()
        .expect("explain run");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("alloc-in-hot — "), "{stdout}");
    assert!(stdout.contains("allow(alloc-in-hot)"), "{stdout}");
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg("--explain")
        .arg("no-such-rule")
        .output()
        .expect("explain unknown run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule"), "{stderr}");
    assert!(stderr.contains("quadratic-scan"), "{stderr}");
}

#[test]
fn baseline_makes_the_gate_regression_only() {
    let tmp = std::env::temp_dir().join("sor_check_bad_ws_baseline.json");
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--write-baseline")
        .arg(&tmp)
        .status()
        .expect("write baseline");
    assert_eq!(status.code(), Some(0), "--write-baseline must succeed");
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--baseline")
        .arg(&tmp)
        .arg("--fail-on-new")
        .status()
        .expect("gated run");
    std::fs::remove_file(&tmp).ok();
    assert_eq!(
        status.code(),
        Some(0),
        "every finding is baselined, so the gate must pass"
    );
}

#[test]
fn sarif_output_is_wellformed() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--no-baseline")
        .arg("--format")
        .arg("sarif")
        .output()
        .expect("sarif run");
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("stdout is valid JSON");
    assert_eq!(
        doc.get("version").and_then(|v| v.as_str()),
        Some("2.1.0"),
        "SARIF version"
    );
    let runs = doc
        .get("runs")
        .and_then(|r| r.as_arr())
        .expect("runs array");
    assert!(!runs.is_empty());
    let results = runs[0]
        .get("results")
        .and_then(|r| r.as_arr())
        .expect("results array");
    assert!(
        results
            .iter()
            .any(|r| { r.get("ruleId").and_then(|id| id.as_str()) == Some("panic-path") }),
        "SARIF results must carry semantic ruleIds"
    );
}

#[test]
fn json_output_is_wellformed() {
    let out = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(fixture("bad_ws"))
        .arg("--no-baseline")
        .arg("--format")
        .arg("json")
        .output()
        .expect("json run");
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("stdout is valid JSON");
    let new = doc.get("new").and_then(|f| f.as_arr()).expect("new array");
    assert!(!new.is_empty());
    assert!(doc.get("baselined").is_some(), "baselined array present");
}

#[test]
fn real_workspace_gate_passes_with_committed_baseline() {
    let status = Command::new(env!("CARGO_BIN_EXE_sor-check"))
        .arg(workspace_root())
        .arg("--fail-on-new")
        .status()
        .expect("run sor-check on the real workspace");
    assert_eq!(
        status.code(),
        Some(0),
        "the real workspace must have no findings beyond check-baseline.json"
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

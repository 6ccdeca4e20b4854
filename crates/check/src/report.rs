//! Unified findings and the three output formats.
//!
//! Every rule reports a [`Finding`]. A finding carries an optional
//! *witness* — for panic-reachability, the shortest call chain from the
//! reported public function to the offending site.
//!
//! Formats: `text` for humans, `json` for scripting, `sarif` (2.1.0)
//! for code-scanning UIs. All three are hand-rolled writers — the
//! registry is unreachable from CI, so no `serde`.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Identifier and one-line description of every rule, in reporting
/// order (used for SARIF rule metadata and `--explain`).
pub const RULE_DESCRIPTIONS: [(&str, &str); 4] = [
    (
        "panic-path",
        "no panic reachable from public solver-crate functions",
    ),
    (
        "unseeded-rng",
        "functions constructing RNGs take a seed or Rng parameter",
    ),
    (
        "hash-order",
        "no HashMap/HashSet iteration order in solver/sampler output",
    ),
    (
        "dead-api",
        "public items are referenced somewhere outside their crate",
    ),
];

/// Long-form documentation per rule for `sor-check --explain <rule>`:
/// `(id, doc, config keys)`.
pub fn explain(id: &str) -> Option<String> {
    let (doc, keys): (&str, &str) = match id {
        "panic-path" => (
            "No panic site may be reachable from a pub fn of the configured crates,\n\
             over the workspace call graph; the witness is the shortest call chain.\n\
             A site is also excused by the compiler-checked exception on its\n\
             statement: #[expect(clippy::expect_used, reason = \"..\")] (or\n\
             clippy::unwrap_used / clippy::panic), which fails the build once stale.",
            "[panics] public_crates, include_indexing, index_crates",
        ),
        "unseeded-rng" => (
            "Functions of the configured crates that construct an RNG must take a\n\
             seed or Rng parameter; from_entropy/thread_rng-style constructors flag.",
            "[determinism] rng_crates",
        ),
        "hash-order" => (
            "Solver/sampler crates must not iterate HashMap/HashSet locals in hash\n\
             order — switch to BTreeMap or sort before iterating.",
            "[determinism] order_crates",
        ),
        "dead-api" => (
            "pub items of the configured crates must be referenced somewhere outside\n\
             their own crate.",
            "[dead-api] crates",
        ),
        _ => return None,
    };
    let (_, short) = RULE_DESCRIPTIONS.iter().find(|(i, _)| *i == id)?;
    Some(format!(
        "{id} — {short}\n\n{doc}\n\nconfig: {keys}\n\nallow syntax: // sor-check: allow({id}) — <justification>\n"
    ))
}

/// One finding of one rule.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable rule identifier (see [`RULE_DESCRIPTIONS`]).
    pub rule: String,
    /// Workspace-relative path.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Item path the finding anchors to (`sor-flow::restricted::solve`),
    /// empty for purely positional findings.
    pub symbol: String,
    /// Human-oriented message.
    pub message: String,
    /// Optional witness chain, outermost first. For `panic-path`: the
    /// call path ending in the panic site.
    pub witness: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )?;
        for (i, step) in self.witness.iter().enumerate() {
            write!(f, "\n    {}{}", if i == 0 { "via " } else { "  → " }, step)?;
        }
        Ok(())
    }
}

/// Render the human report: every finding in full, then a summary line.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    if findings.is_empty() {
        let _ = writeln!(out, "sor-check: clean");
    } else {
        let _ = writeln!(out, "sor-check: {} finding(s)", findings.len());
    }
    out
}

/// Escape a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Write one finding as a JSON object.
fn finding_json(f: &Finding, indent: &str) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{indent}{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"symbol\": \"{}\", \"message\": \"{}\"",
        json_escape(&f.rule),
        json_escape(&f.file.display().to_string()),
        f.line,
        json_escape(&f.symbol),
        json_escape(&f.message),
    );
    if !f.witness.is_empty() {
        let steps: Vec<String> = f
            .witness
            .iter()
            .map(|w| format!("\"{}\"", json_escape(w)))
            .collect();
        let _ = write!(out, ", \"witness\": [{}]", steps.join(", "));
    }
    out.push('}');
    out
}

/// Render the machine-readable JSON report.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"tool\": \"sor-check\",\n  \"findings\": [\n");
    let items: Vec<String> = findings.iter().map(|f| finding_json(f, "    ")).collect();
    out.push_str(&items.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Render a SARIF 2.1.0 log.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"sor-check\",\n");
    out.push_str(
        "          \"informationUri\": \"https://example.invalid/semi-oblivious-routing\",\n",
    );
    out.push_str("          \"rules\": [\n");
    let rules: Vec<String> = RULE_DESCRIPTIONS
        .iter()
        .map(|(id, desc)| {
            format!(
                "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
                json_escape(id),
                json_escape(desc)
            )
        })
        .collect();
    out.push_str(&rules.join(",\n"));
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [\n");
    let results: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "        {{\"ruleId\": \"{}\", \"level\": \"error\", \
                 \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
                 {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
                json_escape(&f.rule),
                json_escape(&full_message(f)),
                json_escape(&f.file.display().to_string()),
                f.line.max(1),
            )
        })
        .collect();
    out.push_str(&results.join(",\n"));
    out.push_str("\n      ]\n    }\n  ]\n}\n");
    out
}

/// Message with the witness chain folded in (SARIF has one text field).
fn full_message(f: &Finding) -> String {
    if f.witness.is_empty() {
        return f.message.clone();
    }
    format!("{} [via {}]", f.message, f.witness.join(" → "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: "panic-path".into(),
            file: PathBuf::from("crates/flow/src/x.rs"),
            line: 10,
            symbol: "sor-flow::x::f".into(),
            message: "panic reachable".into(),
            witness: vec![
                "sor-flow::x::f".into(),
                ".expect(..) at crates/flow/src/y.rs:3".into(),
            ],
        }
    }

    #[test]
    fn text_report_shows_witness_and_counts() {
        let text = render_text(&[sample()]);
        assert!(text.contains("via sor-flow::x::f"), "{text}");
        assert!(text.contains("sor-check: 1 finding(s)"), "{text}");
        assert_eq!(render_text(&[]), "sor-check: clean\n");
    }

    #[test]
    fn json_is_shaped() {
        let json = render_json(&[sample()]);
        assert!(json.contains("\"findings\": ["));
        assert!(json.contains("\"rule\": \"panic-path\""));
        assert!(json.contains("\"witness\": ["));
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let s = render_sarif(&[sample()]);
        assert!(s.contains("sarif-2.1.0.json"));
        assert!(s.contains("\"ruleId\": \"panic-path\""));
        for (id, _) in RULE_DESCRIPTIONS {
            assert!(s.contains(&format!("\"id\": \"{id}\"")), "{id} missing");
        }
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}

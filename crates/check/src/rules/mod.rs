//! The rules, each built on the item graph.
//!
//! | id | meaning |
//! |----|---------|
//! | `panic-path` | no panic reachable from `pub` fns of the configured crates, with a shortest witness call chain |
//! | `unseeded-rng` | functions constructing an RNG take a seed/`Rng` parameter |
//! | `hash-order` | no `HashMap`/`HashSet` iteration order observable in sampler/solver code |
//! | `dead-api` | `pub` items are referenced somewhere outside their own crate |
//!
//! Every rule honors a `sor-check: allow(<id>)` comment on the same line,
//! the line directly above, or the declaration line of the owning item,
//! but only when it carries a justification after the closing
//! parenthesis (`// sor-check: allow(id) — reason`). A bare allow is
//! ignored. `panic-path` also honors the compiler-checked form of the
//! same exception: a site inside the statement, match arm or item that a
//! `#[expect(clippy::expect_used | clippy::unwrap_used | clippy::panic,
//! reason = "…")]` attribute annotates.

use crate::config::Config;
use crate::graph::{ItemGraph, Workspace};
use crate::items::SourceFile;
use crate::report::Finding;

pub mod dead_api;
pub mod determinism;
pub mod panics;

/// Run every rule over a loaded workspace.
pub fn run_semantic(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let graph = ItemGraph::build(ws);
    let mut out = panics::run(ws, &graph, cfg);
    out.extend(determinism::run(ws, cfg));
    out.extend(dead_api::run(ws, cfg));
    out
}

/// Parse the `a, b` id list of a `sor-check: allow(a, b)` marker out of
/// a raw source line.
fn parse_allow_ids(line: &str, marker: &str) -> Vec<String> {
    let Some(pos) = line.find(marker) else {
        return Vec::new();
    };
    let rest = &line[pos + marker.len()..];
    let Some(end) = rest.find(')') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .map(|id| id.trim().to_string())
        .filter(|id| !id.is_empty())
        .collect()
}

/// Does the text after `marker`'s closing parenthesis on `line` carry a
/// justification — at least three alphanumeric characters of prose?
/// `// sor-check: allow(hash-order) — keys are sorted before output`
/// does; a bare `// sor-check: allow(hash-order)` does not.
fn justified(line: &str, marker: &str) -> bool {
    let Some(pos) = line.find(marker) else {
        return false;
    };
    let rest = &line[pos + marker.len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    prose(&rest[close + 1..])
}

/// At least three alphanumeric characters of prose in `text`.
fn prose(text: &str) -> bool {
    text.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .take(3)
        .count()
        >= 3
}

/// Does line `line_no` (1-based) of `file` carry a *justified*
/// allowlist comment for rule `id` — on the same line, the line
/// directly above, or as a file-wide `allow-file`?
pub(crate) fn allows(file: &SourceFile, line_no: usize, id: &str) -> bool {
    let idx = line_no.saturating_sub(1);
    let hit = |l: &str, marker: &str| -> bool {
        parse_allow_ids(l, marker).iter().any(|a| a == id) && justified(l, marker)
    };
    let at = |i: usize| -> bool { file.raw.get(i).is_some_and(|l| hit(l, "sor-check: allow(")) };
    if at(idx) || (idx > 0 && at(idx - 1)) {
        return true;
    }
    file.raw.iter().any(|l| hit(l, "sor-check: allow-file("))
}

/// The clippy lints whose `#[expect]` doubles as a `panic-path` allow.
const PANIC_LINTS: [&str; 3] = [
    "clippy::expect_used",
    "clippy::unwrap_used",
    "clippy::panic",
];

/// Is line `line_no` (1-based) of `file` inside the statement, match arm
/// or item annotated by an `#[expect(<panic lint>, reason = "…")]`
/// attribute with a non-empty reason? rustc fails the build when such an
/// expectation goes unfulfilled, so the exception cannot go stale.
pub(crate) fn expects_panic(file: &SourceFile, line_no: usize) -> bool {
    let site = line_no.saturating_sub(1);
    site < file.raw.len()
        && (0..=site).any(|a| {
            panic_expectation(file, a).is_some_and(|attr_end| {
                attr_end <= site && annotated_end(file, attr_end).is_some_and(|end| site <= end)
            })
        })
}

/// If an `#[expect(..)]` attribute naming a panic lint with a justified
/// `reason` starts on 0-based line `a`, the line it ends on.
fn panic_expectation(file: &SourceFile, a: usize) -> Option<usize> {
    if !file.raw[a].trim_start().starts_with("#[expect(") {
        return None;
    }
    let end = (a..file.raw.len()).find(|&i| file.stripped[i].contains(")]"))?;
    let text = file.raw[a..=end].join(" ");
    let names_lint = PANIC_LINTS.iter().any(|l| {
        text.match_indices(l).any(|(p, _)| {
            !text[p + l.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
        })
    });
    let reason = text
        .find("reason")
        .and_then(|p| text[p..].split_once('"'))
        .and_then(|(_, r)| r.split_once('"'))
        .is_some_and(|(r, _)| prose(r));
    (names_lint && reason).then_some(end)
}

/// 0-based last line of the statement, match arm or item that follows
/// the attribute ending on line `attr_end`: the first `;` or `,` at
/// bracket depth 0, the `}` that closes a block opened at depth 0 (unless
/// an `else` continues it), or the end of the enclosing block. Commas in
/// generics can only end the span early, never late, so an exception
/// never covers more than its construct.
fn annotated_end(file: &SourceFile, attr_end: usize) -> Option<usize> {
    let first = &file.stripped[attr_end];
    let after_attr = first.find(")]").map_or("", |p| &first[p + 2..]);
    let mut depth = 0i32;
    for (i, line) in file.stripped.iter().enumerate().skip(attr_end) {
        let text = if i == attr_end { after_attr } else { line };
        for (pos, c) in text.char_indices() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    let continued = text[pos + 1..].trim_start().starts_with("else");
                    if depth < 0 || (depth == 0 && c == '}' && !continued) {
                        return Some(i);
                    }
                }
                ';' | ',' if depth == 0 => return Some(i),
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;
    use std::path::Path;

    fn file(text: &str) -> SourceFile {
        parse_file(Path::new("crates/core/src/a.rs"), "sor-core", text)
    }

    #[test]
    fn justified_allow_is_honored() {
        let f =
            file("// sor-check: allow(hash-order) — keys are sorted before output\nfn f() {}\n");
        assert!(allows(&f, 2, "hash-order"));
        assert!(!allows(&f, 2, "panic-path"));
        // The compiler-checked exception: a justified `#[expect]` on the
        // statement holding the site, however far down the chain it sits.
        let e = file(
            "fn f(x: Option<u32>) -> u32 {\n    #[expect(clippy::expect_used, reason = \"caller checked x\")]\n    let y = x\n        .map(|v| v + 1)\n        .expect(\"some\");\n    y\n}\n",
        );
        assert!(expects_panic(&e, 5));
        assert!(!expects_panic(&e, 6), "the statement ends at its `;`");
        assert!(!expects_panic(&e, 1), "nothing above the attribute");
        // On a match arm it covers the arm up to its `,`.
        let arm = file(
            "fn f(r: Result<u32, E>) -> u32 {\n    match r {\n        Ok(v) => v,\n        #[expect(clippy::panic, reason = \"documented facade\")]\n        Err(e) => panic!(\"{e}\"),\n    }\n}\n",
        );
        assert!(expects_panic(&arm, 5));
        assert!(!expects_panic(&arm, 3));
        // An `else` continues the statement past the first block.
        let branch = file(
            "fn f(c: bool, x: Option<u32>) -> u32 {\n    #[expect(clippy::expect_used, reason = \"x is Some when c is false\")]\n    let v = if c {\n        0\n    } else {\n        x.expect(\"some\")\n    };\n    x.expect(\"again\")\n}\n",
        );
        assert!(expects_panic(&branch, 6));
        assert!(
            !expects_panic(&branch, 8),
            "the statement ends at its closing `;`"
        );
    }

    #[test]
    fn bare_allow_is_ignored() {
        let f = file("// sor-check: allow(hash-order)\nfn f() {}\n");
        assert!(!allows(&f, 2, "hash-order"));
        // trailing punctuation alone is not a justification
        let g = file("// sor-check: allow(hash-order) --\nfn f() {}\n");
        assert!(!allows(&g, 2, "hash-order"));
        // An `#[expect]` without a reason, with an empty one, or naming
        // a lint that is not about panics is not a panic-path allow.
        for attr in [
            "#[expect(clippy::expect_used)]",
            "#[expect(clippy::expect_used, reason = \"\")]",
            "#[expect(clippy::expect_used_not, reason = \"lookalike lint\")]",
            "#[expect(clippy::float_cmp, reason = \"exact by construction\")]",
        ] {
            let e = file(&format!(
                "fn f(x: Option<u32>) -> u32 {{\n    {attr}\n    x.expect(\"some\")\n}}\n"
            ));
            assert!(!expects_panic(&e, 3), "{attr}");
        }
    }

    #[test]
    fn allow_file_requires_justification_too() {
        let bare = file("// sor-check: allow-file(hash-order)\nfn f() {}\n");
        assert!(!allows(&bare, 2, "hash-order"));
        let just = file(
            "// sor-check: allow-file(hash-order) — generated table, audited manually\nfn f() {}\n",
        );
        assert!(allows(&just, 2, "hash-order"));
    }
}

//! RAII structured spans and the phase tree.
//!
//! [`span`] returns a guard that times its scope; guards nest through a
//! thread-local stack, so each distinct *path* of span names (e.g.
//! `sor/run` → `hierarchy/build` → `frt/tree`) becomes one node of a
//! phase tree with a call count and accumulated wall time. Span names
//! themselves may contain `/` (the workspace convention is
//! `area/action`), so tree paths are stored as segment vectors and keyed
//! internally with a separator that cannot appear in a name.
//!
//! Each node lives in the [`Recorder`] that was current when its span
//! opened. [`Recorder::phase_report`] renders the tree as an indented
//! flamegraph-style text report with per-node total time, self time (total minus direct
//! children), and share of the root span.

use crate::recorder::{Recorder, SEP};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

thread_local! {
    /// The currently open span names on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A live RAII span; created by [`span`], recorded into the phase tree
/// of the recorder that was current when it opened. Inert (and
/// allocation-free) when no recorder is installed.
#[must_use = "a span times its scope; dropping it immediately records ~0ns"]
#[derive(Debug)]
pub struct Span {
    /// `Some((start, key, recorder))` when a recorder was current at
    /// creation; the key is the full stack path, pre-joined so `Drop`
    /// does no work beyond one map update.
    live: Option<(Instant, String, Recorder)>,
}

/// Open a span named `name` for the enclosing scope. The returned guard
/// records one call and the elapsed wall time into the phase-tree node
/// identified by the stack of currently open spans on this thread.
///
/// ```
/// let rec = sor_obs::Recorder::new();
/// let _scope = rec.install();
/// let _root = sor_obs::span("doc/outer");
/// {
///     let _inner = sor_obs::span("doc/inner"); // node: doc/outer → doc/inner
/// }
/// ```
pub fn span(name: &'static str) -> Span {
    let Some(rec) = Recorder::current() else {
        return Span { live: None };
    };
    let key = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        let mut key = String::with_capacity(stack.len() * 16);
        for (i, seg) in stack.iter().enumerate() {
            if i > 0 {
                key.push(SEP);
            }
            key.push_str(seg);
        }
        key
    });
    Span {
        live: Some((Instant::now(), key, rec)),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((start, key, rec)) = self.live.take() else {
            return;
        };
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        rec.record_span(key, elapsed);
    }
}

/// One node of the phase tree at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span names from the root down to this node (names may contain
    /// `/`; the nesting structure lives in this vector, not the names).
    pub path: Vec<String>,
    /// How many times this exact path was entered.
    pub calls: u64,
    /// Accumulated wall time across all calls, in nanoseconds.
    pub total_ns: u64,
    /// `total_ns` minus the total of direct children (saturating);
    /// computed at snapshot time.
    pub self_ns: u64,
}

impl SpanSnapshot {
    /// Depth in the tree (root spans have depth 1).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// The node's own name (last path segment), or `""` for a
    /// degenerate empty path (never produced by [`span`]).
    pub fn name(&self) -> &str {
        self.path.last().map_or("", String::as_str)
    }
}

fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let ms = ns as f64 / 1e6;
    if ms >= 100.0 {
        format!("{ms:.0}ms")
    } else if ms >= 1.0 {
        format!("{ms:.2}ms")
    } else {
        format!("{ms:.3}ms")
    }
}

/// Render a snapshot of the phase tree (as produced by
/// [`crate::snapshot`]) as an indented text report. Percentages are of
/// the first root span's total.
pub fn render_phase_tree(nodes: &[SpanSnapshot]) -> String {
    if nodes.is_empty() {
        return "(no spans recorded)\n".to_string();
    }
    let root_total: u64 = nodes
        .iter()
        .filter(|n| n.depth() == 1)
        .map(|n| n.total_ns)
        .sum();
    let name_width = nodes
        .iter()
        .map(|n| 2 * (n.depth() - 1) + n.name().len())
        .max()
        .unwrap_or(0)
        .max(8);
    let mut out = String::new();
    for n in nodes {
        let indent = "  ".repeat(n.depth() - 1);
        #[allow(clippy::cast_precision_loss)]
        let pct = if root_total > 0 {
            100.0 * n.total_ns as f64 / root_total as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{indent}{name:<width$}  calls={calls:<7} total={total:>9}  self={selfv:>9}  {pct:5.1}%",
            name = n.name(),
            width = name_width - indent.len(),
            calls = n.calls,
            total = fmt_ns(n.total_ns),
            selfv = fmt_ns(n.self_ns),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let rec = Recorder::new();
        {
            let _scope = rec.install();
            let _root = span("span-test/root");
            spin(50_000);
            for _ in 0..3 {
                let _child = span("span-test/child");
                spin(10_000);
            }
            {
                let _other = span("span-test/other");
                let _grand = span("span-test/grand");
                spin(5_000);
            }
        }
        let nodes = rec.snapshot().spans;
        let paths: Vec<Vec<String>> = nodes.iter().map(|n| n.path.clone()).collect();
        assert_eq!(
            paths,
            vec![
                vec!["span-test/root".to_string()],
                vec!["span-test/root".to_string(), "span-test/child".to_string()],
                vec!["span-test/root".to_string(), "span-test/other".to_string()],
                vec![
                    "span-test/root".to_string(),
                    "span-test/other".to_string(),
                    "span-test/grand".to_string()
                ],
            ]
        );
        let root = &nodes[0];
        let child = &nodes[1];
        assert_eq!(root.calls, 1);
        assert_eq!(child.calls, 3);
        // parent strictly contains its children
        assert!(root.total_ns >= child.total_ns + nodes[2].total_ns);
        // self = total − direct children (grandchild subtracts from
        // `other`, not from root)
        assert_eq!(
            root.self_ns,
            root.total_ns - child.total_ns - nodes[2].total_ns
        );
    }

    #[test]
    fn spans_without_a_recorder_record_nothing() {
        let rec = Recorder::new();
        {
            let _s = span("span-test/ghost");
        }
        assert!(rec.snapshot().spans.is_empty());
    }

    #[test]
    fn render_includes_names_and_handles_empty() {
        assert!(render_phase_tree(&[]).contains("no spans"));
        let nodes = vec![
            SpanSnapshot {
                path: vec!["a".into()],
                calls: 1,
                total_ns: 2_000_000,
                self_ns: 1_000_000,
            },
            SpanSnapshot {
                path: vec!["a".into(), "b".into()],
                calls: 4,
                total_ns: 1_000_000,
                self_ns: 1_000_000,
            },
        ];
        let text = render_phase_tree(&nodes);
        assert!(text.contains("a "));
        assert!(text.contains("  b"));
        assert!(text.contains("calls=4"));
        assert!(text.contains("100.0%"));
    }
}

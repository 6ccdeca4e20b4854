//! `perf --scale`: the Räcke set-up across graph sizes.
//!
//! Builds the 6-tree Räcke mixture (the serving engine's default) on
//! random 4-regular expanders with `n = 2^k` vertices, `k = 8..=max`, and
//! reports per size: the build wall, the total FRT tree nodes, the
//! vertices the FRT searches settled (`oblivious/frt/settled`) and the
//! process's peak resident set (`VmHWM` from `/proc/self/status`; sizes
//! run in increasing order, so each row's high-water mark is that size's).
//! A least-squares fit of `ln wall` and `ln settled` against `ln n` gives
//! the scaling exponents. `settled` is deterministic, so its exponent is
//! gated ([`gate_scale`]); wall depends on the machine and is only
//! printed.
//!
//! A size whose predicted wall exceeds the per-size budget is reported
//! as skipped, together with every larger size. The prediction is the
//! last measured wall times the growth factor of the last doubling.

use super::rng_for;
use sor_graph::gen;
use sor_oblivious::{FrtTree, RaeckeRouting};
use sor_obs::Recorder;
use std::fmt::Write as _;
use std::time::Instant;

/// Smallest size exponent of the sweep (`n = 2^8`).
pub const SCALE_MIN_K: u32 = 8;
/// Per-size wall budget of `perf --scale`, in seconds.
pub const SCALE_BUDGET_S: f64 = 60.0;
/// Trees in the Räcke mixture, as in the serving engine's default.
const TREES: usize = 6;
/// Exponents are fitted over sizes from `2^FIT_MIN_K` up; smaller builds
/// take a few milliseconds and are dominated by fixed costs.
const FIT_MIN_K: u32 = 10;
/// Largest accepted `settled` exponent. The pruned FRT searches read
/// 1.43–1.48 for any sweep from `2^10` up to `2^12`…`2^16`; searches that
/// stop pruning read ~2.
const SETTLED_EXPONENT_MAX: f64 = 1.6;

/// What one measured size cost.
#[derive(Clone, Debug)]
pub struct ScaleMeasure {
    /// Wall time of the Räcke build, in seconds.
    pub wall_s: f64,
    /// Nodes over all trees of the mixture.
    pub tree_nodes: usize,
    /// Vertices settled by every Dijkstra of every FRT build.
    pub settled: u64,
    /// Process peak resident set after the build, in kB (`None` where
    /// `/proc/self/status` is unavailable).
    pub vm_hwm_kb: Option<u64>,
}

/// One size of the sweep.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Vertex count.
    pub n: usize,
    /// `Err(predicted wall in seconds)` when the size was skipped.
    pub result: Result<ScaleMeasure, f64>,
}

/// Run the sweep over `n = 2^8 ..= 2^max_k` with `budget_s` seconds per
/// size.
pub fn run_scale(max_k: u32, budget_s: f64) -> Vec<ScaleRow> {
    let mut rows: Vec<ScaleRow> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    for k in SCALE_MIN_K..=max_k {
        let n = 1usize << k;
        let predicted = match walls.as_slice() {
            [] => 0.0,
            [w] => w * 4.0,
            [.., a, b] => b * (b / a).max(1.0),
        };
        let skipped = rows.last().is_some_and(|r| r.result.is_err());
        if skipped || predicted > budget_s {
            rows.push(ScaleRow {
                n,
                result: Err(predicted),
            });
            continue;
        }
        let g = gen::random_regular(n, 4, &mut rng_for(0x5ca1e));
        let rec = Recorder::new();
        let t0 = Instant::now();
        let routing = {
            let _scope = rec.install();
            RaeckeRouting::build(g, TREES, &mut rng_for(0x5ca1f))
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let settled = rec
            .snapshot()
            .counters
            .iter()
            .find(|c| c.name == "oblivious/frt/settled")
            .map_or(0, |c| c.value);
        let tree_nodes = routing.trees().iter().map(FrtTree::len).sum();
        drop(routing);
        walls.push(wall_s);
        rows.push(ScaleRow {
            n,
            result: Ok(ScaleMeasure {
                wall_s,
                tree_nodes,
                settled,
                vm_hwm_kb: vm_hwm_kb(),
            }),
        });
    }
    rows
}

/// Peak resident set of this process in kB, from `/proc/self/status`.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Least-squares slope of `ln y` against `ln n` over measured sizes from
/// `2^FIT_MIN_K` up; `None` with fewer than two such sizes.
fn loglog_slope(rows: &[ScaleRow], y: impl Fn(&ScaleMeasure) -> f64) -> Option<f64> {
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.n >= 1 << FIT_MIN_K)
        .filter_map(|r| r.result.as_ref().ok().map(|m| (r.n, y(m))))
        .filter(|&(_, v)| v > 0.0)
        .map(|(n, v)| ((n as f64).ln(), v.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let k = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / k;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / k;
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    Some(sxy / sxx)
}

/// The sweep as a text table plus the fitted exponents.
pub fn render_scale(rows: &[ScaleRow], budget_s: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perf --scale: Räcke build ({TREES} FRT trees) on expander:Nx4, budget {budget_s} s per size"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>9} {:>11} {:>12} {:>10}",
        "n", "wall_s", "tree_nodes", "settled", "vm_hwm_mb"
    );
    for r in rows {
        match &r.result {
            Ok(m) => {
                let hwm = m.vm_hwm_kb.map_or_else(
                    || "n/a".to_string(),
                    |kb| format!("{:.1}", kb as f64 / 1024.0),
                );
                let _ = writeln!(
                    out,
                    "{:>8} {:>9.3} {:>11} {:>12} {:>10}",
                    r.n, m.wall_s, m.tree_nodes, m.settled, hwm
                );
            }
            Err(predicted) => {
                let _ = writeln!(
                    out,
                    "{:>8} skipped (predicted {predicted:.1} s > budget {budget_s} s)",
                    r.n
                );
            }
        }
    }
    let fmt = |s: Option<f64>| s.map_or_else(|| "n/a".to_string(), |v| format!("{v:.2}"));
    let _ = writeln!(
        out,
        "log-log exponent over n >= {}: wall {}, settled {}",
        1u32 << FIT_MIN_K,
        fmt(loglog_slope(rows, |m| m.wall_s)),
        fmt(loglog_slope(rows, |m| m.settled as f64)),
    );
    out
}

/// The scale gate: a verdict line, and whether the `settled` exponent
/// stays within [`SETTLED_EXPONENT_MAX`]. A sweep with fewer than two
/// measured sizes from `2^FIT_MIN_K` up has nothing to fit and passes.
pub fn gate_scale(rows: &[ScaleRow]) -> (String, bool) {
    match loglog_slope(rows, |m| m.settled as f64) {
        Some(e) if e > SETTLED_EXPONENT_MAX => (
            format!("scale gate: FAIL — settled exponent {e:.2} > {SETTLED_EXPONENT_MAX}"),
            false,
        ),
        Some(e) => (
            format!("scale gate: PASS — settled exponent {e:.2} <= {SETTLED_EXPONENT_MAX}"),
            true,
        ),
        None => (
            format!(
                "scale gate: nothing to fit — fewer than two measured sizes with n >= {}",
                1u32 << FIT_MIN_K
            ),
            true,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(n: usize, wall_s: f64, settled: u64) -> ScaleRow {
        ScaleRow {
            n,
            result: Ok(ScaleMeasure {
                wall_s,
                tree_nodes: 0,
                settled,
                vm_hwm_kb: None,
            }),
        }
    }

    #[test]
    fn exponents_fit_a_power_law_and_skips_are_reported() {
        let square = |n: usize| (n * n) as u64;
        let rows = vec![
            measured(256, 1.0, square(256)),
            measured(1024, 1.0, square(1024)),
            measured(2048, 8.0, square(2048)),
            measured(4096, 64.0, square(4096)),
            ScaleRow {
                n: 8192,
                result: Err(512.0),
            },
        ];
        let slope = loglog_slope(&rows, |m| m.wall_s).unwrap();
        assert!((slope - 3.0).abs() < 1e-9, "{slope}");
        let text = render_scale(&rows, 100.0);
        assert!(text.contains("skipped (predicted 512.0 s > budget 100 s)"));
        assert!(text.contains("wall 3.00, settled 2.00"));
        // settled ∝ n² fails the gate, naming the exponent.
        let (verdict, pass) = gate_scale(&rows);
        assert!(!pass);
        assert_eq!(verdict, "scale gate: FAIL — settled exponent 2.00 > 1.6");
        // settled ∝ n^1.4 passes: n = 2^(5j) gives settled = 2^(7j) exactly.
        let rows = vec![
            measured(1 << 10, 1.0, 1 << 14),
            measured(1 << 15, 1.0, 1 << 21),
            measured(1 << 20, 1.0, 1 << 28),
        ];
        let (verdict, pass) = gate_scale(&rows);
        assert!(pass);
        assert_eq!(verdict, "scale gate: PASS — settled exponent 1.40 <= 1.6");
        // One fitted size is nothing to gate.
        assert!(gate_scale(&rows[..1]).1);
    }

    #[test]
    fn zero_budget_measures_only_the_smallest_size() {
        let rows = run_scale(SCALE_MIN_K + 1, 0.0);
        assert!(rows[0].result.is_ok());
        assert!(rows[1].result.is_err());
    }
}

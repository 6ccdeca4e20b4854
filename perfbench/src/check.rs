//! The output checker run on every published snapshot, and the digest
//! of the published routes.

use sor_graph::{EdgeId, Graph, NodeId};
use sor_serve::EpochSnapshot;
use std::collections::BTreeMap;

/// Relative tolerance for rate sums and the recomputed congestion.
const TOL: f64 = 1e-9;

/// What one checked epoch contributes to the run's totals.
#[derive(Debug, Default)]
pub struct Checked {
    /// Requests of pairs the snapshot routed.
    pub served_requests: u64,
    /// Pairs the snapshot routed.
    pub served_pairs: u64,
    /// Edges carrying positive load, ascending (failure candidates).
    pub loaded: Vec<EdgeId>,
}

/// Check `snap` against the requests the engine admitted (`admitted`:
/// pair -> (request count, summed amount)) and the edges failed while
/// it ran.
pub fn check_snapshot(
    g: &Graph,
    failed: &[EdgeId],
    admitted: &BTreeMap<(NodeId, NodeId), (u64, f64)>,
    snap: &EpochSnapshot,
    loads: &mut Vec<f64>,
) -> Result<Checked, String> {
    let epoch = snap.epoch;
    let requests: u64 = admitted.values().map(|&(n, _)| n).sum();
    if u64::try_from(snap.admitted).ok() != Some(requests) {
        return Err(format!(
            "epoch {epoch}: snapshot admitted {} requests, harness admitted {requests}",
            snap.admitted
        ));
    }
    loads.clear();
    loads.resize(g.num_edges(), 0.0);
    let mut out = Checked::default();
    let mut prev: Option<(NodeId, NodeId)> = None;
    for r in &snap.routes {
        let pair = (r.s, r.t);
        if prev.is_some_and(|p| p >= pair) {
            return Err(format!(
                "epoch {epoch}: pair {pair:?} repeated or out of order"
            ));
        }
        prev = Some(pair);
        let Some(&(count, amount)) = admitted.get(&pair) else {
            return Err(format!(
                "epoch {epoch}: routed pair {pair:?} was not admitted"
            ));
        };
        if (r.demand - amount).abs() > TOL * amount {
            return Err(format!(
                "epoch {epoch}: pair {pair:?} demand {} != admitted {amount}",
                r.demand
            ));
        }
        let mut total = 0.0;
        for (edges, rate) in &r.paths {
            if !(rate.is_finite() && *rate > 0.0) {
                return Err(format!("epoch {epoch}: pair {pair:?} has rate {rate}"));
            }
            walk(g, failed, r.s, r.t, edges)
                .map_err(|e| format!("epoch {epoch}: pair {pair:?}: {e}"))?;
            for e in edges {
                loads[e.index()] += rate;
            }
            total += rate;
        }
        if (total - r.demand).abs() > TOL * r.demand {
            return Err(format!(
                "epoch {epoch}: pair {pair:?} rates sum to {total}, demand {}",
                r.demand
            ));
        }
        out.served_requests += count;
        out.served_pairs += 1;
    }
    let routed = snap.routes.len();
    if routed + snap.unserved_pairs != admitted.len() {
        return Err(format!(
            "epoch {epoch}: {routed} routed + {} unserved != {} admitted pairs",
            snap.unserved_pairs,
            admitted.len()
        ));
    }
    let congestion = loads
        .iter()
        .zip(g.edges())
        .map(|(&l, e)| l / e.cap)
        .fold(0.0, f64::max);
    if (congestion - snap.congestion).abs() > TOL * congestion.max(1.0) {
        return Err(format!(
            "epoch {epoch}: recomputed congestion {congestion} != published {}",
            snap.congestion
        ));
    }
    out.loaded = (0..g.num_edges())
        .filter(|&i| loads[i] > 0.0)
        .map(EdgeId::from_usize)
        .collect();
    Ok(out)
}

/// `edges` must be a contiguous walk from `s` to `t` in `g` that uses no
/// failed edge.
fn walk(
    g: &Graph,
    failed: &[EdgeId],
    s: NodeId,
    t: NodeId,
    edges: &[EdgeId],
) -> Result<(), String> {
    if edges.is_empty() {
        return Err("empty path".into());
    }
    let mut at = s;
    for &e in edges {
        if e.index() >= g.num_edges() {
            return Err(format!("edge {e} is not in the graph"));
        }
        if failed.contains(&e) {
            return Err(format!("path uses failed edge {e}"));
        }
        let rec = g.edge(e);
        at = if rec.u == at {
            rec.v
        } else if rec.v == at {
            rec.u
        } else {
            return Err(format!("edge {e} does not continue the walk at {at}"));
        };
    }
    if at != t {
        return Err(format!("walk ends at {at}, not {t}"));
    }
    Ok(())
}

/// FNV-1a over the published routes and congestions of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn snapshot(&mut self, snap: &EpochSnapshot) {
        self.word(snap.epoch);
        self.word(snap.congestion.to_bits());
        for r in &snap.routes {
            self.word(u64::from(r.s.0) << 32 | u64::from(r.t.0));
            self.word(r.demand.to_bits());
            for (edges, rate) in &r.paths {
                self.word(rate.to_bits());
                self.word(edges.len() as u64);
                for e in edges {
                    self.word(u64::from(e.0));
                }
            }
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

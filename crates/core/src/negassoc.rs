//! Negative association and Chernoff machinery (Appendix B), as numeric
//! functions.
//!
//! The Main Lemma's probability calculus rests on two facts: (i) the
//! per-pair sampling indicators are negatively associated (Lemmas B.2/B.3),
//! so (ii) Chernoff upper-tail bounds apply to disjoint subset sums and
//! multiply across disjoint subsets (Lemmas B.4–B.6). This module exposes
//! the bounds as functions — the E7 experiment overlays them on measured
//! failure rates — plus an empirical negative-correlation checker used by
//! tests.

/// Chernoff upper tail for a sum of 0/1 negatively associated variables
/// with mean `mu`: `P[X ≥ a] ≤ exp(a − mu − a·ln(a/mu))` for `a > mu`
/// (the `(e·mu/a)^a·e^{−mu}` form, Lemma B.5/B.6 combined); 1 otherwise.
pub fn chernoff_upper_tail(mu: f64, a: f64) -> f64 {
    assert!(mu >= 0.0 && a >= 0.0);
    if a <= mu || mu == 0.0 {
        return if mu == 0.0 && a > 0.0 { 0.0 } else { 1.0 };
    }
    (a - mu - a * (a / mu).ln()).exp().min(1.0)
}

/// The multiplied bound for `k` simultaneous lower-bounded disjoint subset
/// sums (Lemma B.4 + independence of the bounds): product of individual
/// tails.
pub fn joint_tail(tails: &[f64]) -> f64 {
    tails.iter().product::<f64>().min(1.0)
}

/// The union-bound failure estimate the Main Lemma assembles:
/// `#patterns · max-pattern-probability`, clamped to 1.
pub fn union_bound(count: f64, per_event: f64) -> f64 {
    (count * per_event).min(1.0)
}

/// The paper's predicted competitiveness shape for an `s`-sample on an
/// `n`-vertex graph (Theorem 2.5): `n^{Θ(1/s)}`, up to polylogs. Used to
/// overlay theory curves in the benches; the constant in the exponent is
/// normalized to 1.
pub fn predicted_ratio_shape(n: usize, s: usize) -> f64 {
    assert!(s >= 1);
    (n as f64).powf(1.0 / s as f64)
}

/// Empirical Pearson correlation between two samples (tests use this to
/// confirm the per-pair sampling indicators are not positively
/// correlated).
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2);
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "the tail bound is clamped to exactly 1.0 and 0.0"
    )]
    fn chernoff_basic_shape() {
        // Tail decreases in a, increases in mu; trivial below the mean.
        assert_eq!(chernoff_upper_tail(5.0, 4.0), 1.0);
        let t1 = chernoff_upper_tail(5.0, 10.0);
        let t2 = chernoff_upper_tail(5.0, 20.0);
        assert!(t2 < t1 && t1 < 1.0);
        assert!(chernoff_upper_tail(1.0, 10.0) < chernoff_upper_tail(5.0, 10.0));
        assert_eq!(chernoff_upper_tail(0.0, 3.0), 0.0);
    }

    #[test]
    fn chernoff_dominates_simulation() {
        // Binomial(100, 0.05), mean 5: measured P[X ≥ 15] must be below
        // the bound.
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 20_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            let x: u32 = (0..100).map(|_| u32::from(rng.gen_bool(0.05))).sum();
            if x >= 15 {
                hits += 1;
            }
        }
        let measured = hits as f64 / trials as f64;
        let bound = chernoff_upper_tail(5.0, 15.0);
        assert!(
            measured <= bound + 0.005,
            "measured {measured} exceeds Chernoff bound {bound}"
        );
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "the union bound saturates at exactly 1.0")]
    fn joint_and_union() {
        assert!((joint_tail(&[0.1, 0.2]) - 0.02).abs() < 1e-12);
        assert_eq!(union_bound(1e9, 0.5), 1.0);
        assert!((union_bound(10.0, 1e-3) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn predicted_shape_decreases_exponentially_in_s() {
        let n = 1 << 10;
        let r1 = predicted_ratio_shape(n, 1);
        let r2 = predicted_ratio_shape(n, 2);
        let r4 = predicted_ratio_shape(n, 4);
        assert!((r1 - 1024.0).abs() < 1e-9);
        assert!((r2 - 32.0).abs() < 1e-9);
        assert!((r4 - r2.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn multinomial_counts_negatively_correlated() {
        // Sampling k paths among s options: indicator counts of two
        // distinct options are negatively correlated (the Lemma B.2/B.3
        // structure the proof relies on).
        let mut rng = StdRng::seed_from_u64(7);
        let (k, s, trials) = (8usize, 4usize, 5000usize);
        let mut xs = Vec::with_capacity(trials);
        let mut ys = Vec::with_capacity(trials);
        for _ in 0..trials {
            let mut counts = vec![0.0; s];
            for _ in 0..k {
                counts[rng.gen_range(0..s)] += 1.0;
            }
            xs.push(counts[0]);
            ys.push(counts[1]);
        }
        let c = correlation(&xs, &ys);
        assert!(c < 0.0, "expected negative correlation, got {c}");
        assert!(c > -0.8, "implausibly strong correlation {c}");
    }
}

//! Typed numeric units for the routing domain.
//!
//! The three quantities this workspace mixes constantly — edge
//! **capacity**, traffic **rate** (demand / load), and **congestion**
//! (their quotient) — are all `f64` underneath, which makes it easy to
//! feed a load where a capacity belongs and never hear about it. These
//! newtypes make the unit part of the type: a [`Congestion`] can only be
//! built directly from a checked value or by dividing a [`Rate`] by a
//! [`Capacity`], and each constructor validates the invariants the rest
//! of the workspace assumes (finite, sign-correct).
//!
//! All three expose `.get()` and f64 comparison interop so adoption can
//! be incremental: code that still works in raw `f64` converts at the
//! boundary instead of being rewritten wholesale.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul};

/// Edge capacity: finite and strictly positive (zero-capacity edges are
/// rejected at graph construction).
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Capacity(f64);

/// A traffic rate (demand or load on an edge): finite and non-negative.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Rate(f64);

/// Congestion = load / capacity: non-negative, possibly `+inf` for the
/// "no feasible routing" sentinel, never NaN.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Congestion(f64);

impl Capacity {
    /// A validated capacity. Panics unless `value` is finite and `> 0`.
    #[inline]
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value > 0.0,
            "capacity must be positive and finite, got {value}"
        );
        Capacity(value)
    }

    /// The unit capacity (one parallel edge in the paper's model).
    pub const UNIT: Capacity = Capacity(1.0);

    /// The raw value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Rate {
    /// A validated rate. Panics unless `value` is finite and `>= 0`.
    #[inline]
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "rate must be non-negative and finite, got {value}"
        );
        Rate(value)
    }

    /// The zero rate.
    pub const ZERO: Rate = Rate(0.0);

    /// The raw value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Congestion {
    /// A validated congestion value. Panics on NaN or negative input;
    /// `+inf` is allowed (the "infeasible" sentinel used by solvers).
    #[inline]
    pub fn new(value: f64) -> Self {
        assert!(
            !value.is_nan() && value >= 0.0,
            "congestion must be non-negative and not NaN, got {value}"
        );
        Congestion(value)
    }

    /// Zero congestion (empty routing).
    pub const ZERO: Congestion = Congestion(0.0);

    /// The infeasible sentinel.
    pub const INFINITE: Congestion = Congestion(f64::INFINITY);

    /// The raw value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// The larger of two congestion values (max-congestion aggregation).
    #[inline]
    pub fn max(self, other: Congestion) -> Congestion {
        Congestion(self.0.max(other.0))
    }
}

/// load / capacity — the defining identity of congestion.
impl Div<Capacity> for Rate {
    type Output = Congestion;
    #[inline]
    fn div(self, cap: Capacity) -> Congestion {
        // cap > 0 and rate >= 0 are constructor invariants, so the
        // quotient is automatically a valid congestion.
        Congestion(self.0 / cap.0)
    }
}

impl Add for Rate {
    type Output = Rate;
    #[inline]
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl AddAssign for Rate {
    #[inline]
    fn add_assign(&mut self, rhs: Rate) {
        self.0 += rhs.0;
    }
}

impl Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        iter.fold(Rate::ZERO, |a, b| a + b)
    }
}

/// Scaling a rate by a dimensionless factor (e.g. a path weight).
impl Mul<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn mul(self, factor: f64) -> Rate {
        Rate::new(self.0 * factor)
    }
}

macro_rules! f64_interop {
    ($($t:ident),*) => {$(
        impl PartialEq<f64> for $t {
            #[inline]
            fn eq(&self, other: &f64) -> bool {
                self.0 == *other
            }
        }
        impl PartialEq<$t> for f64 {
            #[inline]
            fn eq(&self, other: &$t) -> bool {
                *self == other.0
            }
        }
        impl PartialOrd<f64> for $t {
            #[inline]
            fn partial_cmp(&self, other: &f64) -> Option<std::cmp::Ordering> {
                self.0.partial_cmp(other)
            }
        }
        impl PartialOrd<$t> for f64 {
            #[inline]
            fn partial_cmp(&self, other: &$t) -> Option<std::cmp::Ordering> {
                self.partial_cmp(&other.0)
            }
        }
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt(f)
            }
        }
        impl From<$t> for f64 {
            #[inline]
            fn from(v: $t) -> f64 {
                v.0
            }
        }
    )*};
}

f64_interop!(Capacity, Rate, Congestion);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "1.5 is exact in f64 and the unit stores it verbatim"
    )]
    fn congestion_is_rate_over_capacity() {
        let c = Rate::new(3.0) / Capacity::new(2.0);
        assert_eq!(c, Congestion::new(1.5));
        assert_eq!(c.get(), 1.5);
        assert!(c > 1.0 && c < 2.0);
        assert!(1.0 < c);
    }

    #[test]
    fn rate_arithmetic() {
        let mut r = Rate::new(1.0) + Rate::new(0.5);
        r += Rate::new(0.5);
        assert_eq!(r, 2.0);
        assert_eq!(r * 2.0, Rate::new(4.0));
        let total: Rate = [Rate::new(1.0), Rate::new(2.0)].into_iter().sum();
        assert_eq!(total, 3.0);
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "the sentinel constants are exact literals"
    )]
    fn max_and_sentinels() {
        assert_eq!(Congestion::ZERO.max(Congestion::new(2.0)), 2.0);
        assert!(Congestion::INFINITE > Congestion::new(1e300));
        assert_eq!(Capacity::UNIT.get(), 1.0);
        assert_eq!(Rate::ZERO.get(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn capacity_rejects_zero() {
        Capacity::new(0.0);
    }

    #[test]
    #[should_panic(expected = "rate must be non-negative")]
    fn rate_rejects_negative() {
        Rate::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "not NaN")]
    fn congestion_rejects_nan() {
        Congestion::new(f64::NAN);
    }

    #[test]
    fn infinity_congestion_allowed() {
        assert_eq!(Congestion::new(f64::INFINITY), Congestion::INFINITE);
    }
}

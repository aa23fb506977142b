//! Numerical helpers: error functions and root finding.
//!
//! `std` does not provide `erf`/`erfc`, and we avoid pulling in a math crate
//! for two functions. The implementations below are the classic
//! double-precision rational approximations; BER work needs wide dynamic
//! range (down to 1e-18) more than it needs the last ulp.

/// Complementary error function.
///
/// Uses the Chebyshev-fitted approximation from Numerical Recipes ("erfcc"),
/// with fractional error below 1.2e-7 everywhere — far tighter than any
/// device-parameter uncertainty in this workspace.
///
/// `#[inline]` (with [`normal_tail`] below): these sit inside the
/// figure sweeps' nested bisection solves, hundreds of calls per sweep
/// point, and are otherwise opaque across the crate boundary.
#[inline]
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal upper-tail probability `Q(x) = P(N(0,1) > x)`.
#[inline]
pub fn normal_tail(x: f64) -> f64 {
    0.5 * erfc(x / core::f64::consts::SQRT_2)
}

/// Inverse of [`normal_tail`] by bisection on `[0, 40]`.
///
/// `p` must be in `(0, 0.5]`; values at or below ~1e-300 saturate at the
/// bracket edge. Used to convert a target BER into a required Q-factor.
pub fn normal_tail_inv(p: f64) -> f64 {
    assert!(
        p > 0.0 && p <= 0.5,
        "tail probability must be in (0, 0.5], got {p}"
    );
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if normal_tail(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Find a root of `f` on `[lo, hi]` by bisection; `f(lo)` and `f(hi)` must
/// bracket a sign change. Returns the midpoint after `iters` halvings.
pub fn bisect(mut lo: f64, mut hi: f64, iters: usize, f: impl Fn(f64) -> f64) -> f64 {
    let flo = f(lo);
    assert!(
        (flo <= 0.0) != (f(hi) <= 0.0),
        "bisect: no sign change on [{lo}, {hi}]"
    );
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        if (f(mid) <= 0.0) == (flo <= 0.0) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Solve a monotonically *increasing* function for `f(x) = target` on a
/// log-spaced positive domain, expanding the bracket if needed.
pub fn solve_increasing(
    mut lo: f64,
    mut hi: f64,
    target: f64,
    f: impl Fn(f64) -> f64,
) -> Option<f64> {
    if f(lo) > target {
        return None; // already above target at the lower edge
    }
    let mut guard = 0;
    while f(hi) < target {
        hi *= 2.0;
        guard += 1;
        if guard > 200 {
            return None;
        }
    }
    for _ in 0..120 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn erfc_anchors() {
        // erfc(0) = 1, erfc(1) ≈ 0.157299, erfc(2) ≈ 0.00467773.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_73).abs() < 1e-7);
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.7, 1.5, 3.0] {
            assert!((erfc(-x) + erfc(x) - 2.0).abs() < 1e-7);
        }
    }

    #[test]
    fn q_of_7_is_1e_minus_12() {
        // The classic link-budget anchor: Q = 7.03 ⇔ BER 1e-12.
        let ber = normal_tail(7.034);
        assert!(ber > 0.9e-12 && ber < 1.1e-12, "got {ber}");
    }

    #[test]
    fn kp4_threshold_q() {
        // Pre-FEC BER 2.4e-4 (KP4 threshold) ⇔ Q ≈ 3.49.
        let q = normal_tail_inv(2.4e-4);
        assert!((q - 3.49).abs() < 0.01, "got {q}");
    }

    proptest! {
        #[test]
        fn tail_inverse_roundtrip(q in 0.1f64..8.0) {
            let p = normal_tail(q);
            let back = normal_tail_inv(p);
            prop_assert!((back - q).abs() < 1e-5);
        }

        #[test]
        fn tail_is_monotone_decreasing(a in 0f64..10.0, b in 0f64..10.0) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(normal_tail(lo) >= normal_tail(hi));
        }
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let root = bisect(0.0, 2.0, 100, |x| x * x - 2.0);
        assert!((root - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn solve_increasing_expands_bracket() {
        let x = solve_increasing(1.0, 2.0, 1000.0, |x| x).unwrap();
        assert!((x - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn solve_increasing_rejects_unreachable() {
        assert!(solve_increasing(10.0, 20.0, 5.0, |x| x).is_none());
    }
}

//! Inter-symbol interference and eye-opening analysis.
//!
//! Mosaic runs each channel close to (or a little above) the LED's −3 dB
//! bandwidth, so ISI is the dominant deterministic penalty. We model the
//! channel as a first-order lowpass (the LED's carrier response is a single
//! dominant pole) and compute the worst-case eye closure exactly, plus a
//! pattern-exhaustive simulator used to validate the closed form.

use mosaic_units::{BitRate, Db, Frequency};

/// Response of a first-order lowpass to one bit period: starting from
/// output level `y`, driving toward target `b` for time `t_bit` with time
/// constant `tau`, the end-of-period output.
fn settle(y: f64, b: f64, alpha: f64) -> f64 {
    b + (y - b) * alpha
}

/// The per-bit decay factor `α = exp(−T/τ)` for bit rate `rate` through a
/// first-order channel with −3 dB bandwidth `f3db`.
pub fn decay_factor(rate: BitRate, f3db: Frequency) -> f64 {
    let tau = 1.0 / (2.0 * core::f64::consts::PI * f3db.as_hz());
    let t_bit = 1.0 / rate.as_bps();
    (-t_bit / tau).exp()
}

/// Worst-case eye opening (fraction of full swing, 0..1) for NRZ through a
/// first-order channel, sampling at the end of each bit period.
///
/// The worst "one" is a single 1 after a long run of 0s (`1 − α`); the worst
/// "zero" is a single 0 after a long run of 1s (`α`); the eye is their
/// difference, `1 − 2α`, floored at zero (closed eye).
pub fn worst_case_eye_opening(rate: BitRate, f3db: Frequency) -> f64 {
    (1.0 - 2.0 * decay_factor(rate, f3db)).max(0.0)
}

/// ISI power penalty in dB (a non-negative *loss* to subtract from the link
/// budget), or `None` if the eye is fully closed at this rate/bandwidth.
///
/// Optical links budget eye closure as a power penalty because receiver Q
/// scales with the eye amplitude: `penalty = −10·log10(eye_opening)`.
pub fn isi_penalty(rate: BitRate, f3db: Frequency) -> Option<Db> {
    let eye = worst_case_eye_opening(rate, f3db);
    if eye <= 0.0 {
        None
    } else {
        Some(Db::from_linear(eye).invert()) // positive dB of penalty
    }
}

/// Exhaustively simulate all `2^n`-bit patterns through the first-order
/// channel and report `(worst_one, best_zero_complement)` sample levels and
/// the measured eye opening: the reference the tests check
/// [`worst_case_eye_opening`] against.
pub fn exhaustive_eye(rate: BitRate, f3db: Frequency, pattern_bits: u32) -> EyeMeasurement {
    assert!(
        (2..=16).contains(&pattern_bits),
        "pattern length must be 2..=16"
    );
    let alpha = decay_factor(rate, f3db);
    let n = pattern_bits;
    let mut min_one = f64::INFINITY;
    let mut max_zero = f64::NEG_INFINITY;
    // March every pattern, letting the channel reach the pattern-dependent
    // state; the final bit's sample is classified by the final bit value.
    for pattern in 0u32..(1 << n) {
        // Start from the worst prior state for this pattern's last bit.
        let last = (pattern >> (n - 1)) & 1;
        let mut y = if last == 1 { 0.0 } else { 1.0 };
        for k in 0..n {
            let b = ((pattern >> k) & 1) as f64;
            y = settle(y, b, alpha);
        }
        if last == 1 {
            min_one = min_one.min(y);
        } else {
            max_zero = max_zero.max(y);
        }
    }
    EyeMeasurement {
        worst_one_level: min_one,
        worst_zero_level: max_zero,
        eye_opening: (min_one - max_zero).max(0.0),
    }
}

/// Result of an exhaustive eye sweep (levels as fractions of full swing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EyeMeasurement {
    /// Lowest sampled level among bits transmitted as one.
    pub worst_one_level: f64,
    /// Highest sampled level among bits transmitted as zero.
    pub worst_zero_level: f64,
    /// `worst_one − worst_zero`, floored at zero.
    pub eye_opening: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wide_open_eye_when_bandwidth_ample() {
        // 2 Gb/s through 10 GHz: essentially no ISI.
        let eye = worst_case_eye_opening(BitRate::from_gbps(2.0), Frequency::from_ghz(10.0));
        assert!(eye > 0.99);
    }

    #[test]
    fn eye_closes_past_the_bandwidth_wall() {
        // 2 Gb/s through 100 MHz: fully closed.
        assert_eq!(
            worst_case_eye_opening(BitRate::from_gbps(2.0), Frequency::from_ghz(0.1)),
            0.0
        );
        assert!(isi_penalty(BitRate::from_gbps(2.0), Frequency::from_ghz(0.1)).is_none());
    }

    #[test]
    fn mosaic_operating_point_pays_a_modest_penalty() {
        // 2 Gb/s through a 1.1 GHz LED: open eye, penalty of a few dB.
        let pen = isi_penalty(BitRate::from_gbps(2.0), Frequency::from_ghz(1.1)).unwrap();
        assert!(pen.as_db() > 0.1 && pen.as_db() < 4.0, "got {pen}");
    }

    #[test]
    fn exhaustive_matches_closed_form() {
        let rate = BitRate::from_gbps(2.0);
        let f = Frequency::from_ghz(1.0);
        let m = exhaustive_eye(rate, f, 10);
        let analytic = worst_case_eye_opening(rate, f);
        assert!(
            (m.eye_opening - analytic).abs() < 1e-6,
            "sim {} vs analytic {}",
            m.eye_opening,
            analytic
        );
    }

    proptest! {
        #[test]
        fn penalty_monotone_in_rate(g1 in 0.2f64..5.0, g2 in 0.2f64..5.0) {
            let f = Frequency::from_ghz(1.2);
            let (lo, hi) = if g1 < g2 { (g1, g2) } else { (g2, g1) };
            let e_lo = worst_case_eye_opening(BitRate::from_gbps(lo), f);
            let e_hi = worst_case_eye_opening(BitRate::from_gbps(hi), f);
            prop_assert!(e_lo >= e_hi - 1e-12);
        }

        #[test]
        fn exhaustive_never_beats_closed_form(gbps in 0.5f64..4.0, ghz in 0.5f64..3.0, bits in 3u32..10) {
            // Longer finite patterns approach but never exceed the
            // infinite-run worst case.
            let rate = BitRate::from_gbps(gbps);
            let f = Frequency::from_ghz(ghz);
            let m = exhaustive_eye(rate, f, bits);
            prop_assert!(m.eye_opening + 1e-9 >= worst_case_eye_opening(rate, f));
        }
    }
}

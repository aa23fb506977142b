//! Q-factor and bit-error-rate math, plus receiver sensitivity solving.
//!
//! The Gaussian-noise Q-factor formalism is the standard tool for optical
//! link budgets: with decision levels `i1 > i0` and per-level RMS noise
//! `σ1, σ0`, the optimum-threshold error rate for OOK is
//! `BER = Q(q)` with `q = (i1 − i0)/(σ1 + σ0)` and `Q(·)` the normal tail.

use crate::math::{normal_tail, normal_tail_inv, solve_increasing};
use crate::noise::NoiseBudget;
use crate::photodiode::Photodiode;
use mosaic_units::Power;

/// Q-factor for OOK given the two photocurrent levels and their noise.
pub fn q_factor_ook(i1: f64, i0: f64, sigma1: f64, sigma0: f64) -> f64 {
    assert!(sigma1 > 0.0 && sigma0 > 0.0, "noise must be positive");
    (i1 - i0) / (sigma1 + sigma0)
}

/// OOK bit-error rate at Q-factor `q`.
pub fn ber_ook(q: f64) -> f64 {
    normal_tail(q)
}

/// PAM4 bit-error rate at per-eye Q-factor `q`, Gray-coded:
/// `BER ≈ (3/4)·Q(q)` (3 eyes, 2 bits/symbol, adjacent-level errors).
pub fn ber_pam4(q: f64) -> f64 {
    0.75 * normal_tail(q)
}

/// The Q-factor required to achieve a target OOK BER.
pub fn q_for_ber(ber: f64) -> f64 {
    normal_tail_inv(ber)
}

/// An OOK optical receiver: photodiode + noise budget + the transmitter's
/// extinction ratio, enough to answer "what average power do I need?".
#[derive(Debug, Clone, PartialEq)]
pub struct OokReceiver {
    /// The detector.
    pub pd: Photodiode,
    /// The noise environment (TIA thermal + shot + optional RIN).
    pub noise: NoiseBudget,
    /// Transmitter extinction ratio `P1/P0` (linear, > 1).
    pub extinction_ratio: f64,
}

impl OokReceiver {
    /// Split an average received power into the one/zero levels implied by
    /// the extinction ratio: `P1 = 2·P·r/(r+1)`, `P0 = 2·P/(r+1)`.
    pub fn levels(&self, avg: Power) -> (Power, Power) {
        let r = self.extinction_ratio;
        assert!(r > 1.0, "extinction ratio must exceed 1, got {r}");
        let p = avg.as_watts();
        (
            Power::from_watts(2.0 * p * r / (r + 1.0)),
            Power::from_watts(2.0 * p / (r + 1.0)),
        )
    }

    /// Q-factor at a given average received power.
    pub fn q_at(&self, avg: Power) -> f64 {
        let (p1, p0) = self.levels(avg);
        let i1 = self.pd.photocurrent(p1) + self.pd.dark_current_a;
        let i0 = self.pd.photocurrent(p0) + self.pd.dark_current_a;
        q_factor_ook(i1, i0, self.noise.total_a(i1), self.noise.total_a(i0))
    }

    /// BER at a given average received power.
    pub fn ber_at(&self, avg: Power) -> f64 {
        ber_ook(self.q_at(avg))
    }

    /// Sensitivity: the lowest average received power achieving `target_ber`.
    /// Returns `None` if no power below ~1 W suffices (broken configuration).
    pub fn sensitivity(&self, target_ber: f64) -> Option<Power> {
        let q_target = q_for_ber(target_ber);
        let w = solve_increasing(1e-12, 1e-6, q_target, |p_w| {
            self.q_at(Power::from_watts(p_w))
        })?;
        if w > 1.0 {
            return None;
        }
        Some(Power::from_watts(w))
    }
}

/// A PAM4 optical receiver: four equally spaced levels between the "off"
/// and "on" powers implied by the extinction ratio, three decision eyes,
/// Gray coding. Used for the Mosaic rate-scaling study (each channel
/// carries 2 bits/symbol at the same LED bandwidth, paying ~3× amplitude
/// per eye).
#[derive(Debug, Clone, PartialEq)]
pub struct Pam4Receiver {
    /// The detector.
    pub pd: Photodiode,
    /// The noise environment.
    pub noise: NoiseBudget,
    /// Outer extinction ratio `P3/P0` (linear, > 1).
    pub extinction_ratio: f64,
}

impl Pam4Receiver {
    /// The four level powers for an average received power.
    pub fn levels(&self, avg: Power) -> [Power; 4] {
        let r = self.extinction_ratio;
        assert!(r > 1.0, "extinction ratio must exceed 1, got {r}");
        // avg = (P0 + P1 + P2 + P3)/4 with equal spacing: avg = (P0+P3)/2.
        let p0 = 2.0 * avg.as_watts() / (r + 1.0);
        let p3 = p0 * r;
        let step = (p3 - p0) / 3.0;
        [
            Power::from_watts(p0),
            Power::from_watts(p0 + step),
            Power::from_watts(p0 + 2.0 * step),
            Power::from_watts(p3),
        ]
    }

    /// The worst per-eye Q-factor at an average received power (the top
    /// eye is worst: shot noise grows with level).
    pub fn q_at(&self, avg: Power) -> f64 {
        let levels = self.levels(avg);
        let currents: Vec<f64> = levels
            .iter()
            .map(|&p| self.pd.photocurrent(p) + self.pd.dark_current_a)
            .collect();
        // Four levels, three eyes: i < 3, so i and i + 1 index the four
        // currents.
        (0..3)
            .map(|i| {
                q_factor_ook(
                    currents[i + 1],                     // bound: i + 1 ≤ 3
                    currents[i],                         // bound: i < 3
                    self.noise.total_a(currents[i + 1]), // bound: i + 1 ≤ 3
                    self.noise.total_a(currents[i]),     // bound: i < 3
                )
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Gray-coded PAM4 BER at an average received power.
    pub fn ber_at(&self, avg: Power) -> f64 {
        ber_pam4(self.q_at(avg))
    }

    /// Sensitivity: lowest average power achieving `target_ber`.
    pub fn sensitivity(&self, target_ber: f64) -> Option<Power> {
        // BER = 0.75·Q(q) ⇒ required q = Q⁻¹(target/0.75).
        let q_target = normal_tail_inv((target_ber / 0.75).min(0.5));
        let w = solve_increasing(1e-12, 1e-6, q_target, |p_w| {
            self.q_at(Power::from_watts(p_w))
        })?;
        if w > 1.0 {
            return None;
        }
        Some(Power::from_watts(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_units::Frequency;
    use proptest::prelude::*;

    fn mosaic_rx() -> OokReceiver {
        OokReceiver {
            pd: Photodiode::silicon_blue(),
            noise: NoiseBudget {
                thermal_a: 3.0e-12 * (1.4e9f64).sqrt(),
                bandwidth: Frequency::from_ghz(1.4),
                rin_db_per_hz: None,
            },
            extinction_ratio: 6.0,
        }
    }

    #[test]
    fn q_anchors() {
        assert!((ber_ook(7.034) - 1e-12).abs() < 2e-13);
        assert!((q_for_ber(2.4e-4) - 3.49).abs() < 0.01);
    }

    #[test]
    fn pam4_worse_than_ook_at_same_swing() {
        // With the same total amplitude and noise, PAM4's per-eye Q is a
        // third of NRZ's — that 9.5 dB penalty dwarfs the 0.75 prefactor.
        let q_nrz = 6.0;
        assert!(ber_pam4(q_nrz / 3.0) > 1e3 * ber_ook(q_nrz));
    }

    #[test]
    fn mosaic_channel_sensitivity_is_tens_of_microwatts() {
        // A 2 Gb/s blue channel at the KP4 pre-FEC threshold should need
        // only a few µW average — this is what makes an LED launch viable.
        let rx = mosaic_rx();
        let sens = rx.sensitivity(2.4e-4).expect("solvable");
        assert!(
            sens.as_watts() * 1e6 > 0.3 && sens.as_watts() * 1e6 < 30.0,
            "sensitivity {sens} out of expected range"
        );
    }

    #[test]
    fn ber_at_sensitivity_matches_target() {
        let rx = mosaic_rx();
        let sens = rx.sensitivity(1e-6).unwrap();
        let ber = rx.ber_at(sens);
        assert!(ber > 0.5e-6 && ber < 2e-6, "got {ber}");
    }

    #[test]
    fn rin_degrades_sensitivity() {
        let mut rx = mosaic_rx();
        let clean = rx.sensitivity(1e-9).unwrap();
        rx.noise.rin_db_per_hz = Some(-125.0);
        let noisy = rx.sensitivity(1e-9).unwrap();
        assert!(noisy.as_watts() > clean.as_watts());
    }

    fn mosaic_pam4_rx() -> Pam4Receiver {
        Pam4Receiver {
            pd: Photodiode::silicon_blue(),
            noise: NoiseBudget {
                thermal_a: 3.0e-12 * (1.4e9f64).sqrt(),
                bandwidth: Frequency::from_ghz(1.4),
                rin_db_per_hz: None,
            },
            extinction_ratio: 6.0,
        }
    }

    #[test]
    fn pam4_levels_equally_spaced_and_average_correct() {
        let rx = mosaic_pam4_rx();
        let avg = Power::from_watts(40.0 * 1e-6);
        let l = rx.levels(avg);
        let mean: f64 = l.iter().map(|p| p.as_watts()).sum::<f64>() / 4.0;
        assert!((mean / avg.as_watts() - 1.0).abs() < 1e-9);
        let d1 = l[1].as_watts() - l[0].as_watts();
        let d2 = l[2].as_watts() - l[1].as_watts();
        let d3 = l[3].as_watts() - l[2].as_watts();
        assert!((d1 - d2).abs() < 1e-15 && (d2 - d3).abs() < 1e-15);
        assert!((l[3].as_watts() / l[0].as_watts() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn pam4_needs_roughly_three_times_the_power() {
        // Same noise, same target: PAM4's per-eye swing is ~1/3 of OOK's,
        // so its sensitivity is ~4.4–5 dB worse (thermal-dominated).
        let ook = mosaic_rx().sensitivity(2.4e-4).unwrap();
        let pam4 = mosaic_pam4_rx().sensitivity(2.4e-4).unwrap();
        let ratio = pam4.as_watts() / ook.as_watts();
        assert!(ratio > 2.3 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn pam4_sensitivity_inverts_ber() {
        let rx = mosaic_pam4_rx();
        let s = rx.sensitivity(1e-6).unwrap();
        let ber = rx.ber_at(s);
        assert!(ber > 0.5e-6 && ber < 2e-6, "got {ber}");
    }

    proptest! {
        #[test]
        fn pam4_ber_monotone_in_power(uw1 in 1f64..200.0, uw2 in 1f64..200.0) {
            let rx = mosaic_pam4_rx();
            let (lo, hi) = if uw1 < uw2 { (uw1, uw2) } else { (uw2, uw1) };
            prop_assert!(rx.ber_at(Power::from_watts(lo * 1e-6)) >= rx.ber_at(Power::from_watts(hi * 1e-6)) - 1e-30);
        }

        #[test]
        fn ber_monotone_in_power(uw1 in 0.5f64..100.0, uw2 in 0.5f64..100.0) {
            let rx = mosaic_rx();
            let (lo, hi) = if uw1 < uw2 { (uw1, uw2) } else { (uw2, uw1) };
            prop_assert!(rx.ber_at(Power::from_watts(lo * 1e-6)) >= rx.ber_at(Power::from_watts(hi * 1e-6)) - 1e-30);
        }

        #[test]
        fn higher_extinction_never_hurts(er1 in 2f64..20.0, er2 in 2f64..20.0, uw in 1f64..50.0) {
            let (lo, hi) = if er1 < er2 { (er1, er2) } else { (er2, er1) };
            let mut rx = mosaic_rx();
            rx.extinction_ratio = lo;
            let q_lo = rx.q_at(Power::from_watts(uw * 1e-6));
            rx.extinction_ratio = hi;
            let q_hi = rx.q_at(Power::from_watts(uw * 1e-6));
            prop_assert!(q_hi >= q_lo - 1e-12);
        }
    }
}

//! Photodiode models.

use crate::params::si_pd;
use mosaic_units::Power;

/// A PIN photodiode characterized by responsivity and dark current.
#[derive(Debug, Clone, PartialEq)]
pub struct Photodiode {
    /// Responsivity at the operating wavelength, A/W.
    pub responsivity_a_per_w: f64,
    /// Dark current, A.
    pub dark_current_a: f64,
}

impl Photodiode {
    /// Silicon PD tuned for the blue microLED band (450 nm).
    pub fn silicon_blue() -> Self {
        Photodiode {
            responsivity_a_per_w: si_pd::RESPONSIVITY_A_PER_W,
            dark_current_a: si_pd::DARK_CURRENT_A,
        }
    }

    /// Silicon PD at an arbitrary visible/NIR wavelength: responsivity from
    /// a piecewise-linear fit of the textbook silicon curve (shallow
    /// absorption in the blue, peak near 950 nm, band-edge collapse past
    /// 1.1 µm). Lets multi-color (RGB-multiplexed) channels use the same
    /// receiver model.
    pub fn silicon_at(wavelength_m: f64) -> Self {
        Photodiode {
            responsivity_a_per_w: silicon_responsivity(wavelength_m),
            dark_current_a: si_pd::DARK_CURRENT_A,
        }
    }

    /// Photocurrent generated by incident optical power.
    pub fn photocurrent(&self, optical: Power) -> f64 {
        self.responsivity_a_per_w * optical.as_watts()
    }
}

/// Piecewise-linear silicon responsivity (A/W) versus wavelength (m).
pub fn silicon_responsivity(wavelength_m: f64) -> f64 {
    const POINTS: [(f64, f64); 8] = [
        (400e-9, 0.18),
        (450e-9, 0.25),
        (520e-9, 0.33),
        (630e-9, 0.42),
        (800e-9, 0.55),
        (950e-9, 0.62),
        (1060e-9, 0.40),
        (1100e-9, 0.10),
    ];
    let w = wavelength_m;
    if w <= POINTS[0].0 {
        return POINTS[0].1;
    }
    for pair in POINTS.windows(2) {
        let (w0, r0) = pair[0];
        let (w1, r1) = pair[1];
        if w <= w1 {
            return r0 + (r1 - r0) * (w - w0) / (w1 - w0);
        }
    }
    // Past the band edge.
    0.02
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silicon_curve_anchors() {
        assert!((silicon_responsivity(450e-9) - 0.25).abs() < 1e-9);
        assert!((silicon_responsivity(950e-9) - 0.62).abs() < 1e-9);
        // Red collects more than blue; band edge collapses.
        assert!(silicon_responsivity(630e-9) > silicon_responsivity(450e-9));
        assert!(silicon_responsivity(1200e-9) < 0.05);
        // Interpolation is monotone on the rising side.
        assert!(silicon_responsivity(500e-9) > silicon_responsivity(460e-9));
    }

    #[test]
    fn silicon_at_matches_blue_preset() {
        let a = Photodiode::silicon_blue();
        let b = Photodiode::silicon_at(450e-9);
        assert!((a.responsivity_a_per_w - b.responsivity_a_per_w).abs() < 1e-9);
    }

    #[test]
    fn photocurrent_is_linear() {
        let pd = Photodiode::silicon_blue();
        let i1 = pd.photocurrent(Power::from_watts(10.0 * 1e-6));
        let i2 = pd.photocurrent(Power::from_watts(20.0 * 1e-6));
        assert!((i2 / i1 - 2.0).abs() < 1e-12);
    }
}

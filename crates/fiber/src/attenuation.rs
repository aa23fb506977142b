//! Visible-band attenuation of imaging-fiber glass.
//!
//! Imaging fibers are drawn from high-index multicomponent glass, not
//! telecom silica: attenuation in the blue is tenths of a dB per *metre*
//! (versus tenths of a dB per *kilometre* for SMF-28). This is fine for
//! Mosaic's ≤50 m ambitions and hopeless beyond — which is exactly the
//! regime boundary the paper's trade-off map shows.

use mosaic_units::{Db, Length};

/// Attenuation model: a base dB/m at a reference wavelength plus a simple
/// Rayleigh-like `λ⁻⁴` scaling for nearby wavelengths.
#[derive(Debug, Clone, PartialEq)]
pub struct Attenuation {
    /// Loss at the reference wavelength, dB/m (positive number).
    pub db_per_m_at_ref: f64,
    /// Reference wavelength, metres.
    pub ref_wavelength_m: f64,
}

impl Attenuation {
    /// Default imaging-fiber glass: 0.10 dB/m at 450 nm (multicomponent
    /// glass imaging bundles are quoted at 0.05–0.5 dB/m in the visible;
    /// we take a good-but-not-heroic value).
    pub fn imaging_glass() -> Self {
        Attenuation {
            db_per_m_at_ref: 0.10,
            ref_wavelength_m: 450e-9,
        }
    }

    /// Loss per metre at `wavelength_m`, dB (positive).
    pub fn db_per_m(&self, wavelength_m: f64) -> f64 {
        let scale = (self.ref_wavelength_m / wavelength_m).powi(4);
        self.db_per_m_at_ref * scale
    }

    /// Total fiber loss over `length` at `wavelength_m`, as a negative-dB
    /// gain ready to apply to a power level.
    pub fn loss(&self, length: Length, wavelength_m: f64) -> Db {
        Db::new(-self.db_per_m(wavelength_m) * length.as_m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn imaging_fiber_50m_loss_is_single_digit_db() {
        let a = Attenuation::imaging_glass();
        let loss = a.loss(Length::from_m(50.0), 450e-9);
        assert!((loss.as_db() + 5.0).abs() < 0.01, "got {loss}");
    }

    #[test]
    fn bluer_light_attenuates_more() {
        let a = Attenuation::imaging_glass();
        assert!(a.db_per_m(420e-9) > a.db_per_m(520e-9));
    }

    proptest! {
        #[test]
        fn loss_linear_in_length(m1 in 0.1f64..100.0, m2 in 0.1f64..100.0) {
            let a = Attenuation::imaging_glass();
            let l1 = a.loss(Length::from_m(m1), 450e-9).as_db();
            let l2 = a.loss(Length::from_m(m2), 450e-9).as_db();
            let sum = a.loss(Length::from_m(m1 + m2), 450e-9).as_db();
            prop_assert!((l1 + l2 - sum).abs() < 1e-9);
        }
    }
}

//! Modal dispersion of the small multimode cores.
//!
//! Each imaging-fiber core is a few µm of step-index multimode guide. Its
//! temporal response is characterized — as for all multimode fiber — by a
//! modal bandwidth×length product: the usable channel bandwidth falls as
//! `1/L`. Together with attenuation this sets Mosaic's reach ceiling: at
//! 2 Gb/s per channel the dispersion wall sits near 50–100 m, which is why
//! the paper quotes "up to 50 m".

use mosaic_units::{Frequency, Length};

/// Modal-dispersion model for one core family.
#[derive(Debug, Clone, PartialEq)]
pub struct ModalDispersion {
    /// Bandwidth×length product, Hz·m (e.g. 100 MHz·km = 1e11 Hz·m).
    pub bandwidth_length_hz_m: f64,
}

impl ModalDispersion {
    /// Default imaging-fiber core: small (≈3 µm) cores guide few modes and
    /// couple strongly, giving an effective ~100 MHz·km — far better than
    /// large-core step-index POF, far worse than laser-optimized OM4.
    pub fn imaging_core() -> Self {
        ModalDispersion {
            bandwidth_length_hz_m: 100e6 * 1000.0,
        }
    }

    /// −3 dB modal bandwidth of a span of `length`.
    pub fn bandwidth_at(&self, length: Length) -> Frequency {
        assert!(length.as_m() > 0.0, "span length must be positive");
        Frequency::from_hz(self.bandwidth_length_hz_m / length.as_m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_gbps_reaches_tens_of_metres() {
        // C5 anchor: the dispersion wall for a 2 Gb/s channel sits around
        // 50–100 m for the default imaging core. NRZ at 2 Gb/s needs the
        // conventional 0.7 × 2 GHz = 1.4 GHz of bandwidth.
        let d = ModalDispersion::imaging_core();
        let needed = Frequency::from_ghz(1.4);
        assert!(d.bandwidth_at(Length::from_m(50.0)).as_hz() > needed.as_hz());
        assert!(d.bandwidth_at(Length::from_m(120.0)).as_hz() < needed.as_hz());
    }

    #[test]
    fn bandwidth_halves_when_length_doubles() {
        let d = ModalDispersion::imaging_core();
        let b1 = d.bandwidth_at(Length::from_m(10.0));
        let b2 = d.bandwidth_at(Length::from_m(20.0));
        assert!((b1.as_hz() / b2.as_hz() - 2.0).abs() < 1e-9);
    }
}

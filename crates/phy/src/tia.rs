//! Transimpedance amplifier (receiver analog front-end) model.

use crate::params::tia;
use mosaic_units::{Frequency, Power};

/// A TIA + limiting-amplifier slice.
///
/// The two numbers that matter for the link budget are the input-referred
/// noise current density (sets sensitivity together with the PD) and the
/// electrical power of the slice (sets the receive-side energy/bit).
#[derive(Debug, Clone, PartialEq)]
pub struct Tia {
    /// Input-referred noise current density, A/√Hz.
    pub noise_density_a_rthz: f64,
    /// −3 dB bandwidth of the front-end.
    pub bandwidth: Frequency,
    /// Electrical power of the slice.
    pub power: Power,
}

impl Tia {
    /// A low-speed CMOS front-end sized for a Mosaic channel: bandwidth is
    /// set to ~0.7× the bit rate (standard NRZ receiver sizing), and power
    /// scales linearly from the [`tia`] low-speed anchor at 1.5 GHz.
    pub fn low_speed(bit_rate_gbps: f64) -> Self {
        let bw = Frequency::from_ghz(0.7 * bit_rate_gbps);
        Tia {
            noise_density_a_rthz: tia::NOISE_DENSITY_LOW_SPEED,
            bandwidth: bw,
            power: Power::from_watts(tia::POWER_LOW_SPEED_W * (bw.as_ghz() / 1.5).max(0.25)),
        }
    }

    /// RMS input-referred noise current over the front-end bandwidth, A.
    pub fn rms_noise_current(&self) -> f64 {
        self.noise_density_a_rthz * self.bandwidth.as_hz().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_integrates_over_bandwidth() {
        let t = Tia::low_speed(2.0); // 1.4 GHz BW
        let expect = tia::NOISE_DENSITY_LOW_SPEED * (1.4e9f64).sqrt();
        assert!((t.rms_noise_current() / expect - 1.0).abs() < 1e-9);
    }

    #[test]
    fn power_floors_at_fractional_bandwidth() {
        // Very slow channels still pay a minimum analog power.
        let t = Tia::low_speed(0.1);
        assert!(t.power.as_watts() >= tia::POWER_LOW_SPEED_W * 0.25 - 1e-12);
    }
}

//! Laser transmitter models for the conventional-optics baselines.
//!
//! Only the behaviour the comparison needs is modeled: L-I characteristics
//! (threshold + slope), electrical power, and RIN (which enters the receiver
//! noise budget). Laser *reliability* — the other half of the Mosaic
//! argument — is handled in `mosaic-reliability` via FIT values.

use crate::params::{dfb, vcsel};
use mosaic_units::Power;

/// A directly-modulated VCSEL (850 nm multimode datacom, SR-class links).
#[derive(Debug, Clone, PartialEq)]
pub struct Vcsel {
    /// Threshold current, A.
    pub threshold_a: f64,
    /// Slope efficiency above threshold, W/A.
    pub slope_w_per_a: f64,
    /// Relative intensity noise, dB/Hz.
    pub rin_db_per_hz: f64,
    /// Forward voltage, V.
    pub forward_voltage_v: f64,
    /// Emission wavelength, m.
    pub wavelength_m: f64,
}

impl Default for Vcsel {
    fn default() -> Self {
        Vcsel {
            threshold_a: vcsel::THRESHOLD_A,
            slope_w_per_a: vcsel::SLOPE_W_PER_A,
            rin_db_per_hz: vcsel::RIN_DB_PER_HZ,
            forward_voltage_v: vcsel::FORWARD_VOLTAGE_V,
            wavelength_m: vcsel::WAVELENGTH_M,
        }
    }
}

/// A DFB laser (1310 nm single-mode, DR/FR-class links). Typically CW with
/// an external or integrated modulator, so its drive is a constant bias.
#[derive(Debug, Clone, PartialEq)]
pub struct DfbLaser {
    /// Threshold current, A.
    pub threshold_a: f64,
    /// Slope efficiency above threshold, W/A.
    pub slope_w_per_a: f64,
    /// Relative intensity noise, dB/Hz.
    pub rin_db_per_hz: f64,
    /// Forward voltage, V.
    pub forward_voltage_v: f64,
    /// Emission wavelength, m.
    pub wavelength_m: f64,
}

impl Default for DfbLaser {
    fn default() -> Self {
        DfbLaser {
            threshold_a: dfb::THRESHOLD_A,
            slope_w_per_a: dfb::SLOPE_W_PER_A,
            rin_db_per_hz: dfb::RIN_DB_PER_HZ,
            forward_voltage_v: dfb::FORWARD_VOLTAGE_V,
            wavelength_m: dfb::WAVELENGTH_M,
        }
    }
}

/// Shared L-I behaviour of threshold lasers.
pub trait ThresholdLaser {
    /// Threshold current in amps.
    fn threshold_a(&self) -> f64;
    /// Slope efficiency in W/A.
    fn slope_w_per_a(&self) -> f64;
    /// Forward voltage in volts.
    fn forward_voltage_v(&self) -> f64;
    /// Relative intensity noise in dB/Hz.
    fn rin_db_per_hz(&self) -> f64;

    /// Optical output at drive current `amps` (zero below threshold).
    fn optical_power(&self, amps: f64) -> Power {
        let above = (amps - self.threshold_a()).max(0.0);
        Power::from_watts(self.slope_w_per_a() * above)
    }

    /// Drive current needed for a target optical output.
    fn current_for_power(&self, power: Power) -> f64 {
        self.threshold_a() + power.as_watts() / self.slope_w_per_a()
    }

    /// Electrical power at drive current `amps`.
    fn electrical_power(&self, amps: f64) -> Power {
        Power::from_watts(self.forward_voltage_v() * amps)
    }

    /// Wall-plug efficiency at drive current `amps`.
    fn wall_plug_efficiency(&self, amps: f64) -> f64 {
        if amps <= 0.0 {
            return 0.0;
        }
        self.optical_power(amps) / self.electrical_power(amps)
    }
}

impl ThresholdLaser for Vcsel {
    fn threshold_a(&self) -> f64 {
        self.threshold_a
    }
    fn slope_w_per_a(&self) -> f64 {
        self.slope_w_per_a
    }
    fn forward_voltage_v(&self) -> f64 {
        self.forward_voltage_v
    }
    fn rin_db_per_hz(&self) -> f64 {
        self.rin_db_per_hz
    }
}

impl ThresholdLaser for DfbLaser {
    fn threshold_a(&self) -> f64 {
        self.threshold_a
    }
    fn slope_w_per_a(&self) -> f64 {
        self.slope_w_per_a
    }
    fn forward_voltage_v(&self) -> f64 {
        self.forward_voltage_v
    }
    fn rin_db_per_hz(&self) -> f64 {
        self.rin_db_per_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_light_below_threshold() {
        let v = Vcsel::default();
        assert!(v.optical_power(v.threshold_a * 0.5).is_zero());
    }

    #[test]
    fn li_curve_linear_above_threshold() {
        let v = Vcsel::default();
        let i = v.threshold_a + 4e-3;
        let p = v.optical_power(i);
        assert!((p.as_watts() * 1e3 - 4.0 * v.slope_w_per_a).abs() < 1e-9);
    }

    #[test]
    fn current_for_power_inverts() {
        let d = DfbLaser::default();
        let target = Power::from_mw(5.0);
        let i = d.current_for_power(target);
        assert!((d.optical_power(i).as_watts() * 1e3 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_makes_lasers_inefficient_at_low_power() {
        // At low optical output the threshold bias dominates: WPE collapses.
        // This is one physical reason a many-channel laser array would be
        // wasteful and why Mosaic uses LEDs instead.
        let d = DfbLaser::default();
        let low = d.wall_plug_efficiency(d.current_for_power(Power::from_watts(100.0 * 1e-6)));
        let high = d.wall_plug_efficiency(d.current_for_power(Power::from_mw(10.0)));
        assert!(low < 0.1 * high, "low={low} high={high}");
    }
}

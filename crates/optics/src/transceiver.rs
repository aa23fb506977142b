//! Generic laser-optics module model.

use mosaic_phy::driver::laser_drive_power;
use mosaic_phy::laser::{DfbLaser, ThresholdLaser, Vcsel};
use mosaic_phy::params::{dsp, tia as tia_params};
use mosaic_units::{BitRate, Length, Power};

/// The laser technology inside a module — drives both the power model and
/// (via `mosaic-reliability`) the failure model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaserKind {
    /// Directly-modulated 850 nm VCSEL (SR class, multimode fiber).
    Vcsel,
    /// CW DFB laser with integrated silicon-photonics modulator (DR/FR
    /// class, single-mode fiber).
    DfbWithModulator,
}

/// One pluggable optical module (one end of a link).
#[derive(Debug, Clone, PartialEq)]
pub struct OpticalModule {
    /// Human-readable name ("800G-DR8" etc.).
    pub name: String,
    /// Aggregate module rate.
    pub aggregate: BitRate,
    /// Number of optical lanes.
    pub lanes: usize,
    /// Laser technology.
    pub laser: LaserKind,
    /// Average optical launch power per lane.
    pub launch_per_lane: Power,
    /// Optical extinction ratio (linear).
    pub extinction_ratio: f64,
    /// True if the module contains a full PAM4 DSP retimer; false for
    /// linear-drive (LPO) modules, which pay only the residual fraction
    /// (the equalization burden pushed back into the host).
    pub full_dsp: bool,
    /// Per-lane modulator-driver power (W) on top of the laser itself.
    pub driver_per_lane: Power,
    /// Housekeeping power (µC, monitoring, supplies), W.
    pub overhead: Power,
    /// Nominal supported reach.
    pub reach: Length,
}

/// Component-resolved power breakdown of one module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModulePower {
    /// All lasers (bias + modulation drive through the L-I curve).
    pub laser: Power,
    /// All modulator/laser drivers.
    pub driver: Power,
    /// All receive front-ends (TIA + LA).
    pub tia: Power,
    /// DSP retimer (or LPO residual).
    pub dsp: Power,
    /// Housekeeping.
    pub overhead: Power,
}

impl ModulePower {
    /// Total module power.
    pub fn total(&self) -> Power {
        self.laser + self.driver + self.tia + self.dsp + self.overhead
    }
}

impl OpticalModule {
    /// Laser electrical power for all lanes.
    pub fn laser_power(&self) -> Power {
        match self.laser {
            LaserKind::Vcsel => {
                let v = Vcsel::default();
                laser_drive_power(&v, self.launch_per_lane, self.extinction_ratio)
                    * self.lanes as f64
            }
            LaserKind::DfbWithModulator => {
                // CW laser sized for launch power + modulator insertion
                // loss (~6 dB: the laser emits ~4x the launch power).
                let d = DfbLaser::default();
                let cw = self.launch_per_lane * 4.0;
                let i = d.current_for_power(cw);
                d.electrical_power(i) * self.lanes as f64
            }
        }
    }

    /// Component-resolved power breakdown.
    pub fn power_breakdown(&self) -> ModulePower {
        let dsp_energy_pj = if self.full_dsp {
            dsp::PAM4_DSP_PJ_PER_BIT
        } else {
            dsp::PAM4_DSP_PJ_PER_BIT * dsp::LPO_RESIDUAL_FRACTION
        };
        ModulePower {
            laser: self.laser_power(),
            driver: self.driver_per_lane * self.lanes as f64,
            tia: Power::from_watts(tia_params::POWER_HIGH_SPEED_W) * self.lanes as f64,
            dsp: mosaic_units::EnergyPerBit::from_pj_per_bit(dsp_energy_pj)
                .power_at(self.aggregate),
            overhead: self.overhead,
        }
    }

    /// Total module power.
    pub fn power(&self) -> Power {
        self.power_breakdown().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::{dr8, lpo_dr8, sr8};

    #[test]
    fn dr8_module_lands_in_published_band() {
        // Commercial 800G DR8 modules: 13–16 W.
        let m = dr8(BitRate::from_gbps(800.0));
        let p = m.power();
        assert!(p.as_watts() > 11.0 && p.as_watts() < 17.0, "got {p}");
    }

    #[test]
    fn sr8_cheaper_than_dr8() {
        let sr = sr8(BitRate::from_gbps(800.0)).power();
        let dr = dr8(BitRate::from_gbps(800.0)).power();
        assert!(sr.as_watts() < dr.as_watts());
    }

    #[test]
    fn dsp_is_about_half_the_module() {
        let m = dr8(BitRate::from_gbps(800.0));
        let b = m.power_breakdown();
        let frac = b.dsp / m.power();
        assert!(frac > 0.4 && frac < 0.65, "dsp fraction {frac}");
    }

    #[test]
    fn lpo_saves_most_of_the_dsp() {
        let full = dr8(BitRate::from_gbps(800.0)).power();
        let lpo = lpo_dr8(BitRate::from_gbps(800.0)).power();
        assert!(
            lpo.as_watts() < 0.75 * full.as_watts(),
            "lpo={lpo} full={full}"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = sr8(BitRate::from_gbps(800.0));
        let b = m.power_breakdown();
        let sum = b.laser + b.driver + b.tia + b.dsp + b.overhead;
        assert!((sum.as_watts() - m.power().as_watts()).abs() < 1e-12);
    }

    #[test]
    fn energy_per_bit_in_published_band() {
        // ~15 W for 800 G ≈ 18 pJ/bit per module end.
        let m = dr8(BitRate::from_gbps(800.0));
        let e = m.power().per_bit(m.aggregate);
        assert!(e.as_pj_per_bit() > 12.0 && e.as_pj_per_bit() < 22.0, "{e}");
    }
}

//! Assembled copper cable links: passive DAC and retimed AEC.
//!
//! Power accounting convention (shared with `mosaic-optics` and the core
//! crate): a link's `module_power` covers everything in the cable/module
//! assembly — for a passive DAC that is zero; for an AEC it is the two
//! retimers. Host SerDes power is *common* to every pluggable technology
//! and reported separately by the comparison layer, so that technology
//! comparisons reflect what actually differs.

use crate::channel::TwinaxChannel;
use crate::equalizer::{aec_retimer_power, AEC_REACH_MULTIPLIER};
use crate::reach::{max_reach, EqualizationBudget};
use mosaic_units::{BitRate, Length, Power};

/// PCB/package loss reserved out of the equalization budget, dB.
pub const HOST_RESERVE_DB: f64 = 6.0;

/// A passive direct-attach copper cable.
#[derive(Debug, Clone, PartialEq)]
pub struct DacLink {
    /// Aggregate link rate.
    pub aggregate: BitRate,
    /// Per-lane rate (PAM4 electrical lanes).
    pub lane_rate: BitRate,
    /// The twinax construction.
    pub cable: TwinaxChannel,
    /// Host SerDes equalization capability.
    pub budget: EqualizationBudget,
}

impl DacLink {
    /// An 800G DAC with 8×106.25 G lanes of 30 AWG twinax.
    pub fn dac_800g() -> Self {
        DacLink {
            aggregate: BitRate::from_gbps(800.0),
            lane_rate: BitRate::from_gbps(106.25),
            cable: TwinaxChannel::awg30(),
            budget: EqualizationBudget::host_lr(),
        }
    }

    /// Maximum cable length.
    pub fn max_reach(&self) -> Length {
        max_reach(&self.cable, self.lane_rate, self.budget, HOST_RESERVE_DB)
    }

    /// Cable-assembly power (passive: zero).
    pub fn module_power(&self) -> Power {
        Power::ZERO
    }
}

/// An active electrical cable: a DAC with a retimer DSP at each end.
#[derive(Debug, Clone, PartialEq)]
pub struct AecLink {
    /// The underlying passive construction.
    pub dac: DacLink,
}

impl AecLink {
    /// Maximum cable length (two independently equalized halves).
    pub fn max_reach(&self) -> Length {
        self.dac.max_reach() * AEC_REACH_MULTIPLIER
    }

    /// Cable-assembly power: both retimers.
    pub fn module_power(&self) -> Power {
        aec_retimer_power(self.dac.aggregate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac_800g_reaches_about_two_metres() {
        let dac = DacLink::dac_800g();
        let r = dac.max_reach();
        assert!(r.as_m() > 1.2 && r.as_m() < 2.5, "got {r}");
        assert!(dac.module_power().is_zero());
    }

    #[test]
    fn aec_doubles_reach_for_watts() {
        let dac = DacLink::dac_800g();
        let aec = AecLink { dac: dac.clone() };
        assert!((aec.max_reach().as_m() / dac.max_reach().as_m() - 2.0).abs() < 1e-9);
        assert!(aec.module_power().as_watts() > 5.0);
    }
}

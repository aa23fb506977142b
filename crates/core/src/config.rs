//! Mosaic link configuration.

use mosaic_fiber::coupling::CouplingBudget;
use mosaic_fiber::crosstalk::Misalignment;
use mosaic_phy::microled::MicroLed;
use mosaic_phy::modulation::Modulation;
use mosaic_units::{BitRate, Length};

/// FEC protecting the striped stream (host-side, end-to-end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FecChoice {
    /// No FEC: channels must deliver the target BER raw.
    None,
    /// Extended Hamming(72,64) SEC-DED per word.
    Hamming,
    /// Binary BCH(1023, t) per channel.
    Bch {
        /// Designed bit-correction capability.
        t: usize,
    },
    /// RS(528,514) "KR4".
    Kr4,
    /// RS(544,514) "KP4" — the Ethernet default Mosaic inherits.
    Kp4,
}

impl FecChoice {
    /// Transmission overhead ratio (line rate / payload rate).
    pub fn overhead(self) -> f64 {
        match self {
            FecChoice::None => 1.0,
            FecChoice::Hamming => 72.0 / 64.0,
            FecChoice::Bch { t } => {
                // BCH(1023, 1023−10t): generator degree ≈ m·t with m=10.
                1023.0 / (1023.0 - 10.0 * t as f64)
            }
            FecChoice::Kr4 => 528.0 / 514.0,
            FecChoice::Kp4 => 544.0 / 514.0,
        }
    }

    /// The pre-FEC random-BER threshold for ~1e-15 post-FEC output.
    pub fn ber_threshold(self) -> f64 {
        match self {
            FecChoice::None => 1e-15,
            FecChoice::Hamming => 2e-8,
            FecChoice::Bch { t } => mosaic_fec::analysis::rs_ber_threshold(1023, t, 1, 1e-15),
            FecChoice::Kr4 => mosaic_fec::KR4_BER_THRESHOLD,
            FecChoice::Kp4 => mosaic_fec::KP4_BER_THRESHOLD,
        }
    }
}

/// Full configuration of a Mosaic link.
///
/// Construct via [`MosaicConfig::builder`]; fields stay public for
/// tuning an existing configuration, but the struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream code.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MosaicConfig {
    /// Payload rate the link must deliver (one direction).
    pub aggregate: BitRate,
    /// Per-channel line rate.
    pub channel_rate: BitRate,
    /// Spare channels beyond the active set.
    pub spares: usize,
    /// Fiber span length.
    pub length: Length,
    /// Core pitch of the imaging fiber.
    pub core_pitch: Length,
    /// Static imaging misalignment.
    pub misalignment: Misalignment,
    /// Coupling-optics budget (lens capture, facet fill, connectors).
    pub coupling: CouplingBudget,
    /// The microLED device.
    pub led: MicroLed,
    /// Drive current density for the "one" level, A/cm².
    pub drive_density_a_per_cm2: f64,
    /// Optical extinction ratio (linear).
    pub extinction_ratio: f64,
    /// Per-channel modulation. NRZ is the paper's design point; PAM4 is
    /// the rate-scaling extension (2 bits/symbol at the same LED
    /// bandwidth, ~4.8 dB per-eye penalty).
    pub modulation: Modulation,
    /// Host-side FEC.
    pub fec: FecChoice,
    /// Framing/marker overhead on top of FEC (alignment markers, idle).
    pub framing_overhead: f64,
}

impl MosaicConfig {
    /// Start building a configuration from the production preset:
    /// 2 Gb/s channels, KP4, 2 % sparing, 20 µm pitch, well-aligned
    /// optics. `bit_rate` and `reach` are required.
    pub fn builder() -> crate::builder::MosaicConfigBuilder {
        crate::builder::MosaicConfigBuilder::production()
    }

    /// The engineering rule for drive density versus channel rate: the LED
    /// must be driven hard enough for both modulation bandwidth
    /// (density ∝ rate — carrier lifetime shortens with density) and
    /// launch power (a floor independent of rate). Faster channels thus
    /// pay an efficiency-droop tax; this is half of the wide-and-slow
    /// sweet spot (the other half is per-channel fixed costs). The ceiling
    /// of 5 kA/cm² is the wear-out limit: the `fitdb::MICRO_LED` failure
    /// rate assumes operation at or below it, and beyond it GaN junction
    /// aging accelerates superlinearly.
    pub fn default_drive_density(rate: BitRate) -> f64 {
        (1500.0 * rate.as_gbps()).clamp(2000.0, 5000.0)
    }

    /// Change the per-channel rate, re-deriving the drive density (from
    /// the *symbol* rate — PAM4 needs the LED bandwidth of half its bit
    /// rate) and spare count.
    pub fn set_channel_rate(&mut self, rate: BitRate) {
        self.channel_rate = rate;
        let baud = BitRate::from_bps(self.modulation.symbol_rate(rate).as_hz());
        self.drive_density_a_per_cm2 = Self::default_drive_density(baud);
        self.spares = (self.active_channels() / 50).max(4);
    }

    /// Change the modulation, re-deriving drive density for the new symbol
    /// rate at the current channel rate.
    pub fn set_modulation(&mut self, modulation: Modulation) {
        self.modulation = modulation;
        self.set_channel_rate(self.channel_rate);
    }

    /// Per-channel symbol rate in GBd.
    pub fn baud_gbd(&self) -> f64 {
        self.modulation.symbol_rate(self.channel_rate).as_hz() / 1e9
    }

    /// Line rate after FEC and framing overhead.
    pub fn line_rate(&self) -> BitRate {
        self.aggregate * self.fec.overhead() * self.framing_overhead
    }

    /// Active channels required to carry the line rate.
    pub fn active_channels(&self) -> usize {
        (self.line_rate() / self.channel_rate).ceil() as usize
    }

    /// Total provisioned channels (active + spares).
    pub fn total_channels(&self) -> usize {
        self.active_channels() + self.spares
    }

    /// Drive current for the "one" level, amps.
    pub fn drive_current(&self) -> f64 {
        self.led.current_for_density(self.drive_density_a_per_cm2)
    }

    /// Check every parameter for physical plausibility. Configurations
    /// from [`MosaicConfig::builder`] have already passed this; call it
    /// again after mutating fields by hand.
    pub fn validate(&self) -> mosaic_units::Result<()> {
        fn positive(field: &'static str, v: f64) -> mosaic_units::Result<()> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(mosaic_units::MosaicError::invalid_config(
                    field,
                    format!("must be positive and finite, got {v}"),
                ))
            }
        }
        positive("bit_rate", self.aggregate.as_bps())?;
        positive("channel_rate", self.channel_rate.as_bps())?;
        positive("reach", self.length.as_m())?;
        positive("core_pitch", self.core_pitch.as_m())?;
        positive("drive_density_a_per_cm2", self.drive_density_a_per_cm2)?;
        if !(self.extinction_ratio.is_finite() && self.extinction_ratio > 1.0) {
            return Err(mosaic_units::MosaicError::invalid_config(
                "extinction_ratio",
                format!("must exceed 1 (linear), got {}", self.extinction_ratio),
            ));
        }
        if !(self.framing_overhead.is_finite() && self.framing_overhead >= 1.0) {
            return Err(mosaic_units::MosaicError::invalid_config(
                "framing_overhead",
                format!("must be at least 1, got {}", self.framing_overhead),
            ));
        }
        if let FecChoice::Bch { t } = self.fec {
            if t == 0 || 10 * t >= 1023 {
                return Err(mosaic_units::MosaicError::invalid_config(
                    "fec",
                    format!("BCH(1023) needs 1 ≤ t ≤ 102, got t={t}"),
                ));
            }
        }
        Ok(())
    }

    /// Evaluate the full link report, validating first. An *infeasible*
    /// link (budgets that do not close) is a successful evaluation — see
    /// [`LinkReport::is_feasible`](crate::report::LinkReport::is_feasible);
    /// `Err` means the configuration itself is malformed.
    pub fn try_evaluate(&self) -> mosaic_units::Result<crate::report::LinkReport> {
        self.validate()?;
        Ok(crate::report::LinkReport::evaluate(self))
    }

    /// Evaluate the full link report.
    ///
    /// # Panics
    /// Panics if the configuration is malformed; use
    /// [`MosaicConfig::try_evaluate`] to handle the error instead.
    pub fn evaluate(&self) -> crate::report::LinkReport {
        match self.try_evaluate() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_math_800g() {
        let cfg = MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(800.0))
            .reach(Length::from_m(10.0))
            .build()
            .unwrap();
        // 800 G × 544/514 × 1.01 ≈ 855 G → 428 channels at 2 G.
        assert_eq!(cfg.active_channels(), 428);
        assert!(cfg.spares >= 4);
        assert!(cfg.total_channels() > cfg.active_channels());
    }

    #[test]
    fn fec_overheads_ordered() {
        assert!(FecChoice::None.overhead() < FecChoice::Kr4.overhead());
        assert!(FecChoice::Kr4.overhead() < FecChoice::Kp4.overhead());
        assert!(FecChoice::Kp4.overhead() < FecChoice::Hamming.overhead());
    }

    #[test]
    fn fec_thresholds_ordered_by_strength() {
        // Stronger codes tolerate worse channels.
        assert!(FecChoice::Kp4.ber_threshold() > FecChoice::Kr4.ber_threshold());
        assert!(FecChoice::Kr4.ber_threshold() > FecChoice::Hamming.ber_threshold());
        assert!(FecChoice::Hamming.ber_threshold() > FecChoice::None.ber_threshold());
    }

    #[test]
    fn bch_threshold_scales_with_t() {
        let weak = FecChoice::Bch { t: 4 }.ber_threshold();
        let strong = FecChoice::Bch { t: 16 }.ber_threshold();
        assert!(strong > weak);
    }
}

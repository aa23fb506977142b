//! Validated construction of [`MosaicConfig`].
//!
//! The builder is the supported way to make a configuration: required
//! parameters (`bit_rate`, `reach`) are enforced at `build()` time, every
//! derived quantity (drive density, spare count) is filled in using the
//! same engineering rules as the old constructor, and the finished config
//! is validated before it is returned — so a `MosaicConfig` obtained from
//! `build()` always evaluates without panicking.
//!
//! ```
//! use mosaic::MosaicConfig;
//! use mosaic_units::{BitRate, Length};
//!
//! let cfg = MosaicConfig::builder()
//!     .bit_rate(BitRate::from_gbps(800.0))
//!     .reach(Length::from_m(10.0))
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.active_channels(), 428);
//! ```

use crate::config::{FecChoice, MosaicConfig};
use mosaic_fiber::coupling::CouplingBudget;
use mosaic_fiber::crosstalk::Misalignment;
use mosaic_phy::microled::MicroLed;
use mosaic_phy::modulation::Modulation;
use mosaic_units::{BitRate, Length, MosaicError, Result};

/// Builder for [`MosaicConfig`]; see [`MosaicConfig::builder`].
///
/// Starts from the production preset ([`MosaicConfigBuilder::production`]);
/// `bit_rate` and `reach` must be supplied before [`build`](Self::build)
/// unless a preset provides them (as [`MosaicConfigBuilder::prototype`]
/// does).
#[derive(Debug, Clone)]
pub struct MosaicConfigBuilder {
    aggregate: Option<BitRate>,
    length: Option<Length>,
    channel_rate: BitRate,
    spares: Option<usize>,
    core_pitch: Length,
    misalignment: Misalignment,
    coupling: CouplingBudget,
    led: MicroLed,
    drive_density_a_per_cm2: Option<f64>,
    extinction_ratio: f64,
    modulation: Modulation,
    fec: FecChoice,
    framing_overhead: f64,
}

impl Default for MosaicConfigBuilder {
    fn default() -> Self {
        Self::production()
    }
}

impl MosaicConfigBuilder {
    /// The production preset: 2 Gb/s NRZ channels, KP4 FEC, 20 µm pitch,
    /// well-aligned optics, ~2 % sparing (derived), 1 % framing overhead.
    /// `bit_rate` and `reach` are left for the caller.
    pub fn production() -> Self {
        MosaicConfigBuilder {
            aggregate: None,
            length: None,
            channel_rate: BitRate::from_gbps(2.0),
            spares: None,
            core_pitch: Length::from_um(20.0),
            misalignment: Misalignment::NONE,
            coupling: CouplingBudget::mosaic_default(),
            led: MicroLed::default(),
            drive_density_a_per_cm2: None,
            extinction_ratio: 6.0,
            modulation: Modulation::Nrz,
            fec: FecChoice::Kp4,
            framing_overhead: 1.01,
        }
    }

    /// The paper's end-to-end demo preset: 188 G payload over 10 m on
    /// exactly 100 × 2 Gb/s channels (framing trimmed to 1.0045), no
    /// sparing, first-spin demo optics (lower lens capture, two mated
    /// connectors).
    pub fn prototype() -> Self {
        let mut coupling = CouplingBudget::mosaic_default();
        coupling.tx_capture = 0.17;
        coupling.connectors = 2;
        Self::production()
            .bit_rate(BitRate::from_gbps(188.0))
            .reach(Length::from_m(10.0))
            .spares(0)
            .framing_overhead(1.0045)
            .coupling(coupling)
    }

    /// Payload rate the link must deliver (one direction). Required.
    pub fn bit_rate(mut self, aggregate: BitRate) -> Self {
        self.aggregate = Some(aggregate);
        self
    }

    /// Fiber span length. Required.
    pub fn reach(mut self, length: Length) -> Self {
        self.length = Some(length);
        self
    }

    /// Per-channel line rate. Unless overridden with
    /// [`drive_density`](Self::drive_density) / [`spares`](Self::spares),
    /// drive density and spare count are re-derived from this rate at
    /// `build()` time.
    pub fn channel_rate(mut self, rate: BitRate) -> Self {
        self.channel_rate = rate;
        self
    }

    /// Spare channels beyond the active set (default: derived, ~2 % with
    /// a floor of 4).
    pub fn spares(mut self, spares: usize) -> Self {
        self.spares = Some(spares);
        self
    }

    /// Core pitch of the imaging fiber.
    pub fn core_pitch(mut self, pitch: Length) -> Self {
        self.core_pitch = pitch;
        self
    }

    /// Static imaging misalignment.
    pub fn misalignment(mut self, misalignment: Misalignment) -> Self {
        self.misalignment = misalignment;
        self
    }

    /// Coupling-optics budget (lens capture, facet fill, connectors).
    pub fn coupling(mut self, coupling: CouplingBudget) -> Self {
        self.coupling = coupling;
        self
    }

    /// The microLED device.
    pub fn led(mut self, led: MicroLed) -> Self {
        self.led = led;
        self
    }

    /// Drive current density for the "one" level, A/cm² (default: derived
    /// from the symbol rate, see [`MosaicConfig::default_drive_density`]).
    pub fn drive_density(mut self, a_per_cm2: f64) -> Self {
        self.drive_density_a_per_cm2 = Some(a_per_cm2);
        self
    }

    /// Optical extinction ratio (linear, must exceed 1).
    pub fn extinction_ratio(mut self, ratio: f64) -> Self {
        self.extinction_ratio = ratio;
        self
    }

    /// Per-channel modulation (NRZ default; PAM4 halves the symbol rate).
    pub fn modulation(mut self, modulation: Modulation) -> Self {
        self.modulation = modulation;
        self
    }

    /// Host-side FEC.
    pub fn fec(mut self, fec: FecChoice) -> Self {
        self.fec = fec;
        self
    }

    /// Framing/marker overhead on top of FEC (≥ 1).
    pub fn framing_overhead(mut self, overhead: f64) -> Self {
        self.framing_overhead = overhead;
        self
    }

    /// Finish: fill in derived quantities and validate.
    ///
    /// Errors if `bit_rate` or `reach` was never supplied, or if any
    /// parameter fails [`MosaicConfig::validate`].
    pub fn build(self) -> Result<MosaicConfig> {
        let aggregate = self.aggregate.ok_or_else(|| {
            MosaicError::invalid_config("bit_rate", "required: call .bit_rate(..)")
        })?;
        let length = self
            .length
            .ok_or_else(|| MosaicError::invalid_config("reach", "required: call .reach(..)"))?;
        let baud = BitRate::from_bps(self.modulation.symbol_rate(self.channel_rate).as_hz());
        let mut cfg = MosaicConfig {
            aggregate,
            channel_rate: self.channel_rate,
            spares: 0,
            length,
            core_pitch: self.core_pitch,
            misalignment: self.misalignment,
            coupling: self.coupling,
            led: self.led,
            drive_density_a_per_cm2: self
                .drive_density_a_per_cm2
                .unwrap_or_else(|| MosaicConfig::default_drive_density(baud)),
            extinction_ratio: self.extinction_ratio,
            modulation: self.modulation,
            fec: self.fec,
            framing_overhead: self.framing_overhead,
        };
        cfg.validate()?;
        cfg.spares = self
            .spares
            .unwrap_or_else(|| (cfg.active_channels() / 50).max(4));
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_required_fields_are_errors() {
        assert!(MosaicConfig::builder().build().is_err());
        assert!(MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(800.0))
            .build()
            .is_err());
        assert!(MosaicConfig::builder()
            .reach(Length::from_m(10.0))
            .build()
            .is_err());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let base = || {
            MosaicConfig::builder()
                .bit_rate(BitRate::from_gbps(800.0))
                .reach(Length::from_m(10.0))
        };
        assert!(base().extinction_ratio(0.9).build().is_err());
        assert!(base().framing_overhead(0.5).build().is_err());
        assert!(base().channel_rate(BitRate::ZERO).build().is_err());
        assert!(base().reach(Length::from_m(-1.0)).build().is_err());
        assert!(base().fec(FecChoice::Bch { t: 0 }).build().is_err());
        assert!(base().fec(FecChoice::Bch { t: 200 }).build().is_err());
        assert!(base().drive_density(f64::NAN).build().is_err());
    }

    #[test]
    fn explicit_overrides_are_kept() {
        let cfg = MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(800.0))
            .reach(Length::from_m(10.0))
            .spares(7)
            .drive_density(3210.0)
            .build()
            .unwrap();
        assert_eq!(cfg.spares, 7);
        assert_eq!(cfg.drive_density_a_per_cm2, 3210.0);
    }

    #[test]
    fn prototype_preset_is_the_demo_config() {
        let cfg = MosaicConfigBuilder::prototype().build().unwrap();
        assert_eq!(cfg.active_channels(), 100);
        assert_eq!(cfg.spares, 0);
        assert_eq!(cfg.coupling.connectors, 2);
    }
}

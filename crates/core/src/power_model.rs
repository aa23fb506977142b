//! Mosaic module power model.
//!
//! Accounting convention (workspace-wide, see `mosaic-copper::links`):
//! *module power* covers everything inside the pluggable — host-lane
//! termination, gearbox logic, channel drivers/receivers — and excludes
//! the host ASIC's own SerDes, which every technology needs identically.
//! A duplex module carries the full aggregate in each direction: one LED
//! array transmitting, one PD array receiving.

use crate::config::MosaicConfig;
use mosaic_phy::driver::LedDrive;
use mosaic_phy::serdes;
use mosaic_power::PowerBreakdown;
use mosaic_units::{EnergyPerBit, Power};

/// Energy per bit for terminating the host-facing electrical lanes inside
/// the module (C2M-class receivers + transmitters, both directions).
pub const HOST_INTERFACE_PJ_PER_BIT: f64 = 1.0;

/// Energy per bit of the gearbox digital logic (striping, scrambling,
/// marker insertion/deskew, monitors), both directions.
pub const GEARBOX_LOGIC_PJ_PER_BIT: f64 = 0.7;

/// Housekeeping power per module (µC, supplies, monitoring).
pub const MODULE_OVERHEAD_W: f64 = 0.3;

/// Fixed per-channel receive clocking power (phase pickers, dividers),
/// watts — paid per channel regardless of rate; one of the two costs that
/// punish going *too* wide.
pub const RX_CLOCK_FIXED_W: f64 = 0.0004;

/// Component-resolved power of one duplex Mosaic module.
pub fn module_breakdown(cfg: &MosaicConfig) -> PowerBreakdown {
    // The drive operating point is all this model needs from the optical
    // side — construct it directly (identically to `BudgetEngine::new`)
    // rather than paying for a lattice build and a sensitivity solve.
    let drive = LedDrive::with_extinction(&cfg.led, cfg.drive_current(), cfg.extinction_ratio);
    let chans = cfg.active_channels() as f64;
    let line = cfg.line_rate();

    // TX: LED + driver electrical power per channel (spares unpowered).
    let per_tx = drive.electrical_power(&cfg.led, cfg.channel_rate);
    // RX: TIA/LA slice plus per-channel clock recovery (a rate-
    // proportional CDR term and a fixed clocking floor).
    let tia = mosaic_phy::tia::Tia::low_speed(cfg.baud_gbd());
    let per_rx = tia.power
        + serdes::cdr_energy().power_at(cfg.channel_rate)
        + Power::from_watts(RX_CLOCK_FIXED_W);

    PowerBreakdown::new()
        .with(
            "host interface",
            EnergyPerBit::from_pj_per_bit(HOST_INTERFACE_PJ_PER_BIT).power_at(cfg.aggregate),
        )
        .with(
            "gearbox logic",
            EnergyPerBit::from_pj_per_bit(GEARBOX_LOGIC_PJ_PER_BIT).power_at(line),
        )
        .with("led + driver", per_tx * chans)
        .with("rx front-end", per_rx * chans)
        .with("overhead", Power::from_watts(MODULE_OVERHEAD_W))
}

/// Total link power: both duplex module ends.
pub fn link_power(cfg: &MosaicConfig) -> Power {
    module_breakdown(cfg).total() * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_units::{BitRate, Length};

    fn cfg() -> MosaicConfig {
        MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(800.0))
            .reach(Length::from_m(10.0))
            .build()
            .unwrap()
    }

    #[test]
    fn module_power_under_seven_watts() {
        // C2's substrate: an 800 G Mosaic module must land far below the
        // 11–15 W of SR8/DR8 modules.
        let total = module_breakdown(&cfg()).total();
        assert!(
            total.as_watts() > 2.0 && total.as_watts() < 7.0,
            "module at {total}"
        );
    }

    #[test]
    fn energy_per_bit_single_digit() {
        let e = module_breakdown(&cfg())
            .total()
            .per_bit(BitRate::from_gbps(800.0));
        assert!(e.as_pj_per_bit() < 9.0, "got {e}");
    }

    #[test]
    fn no_component_dominates_like_a_dsp() {
        // The architectural point: Mosaic has no ~50 % DSP line item.
        let b = module_breakdown(&cfg());
        for (name, p) in b.entries() {
            let frac = *p / b.total();
            assert!(frac < 0.5, "{name} is {frac:.0}% of the module");
        }
    }

    #[test]
    fn power_scales_with_aggregate() {
        let p800 = link_power(&cfg());
        let p200 = link_power(
            &MosaicConfig::builder()
                .bit_rate(BitRate::from_gbps(200.0))
                .reach(Length::from_m(10.0))
                .build()
                .unwrap(),
        );
        assert!(p800.as_watts() > 2.5 * p200.as_watts());
        assert!(p800.as_watts() < 4.5 * p200.as_watts());
    }
}

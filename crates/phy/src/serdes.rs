//! Electrical I/O (SerDes) energy models.
//!
//! These curves are the quantitative heart of the wide-and-slow argument.
//! An electrical lane's energy/bit depends on what it has to drive:
//!
//! * **short reach** (mm–cm, on-package or chip-to-nearby-module): simple
//!   CMOS drivers/samplers, no equalization — a flat fraction of a pJ/bit
//!   regardless of rate (until the rate itself demands equalization);
//! * **long reach** (host trace + connector + cable/module): CTLE +
//!   FFE/DFE + CDR whose complexity grows superlinearly with lane rate,
//!   following the transceiver-survey trend `e(r) = e_ref · (r/r_ref)^γ`.
//!
//! Mosaic channels terminate in the first category at ~2 G/lane; the
//! narrow-and-fast baselines live in the second at 50–112 G/lane.

use crate::params::serdes as p;
use mosaic_units::{BitRate, EnergyPerBit};

/// What the electrical lane has to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SerdesReach {
    /// Millimetres to centimetres, unequalized (XSR/USR class).
    ShortReach,
    /// Host PCB trace + connector (LR/MR class, heavily equalized).
    LongReach,
}

/// Transmit+receive energy per bit for one electrical lane at `rate`.
pub fn lane_energy(rate: BitRate, reach: SerdesReach) -> EnergyPerBit {
    let r = rate.as_gbps();
    assert!(r > 0.0, "lane rate must be positive");
    match reach {
        SerdesReach::ShortReach => {
            // Flat base with a mild rise once the rate forces fractional
            // equalization (above ~25 G even XSR lanes add some TX FFE).
            let rise = 1.0 + (r / 100.0).powi(2);
            EnergyPerBit::from_pj_per_bit(p::SHORT_REACH_BASE_PJ * rise)
        }
        SerdesReach::LongReach => {
            let scaled = p::LR_REF_PJ * (r / p::LR_REF_RATE_GBPS).powf(p::LR_EXPONENT);
            // Equalized lanes never get cheaper than an unequalized lane
            // plus a CDR, no matter how slow they run.
            let floor = p::SHORT_REACH_BASE_PJ + p::CDR_FLOOR_PJ;
            EnergyPerBit::from_pj_per_bit(scaled.max(floor))
        }
    }
}

/// Clock-recovery energy for a receiving lane (paid once per lane even in
/// the short-reach case when the lane crosses a plesiochronous boundary —
/// e.g. each Mosaic receive channel recovers its own clock).
pub fn cdr_energy() -> EnergyPerBit {
    EnergyPerBit::from_pj_per_bit(p::CDR_FLOOR_PJ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Total lane power at a rate/reach.
    fn lane_power(gbps: f64, reach: SerdesReach) -> mosaic_units::Power {
        let rate = BitRate::from_gbps(gbps);
        lane_energy(rate, reach).power_at(rate)
    }

    #[test]
    fn survey_anchor_points() {
        let e25 = lane_energy(BitRate::from_gbps(25.0), SerdesReach::LongReach);
        let e112 = lane_energy(BitRate::from_gbps(112.0), SerdesReach::LongReach);
        let e224 = lane_energy(BitRate::from_gbps(224.0), SerdesReach::LongReach);
        assert!((e25.as_pj_per_bit() - 2.0).abs() < 0.1, "{e25}");
        assert!(
            e112.as_pj_per_bit() > 5.0 && e112.as_pj_per_bit() < 6.5,
            "{e112}"
        );
        assert!(
            e224.as_pj_per_bit() > 8.5 && e224.as_pj_per_bit() < 11.0,
            "{e224}"
        );
    }

    #[test]
    fn short_reach_is_sub_pj_at_mosaic_rates() {
        let e = lane_energy(BitRate::from_gbps(2.0), SerdesReach::ShortReach);
        assert!(e.as_pj_per_bit() < 0.5, "{e}");
    }

    #[test]
    fn long_reach_power_superlinear_in_rate() {
        // Doubling the lane rate should more than double lane power.
        let p56 = lane_power(56.0, SerdesReach::LongReach);
        let p112 = lane_power(112.0, SerdesReach::LongReach);
        assert!(p112.as_watts() > 2.2 * p56.as_watts());
    }

    #[test]
    fn equal_aggregate_wide_and_slow_wins() {
        // 800 G as 8×100 G long-reach vs 400×2 G short-reach (+CDR each):
        // the wide-and-slow electrical bill must be several times smaller.
        let fast = lane_power(100.0, SerdesReach::LongReach) * 8.0;
        let slow = (lane_power(2.0, SerdesReach::ShortReach)
            + cdr_energy().power_at(BitRate::from_gbps(2.0)))
            * 400.0;
        assert!(
            fast.as_watts() > 3.0 * slow.as_watts(),
            "fast={fast} slow={slow}"
        );
    }

    proptest! {
        #[test]
        fn long_reach_energy_monotone(r1 in 5f64..250.0, r2 in 5f64..250.0) {
            let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
            let e_lo = lane_energy(BitRate::from_gbps(lo), SerdesReach::LongReach);
            let e_hi = lane_energy(BitRate::from_gbps(hi), SerdesReach::LongReach);
            prop_assert!(e_lo.as_pj_per_bit() <= e_hi.as_pj_per_bit() + 1e-12);
        }

        #[test]
        fn long_reach_never_below_short_reach(r in 1f64..250.0) {
            let rate = BitRate::from_gbps(r);
            prop_assert!(
                lane_energy(rate, SerdesReach::LongReach).as_pj_per_bit()
                    >= lane_energy(rate, SerdesReach::ShortReach).as_pj_per_bit() * 0.99
            );
        }
    }
}

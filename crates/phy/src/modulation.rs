//! Modulation formats.

use mosaic_units::{BitRate, Frequency};

/// Modulation formats used across the workspace.
///
/// Mosaic channels run NRZ (simple slicers, no DSP); the narrow-and-fast
/// baselines run PAM4 (which is what makes their DSP mandatory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Non-return-to-zero on-off keying: 1 bit/symbol, 2 levels.
    Nrz,
    /// 4-level pulse-amplitude modulation: 2 bits/symbol, 4 levels.
    Pam4,
}

impl Modulation {
    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> f64 {
        match self {
            Modulation::Nrz => 1.0,
            Modulation::Pam4 => 2.0,
        }
    }

    /// Symbol (baud) rate needed to carry `rate`.
    pub fn symbol_rate(self, rate: BitRate) -> Frequency {
        Frequency::from_hz(rate.symbol_rate_baud(self.bits_per_symbol()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pam4_halves_symbol_rate() {
        let r = BitRate::from_gbps(106.25);
        assert!((Modulation::Pam4.symbol_rate(r).as_ghz() - 53.125).abs() < 1e-9);
        assert!((Modulation::Nrz.symbol_rate(r).as_ghz() - 106.25).abs() < 1e-9);
    }
}

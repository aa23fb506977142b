//! Twinax copper channel: frequency-dependent insertion loss.
//!
//! The classic cable model: `IL(f, L) = (a·√f + b·f)·L + c(f)` where the
//! √f term is conductor (skin-effect) loss, the linear term dielectric
//! loss, and `c(f)` the mated-connector/breakout loss at each end. The
//! constants below are calibrated so a 30 AWG twinax loses ≈8.5 dB/m at
//! 26.56 GHz (the Nyquist of a 106.25 G PAM4 lane) — matching published
//! 802.3ck 100G-per-lane DAC budgets of ~2 m end-to-end.

use mosaic_units::Frequency;

/// A differential twinax pair with end connectors.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinaxChannel {
    /// Skin-effect coefficient, dB/(m·√GHz).
    pub skin_db_per_m_rtghz: f64,
    /// Dielectric coefficient, dB/(m·GHz).
    pub dielectric_db_per_m_ghz: f64,
    /// Per-end connector + breakout loss at the reference frequency, dB.
    pub connector_db: f64,
    /// Connector-loss frequency scaling reference, GHz.
    pub connector_ref_ghz: f64,
}

impl TwinaxChannel {
    /// 30 AWG twinax (thin, flexible — the high-density choice whose loss
    /// sets the 2 m wall).
    pub fn awg30() -> Self {
        TwinaxChannel {
            skin_db_per_m_rtghz: 1.2,
            dielectric_db_per_m_ghz: 0.09,
            connector_db: 1.0,
            connector_ref_ghz: 13.0,
        }
    }

    /// 26 AWG twinax (thicker conductor, ~30 % less skin loss, bulkier).
    pub fn awg26() -> Self {
        TwinaxChannel {
            skin_db_per_m_rtghz: 0.85,
            dielectric_db_per_m_ghz: 0.08,
            connector_db: 1.0,
            connector_ref_ghz: 13.0,
        }
    }

    /// Cable-only loss per metre at frequency `f`, dB (positive).
    pub fn db_per_m(&self, f: Frequency) -> f64 {
        let ghz = f.as_ghz();
        assert!(ghz >= 0.0, "frequency must be non-negative");
        self.skin_db_per_m_rtghz * ghz.sqrt() + self.dielectric_db_per_m_ghz * ghz
    }

    /// Nyquist frequency of a PAM4 lane at `gbps` (half the baud rate).
    pub fn pam4_nyquist(gbps: f64) -> Frequency {
        Frequency::from_ghz(gbps / 2.0 / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn calibration_anchor_800g_dac() {
        // A 2 m 30 AWG cable at the 26.56 GHz Nyquist of a 106.25 G PAM4
        // lane: ≈18–23 dB end-to-end — close to the edge of the ~22 dB
        // cable share of an 802.3ck host budget.
        let ch = TwinaxChannel::awg30();
        let f = TwinaxChannel::pam4_nyquist(106.25);
        assert!((f.as_ghz() - 26.5625).abs() < 1e-9);
        let cable = ch.db_per_m(f) * 2.0;
        let connectors = 2.0 * ch.connector_db * (f.as_ghz() / ch.connector_ref_ghz).sqrt();
        let il = cable + connectors;
        assert!(il > 18.0 && il < 24.0, "got {il} dB");
    }

    #[test]
    fn thicker_cable_loses_less() {
        let f = Frequency::from_ghz(13.0);
        assert!(TwinaxChannel::awg26().db_per_m(f) < TwinaxChannel::awg30().db_per_m(f));
    }

    #[test]
    fn loss_grows_superlinearly_with_rate() {
        // Doubling the lane rate should raise per-metre loss by more than
        // √2 (skin alone) but less than 2× (pure dielectric).
        let ch = TwinaxChannel::awg30();
        let l1 = ch.db_per_m(TwinaxChannel::pam4_nyquist(100.0));
        let l2 = ch.db_per_m(TwinaxChannel::pam4_nyquist(200.0));
        let ratio = l2 / l1;
        assert!(ratio > 2f64.sqrt() && ratio < 2.0, "ratio {ratio}");
    }

    proptest! {
        #[test]
        fn loss_monotone_in_frequency(g1 in 0.5f64..60.0, g2 in 0.5f64..60.0) {
            let ch = TwinaxChannel::awg30();
            let (lo, hi) = if g1 < g2 { (g1, g2) } else { (g2, g1) };
            prop_assert!(
                ch.db_per_m(Frequency::from_ghz(lo)) <= ch.db_per_m(Frequency::from_ghz(hi)) + 1e-12
            );
        }
    }
}

//! Default device constants, in one place, with provenance notes.
//!
//! Every value here is a published ballpark for the component class, not a
//! measurement of the paper's devices (which are not public). Experiments
//! sweep these, so conclusions rest on the *shape* of the physics rather
//! than any single constant. Units are stated per field; CGS is used for
//! recombination coefficients because the LED literature does.

/// GaN/InGaN recombination coefficients (ABC model), typical of blue
/// (~430–460 nm) InGaN quantum wells.
pub mod gan {
    /// Shockley-Read-Hall non-radiative coefficient `A`, 1/s.
    pub const A_SRH: f64 = 1.0e7;
    /// Radiative coefficient `B`, cm³/s.
    pub const B_RAD: f64 = 2.0e-11;
    /// Auger coefficient `C`, cm⁶/s — the source of efficiency droop.
    pub const C_AUGER: f64 = 1.0e-30;
    /// Effective recombination-volume thickness, cm (a few nm of quantum
    /// well; thin wells raise carrier density and therefore bandwidth).
    pub const ACTIVE_THICKNESS_CM: f64 = 3.0e-7; // 3 nm
    /// Light-extraction efficiency: photons escaping the die / photons
    /// generated. Micro-scale GaN LEDs with shaped mesas reach 30–60 %.
    pub const EXTRACTION_EFF: f64 = 0.4;
    /// Peak emission wavelength, metres.
    pub const WAVELENGTH_M: f64 = 450e-9;
    /// Forward voltage at operating current density, volts. GaN junctions
    /// drop ~2.9–3.3 V plus series resistance; 3.3 V is a mid estimate.
    pub const FORWARD_VOLTAGE_V: f64 = 3.3;
    /// Junction + parasitic capacitance per unit area, F/cm²
    /// (≈ 1.5 fF/µm², mesa-etched microLED).
    pub const CAPACITANCE_PER_CM2: f64 = 1.5e-7;
    /// Fixed pad/interconnect capacitance per device, F (~300 fF of bond
    /// pad and routing — dominates for µm-scale mesas and caps the RC
    /// bandwidth near 4 GHz with the default series resistance).
    pub const PAD_CAPACITANCE_F: f64 = 300e-15;
    /// Series resistance of a microLED plus driver output, ohms.
    pub const SERIES_RESISTANCE_OHM: f64 = 120.0;
}

/// Silicon photodiode constants for the blue/visible band.
pub mod si_pd {
    /// Responsivity at 450 nm, A/W. Silicon peaks near 900 nm (~0.6 A/W);
    /// blue responsivity is lower because absorption is shallow.
    pub const RESPONSIVITY_A_PER_W: f64 = 0.25;
    /// Dark current, A (small-area PD).
    pub const DARK_CURRENT_A: f64 = 1.0e-9;
}

/// Receiver analog front-end (TIA + limiting amp) constants.
pub mod tia {
    /// Input-referred noise current density for a low-bandwidth (≤3 GHz)
    /// CMOS TIA, A/√Hz.
    pub const NOISE_DENSITY_LOW_SPEED: f64 = 3.0e-12;
    /// Power of a low-speed (≤3 GHz) TIA + LA slice, watts.
    pub const POWER_LOW_SPEED_W: f64 = 0.004;
    /// Power of a >25 GBd datacom TIA + LA slice, watts.
    pub const POWER_HIGH_SPEED_W: f64 = 0.25;
}

/// VCSEL constants (850 nm datacom, for the SR baseline).
pub mod vcsel {
    /// Threshold current, A.
    pub const THRESHOLD_A: f64 = 0.8e-3;
    /// Slope efficiency, W/A.
    pub const SLOPE_W_PER_A: f64 = 0.45;
    /// Relative intensity noise, dB/Hz.
    pub const RIN_DB_PER_HZ: f64 = -140.0;
    /// Forward voltage, V.
    pub const FORWARD_VOLTAGE_V: f64 = 2.2;
    /// Wavelength, m.
    pub const WAVELENGTH_M: f64 = 850e-9;
}

/// DFB laser constants (1310 nm, for the DR/FR baselines).
pub mod dfb {
    /// Threshold current, A.
    pub const THRESHOLD_A: f64 = 8.0e-3;
    /// Slope efficiency, W/A.
    pub const SLOPE_W_PER_A: f64 = 0.3;
    /// Relative intensity noise, dB/Hz.
    pub const RIN_DB_PER_HZ: f64 = -150.0;
    /// Forward voltage, V.
    pub const FORWARD_VOLTAGE_V: f64 = 1.8;
    /// Wavelength, m.
    pub const WAVELENGTH_M: f64 = 1310e-9;
}

/// Electrical I/O (SerDes) energy-efficiency survey anchors.
///
/// These reproduce the well-known survey curve (ISSCC transceiver surveys):
/// short-reach unequalized CMOS I/O sits well below 1 pJ/bit; long-reach
/// equalized SerDes climbs from ~2 pJ/bit at 25 G to 5–7 pJ/bit at 112 G and
/// beyond 10 pJ/bit at 224 G because equalization/DSP complexity grows
/// superlinearly with lane rate.
pub mod serdes {
    /// Energy/bit of a minimal CMOS transceiver slice at ≤5 G/lane, pJ/bit
    /// (drives mm–cm on-package or chip-to-module traces; no equalization).
    pub const SHORT_REACH_BASE_PJ: f64 = 0.35;
    /// Reference lane rate for the long-reach scaling law, Gb/s.
    pub const LR_REF_RATE_GBPS: f64 = 25.0;
    /// Energy/bit of a long-reach SerDes at the reference rate, pJ/bit.
    pub const LR_REF_PJ: f64 = 2.0;
    /// Exponent of long-reach energy/bit versus lane rate (energy/bit grows
    /// as `rate^0.7`, i.e. lane *power* grows as `rate^1.7` — superlinear).
    /// Calibrated to survey anchors: ~2 pJ/bit at 25 G, ~5.7 at 112 G,
    /// ~9.3 at 224 G.
    pub const LR_EXPONENT: f64 = 0.7;
    /// Clock-recovery energy floor for any receiving lane, pJ/bit.
    pub const CDR_FLOOR_PJ: f64 = 0.15;
}

/// Module-level DSP (PAM4 ADC/DSP retimer chips inside optical modules).
pub mod dsp {
    /// DSP energy per bit for a 100G-class PAM4 lane (ADC + FFE/DFE + FEC
    /// termination), pJ/bit. An 800G DSP chip at ~7 W is ≈ 8.75 pJ/bit.
    pub const PAM4_DSP_PJ_PER_BIT: f64 = 8.75;
    /// Fraction of DSP power that remains in "linear drive" (LPO) modules
    /// which drop the retimer but keep host-side equalization burden.
    pub const LPO_RESIDUAL_FRACTION: f64 = 0.35;
}

#[cfg(test)]
mod tests {
    /// The constants must satisfy the coarse ordering relations the
    /// architecture argument rests on; if someone re-tunes them into an
    /// unphysical regime, fail loudly here.
    #[test]
    #[allow(clippy::assertions_on_constants)] // regression guard on const tuning
    fn sanity_orderings() {
        assert!(super::tia::POWER_LOW_SPEED_W < super::tia::POWER_HIGH_SPEED_W);
        assert!(super::vcsel::THRESHOLD_A < super::dfb::THRESHOLD_A);
        assert!(super::serdes::SHORT_REACH_BASE_PJ < super::serdes::LR_REF_PJ);
        assert!(super::gan::EXTRACTION_EFF > 0.0 && super::gan::EXTRACTION_EFF < 1.0);
    }
}

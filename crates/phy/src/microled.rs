//! Directly-modulated GaN microLED model (the Mosaic transmitter).
//!
//! A single ABC-recombination solve yields, for any drive current:
//!
//! * the steady-state carrier density `n` in the quantum well,
//! * internal quantum efficiency (IQE) including efficiency droop,
//! * optical output power (via extraction efficiency and photon energy),
//! * modulation bandwidth from the *differential* carrier lifetime,
//!   cascaded with the RC pole of the junction capacitance.
//!
//! This is the standard small-device LED model; its important emergent
//! property for Mosaic is that bandwidth rises with current density (you can
//! buy speed with drive) but IQE droops, so there is a finite practical
//! per-channel rate in the low-GHz range — forcing the wide-and-slow
//! architecture.

use crate::params::gan;
use mosaic_units::{photon_energy_j, Frequency, Power, ELEMENTARY_CHARGE};

/// A GaN microLED with a circular mesa.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroLed {
    /// Mesa diameter, metres.
    pub diameter_m: f64,
    /// SRH coefficient `A`, 1/s.
    pub a_srh: f64,
    /// Radiative coefficient `B`, cm³/s.
    pub b_rad: f64,
    /// Auger coefficient `C`, cm⁶/s.
    pub c_auger: f64,
    /// Effective active-region thickness, cm.
    pub active_thickness_cm: f64,
    /// Light-extraction efficiency (0..1).
    pub extraction_eff: f64,
    /// Emission wavelength, metres.
    pub wavelength_m: f64,
    /// Forward voltage at operating point, volts.
    pub forward_voltage_v: f64,
    /// Junction capacitance per area, F/cm².
    pub capacitance_per_cm2: f64,
    /// Fixed parasitic (pad + interconnect) capacitance, F. For micro-scale
    /// devices this dominates the junction term and sets an RC bandwidth
    /// ceiling of a few GHz regardless of drive.
    pub pad_capacitance_f: f64,
    /// Series resistance (device + driver output), ohms.
    pub series_resistance_ohm: f64,
}

impl Default for MicroLed {
    /// A 4 µm blue GaN microLED with the [`gan`] default constants — the
    /// device class the Mosaic prototype's 100-channel array is built from.
    fn default() -> Self {
        MicroLed {
            diameter_m: 4e-6,
            a_srh: gan::A_SRH,
            b_rad: gan::B_RAD,
            c_auger: gan::C_AUGER,
            active_thickness_cm: gan::ACTIVE_THICKNESS_CM,
            extraction_eff: gan::EXTRACTION_EFF,
            wavelength_m: gan::WAVELENGTH_M,
            forward_voltage_v: gan::FORWARD_VOLTAGE_V,
            capacitance_per_cm2: gan::CAPACITANCE_PER_CM2,
            pad_capacitance_f: gan::PAD_CAPACITANCE_F,
            series_resistance_ohm: gan::SERIES_RESISTANCE_OHM,
        }
    }
}

impl MicroLed {
    /// A copy of this device at junction temperature `celsius`, relative
    /// to the 25 °C characterization point of the default coefficients.
    ///
    /// The dominant thermal effects on InGaN LEDs:
    /// * SRH non-radiative recombination is thermally activated —
    ///   `A(T) = A₀·exp(ΔT/T_A)` with `T_A ≈ 55 K` (hot-carrier escape and
    ///   defect capture), which droops IQE at temperature;
    /// * Auger grows mildly — `C(T) = C₀·(1 + ΔT/400)`;
    /// * **carrier leakage** — thermally activated electron overflow past
    ///   the wells, the dominant hot-LED loss at high current density;
    ///   modeled as an EQE multiplier `exp(−ΔT/150 K)` (≈ −1.7 dB of
    ///   light at +60 K, matching published hot/cold L-I ratios);
    /// * the emission wavelength red-shifts ~0.03 nm/K (band-gap
    ///   shrinkage);
    /// * forward voltage drops ~1.5 mV/K (slightly *helping* efficiency).
    ///
    /// `B` is treated as constant over the datacenter range; its weak
    /// `T^{-3/2}` dependence is second-order next to the SRH term.
    pub fn at_temperature(&self, celsius: f64) -> MicroLed {
        let dt = celsius - 25.0;
        MicroLed {
            a_srh: self.a_srh * (dt / 55.0).exp(),
            c_auger: self.c_auger * (1.0 + dt / 400.0).max(0.1),
            extraction_eff: (self.extraction_eff * (-dt / 150.0).exp()).min(0.9),
            wavelength_m: self.wavelength_m + 0.03e-9 * dt,
            forward_voltage_v: (self.forward_voltage_v - 1.5e-3 * dt).max(2.5),
            ..self.clone()
        }
    }

    /// Mesa area in cm².
    pub fn area_cm2(&self) -> f64 {
        let r_cm = self.diameter_m * 1e2 / 2.0;
        core::f64::consts::PI * r_cm * r_cm
    }

    /// Current density in A/cm² at drive current `amps`.
    pub fn current_density(&self, amps: f64) -> f64 {
        amps / self.area_cm2()
    }

    /// Drive current (A) that produces current density `j_a_per_cm2`.
    pub fn current_for_density(&self, j_a_per_cm2: f64) -> f64 {
        j_a_per_cm2 * self.area_cm2()
    }

    /// Steady-state carrier density (cm⁻³) at drive current `amps`,
    /// solving `J/(q·d) = A·n + B·n² + C·n³` by Newton iteration.
    ///
    /// # Panics
    /// Panics on negative drive current.
    pub fn carrier_density(&self, amps: f64) -> f64 {
        assert!(amps >= 0.0, "drive current must be non-negative");
        if amps == 0.0 {
            return 0.0;
        }
        let g = self.current_density(amps) / (ELEMENTARY_CHARGE * self.active_thickness_cm);
        // Initial guess from the radiative term alone, then Newton.
        let mut n = (g / self.b_rad).sqrt().max(1.0);
        for _ in 0..80 {
            let f = self.a_srh * n + self.b_rad * n * n + self.c_auger * n * n * n - g;
            let df = self.a_srh + 2.0 * self.b_rad * n + 3.0 * self.c_auger * n * n;
            let step = f / df;
            n -= step;
            if n <= 0.0 {
                n = 1.0;
            }
            if (step / n).abs() < 1e-12 {
                break;
            }
        }
        n
    }

    /// Internal quantum efficiency at drive current `amps`:
    /// `IQE = B·n² / (A·n + B·n² + C·n³)`.
    pub fn iqe(&self, amps: f64) -> f64 {
        if amps == 0.0 {
            return 0.0;
        }
        let n = self.carrier_density(amps);
        let total = self.a_srh * n + self.b_rad * n * n + self.c_auger * n * n * n;
        self.b_rad * n * n / total
    }

    /// External quantum efficiency (IQE × extraction).
    pub fn eqe(&self, amps: f64) -> f64 {
        self.iqe(amps) * self.extraction_eff
    }

    /// Optical power emitted from the die at drive current `amps`:
    /// `P = EQE · (hν/q) · I`.
    pub fn optical_power(&self, amps: f64) -> Power {
        let photon_v = photon_energy_j(self.wavelength_m) / ELEMENTARY_CHARGE;
        Power::from_watts(self.eqe(amps) * photon_v * amps)
    }

    /// Differential carrier lifetime at drive current `amps`, seconds:
    /// `1/τ = A + 2B·n + 3C·n²` (small-signal linearization).
    pub fn differential_lifetime_s(&self, amps: f64) -> f64 {
        let n = self.carrier_density(amps);
        1.0 / (self.a_srh + 2.0 * self.b_rad * n + 3.0 * self.c_auger * n * n)
    }

    /// Carrier-limited −3 dB modulation bandwidth: `f = 1/(2π·τ_diff)`.
    pub fn carrier_bandwidth(&self, amps: f64) -> Frequency {
        Frequency::from_hz(1.0 / (2.0 * core::f64::consts::PI * self.differential_lifetime_s(amps)))
    }

    /// RC-limited bandwidth from junction + pad capacitance and series
    /// resistance.
    pub fn rc_bandwidth(&self) -> Frequency {
        let c = self.capacitance_per_cm2 * self.area_cm2() + self.pad_capacitance_f;
        Frequency::from_hz(1.0 / (2.0 * core::f64::consts::PI * self.series_resistance_ohm * c))
    }

    /// Net −3 dB modulation bandwidth (carrier and RC poles cascaded).
    pub fn modulation_bandwidth(&self, amps: f64) -> Frequency {
        self.carrier_bandwidth(amps).cascade(self.rc_bandwidth())
    }

    /// Electrical power drawn from the supply at drive current `amps`
    /// (junction drop plus resistive loss).
    pub fn electrical_power(&self, amps: f64) -> Power {
        Power::from_watts(self.forward_voltage_v * amps + self.series_resistance_ohm * amps * amps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn led() -> MicroLed {
        MicroLed::default()
    }

    #[test]
    fn carrier_density_balances_generation() {
        let d = led();
        let i = d.current_for_density(1000.0);
        let n = d.carrier_density(i);
        let recomb = d.a_srh * n + d.b_rad * n * n + d.c_auger * n * n * n;
        let gen = 1000.0 / (ELEMENTARY_CHARGE * d.active_thickness_cm);
        assert!((recomb / gen - 1.0).abs() < 1e-9);
    }

    #[test]
    fn iqe_droops_at_high_density() {
        let d = led();
        // Efficiency climbs out of the SRH-dominated region at very low
        // density, peaks, then droops under Auger — the thin-well defaults
        // put the peak at tens of A/cm².
        let srh = d.iqe(d.current_for_density(0.1));
        let peak = d.iqe(d.current_for_density(50.0));
        let mid = d.iqe(d.current_for_density(500.0));
        let high = d.iqe(d.current_for_density(20_000.0));
        assert!(peak > srh, "peak={peak} srh={srh}");
        assert!(mid < peak, "mid={mid} peak={peak}");
        assert!(high < mid, "high={high} mid={mid}");
        assert!(high > 0.0 && high < 1.0);
    }

    #[test]
    fn bandwidth_reaches_gigahertz_at_high_drive() {
        // The architectural premise: a small GaN microLED reaches ~1 GHz
        // (enough for ~2 Gb/s NRZ with mild equalization) at kA/cm² drive.
        let d = led();
        let f = d.modulation_bandwidth(d.current_for_density(3000.0));
        assert!(f.as_ghz() > 0.7, "got {f}");
        assert!(f.as_ghz() < 5.0, "got {f}");
    }

    #[test]
    fn bandwidth_rises_with_current() {
        let d = led();
        let f1 = d.modulation_bandwidth(d.current_for_density(100.0));
        let f2 = d.modulation_bandwidth(d.current_for_density(1000.0));
        assert!(f2.as_hz() > f1.as_hz());
    }

    #[test]
    fn sub_milliwatt_optical_output_at_operating_point() {
        // ~1 mA drive on a 4 µm device → hundreds of µW optical.
        let d = led();
        let i = d.current_for_density(3000.0);
        let p = d.optical_power(i);
        assert!(
            p.as_watts() * 1e6 > 100.0 && p.as_watts() * 1e6 < 3000.0,
            "got {p}"
        );
    }

    #[test]
    fn smaller_devices_same_density_same_bandwidth() {
        // Carrier dynamics depend on density, not absolute current.
        let big = MicroLed {
            diameter_m: 8e-6,
            ..led()
        };
        let small = MicroLed {
            diameter_m: 2e-6,
            ..led()
        };
        let fb = big.carrier_bandwidth(big.current_for_density(2000.0));
        let fs = small.carrier_bandwidth(small.current_for_density(2000.0));
        assert!((fb.as_hz() / fs.as_hz() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn hot_device_emits_less_light() {
        let cold = led();
        let hot = cold.at_temperature(85.0);
        let i = cold.current_for_density(3000.0);
        let p_cold = cold.optical_power(i);
        let p_hot = hot.optical_power(i);
        assert!(p_hot.as_watts() < p_cold.as_watts());
        // …but degradation over the datacenter range stays moderate
        // (within ~3 dB), which is what makes uncooled operation viable.
        assert!(
            p_hot.as_watts() > 0.5 * p_cold.as_watts(),
            "hot {p_hot} cold {p_cold}"
        );
    }

    #[test]
    fn temperature_red_shifts_and_droops() {
        let cold = led();
        let hot = cold.at_temperature(85.0);
        assert!(hot.wavelength_m > cold.wavelength_m);
        let i = cold.current_for_density(3000.0);
        assert!(hot.iqe(i) < cold.iqe(i));
        // 25 °C is the identity.
        let same = cold.at_temperature(25.0);
        assert!((same.iqe(i) - cold.iqe(i)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn optical_power_monotone_decreasing_in_temperature(t1 in 0f64..100.0, t2 in 0f64..100.0) {
            let d = led();
            let (lo, hi) = if t1 < t2 { (t1, t2) } else { (t2, t1) };
            let i = d.current_for_density(3000.0);
            let p_lo = d.at_temperature(lo).optical_power(i);
            let p_hi = d.at_temperature(hi).optical_power(i);
            prop_assert!(p_lo.as_watts() >= p_hi.as_watts() * (1.0 - 1e-9));
        }

        #[test]
        fn carrier_density_monotone_in_current(j1 in 1f64..2e4, j2 in 1f64..2e4) {
            let d = led();
            let (lo, hi) = if j1 < j2 { (j1, j2) } else { (j2, j1) };
            let n_lo = d.carrier_density(d.current_for_density(lo));
            let n_hi = d.carrier_density(d.current_for_density(hi));
            prop_assert!(n_lo <= n_hi * (1.0 + 1e-9));
        }

        #[test]
        fn efficiencies_bounded(j in 1f64..5e4) {
            let d = led();
            let i = d.current_for_density(j);
            let iqe = d.iqe(i);
            prop_assert!(iqe > 0.0 && iqe < 1.0);
            // Wall-plug efficiency: optical watts out per electrical watt in.
            prop_assert!(d.optical_power(i) / d.electrical_power(i) < iqe);
        }

        #[test]
        fn optical_power_monotone(j1 in 1f64..2e4, j2 in 1f64..2e4) {
            let d = led();
            let (lo, hi) = if j1 < j2 { (j1, j2) } else { (j2, j1) };
            let p_lo = d.optical_power(d.current_for_density(lo));
            let p_hi = d.optical_power(d.current_for_density(hi));
            prop_assert!(p_lo.as_watts() <= p_hi.as_watts() * (1.0 + 1e-9));
        }
    }
}

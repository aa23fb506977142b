//! Transmitter driver models: what it costs electrically to modulate a
//! microLED (Mosaic) or a laser (baselines).

use crate::laser::ThresholdLaser;
use crate::math::bisect;
use crate::microled::MicroLed;
use mosaic_units::{BitRate, EnergyPerBit, Power};

/// Energy per bit of the CMOS logic that gates a microLED driver
/// (pre-driver, level shifting); small because the load is a single tiny
/// LED, not a 50 Ω line.
pub const LED_DRIVER_LOGIC_PJ_PER_BIT: f64 = 0.3;

/// Supply/conversion overhead applied to all driver currents (regulator and
/// distribution losses).
pub const SUPPLY_OVERHEAD: f64 = 1.15;

/// Operating point of an OOK-modulated microLED channel.
#[derive(Debug, Clone, PartialEq)]
pub struct LedDrive {
    /// "One"-level drive current, A.
    pub i_on: f64,
    /// "Zero"-level drive current, A (kept above zero to preserve speed).
    pub i_off: f64,
    /// Achieved optical extinction ratio (linear).
    pub extinction_ratio: f64,
}

impl LedDrive {
    /// Choose drive levels for `led` such that the *on* level is `i_on` and
    /// the optical extinction ratio is `er` (linear > 1). Because the LED's
    /// L-I curve is sub-linear under droop, the off current is found
    /// numerically.
    pub fn with_extinction(led: &MicroLed, i_on: f64, er: f64) -> Self {
        assert!(er > 1.0, "extinction ratio must exceed 1");
        let p_on = led.optical_power(i_on).as_watts();
        let target = p_on / er;
        let i_off = bisect(i_on * 1e-6, i_on, 120, |i| {
            led.optical_power(i).as_watts() - target
        });
        LedDrive {
            i_on,
            i_off,
            extinction_ratio: er,
        }
    }

    /// Time-average drive current assuming balanced (DC-free) data.
    pub fn avg_current(&self) -> f64 {
        0.5 * (self.i_on + self.i_off)
    }

    /// Average electrical power of LED + driver at `rate`, including the
    /// CMOS gating logic and supply overhead.
    pub fn electrical_power(&self, led: &MicroLed, rate: BitRate) -> Power {
        let device = led.electrical_power(self.avg_current()) * SUPPLY_OVERHEAD;
        let logic = EnergyPerBit::from_pj_per_bit(LED_DRIVER_LOGIC_PJ_PER_BIT).power_at(rate);
        device + logic
    }

    /// Average *optical* launch power (into the coupling optics).
    pub fn launch_power(&self, led: &MicroLed) -> Power {
        (led.optical_power(self.i_on) + led.optical_power(self.i_off)) * 0.5
    }
}

/// Average electrical power to directly modulate a threshold laser with OOK
/// at extinction ratio `er`, producing average optical power `avg_optical`.
pub fn laser_drive_power<L: ThresholdLaser>(laser: &L, avg_optical: Power, er: f64) -> Power {
    assert!(er > 1.0, "extinction ratio must exceed 1");
    // Split average optical into on/off levels, map through the L-I curve.
    let p1 = avg_optical * (2.0 * er / (er + 1.0));
    let p0 = avg_optical * (2.0 / (er + 1.0));
    let i_avg = 0.5 * (laser.current_for_power(p1) + laser.current_for_power(p0));
    laser.electrical_power(i_avg) * SUPPLY_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laser::Vcsel;

    #[test]
    fn extinction_solver_hits_target() {
        let led = MicroLed::default();
        let i_on = led.current_for_density(3000.0);
        let drive = LedDrive::with_extinction(&led, i_on, 6.0);
        let p_on = led.optical_power(drive.i_on).as_watts();
        let p_off = led.optical_power(drive.i_off).as_watts();
        assert!((p_on / p_off - 6.0).abs() < 0.01);
    }

    #[test]
    fn off_current_below_on_current() {
        let led = MicroLed::default();
        let i_on = led.current_for_density(2000.0);
        let drive = LedDrive::with_extinction(&led, i_on, 8.0);
        assert!(drive.i_off > 0.0 && drive.i_off < drive.i_on);
    }

    #[test]
    fn channel_power_is_milliwatts() {
        // A Mosaic channel should cost single-digit mW — the premise of the
        // 69 % power claim.
        let led = MicroLed::default();
        let i_on = led.current_for_density(3000.0);
        let drive = LedDrive::with_extinction(&led, i_on, 6.0);
        let p = drive.electrical_power(&led, BitRate::from_gbps(2.0));
        assert!(
            p.as_watts() * 1e3 > 0.5 && p.as_watts() * 1e3 < 10.0,
            "got {p}"
        );
    }

    #[test]
    fn laser_drive_pays_threshold_tax() {
        let v = Vcsel::default();
        let p = laser_drive_power(&v, Power::from_mw(1.0), 4.0);
        // Even at modest optical output the threshold keeps drive power
        // well above the LED channel's.
        assert!(p.as_watts() * 1e3 > 5.0, "got {p}");
    }
}

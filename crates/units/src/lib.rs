//! Strongly-typed physical quantities for the Mosaic reproduction.
//!
//! Link-budget engineering mixes logarithmic (dB, dBm) and linear (mW, V/A)
//! quantities, electrical and optical bandwidths, and rates spanning six
//! orders of magnitude. Mixing those up silently is the classic source of
//! wrong link budgets, so every crate in this workspace trades in the
//! newtypes defined here instead of bare `f64`s.
//!
//! Design rules (kept deliberately simple, in the spirit of smoltcp's
//! "simplicity and robustness" goals: no type-level tricks, no macro
//! machinery):
//!
//! * every quantity is a `#[repr(transparent)]` newtype over `f64`;
//! * constructors are named after the unit (`Power::from_dbm`,
//!   `BitRate::from_gbps`), accessors likewise (`.as_dbm()`, `.as_gbps()`);
//! * only physically meaningful arithmetic is implemented (you can add two
//!   powers, you cannot add a power to a rate);
//! * conversions between log and linear domains are explicit methods, never
//!   `From` impls, so the call site always names the unit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decibel;
pub mod energy;
pub mod error;
pub mod fit;
pub mod frequency;
pub mod length;
pub mod power;
pub mod rate;
pub mod time;

pub use decibel::Db;
pub use energy::EnergyPerBit;
pub use error::{MosaicError, Result};
pub use fit::Fit;
pub use frequency::Frequency;
pub use length::Length;
pub use power::Power;
pub use rate::BitRate;
pub use time::Duration;

/// Elementary charge, C. Used by shot-noise and responsivity models.
pub const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;

/// Planck constant, J·s. Used to convert optical power to photon rate.
pub const PLANCK: f64 = 6.626_070_15e-34;

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 2.997_924_58e8;

/// Photon energy in joules at a given wavelength in metres.
///
/// ```
/// let e = mosaic_units::photon_energy_j(450e-9);
/// assert!((e - 4.41e-19).abs() < 0.05e-19); // blue photon ≈ 2.76 eV
/// ```
pub fn photon_energy_j(wavelength_m: f64) -> f64 {
    PLANCK * SPEED_OF_LIGHT / wavelength_m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photon_energy_blue_vs_infrared() {
        // Blue (450 nm, GaN microLED) photons carry ~3x the energy of
        // datacom infrared (1310 nm) photons.
        let blue = photon_energy_j(450e-9);
        let ir = photon_energy_j(1310e-9);
        assert!(blue > 2.8 * ir && blue < 3.0 * ir);
    }
}

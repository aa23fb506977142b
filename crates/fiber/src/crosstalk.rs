//! Inter-core crosstalk and misalignment spill.
//!
//! Two mechanisms put a neighbor's light into a victim channel:
//!
//! 1. **Intrinsic core-to-core coupling** inside the fiber. It accumulates
//!    linearly with length and falls off exponentially with core pitch —
//!    the standard coupled-mode behaviour for phase-mismatched multimode
//!    cores.
//! 2. **Imaging misalignment** at either facet: if the lens images the LED
//!    (or core) grid onto the pixel grid with a lateral offset or a small
//!    rotation, a Gaussian-ish spot spills into the adjacent pixel.
//!
//! Because microLED channels are mutually *incoherent*, crosstalk adds in
//! optical power (no coherent beating), and the worst-case eye penalty for
//! a total relative crosstalk `x` is `−10·log10(1 − 2x)`.

use crate::geometry::CoreLattice;
use mosaic_units::{Db, Length};

/// Intrinsic core-to-core coupling model.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreCoupling {
    /// Per-metre nearest-neighbor crosstalk (linear power ratio) at the
    /// reference pitch.
    pub xt_per_m_at_ref: f64,
    /// Reference pitch.
    pub ref_pitch: Length,
    /// Exponential pitch sensitivity, 1/µm of *extra* pitch. 0.46/µm ≈
    /// −2 dB of crosstalk per additional µm of separation.
    pub gamma_per_um: f64,
}

impl CoreCoupling {
    /// Default imaging-fiber coupling: −40 dB/m per neighbor at 20 µm pitch.
    pub fn imaging_default() -> Self {
        CoreCoupling {
            xt_per_m_at_ref: 1e-4,
            ref_pitch: Length::from_um(20.0),
            gamma_per_um: 0.46,
        }
    }

    /// Per-metre nearest-neighbor crosstalk (linear) at a given pitch.
    pub fn xt_per_m(&self, pitch: Length) -> f64 {
        let extra_um = pitch.as_um() - self.ref_pitch.as_um();
        self.xt_per_m_at_ref * (-self.gamma_per_um * extra_um).exp()
    }

    /// Accumulated nearest-neighbor crosstalk (linear) over `length`,
    /// saturating at 0.5 (fully mixed).
    pub fn xt_total(&self, pitch: Length, length: Length) -> f64 {
        (self.xt_per_m(pitch) * length.as_m()).min(0.5)
    }
}

/// Static misalignment of the imaging optics relative to the pixel grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Misalignment {
    /// Lateral image offset at the array plane.
    pub lateral: Length,
    /// Image rotation, radians (offset grows with radial position).
    pub rotation_rad: f64,
}

impl Misalignment {
    /// Perfect alignment.
    pub const NONE: Misalignment = Misalignment {
        lateral: Length::ZERO,
        rotation_rad: 0.0,
    };

    /// Effective offset magnitude for a channel at radius `r` from the
    /// optical axis: lateral and rotational (`r·θ`) contributions in
    /// quadrature.
    pub fn offset_at(&self, r: Length) -> Length {
        let lat = self.lateral.as_m();
        let rot = r.as_m() * self.rotation_rad;
        Length::from_m((lat * lat + rot * rot).sqrt())
    }
}

/// Gaussian-spot overlap: fraction of a spot of 1/e² radius `w` landing on
/// a pixel centred `d` away, relative to perfect centring.
fn gaussian_overlap(d: Length, w: Length) -> f64 {
    let x = d.as_m() / w.as_m();
    (-2.0 * x * x).exp()
}

/// Length-independent crosstalk terms of one channel, cached across the
/// length probes of a reach bisection. Built by
/// [`CrosstalkModel::xt_statics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XtStatics {
    /// Populated neighbor count, as the f64 factor used by the model.
    pub neighbors: f64,
    /// Misalignment spill term (linear ratio), already neighbor-weighted.
    pub spill: f64,
}

/// Per-channel crosstalk analysis over a lattice.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstalkModel {
    /// Intrinsic coupling.
    pub coupling: CoreCoupling,
    /// Static imaging misalignment.
    pub misalignment: Misalignment,
    /// Imaged spot 1/e² radius as a fraction of the pitch (≈0.35 for a
    /// well-designed relay).
    pub spot_fraction: f64,
}

impl CrosstalkModel {
    /// A well-aligned default model.
    pub fn default_aligned() -> Self {
        CrosstalkModel {
            coupling: CoreCoupling::imaging_default(),
            misalignment: Misalignment::NONE,
            spot_fraction: 0.35,
        }
    }

    /// Self-coupling efficiency (0..1) of channel `idx`: how much of its
    /// own light still lands on its own pixel given misalignment. This is
    /// a *loss* applied to the signal path.
    pub fn self_coupling(&self, lattice: &CoreLattice, idx: usize) -> f64 {
        let r = lattice.radius_of(idx);
        let d = self.misalignment.offset_at(r);
        let w = lattice.pitch * self.spot_fraction;
        gaussian_overlap(d, w)
    }

    /// The channel-independent factor of [`CrosstalkModel::total_crosstalk`]:
    /// accumulated per-neighbor intrinsic crosstalk over `length`. Hoist it
    /// once per span when budgeting many channels (DESIGN §11).
    pub fn xt_unit(&self, lattice: &CoreLattice, length: Length) -> f64 {
        self.coupling.xt_total(lattice.pitch, length)
    }

    /// Total relative crosstalk (linear power ratio, aggressors vs. signal)
    /// landing on channel `idx` over a fiber of `length`.
    pub fn total_crosstalk(&self, lattice: &CoreLattice, idx: usize, length: Length) -> f64 {
        self.total_crosstalk_with_unit(lattice, idx, self.xt_unit(lattice, length))
    }

    /// [`CrosstalkModel::total_crosstalk`] with the length-dependent
    /// [`CrosstalkModel::xt_unit`] already computed — bit-identical to the
    /// one-shot form (same operands, same combination order).
    pub fn total_crosstalk_with_unit(
        &self,
        lattice: &CoreLattice,
        idx: usize,
        xt_unit: f64,
    ) -> f64 {
        self.total_crosstalk_cached(&self.xt_statics(lattice, idx), xt_unit)
    }

    /// The length-*independent* pieces of [`CrosstalkModel::total_crosstalk`]
    /// for one channel: neighbor count and misalignment spill. Reach
    /// bisections cache these per channel and re-evaluate only the
    /// length-dependent [`CrosstalkModel::xt_unit`] per probe (DESIGN §11).
    pub fn xt_statics(&self, lattice: &CoreLattice, idx: usize) -> XtStatics {
        let neighbors = lattice.neighbor_count(idx);

        // Misalignment spill: each neighbor's (equally misaligned) spot is
        // displaced from my pixel by (pitch ⊖ offset); take the dominant
        // nearest approach — offset directly toward me.
        let w = lattice.pitch * self.spot_fraction;
        let r = lattice.radius_of(idx);
        let offset = self.misalignment.offset_at(r);
        let gap = Length::from_m((lattice.pitch.as_m() - offset.as_m()).max(0.0));
        let spill = gaussian_overlap(gap, w) * neighbors.min(2) as f64;
        XtStatics {
            neighbors: neighbors as f64,
            spill,
        }
    }

    /// Combine cached [`XtStatics`] with a span's `xt_unit` — the same
    /// float sequence as the one-shot `total_crosstalk`, so bit-identical.
    pub fn total_crosstalk_cached(&self, statics: &XtStatics, xt_unit: f64) -> f64 {
        let intrinsic = xt_unit * statics.neighbors;
        (intrinsic + statics.spill).min(0.9)
    }
}

/// Worst-case incoherent eye penalty for total relative crosstalk `x`:
/// `−10·log10(1 − 2x)`, positive dB; `None` once the eye closes.
pub fn crosstalk_penalty(x: f64) -> Option<Db> {
    assert!(x >= 0.0, "crosstalk ratio cannot be negative");
    if x >= 0.5 {
        return None;
    }
    Some(Db::from_linear(1.0 - 2.0 * x).invert())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lattice() -> CoreLattice {
        CoreLattice::spiral(127, Length::from_um(20.0))
    }

    #[test]
    fn calibration_anchor() {
        // −40 dB/m at 20 µm ⇒ over 10 m one neighbor contributes −30 dB.
        let c = CoreCoupling::imaging_default();
        let xt = c.xt_total(Length::from_um(20.0), Length::from_m(10.0));
        assert!((10.0 * xt.log10() + 30.0).abs() < 0.01);
    }

    #[test]
    fn wider_pitch_reduces_crosstalk() {
        let c = CoreCoupling::imaging_default();
        let near = c.xt_per_m(Length::from_um(15.0));
        let far = c.xt_per_m(Length::from_um(30.0));
        assert!(near / far > 100.0);
    }

    #[test]
    fn aligned_center_channel_penalty_is_small() {
        let m = CrosstalkModel::default_aligned();
        let lat = lattice();
        let pen = crosstalk_penalty(m.total_crosstalk(&lat, 0, Length::from_m(10.0))).unwrap();
        assert!(pen.as_db() < 0.2, "got {pen}");
        assert!(pen.as_db() > 0.0);
    }

    #[test]
    fn edge_channels_see_less_intrinsic_crosstalk() {
        // Fewer populated neighbors at the lattice edge.
        let m = CrosstalkModel::default_aligned();
        let lat = lattice();
        let center = m.total_crosstalk(&lat, 0, Length::from_m(10.0));
        let edge = m.total_crosstalk(&lat, lat.len() - 1, Length::from_m(10.0));
        assert!(edge < center);
    }

    #[test]
    fn misalignment_costs_signal_and_adds_spill() {
        let lat = lattice();
        let mut m = CrosstalkModel::default_aligned();
        let clean_self = m.self_coupling(&lat, 0);
        let clean_xt = m.total_crosstalk(&lat, 0, Length::from_m(10.0));
        m.misalignment = Misalignment {
            lateral: Length::from_um(6.0),
            rotation_rad: 0.0,
        };
        assert!(m.self_coupling(&lat, 0) < clean_self);
        assert!(m.total_crosstalk(&lat, 0, Length::from_m(10.0)) > clean_xt);
    }

    #[test]
    fn rotation_hits_outer_channels_hardest() {
        let lat = lattice();
        let m = CrosstalkModel {
            misalignment: Misalignment {
                lateral: Length::ZERO,
                rotation_rad: 0.05,
            },
            ..CrosstalkModel::default_aligned()
        };
        let center = m.self_coupling(&lat, 0);
        let outer = m.self_coupling(&lat, lat.len() - 1);
        assert!(outer < center);
        assert!((center - 1.0).abs() < 1e-9); // axis channel unaffected
    }

    #[test]
    fn penalty_closes_eye_at_half() {
        assert!(crosstalk_penalty(0.5).is_none());
        assert!(crosstalk_penalty(0.49).is_some());
        assert!((crosstalk_penalty(0.0).unwrap().as_db()).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn penalty_monotone(x1 in 0f64..0.49, x2 in 0f64..0.49) {
            let (lo, hi) = if x1 < x2 { (x1, x2) } else { (x2, x1) };
            let p_lo = crosstalk_penalty(lo).unwrap().as_db();
            let p_hi = crosstalk_penalty(hi).unwrap().as_db();
            prop_assert!(p_lo <= p_hi + 1e-12);
        }

        #[test]
        fn self_coupling_bounded(um in 0f64..15.0) {
            let lat = lattice();
            let m = CrosstalkModel {
                misalignment: Misalignment { lateral: Length::from_um(um), rotation_rad: 0.0 },
                ..CrosstalkModel::default_aligned()
            };
            for idx in [0usize, 3, 60, 126] {
                let s = m.self_coupling(&lat, idx);
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }

        #[test]
        fn crosstalk_grows_with_length(m1 in 1f64..50.0, m2 in 1f64..50.0) {
            let lat = lattice();
            let model = CrosstalkModel::default_aligned();
            let (lo, hi) = if m1 < m2 { (m1, m2) } else { (m2, m1) };
            let x_lo = model.total_crosstalk(&lat, 0, Length::from_m(lo));
            let x_hi = model.total_crosstalk(&lat, 0, Length::from_m(hi));
            prop_assert!(x_lo <= x_hi + 1e-15);
        }
    }
}

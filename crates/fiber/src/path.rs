//! End-to-end optical path assembly: one [`ImagingFiber`] plus coupling
//! optics yields a per-channel [`ChannelPath`] budget that the link-level
//! code consumes.

use crate::attenuation::Attenuation;
use crate::coupling::CouplingBudget;
use crate::crosstalk::CrosstalkModel;
use crate::dispersion::ModalDispersion;
use crate::geometry::CoreLattice;
use mosaic_units::{Db, Frequency, Length};

/// A massively multicore imaging fiber with its coupling optics — the
/// Mosaic medium.
#[derive(Debug, Clone, PartialEq)]
pub struct ImagingFiber {
    /// The core lattice carrying the channels.
    pub lattice: CoreLattice,
    /// Span length.
    pub length: Length,
    /// Glass attenuation model.
    pub attenuation: Attenuation,
    /// Modal dispersion model.
    pub dispersion: ModalDispersion,
    /// Crosstalk and misalignment model.
    pub crosstalk: CrosstalkModel,
    /// Coupling budget for every channel.
    pub coupling: CouplingBudget,
}

impl ImagingFiber {
    /// A Mosaic-default fiber with `channels` assigned cores at 20 µm pitch
    /// over `length`.
    pub fn mosaic_default(channels: usize, length: Length) -> Self {
        ImagingFiber {
            lattice: CoreLattice::spiral(channels, Length::from_um(20.0)),
            length,
            attenuation: Attenuation::imaging_glass(),
            dispersion: ModalDispersion::imaging_core(),
            crosstalk: CrosstalkModel::default_aligned(),
            coupling: CouplingBudget::mosaic_default(),
        }
    }

    /// Number of assigned channels.
    pub fn channels(&self) -> usize {
        self.lattice.len()
    }

    /// The length- and wavelength-dependent but channel-*independent*
    /// parts of every [`ChannelPath`]: propagation loss, coupling loss,
    /// modal bandwidth, and the per-neighbor intrinsic crosstalk unit.
    /// Sweep loops that budget many channels at one span length compute
    /// this once instead of once per channel (the host-side precompute
    /// discipline of DESIGN §11); the per-channel remainder is applied by
    /// [`ImagingFiber::channel_path_cached`].
    pub fn span_budget(&self, wavelength_m: f64) -> SpanBudget {
        SpanBudget {
            propagation: self.attenuation.loss(self.length, wavelength_m),
            coupling: self.coupling.loss(),
            modal_bandwidth: self.dispersion.bandwidth_at(self.length),
            xt_unit: self.crosstalk.xt_unit(&self.lattice, self.length),
        }
    }

    /// The length-independent per-channel terms of a [`ChannelPath`]:
    /// misalignment self-coupling loss and the crosstalk statics. A reach
    /// bisection computes these once per channel and re-evaluates only the
    /// [`SpanBudget`] per length probe.
    ///
    /// # Panics
    /// Panics if `channel` is out of range.
    pub fn channel_statics(&self, channel: usize) -> ChannelStatics {
        assert!(channel < self.channels(), "channel {channel} out of range");
        ChannelStatics {
            self_coupling: Db::from_linear(
                self.crosstalk
                    .self_coupling(&self.lattice, channel)
                    .max(1e-12),
            ),
            xt: self.crosstalk.xt_statics(&self.lattice, channel),
        }
    }

    /// The budget of channel `channel`, assembled from its span and channel
    /// terms.
    pub fn channel_path_cached(
        &self,
        span: &SpanBudget,
        statics: &ChannelStatics,
        channel: usize,
    ) -> ChannelPath {
        let xt = self
            .crosstalk
            .total_crosstalk_cached(&statics.xt, span.xt_unit);
        ChannelPath {
            channel,
            loss: span.propagation + span.coupling + statics.self_coupling,
            modal_bandwidth: span.modal_bandwidth,
            crosstalk_ratio: xt,
            crosstalk_penalty: crate::crosstalk::crosstalk_penalty(xt),
        }
    }
}

/// The length-independent per-channel half of a [`ChannelPath`]. Built by
/// [`ImagingFiber::channel_statics`], consumed by
/// [`ImagingFiber::channel_path_cached`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelStatics {
    /// Misalignment self-coupling loss (≤ 0 dB).
    pub self_coupling: Db,
    /// Crosstalk statics (neighbor count, misalignment spill).
    pub xt: crate::crosstalk::XtStatics,
}

/// The channel-independent half of a [`ChannelPath`]: everything that
/// depends only on span length and wavelength. Built by
/// [`ImagingFiber::span_budget`], consumed by
/// [`ImagingFiber::channel_path_cached`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanBudget {
    /// Glass propagation loss over the span.
    pub propagation: Db,
    /// Coupling-optics loss (length-independent, carried for convenience).
    pub coupling: Db,
    /// Modal bandwidth available over the span.
    pub modal_bandwidth: Frequency,
    /// Accumulated per-neighbor intrinsic crosstalk (linear ratio).
    pub xt_unit: f64,
}

/// The optical budget of one channel through the fiber assembly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPath {
    /// Channel index (spiral order from the lattice center).
    pub channel: usize,
    /// Total path loss (propagation + coupling + misalignment), ≤ 0 dB.
    pub loss: Db,
    /// Modal bandwidth available over this span.
    pub modal_bandwidth: Frequency,
    /// Total incoherent crosstalk ratio from neighbors.
    pub crosstalk_ratio: f64,
    /// Worst-case crosstalk eye penalty (positive dB), `None` if closed.
    pub crosstalk_penalty: Option<Db>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosstalk::Misalignment;

    const BLUE: f64 = 450e-9;

    fn path(f: &ImagingFiber, channel: usize) -> ChannelPath {
        f.channel_path_cached(&f.span_budget(BLUE), &f.channel_statics(channel), channel)
    }

    #[test]
    fn prototype_budget_is_plausible() {
        // 100 channels, 10 m: loss should be coupling (~8 dB) plus ~0.8 dB
        // of glass — well under 15 dB, leaving margin for an LED launch.
        let f = ImagingFiber::mosaic_default(100, Length::from_m(10.0));
        let p = path(&f, 0);
        assert!(
            p.loss.as_db() < -7.0 && p.loss.as_db() > -15.0,
            "{}",
            p.loss
        );
        assert!(p.crosstalk_penalty.is_some());
        assert!(p.modal_bandwidth.as_ghz() > 5.0);
    }

    #[test]
    fn fifty_metres_still_usable_at_2g() {
        let f = ImagingFiber::mosaic_default(400, Length::from_m(50.0));
        let p = path(&f, 0);
        // ~4 dB glass + ~8 dB coupling; modal bandwidth ≈ 2 GHz.
        assert!(p.loss.as_db() > -16.0, "{}", p.loss);
        assert!(p.modal_bandwidth.as_ghz() > 1.4, "{}", p.modal_bandwidth);
    }

    #[test]
    fn loss_grows_with_length() {
        let short = ImagingFiber::mosaic_default(100, Length::from_m(5.0));
        let long = ImagingFiber::mosaic_default(100, Length::from_m(50.0));
        assert!(path(&long, 0).loss.as_db() < path(&short, 0).loss.as_db());
    }

    #[test]
    fn misaligned_outer_channels_pay_more() {
        let mut f = ImagingFiber::mosaic_default(127, Length::from_m(10.0));
        f.crosstalk.misalignment = Misalignment {
            lateral: Length::from_um(3.0),
            rotation_rad: 0.03,
        };
        let center = path(&f, 0);
        let outer = path(&f, 126);
        assert!(outer.loss.as_db() < center.loss.as_db());
    }

    #[test]
    fn paths_carry_their_channel_index() {
        let f = ImagingFiber::mosaic_default(61, Length::from_m(10.0));
        for i in 0..f.channels() {
            assert_eq!(path(&f, i).channel, i);
        }
    }
}

//! The per-channel optical budget engine.
//!
//! For every channel the budget composes, in dB:
//!
//! ```text
//!   received = launch + path_loss(fiber, coupling, misalignment)
//!   penalties = ISI(LED ⊕ fiber bandwidth vs. rate) + crosstalk(worst case)
//!   margin   = received − penalties − sensitivity(target pre-FEC BER)
//! ```
//!
//! and converts the penalized received power into an expected pre-FEC BER
//! through the Gaussian receiver model. The worst channel's margin is the
//! link's margin; the reach limit is where that margin crosses zero.

use crate::config::MosaicConfig;
use mosaic_fiber::path::{ChannelStatics, ImagingFiber};
use mosaic_fiber::{ChannelPath, CoreLattice, SpanBudget};
use mosaic_phy::ber::{OokReceiver, Pam4Receiver};
use mosaic_phy::driver::LedDrive;
use mosaic_phy::eye::isi_penalty;
use mosaic_phy::modulation::Modulation;
use mosaic_phy::noise::NoiseBudget;
use mosaic_phy::photodiode::Photodiode;
use mosaic_phy::tia::Tia;
use mosaic_units::{Db, Length, Power};

/// Minimum worst-case eye opening an unequalized slicer can work with.
pub const MIN_EYE_OPENING: f64 = 0.5;

/// Budget results for one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelBudget {
    /// Channel index (spiral order).
    pub channel: usize,
    /// Average optical launch power.
    pub launch: Power,
    /// Average received power after all path losses.
    pub received: Power,
    /// ISI penalty (LED ⊕ fiber bandwidth), `None` = eye closed.
    pub isi_penalty: Option<Db>,
    /// Crosstalk penalty, `None` = eye closed.
    pub crosstalk_penalty: Option<Db>,
    /// Margin above the FEC-threshold sensitivity, `None` = unusable.
    pub margin: Option<Db>,
    /// Expected pre-FEC BER at the penalized operating point.
    pub expected_ber: f64,
}

/// Receiver dispatch over the configured modulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelReceiver {
    /// NRZ on-off keying (the paper's design point).
    Ook(OokReceiver),
    /// PAM4 (the rate-scaling extension).
    Pam4(Pam4Receiver),
}

impl ChannelReceiver {
    /// Expected BER at an average received power.
    pub fn ber_at(&self, p: Power) -> f64 {
        match self {
            ChannelReceiver::Ook(rx) => rx.ber_at(p),
            ChannelReceiver::Pam4(rx) => rx.ber_at(p),
        }
    }

    /// Sensitivity at a target BER.
    pub fn sensitivity(&self, target: f64) -> Option<Power> {
        match self {
            ChannelReceiver::Ook(rx) => rx.sensitivity(target),
            ChannelReceiver::Pam4(rx) => rx.sensitivity(target),
        }
    }

    /// The OOK view, if this is an OOK receiver.
    pub fn as_ook(&self) -> Option<&OokReceiver> {
        match self {
            ChannelReceiver::Ook(rx) => Some(rx),
            ChannelReceiver::Pam4(_) => None,
        }
    }
}

/// The assembled budget engine for a configuration.
pub struct BudgetEngine {
    fiber: ImagingFiber,
    drive: LedDrive,
    rx: ChannelReceiver,
    wavelength_m: f64,
    symbol_rate: mosaic_units::BitRate,
    led_bandwidth: mosaic_units::Frequency,
    /// Receiver sensitivity at the FEC threshold — identical for every
    /// channel (same receiver), so solved once.
    sensitivity: Option<Power>,
    /// Span-level (length-dependent, channel-independent) path terms,
    /// refreshed by [`BudgetEngine::set_length`].
    span: SpanBudget,
    /// Per-channel length-independent path terms, built once per engine.
    statics: Vec<ChannelStatics>,
    /// ISI penalty at the current span length, `None` = eye closed.
    /// Channel-independent: every channel shares the LED pole and the
    /// span's modal bandwidth.
    isi: Option<Db>,
}

impl BudgetEngine {
    /// Build the engine from a configuration.
    pub fn new(cfg: &MosaicConfig) -> Self {
        let mut fiber = ImagingFiber::mosaic_default(cfg.total_channels(), cfg.length);
        fiber.lattice = CoreLattice::spiral(cfg.total_channels(), cfg.core_pitch);
        fiber.crosstalk.misalignment = cfg.misalignment;
        fiber.coupling = cfg.coupling.clone();

        let drive = LedDrive::with_extinction(&cfg.led, cfg.drive_current(), cfg.extinction_ratio);
        // Analog front-end sized to the *symbol* rate.
        let tia = Tia::low_speed(cfg.baud_gbd());
        let noise = NoiseBudget {
            thermal_a: tia.rms_noise_current(),
            bandwidth: tia.bandwidth,
            rin_db_per_hz: None, // LEDs: no laser RIN
        };
        // The PD responsivity tracks the LED's emission wavelength, so
        // multi-color configurations (green/red channels) budget correctly.
        let pd = Photodiode::silicon_at(cfg.led.wavelength_m);
        let rx = match cfg.modulation {
            Modulation::Nrz => ChannelReceiver::Ook(OokReceiver {
                pd: pd.clone(),
                noise,
                extinction_ratio: cfg.extinction_ratio,
            }),
            Modulation::Pam4 => ChannelReceiver::Pam4(Pam4Receiver {
                pd,
                noise,
                extinction_ratio: cfg.extinction_ratio,
            }),
        };
        let target_ber = cfg.fec.ber_threshold();
        let sensitivity = rx.sensitivity(target_ber);
        let statics = (0..fiber.channels())
            .map(|i| fiber.channel_statics(i))
            .collect();
        let mut engine = BudgetEngine {
            fiber,
            drive,
            rx,
            wavelength_m: cfg.led.wavelength_m,
            symbol_rate: mosaic_units::BitRate::from_bps(
                cfg.modulation.symbol_rate(cfg.channel_rate).as_hz(),
            ),
            led_bandwidth: cfg.led.modulation_bandwidth(cfg.drive_current()),
            sensitivity,
            // Placeholders; `refresh_span` derives both from the fields
            // above before the engine is visible to callers.
            span: SpanBudget {
                propagation: Db::new(0.0),
                coupling: Db::new(0.0),
                modal_bandwidth: mosaic_units::Frequency::from_hz(0.0),
                xt_unit: 0.0,
            },
            isi: None,
            statics,
        };
        engine.refresh_span();
        engine
    }

    /// Recompute the span-level caches from the current fiber length.
    ///
    /// ISI: the LED pole cascaded with the span's modal bandwidth.
    /// Mosaic receivers are plain slicers with no equalizer, so beyond
    /// the Gaussian amplitude penalty we require a half-open worst-case
    /// eye (MIN_EYE_OPENING): below that, timing jitter and threshold
    /// drift dominate and no amount of launch power rescues the channel.
    fn refresh_span(&mut self) {
        self.span = self.fiber.span_budget(self.wavelength_m);
        let net_bw = self.led_bandwidth.cascade(self.span.modal_bandwidth);
        let eye = mosaic_phy::eye::worst_case_eye_opening(self.symbol_rate, net_bw);
        self.isi = if eye < MIN_EYE_OPENING {
            None
        } else {
            isi_penalty(self.symbol_rate, net_bw)
        };
    }

    /// Re-point the engine at a different span length.
    ///
    /// Only the fiber length and the span-level caches change: the lattice,
    /// drive, receiver, and FEC-threshold sensitivity are all
    /// length-independent, so the result is bit-identical to building a
    /// fresh engine from the same configuration at the new length — without
    /// repeating the sensitivity solve or the lattice construction. This is
    /// what makes the [`max_reach`] bisection cheap.
    pub fn set_length(&mut self, length: Length) {
        self.fiber.length = length;
        self.refresh_span();
    }

    /// The fiber assembly in use.
    pub fn fiber(&self) -> &ImagingFiber {
        &self.fiber
    }

    /// The channel-rate receiver model.
    pub fn receiver(&self) -> &ChannelReceiver {
        &self.rx
    }

    /// Budget one channel.
    pub fn channel(&self, led: &mosaic_phy::microled::MicroLed, idx: usize) -> ChannelBudget {
        let path: ChannelPath = self
            .fiber
            .channel_path_cached(&self.span, &self.statics[idx], idx);
        let launch = self.drive.launch_power(led);
        let received = launch.apply(path.loss);
        // ISI is channel-independent; see `refresh_span` for the eye rule.
        let isi = self.isi;
        let xt = path.crosstalk_penalty;

        let (margin, expected_ber) = match (isi, xt) {
            (Some(isi_db), Some(xt_db)) => {
                let effective = received.apply((isi_db + xt_db).invert());
                let margin = self.sensitivity.map(|s| effective.ratio_to(s));
                let ber = self.rx.ber_at(effective);
                (margin, ber)
            }
            _ => (None, 0.5),
        };
        ChannelBudget {
            channel: idx,
            launch,
            received,
            isi_penalty: isi,
            crosstalk_penalty: xt,
            margin,
            expected_ber,
        }
    }

    /// Budget every channel.
    pub fn all_channels(&self, led: &mosaic_phy::microled::MicroLed) -> Vec<ChannelBudget> {
        (0..self.fiber.channels())
            .map(|i| self.channel(led, i))
            .collect()
    }

    /// The margin of one channel — [`BudgetEngine::channel`] minus the BER
    /// evaluation, which the margin never depends on. The float sequence
    /// (path loss → penalties → ratio to sensitivity) is the same as in
    /// `channel`, so the value is bit-identical.
    fn margin_of(&self, launch: Power, idx: usize) -> Option<Db> {
        let path = self
            .fiber
            .channel_path_cached(&self.span, &self.statics[idx], idx);
        let received = launch.apply(path.loss);
        match (self.isi, path.crosstalk_penalty) {
            (Some(isi_db), Some(xt_db)) => {
                let effective = received.apply((isi_db + xt_db).invert());
                self.sensitivity.map(|s| effective.ratio_to(s))
            }
            _ => None,
        }
    }

    /// True if every channel closes with non-negative margin — the
    /// [`BudgetEngine::worst_margin`] `≥ 0` predicate with early exit on
    /// the first failing channel, for bisection probes that only need the
    /// verdict. Identical boolean: the minimum is ≥ 0 iff every margin is.
    pub fn all_feasible(&self, led: &mosaic_phy::microled::MicroLed) -> bool {
        let launch = self.drive.launch_power(led);
        (0..self.fiber.channels())
            .all(|i| matches!(self.margin_of(launch, i), Some(m) if m.as_db() >= 0.0))
    }

    /// The worst-channel margin, `None` if any channel is unusable.
    ///
    /// Streams over channels without collecting budgets or computing BERs —
    /// this runs once per [`max_reach`] bisection probe, so it must not
    /// allocate.
    pub fn worst_margin(&self, led: &mosaic_phy::microled::MicroLed) -> Option<Db> {
        let launch = self.drive.launch_power(led);
        (0..self.fiber.channels())
            .map(|i| self.margin_of(launch, i))
            .try_fold(Db::new(f64::INFINITY), |acc, m| m.map(|m| acc.min(m)))
    }
}

/// The maximum span length at which `cfg` still closes with non-negative
/// worst-channel margin (bisection on length; `None` if even a 1 m span
/// fails).
pub fn max_reach(cfg: &MosaicConfig) -> Option<Length> {
    max_reach_with(&mut BudgetEngine::new(cfg), cfg)
}

/// [`max_reach`] reusing an existing engine for `cfg`, mutating its span
/// length across the probes (the engine is left at the last probed
/// length). Lets [`LinkReport`](crate::report::LinkReport) share one
/// engine between the channel budgets and the reach solve.
pub fn max_reach_with(engine: &mut BudgetEngine, cfg: &MosaicConfig) -> Option<Length> {
    // One engine across every probe: only the length moves, so the lattice
    // construction and the sensitivity solve happen once, not ~45 times.
    let mut feasible_at = |m: f64| {
        engine.set_length(Length::from_m(m));
        engine.all_feasible(&cfg.led)
    };
    if !feasible_at(1.0) {
        return None;
    }
    let (mut lo, mut hi) = (1.0f64, 1.0f64);
    while feasible_at(hi) {
        hi *= 2.0;
        if hi > 4096.0 {
            return Some(Length::from_m(hi));
        }
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if feasible_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(Length::from_m(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_units::BitRate;

    fn cfg_800g(m: f64) -> MosaicConfig {
        MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(800.0))
            .reach(Length::from_m(m))
            .build()
            .unwrap()
    }

    #[test]
    fn production_link_closes_at_10m() {
        let cfg = cfg_800g(10.0);
        let engine = BudgetEngine::new(&cfg);
        let worst = engine.worst_margin(&cfg.led).expect("usable");
        assert!(worst.as_db() > 2.0, "worst margin {worst}");
    }

    #[test]
    fn link_closes_at_50m_with_reduced_margin() {
        // C5: 50 m is the edge of the envelope — feasible, slimmer margin.
        let near = BudgetEngine::new(&cfg_800g(10.0));
        let far_cfg = cfg_800g(50.0);
        let far = BudgetEngine::new(&far_cfg);
        let m_near = near.worst_margin(&cfg_800g(10.0).led).unwrap();
        let m_far = far.worst_margin(&far_cfg.led).expect("50 m must close");
        assert!(m_far.as_db() >= 0.0, "50 m margin {m_far}");
        assert!(m_far.as_db() < m_near.as_db());
    }

    #[test]
    fn reach_limit_in_the_claimed_band() {
        // C1/C5: the solved reach should land in the tens-of-metres band
        // (the paper claims "up to 50 m" with engineering margin).
        let reach = max_reach(&cfg_800g(10.0)).expect("feasible at 1 m");
        assert!(reach.as_m() > 50.0 && reach.as_m() < 200.0, "reach {reach}");
    }

    #[test]
    fn expected_ber_below_threshold_when_feasible() {
        let cfg = cfg_800g(10.0);
        let engine = BudgetEngine::new(&cfg);
        for b in engine.all_channels(&cfg.led) {
            assert!(
                matches!(b.margin, Some(m) if m.as_db() >= 0.0),
                "channel {} infeasible",
                b.channel
            );
            assert!(
                b.expected_ber <= cfg.fec.ber_threshold() * 1.001,
                "channel {}: BER {}",
                b.channel,
                b.expected_ber
            );
        }
    }

    #[test]
    fn faster_channels_shrink_reach() {
        let mut cfg = cfg_800g(10.0);
        let base = max_reach(&cfg).unwrap();
        cfg.set_channel_rate(BitRate::from_gbps(4.0));
        let fast = max_reach(&cfg).expect("4G still feasible at short reach");
        assert!(
            fast.as_m() < base.as_m(),
            "4G reach {fast} vs 2G reach {base}"
        );
    }

    #[test]
    fn pam4_halves_channels_but_costs_margin() {
        use mosaic_phy::modulation::Modulation;
        let nrz = cfg_800g(10.0);
        let mut pam4 = cfg_800g(10.0);
        pam4.set_modulation(Modulation::Pam4);
        pam4.set_channel_rate(BitRate::from_gbps(4.0)); // 2 GBd PAM4
        assert_eq!(pam4.active_channels() * 2, nrz.active_channels());
        let m_nrz = BudgetEngine::new(&nrz).worst_margin(&nrz.led).unwrap();
        let m_pam4 = BudgetEngine::new(&pam4)
            .worst_margin(&pam4.led)
            .expect("PAM4 at 10 m should still close");
        // Roughly the 4.8 dB per-eye penalty.
        assert!(
            m_nrz.as_db() - m_pam4.as_db() > 3.0,
            "nrz {m_nrz} pam4 {m_pam4}"
        );
        assert!(m_pam4.as_db() >= 0.0);
    }

    #[test]
    fn pam4_reach_shorter_than_nrz() {
        use mosaic_phy::modulation::Modulation;
        let nrz = cfg_800g(10.0);
        let mut pam4 = cfg_800g(10.0);
        pam4.set_modulation(Modulation::Pam4);
        pam4.set_channel_rate(BitRate::from_gbps(4.0));
        let r_nrz = max_reach(&nrz).unwrap();
        let r_pam4 = max_reach(&pam4).unwrap();
        assert!(r_pam4.as_m() < r_nrz.as_m(), "pam4 {r_pam4} nrz {r_nrz}");
    }

    #[test]
    fn center_channel_is_not_the_worst_under_rotation() {
        use mosaic_fiber::crosstalk::Misalignment;
        let mut cfg = cfg_800g(10.0);
        cfg.misalignment = Misalignment {
            lateral: Length::ZERO,
            rotation_rad: 0.02,
        };
        let engine = BudgetEngine::new(&cfg);
        let budgets = engine.all_channels(&cfg.led);
        let center = budgets[0].margin.unwrap();
        let outer = budgets.last().unwrap().margin.unwrap();
        assert!(outer.as_db() < center.as_db());
    }
}

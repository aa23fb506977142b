//! End-to-end frame-level link simulation.
//!
//! Drives the *real* gearbox (striping, scrambling, CRC framing, sparing)
//! over channels with per-channel BER and a fault campaign. Every delivered
//! frame is validated byte-for-byte against what was sent — the simulator
//! can prove "zero corrupted frames delivered", not merely estimate it.
//!
//! One gearbox plays both ends: its transmit state (scrambler, frame and
//! marker sequence numbers) and receive state (descrambler) are separate
//! fields, and both directions read its one lane map, so transmitting
//! and then receiving through it gives the streams and frames a TX/RX
//! pair failed in lockstep would.
//!
//! Error telemetry: the receive-side health monitors are fed the injected
//! error counts per channel, modeling the per-channel PRBS/FEC counters
//! the Mosaic hardware exposes. When a monitor crosses the degrade
//! threshold (or a kill fault lands), the lane map swaps in a spare at
//! the next epoch boundary — in-flight data is lost, which is visible in
//! the report as lost frames during the failover epoch.
//!
//! Each epoch reads the campaign's per-channel effects: dead darkens the
//! channel, extra BER adds to its baseline (capped at 0.5), skew is
//! ignored (the gearbox deskews whole epochs).

use crate::faults::FaultCampaign;
use crate::inject::BitErrorInjector;
use crate::rng::DetRng;
use mosaic_link::gearbox::{Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_link::lanes::{FailureKind, LaneHealth};
use mosaic_link::striping::LaneWord;

/// Configuration of a link simulation run.
#[derive(Debug, Clone)]
pub struct LinkSimConfig {
    /// Active logical lanes.
    pub logical_lanes: usize,
    /// Physical channels (≥ logical; surplus are spares).
    pub physical_channels: usize,
    /// Alignment-marker period in words per lane.
    pub am_period: usize,
    /// Per-physical-channel baseline BER (post-optics, pre-gearbox).
    pub per_channel_ber: Vec<f64>,
    /// Number of transmit/receive epochs.
    pub epochs: usize,
    /// Frames per epoch.
    pub frames_per_epoch: usize,
    /// Payload bytes per frame.
    pub frame_size: usize,
    /// Master seed.
    pub seed: u64,
    /// Fault campaign over (at most) `physical_channels` channels.
    pub faults: FaultCampaign,
    /// BER above which a channel is retired (None = no monitoring).
    pub degrade_threshold: Option<f64>,
    /// Health-monitor window size in bits (a full window of evidence is
    /// required before a channel can be declared degraded).
    pub monitor_window_bits: u64,
}

impl LinkSimConfig {
    /// A clean 8-over-10 channel link used as a test/example baseline.
    pub fn small_clean() -> Self {
        LinkSimConfig {
            logical_lanes: 8,
            physical_channels: 10,
            am_period: 16,
            per_channel_ber: vec![0.0; 10],
            epochs: 4,
            frames_per_epoch: 16,
            frame_size: 256,
            seed: 1,
            faults: FaultCampaign::default(),
            degrade_threshold: None,
            monitor_window_bits: 10_000,
        }
    }
}

/// Aggregated results of a link simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkSimReport {
    /// Frames transmitted.
    pub frames_sent: u64,
    /// Frames delivered intact (CRC-verified and payload-matched).
    pub frames_delivered: u64,
    /// Frames whose corruption was *detected* (CRC fail / never arrived).
    pub frames_lost: u64,
    /// Frames delivered with wrong content (must always be zero — CRC-32
    /// makes silent corruption vanishingly unlikely and any occurrence is
    /// a bug signal).
    pub frames_silently_corrupted: u64,
    /// Epochs whose deskew failed outright.
    pub deskew_failed_epochs: u64,
    /// Total bits pushed through the channels.
    pub bits_transmitted: u64,
    /// Total bit errors injected.
    pub bit_errors_injected: u64,
    /// Spare remaps performed.
    pub remaps: u64,
    /// Channels retired by the health monitor.
    pub retired_by_monitor: u64,
    /// Payload bytes delivered.
    pub payload_bytes_delivered: u64,
}

impl LinkSimReport {
    /// Fraction of frames delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.frames_sent == 0 {
            return 1.0;
        }
        self.frames_delivered as f64 / self.frames_sent as f64
    }
}

/// Per-physical-channel simulation state: the channel's noise process,
/// health monitor, and fault status. Each state owns its own RNG stream
/// (`chan-{c}`), so a channel's draws do not depend on the others.
struct ChannelState {
    injector: BitErrorInjector,
    monitor: LaneHealth,
    dead: bool,
    /// The BER the injector runs at: baseline plus active elevations.
    ber: f64,
}

/// Run the simulation: a pure function of the config (channels are
/// stepped in order on the calling thread).
pub fn simulate_link(cfg: &LinkSimConfig) -> LinkSimReport {
    assert_eq!(
        cfg.per_channel_ber.len(),
        cfg.physical_channels,
        "need one BER per physical channel"
    );
    assert!(
        cfg.faults.config().channels <= cfg.physical_channels,
        "fault campaign spans more channels than the link has"
    );
    let mut gearbox = Gearbox::new(cfg.logical_lanes, cfg.physical_channels, cfg.am_period);

    let mut states: Vec<ChannelState> = (0..cfg.physical_channels)
        .map(|c| ChannelState {
            injector: BitErrorInjector::new(
                cfg.per_channel_ber[c],
                // lint: allow(R5) reason=per-channel label family chan-{c}; unique by construction over the channel index
                DetRng::substream(cfg.seed, &format!("chan-{c}")),
            ),
            monitor: LaneHealth::new(cfg.monitor_window_bits, 8),
            dead: false,
            ber: cfg.per_channel_ber[c],
        })
        .collect();

    let mut payload_rng = DetRng::substream(cfg.seed, "payload");
    let mut report = LinkSimReport::default();
    let mut sent_payloads: Vec<Vec<u8>> = Vec::new();
    // One set of gearbox buffers, reused every epoch.
    let mut tx_scratch = TxScratch::default();
    let mut rx_scratch = RxScratch::default();
    let mut channels: Vec<Vec<LaneWord>> = Vec::new();
    let mut batch = RxBatch::default();

    for epoch in 0..cfg.epochs {
        // 1. Apply the campaign's effects at the epoch boundary. The
        //    injector resamples its error gap on `set_ber`, so it is only
        //    told when a channel's BER actually changes.
        for (c, (st, &base)) in states.iter_mut().zip(&cfg.per_channel_ber).enumerate() {
            let eff = cfg.faults.effect_at(c, epoch);
            st.dead = eff.dead;
            let ber = (base + eff.extra_ber).min(0.5);
            if ber != st.ber {
                st.injector.set_ber(ber);
                st.ber = ber;
            }
        }

        // 2. Generate and transmit this epoch's frames.
        let payloads: Vec<Vec<u8>> = (0..cfg.frames_per_epoch)
            .map(|_| {
                (0..cfg.frame_size)
                    .map(|_| payload_rng.next_u64() as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        gearbox.transmit_into(&refs, &mut tx_scratch, &mut channels);
        report.frames_sent += payloads.len() as u64;
        // `refs` borrowed `payloads` only through `transmit_into`; move
        // the buffers into the archive instead of cloning every frame.
        drop(refs);
        sent_payloads.extend(payloads);

        // 3. The medium: per-channel error injection and dead channels,
        //    each channel confined to its own stream and state.
        for (stream, st) in channels.iter_mut().zip(states.iter_mut()) {
            if st.dead {
                // A dark channel delivers junk words and no markers.
                stream.fill(LaneWord::Data(0));
                continue;
            }
            let (errors_before, bits_before) = (st.injector.errors, st.injector.bits);
            st.injector.corrupt_lane(stream);
            let errors = st.injector.errors - errors_before;
            let bits = st.injector.bits - bits_before;
            st.monitor.record(bits, errors);
            report.bit_errors_injected += errors;
            report.bits_transmitted += bits;
        }

        // 4. Receive.
        gearbox
            .receive_into(&channels, &mut rx_scratch, &mut batch)
            .expect("channel stream count matches the gearbox by construction");
        if batch.deskew_failed() {
            report.deskew_failed_epochs += 1;
        }
        for (i, f) in batch.frames.iter().enumerate() {
            match sent_payloads.get(f.seq as usize) {
                Some(sent) if sent.as_slice() == batch.payload(i) => {
                    report.frames_delivered += 1;
                    report.payload_bytes_delivered += f.len as u64;
                }
                _ => report.frames_silently_corrupted += 1,
            }
        }

        // 5. Control plane: retire channels that died or degraded, on both
        //    ends at once (out-of-band coordination, effective next epoch).
        for (c, st) in states.iter_mut().enumerate() {
            let assigned = gearbox.lane_map().assignment().contains(&c);
            if !assigned {
                continue;
            }
            let monitor_trip = match cfg.degrade_threshold {
                Some(th) => st.monitor.degraded(th),
                None => false,
            };
            if st.dead || monitor_trip {
                let kind = if st.dead {
                    FailureKind::Dead
                } else {
                    FailureKind::Degraded
                };
                if let Ok(Some(_)) = gearbox.fail_channel(c, kind) {
                    report.remaps += 1;
                    if !st.dead {
                        report.retired_by_monitor += 1;
                        // The monitor-retired channel keeps its physics but
                        // is out of service; reset its monitor so a later
                        // re-add (not modeled) would start fresh.
                        st.monitor.reset();
                    }
                }
            }
        }
    }

    report.frames_lost =
        report.frames_sent - report.frames_delivered - report.frames_silently_corrupted;
    // Telemetry rollup: commutative counter adds only, so totals are
    // thread-count invariant even when whole simulations run inside a
    // parallel sweep.
    crate::telemetry::counter_add("link_sim.runs", 1);
    crate::telemetry::counter_add("link_sim.frames_sent", report.frames_sent);
    crate::telemetry::counter_add("link_sim.frames_delivered", report.frames_delivered);
    crate::telemetry::counter_add("link_sim.frames_lost", report.frames_lost);
    crate::telemetry::counter_add("link_sim.deskew_failed_epochs", report.deskew_failed_epochs);
    crate::telemetry::counter_add("link_sim.remaps", report.remaps);
    crate::telemetry::counter_add("link_sim.bit_errors_injected", report.bit_errors_injected);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CampaignConfig, FaultEvent, FaultKind, Persistence};

    fn faults(channels: usize, events: Vec<FaultEvent>) -> FaultCampaign {
        let cfg = CampaignConfig {
            channels,
            ..CampaignConfig::default()
        };
        FaultCampaign::try_from_events(cfg, events).unwrap()
    }

    /// A transient TIA-saturation burst adding ~`ber` (1e-3 ..= 3e-2) to
    /// `channel`'s BER for `epochs` epochs from `start`.
    fn burst(channel: usize, start: usize, epochs: usize, ber: f64) -> FaultEvent {
        FaultEvent {
            channel,
            kind: FaultKind::TiaSaturation,
            persistence: Persistence::Transient,
            start,
            duration: epochs,
            severity: (ber / 1e-3).log10() / 1.5,
        }
    }

    #[test]
    fn clean_link_delivers_all_frames() {
        let _collector = crate::telemetry::test_guard::shared();
        let r = simulate_link(&LinkSimConfig::small_clean());
        assert_eq!(r.frames_sent, 64);
        assert_eq!(r.frames_delivered, 64);
        assert_eq!(r.frames_silently_corrupted, 0);
        assert_eq!(r.delivery_ratio(), 1.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let _collector = crate::telemetry::test_guard::shared();
        let mut cfg = LinkSimConfig::small_clean();
        cfg.per_channel_ber = vec![1e-4; 10];
        let a = simulate_link(&cfg);
        let b = simulate_link(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn noisy_link_loses_frames_but_never_lies() {
        let _collector = crate::telemetry::test_guard::shared();
        let mut cfg = LinkSimConfig::small_clean();
        cfg.per_channel_ber = vec![1e-4; 10];
        cfg.epochs = 6;
        let r = simulate_link(&cfg);
        assert!(r.frames_delivered < r.frames_sent);
        assert_eq!(
            r.frames_silently_corrupted, 0,
            "CRC must catch all corruption"
        );
        let channel_ber = r.bit_errors_injected as f64 / r.bits_transmitted as f64;
        assert!(channel_ber > 0.5e-4 && channel_ber < 2e-4);
    }

    #[test]
    fn kill_with_spares_recovers_after_one_epoch() {
        let _collector = crate::telemetry::test_guard::shared();
        let mut cfg = LinkSimConfig::small_clean();
        cfg.epochs = 6;
        cfg.faults = faults(10, vec![FaultEvent::kill(3, 2)]);
        let r = simulate_link(&cfg);
        // Epoch 2 deskews fail (channel dark mid-epoch); epochs 3+ run on
        // the spare. The self-synchronizing descrambler missed an epoch of
        // state, so it may additionally corrupt the first frame after
        // failover while it resyncs — at most one extra loss.
        assert_eq!(r.deskew_failed_epochs, 1);
        assert_eq!(r.remaps, 1);
        let expect = (cfg.epochs as u64 - 1) * 16;
        assert!(
            r.frames_delivered >= expect - 1 && r.frames_delivered <= expect,
            "delivered {}",
            r.frames_delivered
        );
        assert_eq!(r.frames_silently_corrupted, 0);
    }

    #[test]
    fn burst_elevates_then_recovers() {
        let _collector = crate::telemetry::test_guard::shared();
        let mut cfg = LinkSimConfig::small_clean();
        cfg.epochs = 8;
        cfg.faults = faults(10, vec![burst(0, 1, 2, 5e-3)]);
        let r = simulate_link(&cfg);
        assert!(r.bit_errors_injected > 0);
        // After the burst the link must go back to perfect delivery: the
        // last epochs' frames all arrive.
        assert!(r.frames_delivered >= r.frames_sent - 2 * 16);
    }

    #[test]
    fn monitor_retires_persistently_bad_channel() {
        let _collector = crate::telemetry::test_guard::shared();
        let mut cfg = LinkSimConfig::small_clean();
        cfg.epochs = 10;
        cfg.frames_per_epoch = 8;
        cfg.frame_size = 512;
        cfg.per_channel_ber[2] = 1e-3; // persistently terrible channel
        cfg.degrade_threshold = Some(1e-4);
        let r = simulate_link(&cfg);
        assert_eq!(r.retired_by_monitor, 1);
        assert_eq!(r.remaps, 1);
        // Once retired, later epochs are clean.
        assert!(r.delivery_ratio() > 0.5);
    }

    #[test]
    fn kill_without_spares_takes_link_down() {
        let _collector = crate::telemetry::test_guard::shared();
        let mut cfg = LinkSimConfig::small_clean();
        cfg.physical_channels = 8; // no spares
        cfg.per_channel_ber = vec![0.0; 8];
        cfg.epochs = 5;
        cfg.faults = faults(8, vec![FaultEvent::kill(0, 1)]);
        let r = simulate_link(&cfg);
        // Epochs 1.. all fail deskew: only epoch 0 delivers.
        assert_eq!(r.frames_delivered, 16);
        assert_eq!(r.deskew_failed_epochs, 4);
        assert_eq!(r.remaps, 0);
    }
}

//! Integration tests of the full data pipeline: budgets → injected errors
//! → real FEC decoders → gearbox framing, with analytic cross-checks.

use mosaic_repro::fec::analysis::rs_performance;
use mosaic_repro::fec::rs::ReedSolomon;
use mosaic_repro::mosaic::budget::BudgetEngine;
use mosaic_repro::mosaic::MosaicConfig;
use mosaic_repro::sim::faults::FaultCampaign;
use mosaic_repro::sim::link_sim::{simulate_link, LinkSimConfig};
use mosaic_repro::sim::montecarlo::{run_rs_channel, simulate_ook_ber};
use mosaic_repro::sim::rng::DetRng;
use mosaic_repro::units::{BitRate, Length};

/// The analytic Gaussian receiver model and the Monte-Carlo slicer agree
/// at the exact operating point the budget engine computes for a channel.
#[test]
fn budget_ber_matches_monte_carlo() {
    let cfg = MosaicConfig::builder()
        .bit_rate(BitRate::from_gbps(800.0))
        .reach(Length::from_m(10.0))
        .build()
        .unwrap();
    let engine = BudgetEngine::new(&cfg);
    let rx = engine.receiver().as_ook().expect("NRZ config");

    // Pick a power where the BER is large enough to measure in 2M bits.
    let p = rx.sensitivity(1e-3).expect("solvable");
    let analytic = rx.ber_at(p);
    let mut rng = DetRng::new(777);
    let mc = simulate_ook_ber(rx, p, 2_000_000, &mut rng);
    assert!(
        mc.ci95.0 <= analytic && analytic <= mc.ci95.1,
        "analytic {analytic} outside CI {:?}",
        mc.ci95
    );
}

/// A channel at the KP4 threshold decodes error-free through the *real*
/// RS decoder at a measurable scale, and the analytic failure prediction
/// tracks the measured rate on a weaker code where failures are common.
#[test]
fn fec_behaviour_matches_analysis_end_to_end() {
    // Real KP4 words at threshold: ~2.4e-4 × 5440 bits ≈ 1.3 symbol errors
    // per word — decodes must essentially never fail (prob ~1e-15).
    let kp4 = ReedSolomon::kp4();
    let run = run_rs_channel(&kp4, mosaic_repro::fec::KP4_BER_THRESHOLD, 200, 42);
    assert_eq!(run.failures, 0, "KP4 must absorb threshold-level errors");

    // Weak code, harsh channel: measured ≈ analytic.
    let weak = ReedSolomon::new(8, 31, 23);
    let run = run_rs_channel(&weak, 3e-2, 3000, 43);
    let analytic = rs_performance(31, 4, 8, 3e-2).codeword_failure_prob;
    assert!(
        (run.failure_prob() / analytic - 1.0).abs() < 0.2,
        "measured {} vs analytic {analytic}",
        run.failure_prob()
    );
}

/// Determinism across the whole stack: identical seeds ⇒ identical
/// reports, regardless of how many times we run.
#[test]
fn whole_stack_is_deterministic() {
    let mut cfg = LinkSimConfig::small_clean();
    cfg.per_channel_ber = vec![5e-5; 10];
    cfg.epochs = 5;
    let a = simulate_link(&cfg);
    let b = simulate_link(&cfg);
    assert_eq!(a, b);
}

/// The frame-loss rate under random errors matches a first-principles
/// estimate: a frame survives iff none of its bits flip.
#[test]
fn frame_loss_tracks_channel_ber() {
    let ber = 2e-5;
    let mut cfg = LinkSimConfig::small_clean();
    cfg.per_channel_ber = vec![ber; 10];
    cfg.epochs = 40;
    cfg.frames_per_epoch = 32;
    cfg.frame_size = 1024;
    let r = simulate_link(&cfg);
    // Bits at risk per frame: payload + framing overhead, plus the 58-bit
    // self-sync scrambler echo window on each side (one line error yields
    // three descrambled flips within 58 bits, usually inside one frame).
    let bits = ((cfg.frame_size + 14) * 8 + 2 * 58) as f64;
    let p_loss = 1.0 - (1.0 - ber).powf(bits);
    let expected = r.frames_sent as f64 * p_loss;
    let lost = r.frames_lost as f64;
    // Secondary effects (resync hiccups after a corrupted header) push the
    // measured rate a little above the single-frame estimate.
    assert!(
        lost > expected * 0.7 && lost < expected * 1.8,
        "lost {lost} vs expected ~{expected:.1}"
    );
    assert_eq!(r.frames_silently_corrupted, 0);
}

/// Feasibility and simulation agree: a configuration whose budget closes
/// delivers frames when simulated at its own predicted BERs.
#[test]
fn budget_and_simulation_agree_on_feasibility() {
    let cfg = MosaicConfig::builder()
        .bit_rate(BitRate::from_gbps(200.0))
        .reach(Length::from_m(30.0))
        .build()
        .unwrap();
    let report = cfg.evaluate();
    assert!(report.is_feasible());
    // Simulate at the budget's post-FEC residual BERs.
    let pre: Vec<f64> = report.channels.iter().map(|c| c.expected_ber).collect();
    let post = mosaic_repro::mosaic::prototype::post_fec_ber_map(&cfg, &pre);
    let sim = LinkSimConfig {
        logical_lanes: cfg.active_channels(),
        physical_channels: cfg.total_channels(),
        am_period: 32,
        per_channel_ber: post,
        epochs: 2,
        frames_per_epoch: 16,
        frame_size: 512,
        seed: 9,
        faults: FaultCampaign::default(),
        degrade_threshold: None,
        monitor_window_bits: 10_000,
    };
    let r = simulate_link(&sim);
    assert_eq!(r.frames_delivered, r.frames_sent);
}

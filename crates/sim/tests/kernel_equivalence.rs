//! Kernel-equivalence suite: the bit-sliced Monte-Carlo kernels must be
//! bit-identical to their scalar oracles — same outputs, same
//! RNG draw sequences — at lane/bit counts that straddle the 64-lane
//! word boundary and under arbitrary fault-campaign masks.
//!
//! These are the cross-crate integration twins of the per-module
//! differential proptests. The slicer, injector and scrambler oracles
//! are test references that no production code calls, so this suite and
//! those proptests are where they run. End to end, the committed
//! `results/` and the quick manifest values in `BENCH_run_all.json` pin
//! the kernels' figures.
//!
//! The OOK slicer kernel is also checked against physics: its parallel
//! Monte-Carlo estimate must bracket the closed-form
//! [`SlicerPoint::model_ber`], the exact mean of what it samples.

use mosaic_link::scrambler::Scrambler;
use mosaic_link::striping::LaneWord;
use mosaic_phy::ber::OokReceiver;
use mosaic_phy::noise::NoiseBudget;
use mosaic_phy::photodiode::Photodiode;
use mosaic_sim::inject::BitErrorInjector;
use mosaic_sim::montecarlo::{simulate_ook_ber_par, SlicerPoint};
use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::Exec;
use mosaic_units::Frequency;
use proptest::prelude::*;

/// The boundary counts the issue pins: below/at/above one word, plus a
/// many-word case.
const BOUNDARY_COUNTS: [usize; 5] = [1, 63, 64, 65, 1024];

fn slicer_point() -> SlicerPoint {
    // A mid-BER operating point (unequal rail noises) so both error and
    // no-error branches are exercised.
    SlicerPoint {
        i1: 1.0e-5,
        i0: 1.0e-6,
        s1: 3.0e-6,
        s0: 2.0e-6,
        threshold: 4.6e-6,
    }
}

#[test]
fn slicer_sliced_matches_scalar_at_boundary_counts() {
    let point = slicer_point();
    for &bits in &BOUNDARY_COUNTS {
        let mut rng_s = DetRng::substream(7, "kernel-eq-slicer");
        let mut rng_r = rng_s.clone();
        let sliced = point.count_errors(bits as u64, &mut rng_s);
        let scalar = point.count_errors_scalar(bits as u64, &mut rng_r);
        assert_eq!(sliced, scalar, "error count diverged at {bits} bits");
        assert_eq!(
            rng_s.next_u64(),
            rng_r.next_u64(),
            "RNG stream position diverged at {bits} bits"
        );
    }
}

#[test]
fn injector_sliced_matches_scalar_at_boundary_counts() {
    for &words in &BOUNDARY_COUNTS {
        let rng = DetRng::substream(11, "kernel-eq-inject");
        let mut inj_s = BitErrorInjector::new(2e-3, rng.clone());
        let mut inj_r = BitErrorInjector::new(2e-3, rng);
        let mut buf_s = vec![0u64; words];
        let mut buf_r = vec![0u64; words];
        let flips_s = inj_s.corrupt_words(&mut buf_s);
        let flips_r = inj_r.corrupt_words_scalar(&mut buf_r);
        assert_eq!(flips_s, flips_r, "flip count diverged at {words} words");
        assert_eq!(buf_s, buf_r, "flip positions diverged at {words} words");
        assert_eq!((inj_s.bits, inj_s.errors), (inj_r.bits, inj_r.errors));
    }
}

/// `x` moved `k` floats up (`k > 0`) or down.
fn ulps(mut x: f64, k: i32) -> f64 {
    for _ in 0..k.unsigned_abs() {
        x = if k > 0 { x.next_up() } else { x.next_down() };
    }
    x
}

/// A drawn operating point, by `family % 4`: rails `d.0`/`d.1` of their
/// own sigmas from the threshold under unequal noises `s`; rails
/// `k.0`/`k.1` floats from the threshold under noises of 0.075–0.75 of a
/// float step (`s/4e-6` of one); the first family with a zero zero-rail
/// sigma; or with a NaN threshold.
fn drawn_point(family: u8, t: f64, d: (f64, f64), s: (f64, f64), k: (i32, i32)) -> SlicerPoint {
    let spaced = SlicerPoint {
        i1: t + d.0 * s.0,
        i0: t - d.1 * s.1,
        s1: s.0,
        s0: s.1,
        threshold: t,
    };
    let step = t.next_up() - t;
    match family % 4 {
        0 => spaced,
        1 => SlicerPoint {
            i1: ulps(t, k.0),
            i0: ulps(t, -k.1),
            s1: step * s.0 / 4e-6,
            s0: step * s.1 / 4e-6,
            threshold: t,
        },
        2 => SlicerPoint { s0: 0.0, ..spaced },
        _ => SlicerPoint {
            threshold: f64::NAN,
            ..spaced
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Slicer: sliced == scalar for arbitrary bit counts (weighted toward
    /// the word-boundary cases) from arbitrary stream positions, at
    /// drawn operating points: rails 0 to 12 sigmas out, rails a few
    /// floats from the threshold, a zero sigma and a NaN threshold — the
    /// points the radius rejection takes and those it leaves to the full
    /// path.
    #[test]
    fn slicer_equivalence_random(
        seed in any::<u64>(),
        bits in prop_oneof![
            Just(1u64), Just(63), Just(64), Just(65), Just(1024),
            1u64..2048,
        ],
        family in 0u8..4,
        t in 1e-6f64..2e-5,
        d1 in 0.0f64..12.0,
        d0 in 0.0f64..12.0,
        s1 in 0.3e-6f64..3e-6,
        s0 in 0.3e-6f64..3e-6,
        k1 in 0i32..5,
        k0 in 0i32..5,
    ) {
        let point = drawn_point(family, t, (d1, d0), (s1, s0), (k1, k0));
        let mut rng_s = DetRng::new(seed);
        let mut rng_r = rng_s.clone();
        prop_assert_eq!(
            point.count_errors(bits, &mut rng_s),
            point.count_errors_scalar(bits, &mut rng_r),
            "{:?}",
            point
        );
        prop_assert_eq!(rng_s.next_u64(), rng_r.next_u64());
    }
}

proptest! {
    /// Corruption under arbitrary fault-campaign masks: a lane stream
    /// with an arbitrary marker/data mask, corrupted by the run-gathering
    /// batched path, must equal the word-at-a-time oracle (markers never
    /// consume stream positions in either).
    #[test]
    fn lane_corruption_equivalence_under_masks(
        seed in any::<u64>(),
        ber in prop_oneof![Just(0.0), Just(1e-4), Just(5e-3), Just(0.3)],
        mask in proptest::collection::vec(any::<bool>(), 1..300),
        rounds in 1usize..3,
    ) {
        let rng = DetRng::new(seed);
        let mut inj_batched = BitErrorInjector::new(ber, rng.clone());
        let mut inj_oracle = BitErrorInjector::new(ber, rng);
        let mut lane: Vec<LaneWord> = mask
            .iter()
            .enumerate()
            .map(|(i, &marker)| {
                if marker {
                    LaneWord::Marker(i as u32)
                } else {
                    LaneWord::Data(0x0123_4567_89AB_CDEF ^ i as u64)
                }
            })
            .collect();
        let mut lane_oracle = lane.clone();
        for _ in 0..rounds {
            let flips = inj_batched.corrupt_lane(&mut lane);
            let mut oracle_flips = 0u64;
            for w in lane_oracle.iter_mut() {
                if let LaneWord::Data(d) = w {
                    oracle_flips += inj_oracle.corrupt_word(d) as u64;
                }
            }
            prop_assert_eq!(flips, oracle_flips);
            prop_assert_eq!(&lane, &lane_oracle);
            prop_assert_eq!(
                (inj_batched.bits, inj_batched.errors),
                (inj_oracle.bits, inj_oracle.errors)
            );
        }
    }

    /// Scrambler word kernels from arbitrary register states: outputs and
    /// end states must match the bit loop.
    #[test]
    fn scrambler_equivalence_random(
        words in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let mut tx_s = Scrambler::new();
        let mut tx_r = Scrambler::new();
        let mut rx_s = Scrambler::new();
        let mut rx_r = Scrambler::new();
        for &w in &words {
            let line_s = tx_s.scramble_word(w);
            let line_r = tx_r.scramble_word_scalar(w);
            prop_assert_eq!(line_s, line_r);
            prop_assert_eq!(rx_s.descramble_word(line_s), rx_r.descramble_word_scalar(line_r));
        }
    }
}

/// The 2 GBd-class receiver the bench figures use (silicon photodiode,
/// thermal-noise-limited TIA).
fn mosaic_rx() -> OokReceiver {
    OokReceiver {
        pd: Photodiode::silicon_blue(),
        noise: NoiseBudget {
            thermal_a: 3.0e-12 * (1.4e9f64).sqrt(),
            bandwidth: Frequency::from_ghz(1.4),
            rin_db_per_hz: None,
        },
        extinction_ratio: 6.0,
    }
}

/// Differential check at the sliced kernels' boundary bit counts: the
/// full Monte-Carlo estimate must bracket the analytic model inside its
/// own Wilson interval at 1, 63, 64, 65, and 1024 bits. Everything is
/// seeded, so this pins the exact boundary-block behavior, not a
/// statistical hope.
#[test]
fn analytic_model_sits_inside_the_mc_wilson_interval_at_boundary_bit_counts() {
    let rx = mosaic_rx();
    // BER ≈ 0.1: high enough that even one bit carries information and
    // the Wilson interval at tiny n still contains the model.
    let p = rx.sensitivity(0.1).unwrap();
    let model = SlicerPoint::of(&rx, p).model_ber();
    let exec = Exec::with_threads(4);
    for bits in [1u64, 63, 64, 65, 1024] {
        let m = simulate_ook_ber_par(&exec, &rx, p, bits, 7001);
        let (lo, hi) = m.ci95;
        assert!(
            lo <= model && model <= hi,
            "model {model} outside Wilson CI [{lo}, {hi}] at {bits} bits (mc {})",
            m.ber
        );
    }
}

/// Tight differential at a large budget: 2M bits at BER ≈ 1e-3 give
/// ~2000 events, so the kernel must land within its ~±4.5 % Wilson
/// interval of the model *and* within 10 % relative.
#[test]
fn analytic_model_matches_full_mc_tightly_at_large_budgets() {
    let rx = mosaic_rx();
    let p = rx.sensitivity(1e-3).unwrap();
    let model = SlicerPoint::of(&rx, p).model_ber();
    let m = simulate_ook_ber_par(&Exec::with_threads(4), &rx, p, 2_000_000, 7002);
    let (lo, hi) = m.ci95;
    assert!(
        lo <= model && model <= hi,
        "model {model} outside [{lo}, {hi}]"
    );
    assert!(
        (m.ber - model).abs() < 0.1 * model,
        "mc {} vs model {model}",
        m.ber
    );
}

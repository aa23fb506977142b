//! Monte-Carlo receiver and coded-channel simulation.
//!
//! Two jobs:
//!
//! 1. **Validate the analytic BER model** (F4): sample actual Gaussian
//!    noise at the decision circuit, count actual errors, and compare
//!    against `mosaic_phy::ber`'s closed form.
//! 2. **Validate the analytic FEC math** (F10): push real bits through the
//!    real RS/BCH decoders under injected errors and compare measured
//!    post-FEC rates against `mosaic_fec::analysis`.

use crate::inject::BitErrorInjector;
use crate::rng::{Bernoulli, DetRng};
use crate::sweep::{chunk_count, chunk_len, Exec, TrialPlan};
use mosaic_fec::rs::{DecodeOutcome, ReedSolomon};
use mosaic_fec::DecodeScratch;
use mosaic_phy::ber::OokReceiver;
use mosaic_units::Power;

/// Fixed Monte-Carlo chunk: bits per parallel task in the OOK slicer
/// simulation. A call-site constant (never derived from the thread
/// count), so the task decomposition — and therefore the output — is
/// identical at every `MOSAIC_THREADS` setting.
pub const OOK_CHUNK_BITS: u64 = 65_536;

/// Result of a Monte-Carlo BER measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerMeasurement {
    /// Bits simulated.
    pub bits: u64,
    /// Errors observed.
    pub errors: u64,
    /// Point estimate.
    pub ber: f64,
    /// 95 % Wilson confidence interval (lo, hi).
    pub ci95: (f64, f64),
}

impl BerMeasurement {
    /// Build a measurement from raw counts. Zero bits is a defined
    /// no-information result (`ber = 0.0`, CI `(0.0, 1.0)`), not a
    /// division by zero.
    pub fn from_counts(bits: u64, errors: u64) -> Self {
        let ber = if bits == 0 {
            0.0
        } else {
            errors as f64 / bits as f64
        };
        BerMeasurement {
            bits,
            errors,
            ber,
            ci95: wilson_ci(errors, bits),
        }
    }
}

/// Wilson score interval for a binomial proportion (robust at zero
/// observed errors, unlike the normal approximation).
///
/// Zero trials carry no information: the interval is the vacuous
/// `(0.0, 1.0)` rather than a panic, matching the workspace's
/// never-panic API posture.
pub fn wilson_ci(errors: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96f64;
    let n = trials as f64;
    let p = errors as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Decision-circuit operating point for the OOK slicer: rail currents,
/// rail noises, and the optimum threshold between them.
///
/// Public so the kernel-equivalence proptests (sliced vs scalar, at lane
/// counts that straddle the 64-bit word boundary) can drive the slicer
/// directly; figure code goes through [`simulate_ook_ber_par`].
#[derive(Debug, Clone, Copy)]
pub struct SlicerPoint {
    /// One-rail photocurrent (A).
    pub i1: f64,
    /// Zero-rail photocurrent (A).
    pub i0: f64,
    /// One-rail noise sigma (A).
    pub s1: f64,
    /// Zero-rail noise sigma (A).
    pub s0: f64,
    /// Decision threshold (A).
    pub threshold: f64,
}

impl SlicerPoint {
    /// Operating point of a receiver at a given average power.
    pub fn of(rx: &OokReceiver, avg_power: Power) -> Self {
        let (p1, p0) = rx.levels(avg_power);
        let i1 = rx.pd.photocurrent(p1) + rx.pd.dark_current_a;
        let i0 = rx.pd.photocurrent(p0) + rx.pd.dark_current_a;
        let s1 = rx.noise.total_a(i1);
        let s0 = rx.noise.total_a(i0);
        // Optimum threshold for unequal noises.
        let threshold = (s0 * i1 + s1 * i0) / (s0 + s1);
        SlicerPoint {
            i1,
            i0,
            s1,
            s0,
            threshold,
        }
    }

    /// Closed-form BER of this operating point: the *exact* mean of the
    /// estimator [`SlicerPoint::count_errors`] samples,
    /// `(Q(d1) + Q(d0)) / 2` with `d1 = (i1 − threshold)/s1` and
    /// `d0 = (threshold − i0)/s0`.
    ///
    /// Error-budget note: this is *not* the single-Q approximation
    /// `Q((i1 − i0)/(s1 + s0))` that [`OokReceiver::ber_at`] reports —
    /// at the optimum threshold the two agree to within a few percent,
    /// which is exactly the model mismatch the Monte-Carlo column of F4
    /// makes visible. The differential tests in
    /// `tests/kernel_equivalence.rs` therefore compare the kernel with
    /// this two-sided form, whose only deviation from a correct
    /// kernel's measurement is sampling noise.
    pub fn model_ber(&self) -> f64 {
        let d1 = (self.i1 - self.threshold) / self.s1;
        let d0 = (self.threshold - self.i0) / self.s0;
        0.5 * (mosaic_phy::math::normal_tail(d1) + mosaic_phy::math::normal_tail(d0))
    }

    /// The raw-draw cutoff of the exact radius rejection in
    /// [`SlicerPoint::count_errors`]: a lane whose Box–Muller
    /// draw `d1` has `d1 >> 11 > cutoff` is decided correctly whatever
    /// its angle draw, so its transform can be skipped. `u64::MAX` (no
    /// lane qualifies) when no margin can be guaranteed.
    ///
    /// Derivation (DESIGN §11.5). For `m = d1 >> 11 ≥ 1`,
    /// [`DetRng::standard_normal_of`] uses `u1 = m·2⁻⁵³` exactly (the
    /// `MIN_POSITIVE` clamp is below half an ulp of `u1`, so it rounds
    /// away) and returns `z = fl(R·C)` with `R = fl(√fl(−2·ln u1))` and
    /// `|C| ≤ 1 + 2⁻⁵²` (a cosine within 1 ulp). With `ln`, `√` and the
    /// product each within 1 ulp, `|z| ≤ r·(1 + 2⁻⁴⁹)` for the exact
    /// radius `r = √(−2 ln u1)`.
    ///
    /// A one bit is decided right when `fl(i1 + fl(s1·z)) > threshold`.
    /// Let `t⁺` be the float after `threshold` and `G1 = i1 − t⁺`
    /// (exact). If `fl(s1·|z|) ≤ G1`, the exact sum is at least `t⁺`,
    /// and rounding to nearest is monotone, so the rounded sum is at
    /// least `t⁺ > threshold`. For a zero bit, `G0 = threshold − i0` and
    /// `fl(s0·|z|) ≤ G0` put the sum at most `threshold`, which is not
    /// above it. `fl(σ·|z|) ≤ G` holds once `σ·|z| ≤ G/(1 + 2⁻⁵³)` (in
    /// the subnormal range, once `σ·|z| ≤ G`, since `G` is then a
    /// float). The computed gaps `g = fl(G)` are within a factor
    /// `1 ± 2⁻⁵³` of `G`, and `D = fl(fl(min(g1/s1, g0/s0))·(1 − 2⁻³²))`
    /// loses at most two more roundings, so `r < D` gives `σ·|z| ≤ G`
    /// with `2⁻³²` to spare — room for libm errors of a million ulps.
    ///
    /// `r < D` is `u1 > exp(−D²/2)`. The cutoff
    /// `M = ⌈fl(fl(exp(−fl(D²)/2))·(1 + 2⁻³²))·2⁵³⌉` has
    /// `M·2⁻⁵³ ≥ exp(−D²/2)` wherever that bound is at least 2⁻⁵³: there
    /// `D < 8.6`, so rounding `D²` moves the exponential by less than
    /// `37·2⁻⁵³` relative, and `exp` adds 1 ulp. Below 2⁻⁵³ every
    /// `m ≥ 1` already has `u1 > exp(−D²/2)`. The lane `m = 0`
    /// (`u1 = MIN_POSITIVE`) never passes `m > M`.
    ///
    /// The fast path needs finite positive gaps and sigmas and a normal
    /// `D`; a zero or negative sigma, a NaN or infinite level or
    /// threshold, a rail at or within one ulp of the threshold, or a `D`
    /// that over- or underflows sends the whole point down the full path.
    fn radius_cutoff(&self) -> u64 {
        /// Relative slack on `D` and on the cutoff.
        const SLACK: f64 = 1.0 / (1u64 << 32) as f64;
        let g1 = self.i1 - self.threshold.next_up();
        let g0 = self.threshold - self.i0;
        let d = (g1 / self.s1).min(g0 / self.s0) * (1.0 - SLACK);
        let positive = |v: f64| v > 0.0 && v.is_finite();
        if ![g1, g0, self.s1, self.s0].into_iter().all(positive) || !d.is_normal() {
            return u64::MAX;
        }
        let bound = (-(d * d) * 0.5).exp() * (1.0 + SLACK);
        (bound * (1u64 << 53) as f64).ceil() as u64
    }

    /// Slice `bits` noisy samples from `rng`, returning the error count.
    ///
    /// Bit-sliced kernel: transmitted bits and decisions are packed 64
    /// lanes per `u64` word and errors are counted with one
    /// `popcount(tx ^ decided)` per word. Error counts and RNG draw
    /// sequences equal the one-bit-at-a-time loop
    /// [`SlicerPoint::count_errors_scalar`] (pinned by the
    /// `sliced_slicer_matches_scalar_reference` proptest).
    ///
    /// The draw pass bulk-fills the block's raw words (three per bit, in
    /// the scalar loop's exact order: transmit decision, then the two
    /// Box-Muller uniforms) with one [`DetRng::fill_u64`] call, then
    /// applies the identical transmit transform via [`Bernoulli::decide`]
    /// while packing the transmitted bit into `tx[lane]`.
    ///
    /// Decide before transforming: a lane whose radius draw is above
    /// `SlicerPoint::radius_cutoff` has `|z|` short of both rails'
    /// distances to the threshold, so the full transform could not flip
    /// it. Such a lane keeps `z = 0`, which decides it the same way (the
    /// cutoff exists only when each rail is strictly on its side), and
    /// only the rest go through [`DetRng::standard_normal_of`]. Every
    /// lane still consumes its three draws, so the stream is untouched.
    ///
    /// The decision pass computes the identical float expression
    /// `level + sigma·z`, packs the comparator output, and
    /// XOR/popcounts. Tail blocks shorter than 64 lanes leave the high
    /// lanes zero in *both* words, so the XOR contributes nothing — the
    /// tail-lane masking rule of DESIGN §11.
    // lint: no-alloc proof=crates/sim/tests/alloc_free.rs
    pub fn count_errors(&self, bits: u64, rng: &mut DetRng) -> u64 {
        const WORD: usize = 64;
        const BLOCK: usize = 256;
        const DRAWS_PER_BIT: usize = 3;
        let half = Bernoulli::new(0.5);
        let cutoff = self.radius_cutoff();
        let mut tx = [0u64; BLOCK / WORD];
        let mut zs = [0f64; BLOCK];
        let mut near = [0usize; BLOCK];
        let mut draws = [0u64; DRAWS_PER_BIT * BLOCK];
        let mut errors = 0u64;
        let mut remaining = bits;
        while remaining > 0 {
            let len = remaining.min(BLOCK as u64) as usize;
            let words = len.div_ceil(WORD);
            tx[..words].fill(0);
            rng.fill_u64(&mut draws[..DRAWS_PER_BIT * len]);
            // Branch-free compaction: every lane writes its index, and
            // only a lane that needs the transform advances the cursor.
            let mut n = 0;
            for (j, d) in draws[..DRAWS_PER_BIT * len]
                .chunks_exact(DRAWS_PER_BIT)
                .enumerate()
            {
                let one = half.decide(d[0]);
                tx[j / WORD] |= (one as u64) << (j % WORD);
                zs[j] = 0.0;
                near[n] = j;
                n += usize::from(d[1] >> 11 <= cutoff);
            }
            for &j in &near[..n] {
                zs[j] = DetRng::standard_normal_of(
                    draws[DRAWS_PER_BIT * j + 1],
                    draws[DRAWS_PER_BIT * j + 2],
                );
            }
            for (w, &txw) in tx[..words].iter().enumerate() {
                let lanes = (len - w * WORD).min(WORD);
                let mut decided = 0u64;
                for l in 0..lanes {
                    let one = (txw >> l) & 1 != 0;
                    let (level, sigma) = if one {
                        (self.i1, self.s1)
                    } else {
                        (self.i0, self.s0)
                    };
                    let sample = level + sigma * zs[w * WORD + l];
                    decided |= ((sample > self.threshold) as u64) << l;
                }
                errors += (decided ^ txw).count_ones() as u64;
            }
            remaining -= len as u64;
        }
        errors
    }

    /// The scalar slicer, one bit at a time: the test reference for
    /// [`SlicerPoint::count_errors`]; no production code calls it.
    pub fn count_errors_scalar(&self, bits: u64, rng: &mut DetRng) -> u64 {
        let mut errors = 0u64;
        for _ in 0..bits {
            let (level, sigma, is_one) = if rng.chance(0.5) {
                (self.i1, self.s1, true)
            } else {
                (self.i0, self.s0, false)
            };
            let sample = level + sigma * rng.standard_normal();
            let decided_one = sample > self.threshold;
            if decided_one != is_one {
                errors += 1;
            }
        }
        errors
    }
}

/// Simulate an OOK slicer: per bit, pick a level (equiprobable 0/1), add
/// the level-dependent Gaussian noise, and threshold at the optimum point.
/// This is the physical process the Q-factor formula models; the test
/// suite checks they agree.
///
/// Sequential, single-stream form; the sweep-engine form is
/// [`simulate_ook_ber_par`].
pub fn simulate_ook_ber(
    rx: &OokReceiver,
    avg_power: Power,
    bits: u64,
    rng: &mut DetRng,
) -> BerMeasurement {
    let point = SlicerPoint::of(rx, avg_power);
    let errors = point.count_errors(bits, rng);
    BerMeasurement::from_counts(bits, errors)
}

/// Parallel OOK slicer simulation: `bits` are split into fixed
/// [`OOK_CHUNK_BITS`]-sized tasks, chunk `c` drawing from the
/// counter-derived stream `(seed, "ook-ber", c)`. Error counters
/// accumulate per chunk and are summed in chunk order, so the result is
/// bit-identical at every thread count for a given seed.
pub fn simulate_ook_ber_par(
    exec: &Exec,
    rx: &OokReceiver,
    avg_power: Power,
    bits: u64,
    seed: u64,
) -> BerMeasurement {
    let point = SlicerPoint::of(rx, avg_power);
    let chunks = chunk_count(bits, OOK_CHUNK_BITS);
    // Exact integer sum over chunk counters: no intermediate collection,
    // thread-count invariant by the fold's commutativity contract.
    let errors = TrialPlan::new()
        .trials(chunks)
        .seed(seed)
        .label("ook-ber")
        .sum(exec, |ctx| {
            let mut rng = ctx.rng();
            point.count_errors(chunk_len(ctx.trial(), bits, OOK_CHUNK_BITS), &mut rng)
        });
    BerMeasurement::from_counts(bits, errors)
}

/// Result of a coded-channel Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodedRun {
    /// Codewords pushed through.
    pub codewords: u64,
    /// Codewords that decoded (clean or corrected).
    pub decoded: u64,
    /// Codewords that failed (detected uncorrectable).
    pub failures: u64,
    /// Codewords that "decoded" to the wrong codeword (silent
    /// miscorrection — possible when errors exceed t; rate ~1/t!).
    pub miscorrected: u64,
    /// Pre-FEC bit errors injected.
    pub pre_fec_bit_errors: u64,
    /// Bits transmitted.
    pub bits: u64,
    /// Residual data-symbol errors after decoding (from failed words).
    pub residual_symbol_errors: u64,
}

impl CodedRun {
    /// Measured codeword failure probability (detected + miscorrected).
    pub fn failure_prob(&self) -> f64 {
        (self.failures + self.miscorrected) as f64 / self.codewords as f64
    }
}

/// Push `codewords` random RS codewords through a BER-`ber` channel and
/// decode them, counting real failures. Runs on the ambient
/// (`MOSAIC_THREADS`) execution context; see [`run_rs_channel_with`].
pub fn run_rs_channel(rs: &ReedSolomon, ber: f64, codewords: u64, seed: u64) -> CodedRun {
    run_rs_channel_with(&Exec::from_env(), rs, ber, codewords, seed)
}

/// Per-worker working set for [`run_rs_channel_with`]: decode scratch
/// plus data/word buffers, reused across every codeword the worker
/// processes — zero heap allocation per word in steady state.
struct RsChannelScratch {
    decode: DecodeScratch,
    data: Vec<u16>,
    word: Vec<u16>,
}

/// [`run_rs_channel`] on an explicit execution context.
///
/// Each codeword is an independent task: word `w` generates data from
/// stream `(seed, "rs-data", w)` and noise from `(seed, "rs-noise", w)`,
/// and the per-word counters fold by exact integer addition — so the
/// totals are bit-identical at every thread count. (Restarting the
/// injector's geometric skip at each word keeps errors i.i.d.
/// Bernoulli(`ber`), which is all the channel model promises.)
///
/// Corruption acts directly on the symbol buffer via
/// [`BitErrorInjector::corrupt_symbols`] — the same bit stream the old
/// serialize/corrupt/reassemble round trip produced, without the
/// per-word bit vector.
// u64 error/iteration counters merged per worker.
// lint: exact-fold proof=crates/sim/tests/parallel_determinism.rs
pub fn run_rs_channel_with(
    exec: &Exec,
    rs: &ReedSolomon,
    ber: f64,
    codewords: u64,
    seed: u64,
) -> CodedRun {
    let m = rs.symbol_bits();
    let mask = ((1u32 << m) - 1) as u16;
    let zero = || CodedRun {
        codewords: 0,
        decoded: 0,
        failures: 0,
        miscorrected: 0,
        pre_fec_bit_errors: 0,
        bits: 0,
        residual_symbol_errors: 0,
    };
    let mut out = TrialPlan::new().trials(codewords).seed(seed).fold(
        exec,
        || RsChannelScratch {
            decode: DecodeScratch::new(),
            data: Vec::new(),
            word: Vec::new(),
        },
        zero,
        |ctx, st, acc| {
            let mut data_rng = ctx.stream("rs-data");
            let mut inj = BitErrorInjector::new(ber, ctx.stream("rs-noise"));
            st.data.clear();
            st.data
                .extend((0..rs.k()).map(|_| (data_rng.next_u64() as u16) & mask));
            rs.try_encode_into(&st.data, &mut st.word)
                .expect("simulated data block has the code's exact length");
            acc.codewords += 1;
            acc.pre_fec_bit_errors += inj.corrupt_symbols(&mut st.word, m);
            acc.bits += rs.n() as u64 * m as u64;
            let outcome = rs
                .decode_scratch(&mut st.word, &mut st.decode)
                .expect("simulated codeword has the code's exact length");
            match outcome {
                DecodeOutcome::Clean | DecodeOutcome::Corrected(_) => {
                    if st.word[..rs.k()] == st.data[..] {
                        acc.decoded += 1;
                    } else {
                        // Beyond-capacity miscorrection to a different valid
                        // codeword — inherent to bounded-distance decoding.
                        acc.miscorrected += 1;
                        acc.residual_symbol_errors += st.word[..rs.k()]
                            .iter()
                            .zip(&st.data)
                            .filter(|(a, b)| a != b)
                            .count() as u64;
                    }
                }
                DecodeOutcome::Failure => {
                    acc.failures += 1;
                    acc.residual_symbol_errors += st.word[..rs.k()]
                        .iter()
                        .zip(&st.data)
                        .filter(|(a, b)| a != b)
                        .count() as u64;
                }
            }
        },
        |total, part| {
            total.codewords += part.codewords;
            total.decoded += part.decoded;
            total.failures += part.failures;
            total.miscorrected += part.miscorrected;
            total.pre_fec_bit_errors += part.pre_fec_bit_errors;
            total.bits += part.bits;
            total.residual_symbol_errors += part.residual_symbol_errors;
        },
    );
    debug_assert_eq!(out.codewords, codewords);
    out.codewords = codewords;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_fec::analysis::rs_performance;
    use mosaic_phy::noise::NoiseBudget;
    use mosaic_phy::photodiode::Photodiode;
    use mosaic_units::Frequency;

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

    #[test]
    fn monte_carlo_matches_analytic_ber() {
        // Pick a power where BER ≈ 1e-3 so 2M bits give tight statistics.
        let rx = mosaic_rx();
        let p = rx.sensitivity(1e-3).unwrap();
        let mut rng = DetRng::new(2024);
        let m = simulate_ook_ber(&rx, p, 2_000_000, &mut rng);
        let analytic = rx.ber_at(p);
        assert!(
            m.ci95.0 <= analytic && analytic <= m.ci95.1,
            "analytic {analytic} outside CI {:?} (measured {})",
            m.ci95,
            m.ber
        );
    }

    #[test]
    fn wilson_interval_sane() {
        let (lo, hi) = wilson_ci(0, 1000);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01);
        let (lo, hi) = wilson_ci(500, 1000);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.07);
    }

    #[test]
    fn zero_trials_is_defined_not_a_panic() {
        assert_eq!(wilson_ci(0, 0), (0.0, 1.0));
        let m = BerMeasurement::from_counts(0, 0);
        assert_eq!(m.ber, 0.0);
        assert_eq!(m.ci95, (0.0, 1.0));
        assert_eq!(m.bits, 0);
        assert_eq!(m.errors, 0);
    }

    /// `x` moved `k` floats up (`k > 0`) or down.
    fn ulps(mut x: f64, k: i32) -> f64 {
        for _ in 0..k.unsigned_abs() {
            x = if k > 0 { x.next_up() } else { x.next_down() };
        }
        x
    }

    /// An operating point of one of four families, by `family % 4`:
    /// rails `d1`/`d0` of their own sigmas from the threshold under
    /// unequal noises `s1`/`s0`; rails `k1`/`k0` floats from the
    /// threshold under noises of 0.075–0.75 of a float step (`s/4e-6`
    /// of one); the first family with a zero one-rail sigma; or with a
    /// NaN threshold.
    fn drawn_point(
        family: u8,
        t: f64,
        (d1, d0): (f64, f64),
        (s1, s0): (f64, f64),
        (k1, k0): (i32, i32),
    ) -> SlicerPoint {
        let spaced = SlicerPoint {
            i1: t + d1 * s1,
            i0: t - d0 * s0,
            s1,
            s0,
            threshold: t,
        };
        match family % 4 {
            0 => spaced,
            1 => {
                let step = t.next_up() - t;
                SlicerPoint {
                    i1: ulps(t, k1),
                    i0: ulps(t, -k0),
                    s1: step * s1 / 4e-6,
                    s0: step * s0 / 4e-6,
                    threshold: t,
                }
            }
            2 => SlicerPoint { s1: 0.0, ..spaced },
            _ => SlicerPoint {
                threshold: f64::NAN,
                ..spaced
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn sliced_slicer_matches_scalar_reference(
            seed in 0u64..500,
            bits in 0u64..2000,
            family in 0u8..4,
            t in 1e-6f64..2e-5,
            d1 in 0.0f64..12.0,
            d0 in 0.0f64..12.0,
            s1 in 0.3e-6f64..3e-6,
            s0 in 0.3e-6f64..3e-6,
            k1 in 0i32..5,
            k0 in 0i32..5,
        ) {
            // The bit-sliced slicer must reproduce the scalar loop
            // exactly: same error count AND same final RNG state (so
            // downstream draws are unaffected), whether the point takes
            // the radius rejection or the full path. Spacings of 0 to 12
            // sigmas sweep error rates from 0.5 to below 1e-30; the
            // float-step family puts the rounding of `level + sigma·z`
            // at stake.
            let point = drawn_point(family, t, (d1, d0), (s1, s0), (k1, k0));
            let mut rng_sliced = DetRng::new(seed);
            let mut rng_ref = DetRng::new(seed);
            let sliced = point.count_errors(bits, &mut rng_sliced);
            let scalar = point.count_errors_scalar(bits, &mut rng_ref);
            proptest::prop_assert_eq!(sliced, scalar, "{:?}", point);
            proptest::prop_assert_eq!(rng_sliced.next_u64(), rng_ref.next_u64());
        }
    }

    /// Whether the full transform of raw draws `(d1, d2)` decides both
    /// rails right (the points it is called on have no NaN).
    fn decides_both_rails(p: &SlicerPoint, d1: u64, d2: u64) -> bool {
        let z = DetRng::standard_normal_of(d1, d2);
        p.i1 + p.s1 * z > p.threshold && p.i0 + p.s0 * z <= p.threshold
    }

    /// The radius rejection's cutoff is exact at its edge: for the raw
    /// radius draws just above it and the angle draws at `cos = +1`
    /// (`u2 = 0`) and `cos = −1` (`u2 = 1/2`), the full transform decides
    /// both rails correctly. Points: F4's five measured 2 Gb/s points,
    /// unequal noises, a threshold at zero, and rails two and three
    /// floats from the threshold under sub-step noise, where the
    /// one-float margin is all that separates a right decision from a
    /// rounding to the threshold.
    #[test]
    fn radius_cutoff_is_exact_at_its_edge() {
        let rx = {
            let tia = mosaic_phy::tia::Tia::low_speed(2.0);
            OokReceiver {
                noise: NoiseBudget {
                    thermal_a: tia.rms_noise_current(),
                    bandwidth: tia.bandwidth,
                    rin_db_per_hz: None,
                },
                ..mosaic_rx()
            }
        };
        let mut points: Vec<SlicerPoint> = [-30.0, -29.0, -28.0, -27.0, -26.0]
            .iter()
            .map(|&dbm| SlicerPoint::of(&rx, Power::from_dbm(dbm)))
            .collect();
        let t = 1e-5f64;
        let step = t.next_up() - t;
        points.push(drawn_point(0, t, (3.0, 5.0), (2e-6, 0.7e-6), (0, 0)));
        // A threshold at zero: the gaps are as large as the levels, so a
        // rounding of `sigma·z` outweighs the one-float threshold margin.
        for d in [0.5, 1.0, 1.3, 1.6, 2.0, 2.5, 3.0, 4.0, 6.0] {
            points.push(drawn_point(0, 0.0, (d, d), (1.0, 1.0), (0, 0)));
            points.push(drawn_point(0, 0.0, (d, 1.7 * d), (0.3, 1.3), (0, 0)));
        }
        for (k, sigmas) in [(2, 8.0), (3, 4.0), (2, 0.5)] {
            points.push(SlicerPoint {
                i1: ulps(t, k),
                i0: ulps(t, -k),
                s1: step / sigmas,
                s0: step / sigmas,
                threshold: t,
            });
        }
        for p in &points {
            let cutoff = p.radius_cutoff();
            assert!(cutoff + 1000 < 1 << 53, "fast path expected for {p:?}");
            for m in cutoff + 1..=cutoff + 1000 {
                for d2 in [0, 1 << 63] {
                    assert!(decides_both_rails(p, m << 11, d2), "{p:?} m {m} d2 {d2}");
                }
            }
        }
    }

    /// No margin, no rejection: at the points the cutoff cannot cover,
    /// no raw radius draw (`m < 2⁵³`) passes it, so every lane takes the
    /// full path.
    #[test]
    fn radius_cutoff_is_off_where_no_margin_holds() {
        let t = 1e-5f64;
        let base = drawn_point(0, t, (4.0, 4.0), (1e-6, 1e-6), (0, 0));
        assert!(base.radius_cutoff() < 1 << 53);
        for p in [
            SlicerPoint { s1: 0.0, ..base },
            SlicerPoint { s0: -1e-6, ..base },
            SlicerPoint {
                s1: f64::NAN,
                ..base
            },
            SlicerPoint {
                threshold: f64::NAN,
                ..base
            },
            SlicerPoint { i1: t, ..base },
            SlicerPoint {
                i1: t.next_up(),
                ..base
            },
            SlicerPoint { i0: t, ..base },
            SlicerPoint {
                i1: f64::INFINITY,
                ..base
            },
            // D overflows, D underflows, D is too small to skip a lane.
            SlicerPoint {
                s1: f64::from_bits(1),
                s0: f64::from_bits(1),
                ..base
            },
            SlicerPoint {
                s1: 1e308,
                s0: 1e308,
                ..base
            },
            SlicerPoint {
                s1: 1e300,
                s0: 1e300,
                ..base
            },
        ] {
            assert!(p.radius_cutoff() >= (1 << 53) - 1, "{p:?}");
        }
    }

    #[test]
    fn rs_channel_failure_rate_matches_analytic() {
        // A weak code at a harsh BER so failures are common enough to
        // measure in few words: RS(31,23) t=4 at BER 2e-2.
        let rs = ReedSolomon::new(8, 31, 23);
        let ber = 2e-2;
        let run = run_rs_channel(&rs, ber, 2000, 7);
        let analytic = rs_performance(rs.n(), rs.t(), rs.symbol_bits(), ber);
        let measured = run.failure_prob();
        let expected = analytic.codeword_failure_prob;
        assert!(
            (measured / expected - 1.0).abs() < 0.25,
            "measured {measured} vs analytic {expected}"
        );
        // Pre-FEC BER should be close to target.
        let pre_ber = run.pre_fec_bit_errors as f64 / run.bits as f64;
        assert!((pre_ber / ber - 1.0).abs() < 0.05);
    }

    #[test]
    fn clean_channel_never_fails() {
        let rs = ReedSolomon::new(8, 31, 23);
        let run = run_rs_channel(&rs, 0.0, 100, 1);
        assert_eq!(run.failures, 0);
        assert_eq!(run.decoded, 100);
    }

    #[test]
    fn deterministic_across_runs() {
        let rs = ReedSolomon::new(8, 31, 23);
        let a = run_rs_channel(&rs, 1e-2, 300, 5);
        let b = run_rs_channel(&rs, 1e-2, 300, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn ook_par_is_thread_count_invariant() {
        let _collector = crate::telemetry::test_guard::shared();
        let rx = mosaic_rx();
        let p = rx.sensitivity(1e-3).unwrap();
        // Non-multiple of the chunk size to exercise the short tail chunk.
        let bits = 3 * OOK_CHUNK_BITS + 1234;
        let seq = simulate_ook_ber_par(&Exec::with_threads(1), &rx, p, bits, 99);
        for threads in [2, 4, 16] {
            let par = simulate_ook_ber_par(&Exec::with_threads(threads), &rx, p, bits, 99);
            assert_eq!(seq, par, "threads={threads}");
        }
        // And the statistics still agree with the analytic model.
        let analytic = rx.ber_at(p);
        assert!(
            seq.ci95.0 <= analytic && analytic <= seq.ci95.1,
            "analytic {analytic} outside CI {:?}",
            seq.ci95
        );
    }

    #[test]
    fn rs_channel_is_thread_count_invariant() {
        let rs = ReedSolomon::new(8, 31, 23);
        let seq = run_rs_channel_with(&Exec::with_threads(1), &rs, 2e-2, 401, 13);
        for threads in [2, 8] {
            let par = run_rs_channel_with(&Exec::with_threads(threads), &rs, 2e-2, 401, 13);
            assert_eq!(seq, par, "threads={threads}");
        }
    }
}

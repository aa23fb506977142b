//! Deterministic random numbers with named substreams.
//!
//! Every stochastic component derives its own ChaCha8 stream from
//! `(master seed, label)`, so results are bit-reproducible across runs and
//! across code reorderings: adding a new consumer with a new label never
//! shifts the numbers another consumer sees. `rand`'s default generators
//! are explicitly *not* stability-guaranteed across versions, which is why
//! the workspace standardizes on seeded ChaCha here.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a strong 64→64-bit mixer (bijective, so
/// distinct inputs can never collide into one child seed).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a label.
fn label_hash(label: &str) -> u64 {
    crate::digest::Fnv1a::sim().bytes(label.as_bytes()).finish()
}

/// A deterministic RNG handle.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: ChaCha8Rng,
}

/// A labelled family of counter streams ([`DetRng::substreams`]): the
/// label hash is folded into the seed once, and each child is one
/// SplitMix64 derivation.
#[derive(Debug, Clone, Copy)]
pub struct Substreams {
    base: u64,
}

impl Substreams {
    /// The `task_id`-th child: `substream_indexed(seed, label, task_id)`.
    #[inline]
    pub fn child(&self, task_id: u64) -> DetRng {
        DetRng::stream(self.base, task_id)
    }
}

/// Precomputed integer threshold for a Bernoulli draw: the unique `T`
/// with `chance(p) ⟺ (next_u64() >> 11) < T`.
///
/// Exactness argument: `chance(p)` compares `m·2⁻⁵³ < p` where
/// `m = next_u64() >> 11 < 2⁵³`. Both `m·2⁻⁵³` and `p·2⁵³` are exact in
/// f64 (power-of-two scaling shifts only the exponent), and for integer
/// `m`, `m < x ⟺ m < ⌈x⌉`, so `T = ⌈p·2⁵³⌉` reproduces every `chance(p)`
/// decision bit-for-bit while hoisting the float conversion out of the
/// inner loop. Hot sweep loops build this once per sweep point — the
/// "host-side table" discipline of DESIGN §11.
#[inline]
pub fn bernoulli_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// A Bernoulli distribution prepared once per sweep config for hot
/// Monte-Carlo loops. It precomputes the integer threshold (the
/// host-side-table discipline of DESIGN §11) so the per-draw work is one
/// shift and one compare. Each trial reads one raw `next_u64` draw and
/// decides exactly as `rng.chance(p)` would (pinned by the
/// `threshold_chance_is_bit_identical` proptest).
#[derive(Debug, Clone, Copy)]
pub struct Bernoulli {
    threshold: u64,
}

impl Bernoulli {
    /// Prepare a Bernoulli(p) draw.
    #[inline]
    pub fn new(p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p));
        Bernoulli {
            threshold: bernoulli_threshold(p),
        }
    }

    /// The decision for one raw [`DetRng::next_u64`] draw `d` — exactly
    /// the decision `rng.chance(p)` makes when it draws `d` (see the
    /// exactness argument on [`bernoulli_threshold`]). Lets slab-filled
    /// kernels (see [`DetRng::fill_u64`]) decide without
    /// per-trial generator calls.
    #[inline]
    pub fn decide(&self, d: u64) -> bool {
        (d >> 11) < self.threshold
    }

    /// Run up to `n` trials and report whether at most `cap` succeeded,
    /// stopping as soon as the `(cap + 1)`-th success occurs — the
    /// k-of-n pool-survival inner loop (`n` channels, `cap` spares).
    ///
    /// Draw consumption is exactly that of the sequential early-break
    /// loop: all `n` draws on success; on failure, the draws up to and
    /// including the `(cap + 1)`-th success and none after it — so
    /// downstream consumers of the stream see identical values either
    /// way.
    ///
    /// The kernel packs 64 decisions per `u64` word (DESIGN §11): a slab
    /// of raw draws is bulk-filled, the threshold compares pack into a
    /// decision word, and a popcount counts successes 64 trials at a
    /// time. An early break overdraws the slab, so the kernel rewinds
    /// the stream to the sequential loop's exact stopping point via
    /// [`DetRng::set_word_pos`]. The one-draw-per-trial loop is the test
    /// reference, held inside the `at_most_matches_sequential_loop`
    /// proptest.
    pub fn at_most(&self, n: usize, cap: usize, rng: &mut DetRng) -> bool {
        const SLAB: usize = 64;
        let start = rng.word_pos();
        let mut draws = [0u64; SLAB];
        let mut successes = 0usize;
        let mut done = 0usize;
        while done < n {
            let take = SLAB.min(n - done);
            rng.fill_u64(&mut draws[..take]);
            // Pack this slab's decisions: bit j = trial (done + j)
            // succeeded. Tail slabs leave high bits zero.
            let mut word = 0u64;
            for (j, &d) in draws[..take].iter().enumerate() {
                word |= u64::from(self.decide(d)) << j;
            }
            let c = word.count_ones() as usize;
            if successes + c > cap {
                // Locate the (cap + 1 − successes)-th set bit: clear
                // the lower ones, then index the survivor. The
                // sequential loop would have stopped right after
                // that trial, so rewind to its draw position.
                let mut w = word;
                for _ in 0..(cap - successes) {
                    w &= w - 1;
                }
                let idx = w.trailing_zeros() as usize;
                rng.set_word_pos(start + 2 * (done + idx + 1) as u64);
                return false;
            }
            successes += c;
            done += take;
        }
        true
    }
}

impl DetRng {
    /// Root stream for a master seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent substream from a label. Uses FNV-1a over the
    /// label mixed into the master seed; labels must be unique per parent.
    pub fn substream(seed: u64, label: &str) -> Self {
        DetRng::new(seed ^ label_hash(label))
    }

    /// Derive the `task_id`-th child stream of a master seed —
    /// counter-based seed splitting for parallel execution.
    ///
    /// The contract that makes parallelism deterministic: trial `i`
    /// receives exactly this stream whether the run uses 1 thread or 32,
    /// because the child key is a pure function of `(seed, task_id)` and
    /// never depends on scheduling order. The mapping is a SplitMix64
    /// finalizer over the pair, so children of distinct task ids (and of
    /// distinct seeds) get unrelated ChaCha keys.
    pub fn stream(seed: u64, task_id: u64) -> Self {
        DetRng::new(mix64(seed ^ mix64(task_id.wrapping_add(GOLDEN))))
    }

    /// Labelled counter stream: the `task_id`-th child of `(seed, label)`.
    /// Used when one simulation needs several *families* of parallel
    /// streams (e.g. per-codeword data vs per-codeword noise) that must
    /// not collide.
    pub fn substream_indexed(seed: u64, label: &str, task_id: u64) -> Self {
        DetRng::substreams(seed, label).child(task_id)
    }

    /// The family of [`DetRng::substream_indexed`] streams of `(seed,
    /// label)`, with the label hashed once: `substreams(seed,
    /// label).child(id)` is `substream_indexed(seed, label, id)`. For
    /// loops that derive many children of one label.
    pub fn substreams(seed: u64, label: &str) -> Substreams {
        Substreams {
            base: seed ^ label_hash(label),
        }
    }

    /// Uniform f64 in [0, 1).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform u64.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Bulk draw: fill `out` with exactly the values [`DetRng::next_u64`]
    /// would return called `out.len()` times, amortizing the generator's
    /// buffer bookkeeping over the whole slab.
    #[inline]
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        self.inner.fill_u64s(out);
    }

    /// Absolute stream position in 32-bit keystream words. Every
    /// [`DetRng`] drawing method consumes whole `u64`s (two words), so
    /// the position advances by 2 per draw; the word granularity is the
    /// generator's, not a commitment of this API.
    #[inline]
    pub fn word_pos(&self) -> u64 {
        self.inner.word_pos()
    }

    /// Seek to an absolute stream position previously read with
    /// [`DetRng::word_pos`] — the rewind primitive that lets a batched
    /// kernel overdraw and then restore the exact draw consumption of
    /// its sequential oracle.
    #[inline]
    pub fn set_word_pos(&mut self, w: u64) {
        self.inner.set_word_pos(w);
    }

    /// Uniform integer in [0, n).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.inner.gen::<f64>() < p
    }

    /// Standard normal via Box-Muller (one value per call; simple and
    /// deterministic rather than cached-pair clever).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// The uniform `[0, 1)` value [`DetRng::uniform`] derives from one
    /// raw [`DetRng::next_u64`] draw `d` — the exact 53-mantissa-bit
    /// transform of the `rand` shim, for slab-filled kernels.
    #[inline]
    pub fn uniform_of(d: u64) -> f64 {
        (d >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The [`DetRng::standard_normal`] value for two raw draws `(d1, d2)`
    /// in stream order — bit-identical to calling `standard_normal` when
    /// the generator would return `d1` then `d2` (pinned by the
    /// `raw_word_transforms_match_sequential` proptest). The `u1` clamp
    /// replays the shim's half-open-range guard float for float.
    #[inline]
    pub fn standard_normal_of(d1: u64, d2: u64) -> f64 {
        let u = Self::uniform_of(d1);
        let v = f64::MIN_POSITIVE + u * (1.0 - f64::MIN_POSITIVE);
        let u1 = if v >= 1.0 { 1.0f64.next_down() } else { v };
        let u2 = Self::uniform_of(d2);
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// Geometric sample: number of failures before the first success with
    /// probability `p` — i.e. the gap to the next bit error at BER `p`.
    /// Saturates at `u64::MAX` for p ≈ 0.
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            return u64::MAX;
        }
        if p >= 1.0 {
            return 0;
        }
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        // ln_1p keeps precision for tiny p, where (1.0 - p) would round to
        // exactly 1.0 and produce a zero denominator.
        let g = (u.ln() / (-p).ln_1p()).floor();
        if !g.is_finite() || g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }

    /// Exponential inter-arrival sample with rate `lambda` (per unit time).
    #[inline]
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "rate must be positive");
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn substreams_are_independent_of_each_other() {
        let mut a = DetRng::substream(1, "channel-noise");
        let mut b = DetRng::substream(1, "fault-schedule");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
        // And stable across construction order.
        let mut a2 = DetRng::substream(1, "channel-noise");
        assert_eq!(va[0], a2.next_u64());
    }

    #[test]
    fn normal_mean_and_variance() {
        let mut r = DetRng::new(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn geometric_mean_matches() {
        let mut r = DetRng::new(9);
        let p = 0.01;
        let n = 100_000;
        let total: f64 = (0..n).map(|_| r.geometric(p) as f64).sum();
        let mean = total / n as f64;
        let expect = (1.0 - p) / p; // 99
        assert!(
            (mean / expect - 1.0).abs() < 0.05,
            "mean {mean} expect {expect}"
        );
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = DetRng::new(11);
        let lam = 2.5;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(lam)).sum::<f64>() / n as f64;
        assert!((mean * lam - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let mut r = DetRng::new(1);
        assert!(!Bernoulli::new(0.0).decide(r.next_u64()));
        assert!(Bernoulli::new(1.0).decide(r.next_u64()));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The integer-threshold Bernoulli must reproduce `chance(p)`
            /// decision-for-decision AND draw-for-draw (identical RNG
            /// state afterwards), for arbitrary p including the extremes
            /// and tiny sub-normal-adjacent values.
            #[test]
            fn threshold_chance_is_bit_identical(
                seed in any::<u64>(),
                p in prop_oneof![
                    Just(0.0),
                    Just(1.0),
                    Just(1e-300),
                    Just(f64::MIN_POSITIVE),
                    0.0f64..=1.0,
                ],
                draws in 1usize..200,
            ) {
                let mut a = DetRng::new(seed);
                let mut b = DetRng::new(seed);
                let bern = Bernoulli::new(p);
                for _ in 0..draws {
                    prop_assert_eq!(a.chance(p), bern.decide(b.next_u64()));
                }
                // Same stream position afterwards.
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }

            /// `Bernoulli::at_most` (packed 64 trials per word) must
            /// match the sequential early-break loop in both verdict and
            /// exact draw consumption, across slab boundaries (n = 1,
            /// 63..65, 128) and arbitrary caps — including caps the trial
            /// count can never exceed.
            #[test]
            fn at_most_matches_sequential_loop(
                seed in any::<u64>(),
                p in prop_oneof![Just(0.0), Just(1.0), Just(1e-4), 0.0f64..=1.0],
                n in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(128), 0usize..200],
                cap in 0usize..80,
                rounds in 1usize..4,
            ) {
                let mut a = DetRng::new(seed);
                let mut b = DetRng::new(seed);
                let bern = Bernoulli::new(p);
                for _ in 0..rounds {
                    let expect = {
                        let mut successes = 0usize;
                        let mut ok = true;
                        for _ in 0..n {
                            if a.chance(p) {
                                successes += 1;
                                if successes > cap {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        ok
                    };
                    prop_assert_eq!(bern.at_most(n, cap, &mut b), expect);
                    prop_assert_eq!(a.word_pos(), b.word_pos());
                }
                // Downstream draws agree after interleaved early breaks.
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }

            /// The raw-word transforms must reproduce the sequential
            /// draw methods bit for bit: `uniform_of` vs `uniform`/
            /// `chance`, and `standard_normal_of` vs `standard_normal`,
            /// from any stream position.
            #[test]
            fn raw_word_transforms_match_sequential(
                seed in any::<u64>(),
                pre in 0usize..40,
                p in 0.0f64..=1.0,
            ) {
                let mut a = DetRng::new(seed);
                let mut b = DetRng::new(seed);
                for _ in 0..pre {
                    prop_assert_eq!(a.next_u64(), b.next_u64());
                }
                let d = b.next_u64();
                prop_assert_eq!(a.uniform(), DetRng::uniform_of(d));
                let d = b.next_u64();
                prop_assert_eq!(a.chance(p), DetRng::uniform_of(d) < p);
                let (d1, d2) = (b.next_u64(), b.next_u64());
                let z_seq = a.standard_normal();
                let z_raw = DetRng::standard_normal_of(d1, d2);
                prop_assert_eq!(z_seq.to_bits(), z_raw.to_bits());
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }

            /// A child of a hoisted-label family is the indexed
            /// substream of the same seed, label and id.
            #[test]
            fn substreams_child_matches_substream_indexed(
                seed in any::<u64>(),
                label in proptest::collection::vec(0u8..128, 0..24),
                id in any::<u64>(),
            ) {
                let label = String::from_utf8(label).unwrap();
                let mut a = DetRng::substreams(seed, &label).child(id);
                let mut b = DetRng::substream_indexed(seed, &label, id);
                for _ in 0..3 {
                    prop_assert_eq!(a.next_u64(), b.next_u64());
                }
            }

            /// Bulk `fill_u64` is a pure batching of `next_u64`.
            #[test]
            fn fill_u64_matches_sequential_draws(
                seed in any::<u64>(),
                len in prop_oneof![Just(0usize), Just(1), Just(31), Just(32), Just(33), 0usize..100],
                pre in 0usize..40,
            ) {
                let mut a = DetRng::new(seed);
                let mut b = DetRng::new(seed);
                for _ in 0..pre {
                    prop_assert_eq!(a.next_u64(), b.next_u64());
                }
                let mut got = vec![0u64; len];
                a.fill_u64(&mut got);
                for (i, &w) in got.iter().enumerate() {
                    prop_assert_eq!(w, b.next_u64(), "word {}", i);
                }
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }
}

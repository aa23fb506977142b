//! Bit-exact error injection at arbitrary BER.
//!
//! A naive per-bit Bernoulli loop makes low-BER simulation O(bits); the
//! geometric-skip sampler jumps straight to the next error position, so a
//! 1e-9 channel costs the same per *error* as a 1e-2 channel. The injected
//! process is exactly i.i.d. Bernoulli per bit.

use crate::rng::DetRng;
use mosaic_link::striping::LaneWord;

/// A streaming bit-error injector for one channel.
#[derive(Debug, Clone)]
pub struct BitErrorInjector {
    ber: f64,
    rng: DetRng,
    /// Bits remaining until the next error.
    gap: u64,
    /// Total bits processed.
    pub bits: u64,
    /// Total errors injected.
    pub errors: u64,
}

impl BitErrorInjector {
    /// New injector at bit-error rate `ber` with its own RNG stream.
    pub fn new(ber: f64, mut rng: DetRng) -> Self {
        assert!((0.0..=1.0).contains(&ber), "BER out of range: {ber}");
        let gap = rng.geometric(ber);
        BitErrorInjector {
            ber,
            rng,
            gap,
            bits: 0,
            errors: 0,
        }
    }

    /// Change the BER mid-stream (e.g. a transient SNR dip); resamples the
    /// gap under the new rate.
    pub fn set_ber(&mut self, ber: f64) {
        assert!((0.0..=1.0).contains(&ber), "BER out of range: {ber}");
        self.ber = ber;
        self.gap = self.rng.geometric(ber);
    }

    /// Corrupt one 64-bit word in place; returns the number of flips.
    pub fn corrupt_word(&mut self, word: &mut u64) -> u32 {
        let mut flips = 0u32;
        let mut pos = 0u64;
        while pos + self.gap < 64 {
            pos += self.gap;
            *word ^= 1u64 << pos;
            flips += 1;
            pos += 1;
            self.gap = self.rng.geometric(self.ber);
        }
        self.gap -= 64 - pos;
        self.bits += 64;
        self.errors += flips as u64;
        flips
    }

    /// Corrupt a whole slice of 64-bit words in place, treating it as one
    /// contiguous bit stream; returns the number of flips.
    ///
    /// Batched kernel: one geometric-skip loop across the whole slice —
    /// the per-word boundary bookkeeping (`gap -= 64 − pos` carried word
    /// to word) collapses into a single `pos >> 6` / `pos & 63` index
    /// split per *error*, so low-BER slices cost one table-free jump per
    /// flip regardless of word count. Draws, flips and carried gap equal
    /// the word-at-a-time loop [`BitErrorInjector::corrupt_words_scalar`]
    /// (pinned by the `batched_words_path_equals_word_loop` proptest).
    // lint: no-alloc proof=crates/sim/tests/alloc_free.rs
    pub fn corrupt_words(&mut self, words: &mut [u64]) -> u64 {
        let n = words.len() as u64 * 64;
        self.skip_flips(n, |pos| words[(pos >> 6) as usize] ^= 1u64 << (pos & 63))
    }

    /// The geometric-skip loop the slice kernels share: walk an `n`-bit
    /// stream, `flip` each error position, and carry the leftover gap
    /// into the next call. Returns the number of flips.
    // lint: no-alloc
    #[inline]
    fn skip_flips(&mut self, n: u64, mut flip: impl FnMut(u64)) -> u64 {
        let mut flips = 0u64;
        let mut pos = 0u64;
        while pos + self.gap < n {
            pos += self.gap;
            flip(pos);
            flips += 1;
            pos += 1;
            self.gap = self.rng.geometric(self.ber);
        }
        self.gap -= n - pos;
        self.bits += n;
        self.errors += flips;
        flips
    }

    /// The word-at-a-time loop, the test reference for
    /// [`BitErrorInjector::corrupt_words`]; no production code calls it.
    pub fn corrupt_words_scalar(&mut self, words: &mut [u64]) -> u64 {
        let mut flips = 0u64;
        for w in words.iter_mut() {
            flips += self.corrupt_word(w) as u64;
        }
        flips
    }

    /// Corrupt a slice of 0/1 bits in place; returns the number of flips.
    pub fn corrupt_bits(&mut self, bits: &mut [u8]) -> u64 {
        let mut flips = 0u64;
        let mut pos = 0u64;
        let n = bits.len() as u64;
        while pos + self.gap < n {
            pos += self.gap;
            bits[pos as usize] ^= 1;
            flips += 1;
            pos += 1;
            self.gap = self.rng.geometric(self.ber);
        }
        self.gap -= n - pos;
        self.bits += n;
        self.errors += flips;
        flips
    }

    /// Corrupt a slice of m-bit symbols in place, treating it as the
    /// serialized bit stream `corrupt_bits` would see (bit `b` of symbol
    /// `s` at stream position `s·m + b`): identical RNG draws, identical
    /// flips, no bit-vector round trip. Returns the number of flips.
    // lint: no-alloc proof=crates/sim/tests/alloc_free.rs
    pub fn corrupt_symbols(&mut self, symbols: &mut [u16], bits_per_symbol: u32) -> u64 {
        let bps = bits_per_symbol as u64;
        let n = symbols.len() as u64 * bps;
        self.skip_flips(n, |pos| symbols[(pos / bps) as usize] ^= 1 << (pos % bps))
    }

    /// Corrupt the data words of a lane stream in place (markers are
    /// control blocks with their own heavy protection in hardware; we
    /// model them as error-free and account their loss separately via
    /// fault injection). Returns flips.
    ///
    /// Runs of consecutive `Data` words are gathered into a stack buffer
    /// and corrupted with the batched [`BitErrorInjector::corrupt_words`]
    /// kernel; markers never consume stream positions, so the bit stream
    /// — and every draw — is identical to a word-at-a-time loop over the
    /// data words (pinned by the `lane_batching_matches_word_loop`
    /// proptest, which holds that loop as its reference).
    // lint: no-alloc proof=crates/sim/tests/alloc_free.rs
    pub fn corrupt_lane(&mut self, lane: &mut [LaneWord]) -> u64 {
        const RUN: usize = 64;
        let mut buf = [0u64; RUN];
        let mut flips = 0u64;
        let mut i = 0;
        while i < lane.len() {
            if !matches!(lane[i], LaneWord::Data(_)) {
                i += 1;
                continue;
            }
            // Gather up to RUN consecutive data words.
            let mut len = 0;
            while len < RUN {
                match lane.get(i + len) {
                    Some(LaneWord::Data(d)) => {
                        buf[len] = *d;
                        len += 1;
                    }
                    _ => break,
                }
            }
            flips += self.corrupt_words(&mut buf[..len]);
            for (w, &b) in lane[i..i + len].iter_mut().zip(&buf[..len]) {
                *w = LaneWord::Data(b);
            }
            i += len;
        }
        flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn measured_rate_matches_target() {
        for &ber in &[1e-2, 1e-3, 1e-4] {
            let mut inj = BitErrorInjector::new(ber, DetRng::new(5));
            let mut zeros = vec![0u64; 2_000_000 / 64];
            for w in zeros.iter_mut() {
                inj.corrupt_word(w);
            }
            let flipped: u64 = zeros.iter().map(|w| w.count_ones() as u64).sum();
            let measured = flipped as f64 / inj.bits as f64;
            assert!(
                (measured / ber - 1.0).abs() < 0.15,
                "ber {ber}: measured {measured}"
            );
            assert_eq!(flipped, inj.errors);
        }
    }

    #[test]
    fn zero_ber_never_flips() {
        let mut inj = BitErrorInjector::new(0.0, DetRng::new(1));
        let mut w = 0xFFFF_0000_FFFF_0000u64;
        for _ in 0..1000 {
            assert_eq!(inj.corrupt_word(&mut w), 0);
        }
        assert_eq!(w, 0xFFFF_0000_FFFF_0000);
    }

    #[test]
    fn bits_and_words_paths_agree_statistically() {
        let ber = 3e-3;
        let n = 64 * 20_000;
        let mut inj_w = BitErrorInjector::new(ber, DetRng::new(3));
        let mut words = vec![0u64; n / 64];
        for w in words.iter_mut() {
            inj_w.corrupt_word(w);
        }
        let mut inj_b = BitErrorInjector::new(ber, DetRng::new(4));
        let mut bits = vec![0u8; n];
        inj_b.corrupt_bits(&mut bits);
        let e_w = inj_w.errors as f64 / n as f64;
        let e_b = inj_b.errors as f64 / n as f64;
        assert!((e_w / e_b - 1.0).abs() < 0.2, "word {e_w} bit {e_b}");
    }

    #[test]
    fn deterministic_for_seed() {
        let run = || {
            let mut inj = BitErrorInjector::new(1e-3, DetRng::new(99));
            let mut ws = vec![0u64; 1000];
            for w in ws.iter_mut() {
                inj.corrupt_word(w);
            }
            ws
        };
        assert_eq!(run(), run());
    }

    proptest! {
        #[test]
        fn symbols_path_equals_serialized_bits_path(
            seed in 0u64..200,
            exp in -3f64..-0.8,
            m in 3u32..=12,
            nsyms in 1usize..100,
            rounds in 1usize..4,
        ) {
            // corrupt_symbols must replicate the serialize → corrupt_bits
            // → reassemble pipeline exactly: same flips, same counters,
            // same residual gap carried across calls.
            let ber = 10f64.powf(exp);
            let mask = ((1u32 << m) - 1) as u16;
            let mut dr = DetRng::new(seed ^ 0xABCD);
            let words: Vec<Vec<u16>> = (0..rounds)
                .map(|_| (0..nsyms).map(|_| dr.next_u64() as u16 & mask).collect())
                .collect();
            let mut inj_bits = BitErrorInjector::new(ber, DetRng::new(seed));
            let mut inj_syms = BitErrorInjector::new(ber, DetRng::new(seed));
            for word in &words {
                let mut bits: Vec<u8> = word
                    .iter()
                    .flat_map(|&s| (0..m).map(move |b| ((s >> b) & 1) as u8))
                    .collect();
                let flips_bits = inj_bits.corrupt_bits(&mut bits);
                let via_bits: Vec<u16> = bits
                    .chunks(m as usize)
                    .map(|c| {
                        c.iter()
                            .enumerate()
                            .fold(0u16, |acc, (i, &b)| acc | ((b as u16) << i))
                    })
                    .collect();
                let mut via_syms = word.clone();
                let flips_syms = inj_syms.corrupt_symbols(&mut via_syms, m);
                prop_assert_eq!(flips_syms, flips_bits);
                prop_assert_eq!(&via_syms, &via_bits);
            }
            prop_assert_eq!(inj_syms.bits, inj_bits.bits);
            prop_assert_eq!(inj_syms.errors, inj_bits.errors);
        }

        #[test]
        fn batched_words_path_equals_word_loop(
            seed in 0u64..200,
            exp in -4f64..-0.8,
            nwords in prop_oneof![Just(1usize), Just(15), Just(16), Just(17), 1usize..64],
            rounds in 1usize..4,
        ) {
            // The batched kernel must replicate the word-at-a-time loop
            // exactly: same flips, same counters, same residual gap
            // carried across calls (rounds > 1 exercises the carry).
            let ber = 10f64.powf(exp);
            let mut inj_batch = BitErrorInjector::new(ber, DetRng::new(seed));
            let mut inj_loop = BitErrorInjector::new(ber, DetRng::new(seed));
            for round in 0..rounds {
                let mut a = vec![round as u64; nwords];
                let mut b = a.clone();
                let fa = inj_batch.corrupt_words(&mut a);
                let fb = inj_loop.corrupt_words_scalar(&mut b);
                prop_assert_eq!(fa, fb);
                prop_assert_eq!(&a, &b);
            }
            prop_assert_eq!(inj_batch.bits, inj_loop.bits);
            prop_assert_eq!(inj_batch.errors, inj_loop.errors);
            prop_assert_eq!(inj_batch.gap, inj_loop.gap);
        }

        #[test]
        fn lane_batching_matches_word_loop(
            seed in 0u64..200,
            exp in -3f64..-0.8,
            mask in proptest::collection::vec(any::<bool>(), 1..200),
        ) {
            // corrupt_lane's run gathering must reproduce the plain
            // word-at-a-time loop under arbitrary marker/data patterns
            // (markers consume no stream positions in either form).
            let ber = 10f64.powf(exp);
            let mut lane_a: Vec<LaneWord> = mask.iter().enumerate()
                .map(|(i, &data)| if data {
                    LaneWord::Data(i as u64)
                } else {
                    LaneWord::Marker(i as u32)
                })
                .collect();
            let mut lane_b = lane_a.clone();
            let mut inj_a = BitErrorInjector::new(ber, DetRng::new(seed));
            let mut inj_b = BitErrorInjector::new(ber, DetRng::new(seed));
            let fa = inj_a.corrupt_lane(&mut lane_a);
            let mut fb = 0u64;
            for w in lane_b.iter_mut() {
                if let LaneWord::Data(d) = w {
                    fb += inj_b.corrupt_word(d) as u64;
                }
            }
            prop_assert_eq!(fa, fb);
            prop_assert_eq!(&lane_a, &lane_b);
            prop_assert_eq!(inj_a.bits, inj_b.bits);
            prop_assert_eq!(inj_a.errors, inj_b.errors);
            prop_assert_eq!(inj_a.gap, inj_b.gap);
        }

        #[test]
        fn error_count_equals_flipped_bits(seed in 0u64..100, exp in -4f64..-1.0) {
            let ber = 10f64.powf(exp);
            let mut inj = BitErrorInjector::new(ber, DetRng::new(seed));
            let mut ws = vec![0u64; 500];
            for w in ws.iter_mut() {
                inj.corrupt_word(w);
            }
            let flipped: u64 = ws.iter().map(|w| w.count_ones() as u64).sum();
            prop_assert_eq!(flipped, inj.errors);
        }
    }
}

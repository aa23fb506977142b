//! The 64b/66b self-synchronizing scrambler, polynomial x⁵⁸ + x³⁹ + 1.
//!
//! Ethernet scrambles every 64-bit payload (not the sync header) so the
//! line has enough transitions for clock recovery and no DC wander —
//! both properties matter even more for LED channels, whose receivers are
//! AC-coupled and whose CDRs are deliberately simple. Self-synchronizing
//! means the descrambler needs no seed exchange: it recovers after 58 bits
//! of any error, at the cost of each line error trippling (the error and
//! its two tap echoes) — which is why the FEC sits *after* descrambling in
//! the analytic budget.

/// Scrambler/descrambler state (58-bit shift register).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scrambler {
    state: u64,
}

impl Default for Scrambler {
    fn default() -> Self {
        // Any non-zero init works; hardware commonly uses all-ones.
        Scrambler {
            state: (1u64 << 58) - 1,
        }
    }
}

impl Scrambler {
    /// Create with the all-ones initial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scramble one bit.
    #[inline]
    pub fn scramble_bit(&mut self, bit: u8) -> u8 {
        let fb = ((self.state >> 57) ^ (self.state >> 38)) & 1;
        let out = (bit as u64 ^ fb) & 1;
        self.state = ((self.state << 1) | out) & ((1u64 << 58) - 1);
        out as u8
    }

    /// Descramble one bit (self-synchronizing: state is fed with the
    /// *received* bit).
    #[inline]
    pub fn descramble_bit(&mut self, bit: u8) -> u8 {
        let fb = ((self.state >> 57) ^ (self.state >> 38)) & 1;
        let out = (bit as u64 ^ fb) & 1;
        self.state = ((self.state << 1) | bit as u64) & ((1u64 << 58) - 1);
        out as u8
    }

    /// The 58-bit history window in *stream order*: bit `k` is the line
    /// bit from 58−k steps ago (register bit 57−k). The register holds
    /// the newest bit at its LSB, so stream order is the register
    /// reversed — `reverse_bits()` maps bit 57 → bit 6, then `>> 6`
    /// aligns the oldest bit to position 0.
    #[inline]
    fn history_window(&self) -> u128 {
        (self.state.reverse_bits() >> 6) as u128
    }

    /// Scramble a 64-bit word LSB-first.
    ///
    /// Word-parallel: all 64 output bits in a handful of shifts and XORs
    /// (DESIGN §11). With the stream window
    /// `window = history | out << 58`, each output bit is
    /// `out_i = word_i ^ window_i ^ window_{i+19}` (the taps at stream
    /// distances 58 and 39). The feedback distance 39 < 64 makes out bits
    /// 39.. depend on out bits 0..25 of the *same* word, so the closed
    /// form is iterated twice: pass 1 settles bits 0..39 (history only),
    /// pass 2 settles the rest (chain depth ⌈64/39⌉ = 2).
    #[inline]
    pub fn scramble_word(&mut self, word: u64) -> u64 {
        let h = self.history_window();
        let mut out = 0u64;
        for _ in 0..2 {
            let window = h | (out as u128) << 58;
            out = word ^ (window as u64) ^ ((window >> 19) as u64);
        }
        // The register now holds the last 58 emitted bits, newest at the
        // LSB: reverse back out of stream order and mask to 58 bits.
        self.state = out.reverse_bits() & ((1u64 << 58) - 1);
        out
    }

    /// Descramble a 64-bit word LSB-first.
    ///
    /// Word-parallel and self-synchronizing, so the window is
    /// fed with *received* bits — no feedback dependency, single pass:
    /// `out_i = word_i ^ window_i ^ window_{i+19}` with
    /// `window = history | word << 58`.
    #[inline]
    pub fn descramble_word(&mut self, word: u64) -> u64 {
        let window = self.history_window() | (word as u128) << 58;
        let out = word ^ (window as u64) ^ ((window >> 19) as u64);
        self.state = word.reverse_bits() & ((1u64 << 58) - 1);
        out
    }

    /// Bit-at-a-time scramble: the test reference for
    /// [`Scrambler::scramble_word`]; no production code calls it.
    pub fn scramble_word_scalar(&mut self, word: u64) -> u64 {
        let mut out = 0u64;
        for i in 0..64 {
            let b = ((word >> i) & 1) as u8;
            out |= (self.scramble_bit(b) as u64) << i;
        }
        out
    }

    /// Bit-at-a-time descramble: the test reference for
    /// [`Scrambler::descramble_word`]; no production code calls it.
    pub fn descramble_word_scalar(&mut self, word: u64) -> u64 {
        let mut out = 0u64;
        for i in 0..64 {
            let b = ((word >> i) & 1) as u8;
            out |= (self.descramble_bit(b) as u64) << i;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_with_matched_state() {
        let mut tx = Scrambler::new();
        let mut rx = Scrambler::new();
        for word in [0u64, u64::MAX, 0xDEAD_BEEF_0BAD_F00D, 1, 2, 3] {
            assert_eq!(rx.descramble_word(tx.scramble_word(word)), word);
        }
    }

    #[test]
    fn descrambler_self_synchronizes() {
        // Start the receiver with a *wrong* state; after 58 received bits
        // it must track exactly.
        let mut tx = Scrambler::new();
        let mut rx = Scrambler { state: 0x1234_5678 };
        let words: Vec<u64> = (0..8).map(|i| 0x0101_0101_0101_0101u64 * i).collect();
        let mut recovered = vec![];
        for &w in &words {
            recovered.push(rx.descramble_word(tx.scramble_word(w)));
        }
        // First word may be corrupted; all subsequent words are clean.
        assert_eq!(&recovered[1..], &words[1..]);
    }

    #[test]
    fn single_line_error_multiplies_by_three() {
        let mut tx = Scrambler::new();
        let mut rx_clean = Scrambler::new();
        let mut rx_dirty = Scrambler::new();
        let words = [0u64; 4];
        let mut scrambled: Vec<u64> = words.iter().map(|&w| tx.scramble_word(w)).collect();
        let clean: Vec<u64> = scrambled
            .iter()
            .map(|&w| rx_clean.descramble_word(w))
            .collect();
        // Flip one bit on the line in word 1.
        scrambled[1] ^= 1 << 10;
        let dirty: Vec<u64> = scrambled
            .iter()
            .map(|&w| rx_dirty.descramble_word(w))
            .collect();
        let flipped: u32 = clean
            .iter()
            .zip(&dirty)
            .map(|(&a, &b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 3, "x^58+x^39+1 echoes each error at two taps");
    }

    #[test]
    fn scrambled_stream_has_transitions() {
        // The whole point: an all-zeros payload must not produce a DC line.
        let mut tx = Scrambler::new();
        let mut ones = 0u32;
        for _ in 0..64 {
            ones += tx.scramble_word(0).count_ones();
        }
        let total = 64 * 64;
        let fraction = ones as f64 / total as f64;
        assert!(fraction > 0.4 && fraction < 0.6, "mark density {fraction}");
    }

    proptest! {
        #[test]
        fn roundtrip_random(words in proptest::collection::vec(any::<u64>(), 1..64)) {
            let mut tx = Scrambler::new();
            let mut rx = Scrambler::new();
            for &w in &words {
                prop_assert_eq!(rx.descramble_word(tx.scramble_word(w)), w);
            }
        }

        /// The word-parallel kernels must match the bit loop exactly —
        /// every output word AND the register state after each word, from
        /// any starting state.
        #[test]
        fn sliced_words_match_bit_loop(
            state in 1u64..(1 << 58),
            words in proptest::collection::vec(any::<u64>(), 1..32),
        ) {
            let mut tx_s = Scrambler { state };
            let mut tx_b = Scrambler { state };
            let mut rx_s = Scrambler { state };
            let mut rx_b = Scrambler { state };
            for &w in &words {
                prop_assert_eq!(tx_s.scramble_word(w), tx_b.scramble_word_scalar(w));
                prop_assert_eq!(tx_s.state, tx_b.state);
                prop_assert_eq!(rx_s.descramble_word(w), rx_b.descramble_word_scalar(w));
                prop_assert_eq!(rx_s.state, rx_b.state);
            }
        }
    }
}

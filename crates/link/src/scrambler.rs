//! The self-synchronizing scrambler of Ethernet's 64b/66b PCS, polynomial
//! x⁵⁸ + x³⁹ + 1, applied here to bare 64-bit words (the gearbox carries
//! no sync header).
//!
//! Ethernet scrambles every 64-bit payload (not the sync header) so the
//! line has enough transitions for clock recovery and no DC wander —
//! both properties matter even more for LED channels, whose receivers are
//! AC-coupled and whose CDRs are deliberately simple. Self-synchronizing
//! means the descrambler needs no seed exchange: it recovers after 58 bits
//! of any error, at the cost of each line error trippling (the error and
//! its two tap echoes) — which is why the FEC sits *after* descrambling in
//! the analytic budget.

/// Mask of the 58-bit history.
const MASK58: u64 = (1u64 << 58) - 1;

/// Scrambler/descrambler state: the last 58 line bits in *stream order*
/// — bit `k` is the line bit from 58−k steps ago, oldest at bit 0.
///
/// Stream order is what the word kernels need: the tap at stream
/// distance 58 is bit `i` of the history and the tap at distance 39 is
/// bit `i + 19`, so a whole word reads both with two shifts. The
/// bit-serial reference keeps the textbook shift register (newest bit
/// at the LSB, taps at bits 57 and 38), which is this history reversed
/// (`reverse58`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scrambler {
    history: u64,
}

impl Default for Scrambler {
    fn default() -> Self {
        // Any non-zero init works; hardware commonly uses all-ones (the
        // same in either bit order).
        Scrambler { history: MASK58 }
    }
}

/// Reverse the low 58 bits (an involution): register order ↔ stream
/// order. Register bit 57 (the oldest) becomes stream bit 0.
#[inline]
fn reverse58(x: u64) -> u64 {
    x.reverse_bits() >> 6
}

impl Scrambler {
    /// Create with the all-ones initial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scramble one bit through the shift register (a test reference):
    /// the register holds the newest bit at its LSB and taps bits 57 and
    /// 38; it is converted from the history at entry and back at exit.
    #[inline]
    pub fn scramble_bit(&mut self, bit: u8) -> u8 {
        let state = reverse58(self.history);
        let fb = ((state >> 57) ^ (state >> 38)) & 1;
        let out = (bit as u64 ^ fb) & 1;
        self.history = reverse58(((state << 1) | out) & MASK58);
        out as u8
    }

    /// Descramble one bit through the shift register (a test reference;
    /// self-synchronizing: the register is fed with the *received* bit).
    #[inline]
    pub fn descramble_bit(&mut self, bit: u8) -> u8 {
        let state = reverse58(self.history);
        let fb = ((state >> 57) ^ (state >> 38)) & 1;
        let out = (bit as u64 ^ fb) & 1;
        self.history = reverse58(((state << 1) | bit as u64) & MASK58);
        out as u8
    }

    /// Scramble a 64-bit word LSB-first.
    ///
    /// Word-parallel: all 64 output bits in a handful of shifts and XORs
    /// (DESIGN §11.4). Each output bit is
    /// `out_i = word_i ^ window_i ^ window_{i+19}` over the stream window
    /// `window = history | out << 58` (the taps at stream distances 58
    /// and 39). History alone gives `first = word ^ h ^ (h >> 19)`, which
    /// settles bits 0..39; the feedback then adds out bits 0..25 at bit
    /// 39 and out bits 0..6 at bit 58 — and those low bits *are* `first`'s,
    /// so `out = first ^ (first << 39) ^ (first << 58)` with no second
    /// pass. The new history is the last 58 emitted bits, `out >> 6`.
    // lint: no-alloc proof=crates/sim/tests/alloc_free.rs
    #[inline]
    pub fn scramble_word(&mut self, word: u64) -> u64 {
        let h = self.history;
        let first = word ^ h ^ (h >> 19);
        let out = first ^ (first << 39) ^ (first << 58);
        self.history = out >> 6;
        out
    }

    /// Descramble a 64-bit word LSB-first.
    ///
    /// Word-parallel and self-synchronizing, so the window is fed with
    /// *received* bits — no feedback dependency:
    /// `out = word ^ h ^ (h >> 19) ^ (word << 39) ^ (word << 58)`, and the
    /// new history is the last 58 received bits, `word >> 6`.
    // lint: no-alloc proof=crates/sim/tests/alloc_free.rs
    #[inline]
    pub fn descramble_word(&mut self, word: u64) -> u64 {
        let h = self.history;
        self.history = word >> 6;
        word ^ h ^ (h >> 19) ^ (word << 39) ^ (word << 58)
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
        let mut rx = Scrambler {
            history: 0x1234_5678,
        };
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
        /// every output word AND the state after each word, from any
        /// starting register state.
        #[test]
        fn sliced_words_match_bit_loop(
            state in 1u64..(1 << 58),
            words in proptest::collection::vec(any::<u64>(), 1..32),
        ) {
            let mut tx_s = Scrambler { history: reverse58(state) };
            let mut tx_b = Scrambler { history: reverse58(state) };
            let mut rx_s = Scrambler { history: reverse58(state) };
            let mut rx_b = Scrambler { history: reverse58(state) };
            for &w in &words {
                prop_assert_eq!(tx_s.scramble_word(w), tx_b.scramble_word_scalar(w));
                prop_assert_eq!(tx_s.history, tx_b.history);
                prop_assert_eq!(rx_s.descramble_word(w), rx_b.descramble_word_scalar(w));
                prop_assert_eq!(rx_s.history, rx_b.history);
            }
        }
    }
}

//! Binary BCH codes.
//!
//! The middle point of the FEC trade study: stronger than Hamming, lighter
//! than Reed-Solomon, and the natural choice for protecting individual
//! low-rate channels (bit-oriented errors, no symbol structure). We build
//! BCH(n, k, t) over GF(2^m) with n = 2^m − 1 (optionally shortened),
//! generator = lcm of the minimal polynomials of α¹..α^{2t}, and decode via
//! syndromes + Berlekamp-Massey + Chien search (binary: flipping located
//! bits, no magnitudes needed).

use crate::gf::GaloisField;
use crate::scratch::DecodeScratch;
use mosaic_units::{MosaicError, Result};

/// Outcome of a BCH decode attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BchOutcome {
    /// Word was already a codeword.
    Clean,
    /// Errors corrected (bit count).
    Corrected(usize),
    /// Uncorrectable pattern detected; word unmodified.
    Failure,
}

/// A binary BCH code. Bits are stored one per `u8` (0/1) highest-degree
/// first, mirroring the RS layout; this favors clarity over packing (the
/// simulator's hot loops operate on whole codewords, not bits).
#[derive(Debug, Clone, PartialEq)]
pub struct Bch {
    field: GaloisField,
    n: usize,
    k: usize,
    t: usize,
    /// Generator polynomial over GF(2), lowest-degree first (0/1 coeffs).
    generator: Vec<u8>,
    /// Host-side multiply-by-root tables for the syndrome kernel, built
    /// once per code: row `i` (stride = field size) holds
    /// `T_i[v] = v · α^{i+1}` (BCH syndromes start at α¹), so the Horner
    /// step `acc·α^{i+1} + c` becomes one lookup and one XOR (see
    /// DESIGN §11).
    synd_tables: Vec<u16>,
    /// Chien-search root table: `chien_roots[p] = α^{−p}` for each of the
    /// n valid positions, hoisting the modular exponent arithmetic out of
    /// the per-position search loop.
    chien_roots: Vec<u16>,
}

impl Bch {
    /// Construct a BCH code over GF(2^m) with designed correction `t`,
    /// shortened to length `n` (n ≤ 2^m − 1). `k` follows from the
    /// generator degree.
    ///
    /// # Panics
    /// Panics on invalid parameters; use [`Bch::try_new`] to handle the
    /// error instead.
    pub fn new(m: u32, n: usize, t: usize) -> Self {
        match Self::try_new(m, n, t) {
            Ok(code) => code,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Bch::new`]: errors when `n > 2^m − 1`, `t < 1`, or the
    /// generator polynomial leaves no room for data at length `n` (an
    /// oversubscribed code).
    pub fn try_new(m: u32, n: usize, t: usize) -> Result<Self> {
        let field = GaloisField::try_new(m)?;
        if n > field.order() {
            return Err(MosaicError::invalid_code(format!(
                "n={n} exceeds 2^m−1={}",
                field.order()
            )));
        }
        if t < 1 {
            return Err(MosaicError::invalid_code("BCH t must be at least 1"));
        }

        // Generator = lcm of minimal polynomials of α^1 .. α^{2t}.
        // Collect cyclotomic cosets of the exponents and multiply the
        // corresponding minimal polynomials together.
        let order = field.order();
        let mut covered = vec![false; order];
        let mut generator: Vec<u8> = vec![1];
        for e in 1..=(2 * t) {
            let e = e % order;
            // bound: e < order = covered.len().
            if covered[e] {
                continue;
            }
            // Cyclotomic coset of e: {e, 2e, 4e, ...} mod (2^m − 1).
            let mut coset = vec![];
            let mut cur = e;
            loop {
                // bound: cur is e or a value mod order, so < covered.len().
                covered[cur] = true;
                coset.push(cur);
                cur = (cur * 2) % order;
                if cur == e {
                    break;
                }
            }
            // Minimal polynomial = Π_{j in coset} (x − α^j), computed in
            // GF(2^m); its coefficients land in GF(2).
            let mut min_poly: Vec<u16> = vec![1];
            for &j in &coset {
                min_poly = field.poly_mul(&min_poly, &[field.alpha_pow(j), 1]);
            }
            debug_assert!(
                min_poly.iter().all(|&c| c <= 1),
                "minimal polynomial must have binary coefficients"
            );
            // Multiply generator (GF(2)) by min_poly.
            let mut next = vec![0u8; generator.len() + min_poly.len() - 1];
            for (i, &gi) in generator.iter().enumerate() {
                if gi == 0 {
                    continue;
                }
                for (j, &mj) in min_poly.iter().enumerate() {
                    // bound: i + j ≤ generator.len() + min_poly.len() − 2 < next.len().
                    next[i + j] ^= mj as u8;
                }
            }
            generator = next;
        }
        let parity = generator.len() - 1;
        if n <= parity {
            return Err(MosaicError::invalid_code(format!(
                "oversubscribed BCH: length {n} cannot fit {parity} parity bits (t={t})"
            )));
        }
        let k = n - parity;
        // Host-side table precompute (DESIGN §11): per-root multiply
        // tables for the syndrome kernel and the Chien root sequence,
        // mirroring the RS decoder. Each entry is the exact
        // `field.mul`/`alpha_pow` value the inner loops would otherwise
        // recompute per bit/position.
        let two_t = 2 * t;
        let size = field.size();
        let mut synd_tables = vec![0u16; two_t * size];
        for (i, table) in synd_tables.chunks_exact_mut(size).enumerate() {
            let root = field.alpha_pow(i + 1);
            for (v, slot) in table.iter_mut().enumerate() {
                *slot = field.mul(v as u16, root);
            }
        }
        let chien_roots: Vec<u16> = (0..n)
            .map(|p| field.alpha_pow((order - p % order) % order))
            .collect();
        Ok(Bch {
            field,
            n,
            k,
            t,
            generator,
            synd_tables,
            chien_roots,
        })
    }

    /// Data length in bits.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Designed error-correcting capability in bits.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Systematic encode: `data` (k bits as 0/1 bytes) → n-bit codeword,
    /// data first, parity appended.
    ///
    /// # Panics
    /// Panics on malformed input; use [`Bch::try_encode`] to handle the
    /// error instead.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        match self.try_encode(data) {
            Ok(word) => word,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Bch::encode`]: errors unless `data` is exactly k bits.
    pub fn try_encode(&self, data: &[u8]) -> Result<Vec<u8>> {
        if data.len() != self.k {
            return Err(MosaicError::LengthMismatch {
                what: "BCH data block",
                expected: self.k,
                got: data.len(),
            });
        }
        let parity_len = self.n - self.k;
        let mut word = Vec::with_capacity(self.n);
        word.extend_from_slice(data);
        word.resize(self.n, 0);
        // Polynomial long division over GF(2).
        let mut rem = vec![0u8; parity_len];
        for &d in data {
            debug_assert!(d <= 1, "bits must be 0/1");
            let feedback = d ^ rem[0];
            rem.rotate_left(1);
            // parity_len = deg g ≥ 1 (t ≥ 1 multiplies in at least one
            // minimal polynomial), and try_new checked n > parity_len.
            // bound: 0 ≤ parity_len − 1 < parity_len = rem.len()
            rem[parity_len - 1] = 0;
            if feedback == 1 {
                for (j, r) in rem.iter_mut().enumerate() {
                    // bound: j < parity_len, and g has parity_len + 1 coefficients.
                    *r ^= self.generator[parity_len - 1 - j];
                }
            }
        }
        // bound: word.len() = n > k.
        word[self.k..].copy_from_slice(&rem);
        Ok(word)
    }

    /// Syndromes S_1..S_{2t} in GF(2^m), one explicit-multiply Horner
    /// pass per syndrome: the test reference for [`Bch::syndromes_into`];
    /// no production code calls it.
    #[cfg(test)]
    fn syndromes(&self, word: &[u8]) -> Vec<u16> {
        (1..=(2 * self.t))
            .map(|i| {
                let x = self.field.alpha_pow(i);
                let mut acc = 0u16;
                for &c in word {
                    acc = self.field.add(self.field.mul(acc, x), c as u16);
                }
                acc
            })
            .collect()
    }

    /// Fused Horner syndrome kernel into `s.synd`; returns true when the
    /// word is already a codeword. One pass over the word; each
    /// accumulator steps through its precomputed `synd_tables` lookup
    /// (`T_i[acc] ^ c`, with `T_i[v] = v·α^i`, see DESIGN §11), so every
    /// value equals [`Bch::syndromes`] (pinned by the
    /// `fused_syndromes_match_reference` proptest).
    fn syndromes_into(&self, word: &[u8], s: &mut DecodeScratch) -> bool {
        let two_t = 2 * self.t;
        s.synd.clear();
        s.synd.resize(two_t, 0);
        let stride = self.field.size();
        for &c in word {
            for (acc, table) in s.synd.iter_mut().zip(self.synd_tables.chunks_exact(stride)) {
                *acc = table[*acc as usize] ^ c as u16;
            }
        }
        s.synd.iter().all(|&v| v == 0)
    }

    /// Decode in place: locate and flip up to t bit errors.
    ///
    /// Errors only on malformed input (wrong word length); an
    /// uncorrectable pattern is the `Ok(`[`BchOutcome::Failure`]`)` case,
    /// not an `Err`.
    pub fn decode(&self, word: &mut [u8]) -> Result<BchOutcome> {
        self.decode_scratch(word, &mut DecodeScratch::new())
    }

    /// [`Bch::decode`] with caller-owned working storage: zero heap
    /// allocation per word once the scratch buffers are sized.
    pub fn decode_scratch(&self, word: &mut [u8], s: &mut DecodeScratch) -> Result<BchOutcome> {
        if word.len() != self.n {
            return Err(MosaicError::LengthMismatch {
                what: "BCH codeword",
                expected: self.n,
                got: word.len(),
            });
        }
        if self.syndromes_into(word, s) {
            return Ok(BchOutcome::Clean);
        }
        let two_t = 2 * self.t;

        // Berlekamp-Massey (same structure as the RS decoder), on scratch
        // buffers with swaps replacing the reference path's clone-and-move.
        s.lambda.clear();
        s.lambda.resize(two_t + 1, 0);
        s.prev.clear();
        s.prev.resize(two_t + 1, 0);
        s.cand.clear();
        s.cand.resize(two_t + 1, 0);
        s.lambda[0] = 1;
        s.prev[0] = 1;
        let mut l = 0usize;
        let mut shift = 1usize;
        let mut b = 1u16;
        for r in 0..two_t {
            let mut delta = 0u16;
            for i in 0..=l.min(r) {
                delta = self
                    .field
                    .add(delta, self.field.mul(s.lambda[i], s.synd[r - i]));
            }
            if delta == 0 {
                shift += 1;
                continue;
            }
            let coeff = self.field.div(delta, b);
            s.cand.copy_from_slice(&s.lambda);
            for i in shift..=two_t {
                if s.prev[i - shift] != 0 {
                    s.cand[i] = self
                        .field
                        .add(s.cand[i], self.field.mul(coeff, s.prev[i - shift]));
                }
            }
            if 2 * l <= r {
                std::mem::swap(&mut s.prev, &mut s.lambda);
                b = delta;
                l = r + 1 - l;
                shift = 1;
            } else {
                shift += 1;
            }
            std::mem::swap(&mut s.lambda, &mut s.cand);
        }
        let deg = s.lambda.iter().rposition(|&c| c != 0).unwrap_or(0);
        if deg == 0 || deg > self.t {
            return Ok(BchOutcome::Failure);
        }

        // Chien search restricted to the transmitted length.
        // `chien_roots[p]` is the precomputed α^{−p} (same `alpha_pow`
        // expression, evaluated once at construction — see DESIGN §11).
        s.positions.clear();
        for (p, &x_inv) in self.chien_roots.iter().enumerate() {
            if self.field.poly_eval(&s.lambda, x_inv) == 0 {
                s.positions.push(self.n - 1 - p);
            }
        }
        if s.positions.len() != deg {
            return Ok(BchOutcome::Failure);
        }
        for &idx in &s.positions {
            word[idx] ^= 1;
        }
        if !self.syndromes_into(word, s) {
            // Undo and report failure rather than hand back garbage.
            for &idx in &s.positions {
                word[idx] ^= 1;
            }
            return Ok(BchOutcome::Failure);
        }
        Ok(BchOutcome::Corrected(s.positions.len()))
    }
}

/// The PR-2-era allocating decoder, retained verbatim as the differential
/// oracle for the scratch-based path.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Allocating BCH decode, pre-scratch implementation.
    pub fn decode(code: &Bch, word: &mut [u8]) -> Result<BchOutcome> {
        if word.len() != code.n {
            return Err(MosaicError::LengthMismatch {
                what: "BCH codeword",
                expected: code.n,
                got: word.len(),
            });
        }
        let synd = code.syndromes(word);
        if synd.iter().all(|&s| s == 0) {
            return Ok(BchOutcome::Clean);
        }
        let two_t = 2 * code.t;
        let mut lambda = vec![0u16; two_t + 1];
        let mut prev = vec![0u16; two_t + 1];
        lambda[0] = 1;
        prev[0] = 1;
        let mut l = 0usize;
        let mut shift = 1usize;
        let mut b = 1u16;
        for r in 0..two_t {
            let mut delta = 0u16;
            for i in 0..=l.min(r) {
                delta = code
                    .field
                    .add(delta, code.field.mul(lambda[i], synd[r - i]));
            }
            if delta == 0 {
                shift += 1;
                continue;
            }
            let coeff = code.field.div(delta, b);
            let mut cand = lambda.clone();
            for i in shift..=two_t {
                if prev[i - shift] != 0 {
                    cand[i] = code
                        .field
                        .add(cand[i], code.field.mul(coeff, prev[i - shift]));
                }
            }
            if 2 * l <= r {
                prev = lambda;
                b = delta;
                l = r + 1 - l;
                shift = 1;
            } else {
                shift += 1;
            }
            lambda = cand;
        }
        let deg = lambda.iter().rposition(|&c| c != 0).unwrap_or(0);
        if deg == 0 || deg > code.t {
            return Ok(BchOutcome::Failure);
        }
        let order = code.field.order();
        let mut flips = Vec::with_capacity(deg);
        for p in 0..code.n {
            let x_inv = code.field.alpha_pow((order - p % order) % order);
            if code.field.poly_eval(&lambda, x_inv) == 0 {
                flips.push(code.n - 1 - p);
            }
        }
        if flips.len() != deg {
            return Ok(BchOutcome::Failure);
        }
        for &idx in &flips {
            word[idx] ^= 1;
        }
        if code.syndromes(word).iter().any(|&s| s != 0) {
            for &idx in &flips {
                word[idx] ^= 1;
            }
            return Ok(BchOutcome::Failure);
        }
        Ok(BchOutcome::Corrected(flips.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn oversubscribed_code_is_an_error() {
        // Shortened BCH(10, t=3) over GF(2^4) needs 10 parity bits — the
        // whole block — leaving no room for data.
        assert!(Bch::try_new(4, 10, 3).is_err());
        assert!(Bch::try_new(4, 16, 2).is_err()); // n > 2^4 − 1
        assert!(Bch::try_new(4, 15, 0).is_err());
        let code = Bch::new(4, 15, 2);
        assert!(code.try_encode(&[0u8; 3]).is_err());
        let mut short = vec![0u8; 3];
        assert!(code.decode(&mut short).is_err());
    }

    #[test]
    fn bch_15_7_2_parameters() {
        // The textbook BCH(15,7) corrects 2 errors; generator degree 8.
        let code = Bch::new(4, 15, 2);
        assert_eq!((code.n, code.k(), code.t()), (15, 7, 2));
    }

    #[test]
    fn bch_255_t5() {
        // BCH over GF(2^8) with t=5: k = 255 − 40 = 215.
        let code = Bch::new(8, 255, 5);
        assert_eq!(code.k(), 215);
    }

    #[test]
    fn encode_is_codeword() {
        let code = Bch::new(4, 15, 2);
        let data = [1u8, 0, 1, 1, 0, 0, 1];
        let word = code.encode(&data);
        assert_eq!(&word[..7], &data);
        assert!(code.syndromes(&word).iter().all(|&s| s == 0));
    }

    #[test]
    fn corrects_up_to_t_bits() {
        let code = Bch::new(8, 255, 5);
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..2u8)).collect();
        let clean = code.encode(&data);
        for nerr in 1..=5 {
            let mut word = clean.clone();
            let mut pos: Vec<usize> = (0..code.n).collect();
            for i in 0..nerr {
                let j = rng.gen_range(i..pos.len());
                pos.swap(i, j);
                word[pos[i]] ^= 1;
            }
            assert_eq!(
                code.decode(&mut word).unwrap(),
                BchOutcome::Corrected(nerr),
                "nerr={nerr}"
            );
            assert_eq!(word, clean);
        }
    }

    #[test]
    fn shortened_bch_roundtrip() {
        let code = Bch::new(8, 120, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..2u8)).collect();
        let clean = code.encode(&data);
        let mut word = clean.clone();
        word[3] ^= 1;
        word[77] ^= 1;
        word[119] ^= 1;
        assert_eq!(code.decode(&mut word).unwrap(), BchOutcome::Corrected(3));
        assert_eq!(word, clean);
    }

    #[test]
    fn overload_detected_and_word_untouched() {
        let code = Bch::new(4, 15, 2);
        let data = [1u8, 1, 0, 1, 0, 1, 0];
        let clean = code.encode(&data);
        let mut detected = 0;
        let mut tried = 0;
        // Try many 4-error patterns (t=2): failures must leave the word
        // unmodified; miscorrections must still be codewords.
        for a in 0..6 {
            for b in 6..10 {
                for c in 10..13 {
                    for d in 13..15 {
                        let mut word = clean.clone();
                        for idx in [a, b, c, d] {
                            word[idx] ^= 1;
                        }
                        let snapshot = word.clone();
                        tried += 1;
                        match code.decode(&mut word).unwrap() {
                            BchOutcome::Failure => {
                                detected += 1;
                                assert_eq!(word, snapshot);
                            }
                            BchOutcome::Corrected(_) => {
                                assert!(code.syndromes(&word).iter().all(|&s| s == 0));
                            }
                            BchOutcome::Clean => panic!("4 errors reported clean"),
                        }
                    }
                }
            }
        }
        assert!(detected > 0, "no failures detected in {tried} patterns");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn scratch_matches_reference(seed in 0u64..2000, nerr in 0usize..=6) {
            // Differential oracle over clean, correctable and overloaded
            // patterns (t = 3): outcome and word must match bit-for-bit.
            let code = Bch::new(8, 63, 3);
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..2u8)).collect();
            let mut word = code.encode(&data);
            let mut pos: Vec<usize> = (0..code.n).collect();
            for i in 0..nerr {
                let j = rng.gen_range(i..pos.len());
                pos.swap(i, j);
                word[pos[i]] ^= 1;
            }
            let mut word_ref = word.clone();
            let mut word_new = word.clone();
            let mut scratch = crate::scratch::DecodeScratch::new();
            let out_ref = reference::decode(&code, &mut word_ref).unwrap();
            let out_new = code.decode_scratch(&mut word_new, &mut scratch).unwrap();
            prop_assert_eq!(out_new, out_ref);
            prop_assert_eq!(word_new, word_ref);
        }

        #[test]
        fn fused_syndromes_match_reference(seed in 0u64..1000) {
            let code = Bch::new(8, 63, 3);
            let mut rng = StdRng::seed_from_u64(seed);
            let word: Vec<u8> = (0..code.n).map(|_| rng.gen_range(0..2u8)).collect();
            let mut scratch = crate::scratch::DecodeScratch::new();
            let all_zero = code.syndromes_into(&word, &mut scratch);
            let reference = code.syndromes(&word);
            prop_assert_eq!(&scratch.synd, &reference);
            prop_assert_eq!(all_zero, reference.iter().all(|&s| s == 0));
        }

        #[test]
        fn random_roundtrip(seed in 0u64..500, nerr in 0usize..=3) {
            let code = Bch::new(8, 63, 3);
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..2u8)).collect();
            let clean = code.encode(&data);
            let mut word = clean.clone();
            let mut pos: Vec<usize> = (0..code.n).collect();
            for i in 0..nerr {
                let j = rng.gen_range(i..pos.len());
                pos.swap(i, j);
                word[pos[i]] ^= 1;
            }
            let out = code.decode(&mut word).unwrap();
            prop_assert_eq!(word, clean);
            if nerr == 0 {
                prop_assert_eq!(out, BchOutcome::Clean);
            } else {
                prop_assert_eq!(out, BchOutcome::Corrected(nerr));
            }
        }
    }
}

//! Systematic Reed-Solomon codec: Berlekamp-Massey + Chien + Forney.
//!
//! Codewords are stored highest-degree-first: index 0 holds the x^(n−1)
//! coefficient (the first data symbol), index n−1 the x^0 coefficient (the
//! last parity symbol). The generator uses first consecutive root α^0
//! (`b = 0`), matching the IEEE 802.3 KP4/KR4 definitions. Shortened codes
//! (n below the field's natural 2^m − 1) work directly: a shortened word is
//! the natural word with leading zero data symbols never transmitted.

use crate::gf::GaloisField;
use crate::scratch::DecodeScratch;
use mosaic_units::{MosaicError, Result};

/// Outcome of a decode attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// The word was already a codeword.
    Clean,
    /// Errors were found and corrected (count of corrected symbols).
    Corrected(usize),
    /// More errors than the code can correct: decoding failure *detected*.
    /// The word is left unmodified.
    Failure,
}

/// A systematic RS(n, k) code over GF(2^m).
#[derive(Debug, Clone, PartialEq)]
pub struct ReedSolomon {
    field: GaloisField,
    n: usize,
    k: usize,
    /// Generator polynomial, lowest-degree coefficient first, monic.
    generator: Vec<u16>,
    /// Host-side multiply-by-root tables for the syndrome kernel, built
    /// once per code: row `i` (stride = field size) holds
    /// `T_i[v] = v · α^i`, so the Horner step `acc·α^i + c` becomes one
    /// lookup and one XOR (see DESIGN §11). ~2·two_t·2^m bytes — 60 KB
    /// for KP4, built once per sweep config.
    synd_tables: Vec<u16>,
    /// Chien-search root table: `chien_roots[p] = α^{−p}` for each of the
    /// n valid positions, hoisting the modular exponent arithmetic out of
    /// the per-position search loop.
    chien_roots: Vec<u16>,
}

impl ReedSolomon {
    /// Construct RS(n, k) over GF(2^m).
    ///
    /// # Panics
    /// Panics on invalid parameters; use [`ReedSolomon::try_new`] to
    /// handle the error instead.
    pub fn new(m: u32, n: usize, k: usize) -> Self {
        match Self::try_new(m, n, k) {
            Ok(rs) => rs,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ReedSolomon::new`]: errors unless `1 ≤ k < n ≤ 2^m − 1`.
    pub fn try_new(m: u32, n: usize, k: usize) -> Result<Self> {
        let field = GaloisField::try_new(m)?;
        if k < 1 || k >= n {
            return Err(MosaicError::invalid_code(format!(
                "need 1 ≤ k < n, got n={n} k={k}"
            )));
        }
        if n > field.order() {
            return Err(MosaicError::invalid_code(format!(
                "n={n} exceeds field order {} (oversubscribed block)",
                field.order()
            )));
        }
        let two_t = n - k;
        // Generator g(x) = Π_{i=0}^{2t−1} (x − α^i), built lowest-first.
        let mut generator = vec![1u16];
        for i in 0..two_t {
            let root = field.alpha_pow(i);
            // Multiply by (x + root) — characteristic 2, so minus is plus.
            generator = field.poly_mul(&generator, &[root, 1]);
        }
        // Host-side table precompute (DESIGN §11): per-root multiply
        // tables for the syndrome kernel and the Chien root sequence.
        // Each entry is the exact `field.mul`/`alpha_pow` value the inner
        // loops would otherwise recompute per symbol/position.
        let size = field.size();
        let mut synd_tables = vec![0u16; two_t * size];
        for (i, table) in synd_tables.chunks_exact_mut(size).enumerate() {
            let root = field.alpha_pow(i);
            for (v, slot) in table.iter_mut().enumerate() {
                *slot = field.mul(v as u16, root);
            }
        }
        let order = field.order();
        let chien_roots: Vec<u16> = (0..n)
            .map(|p| field.alpha_pow((order - p % order) % order))
            .collect();
        Ok(ReedSolomon {
            field,
            n,
            k,
            generator,
            synd_tables,
            chien_roots,
        })
    }

    /// IEEE 802.3 "KP4" RS(544,514) over GF(2¹⁰): t = 15.
    pub fn kp4() -> Self {
        ReedSolomon::new(10, 544, 514)
    }

    /// IEEE 802.3 "KR4" RS(528,514) over GF(2¹⁰): t = 7.
    pub fn kr4() -> Self {
        ReedSolomon::new(10, 528, 514)
    }

    /// Classic CCSDS-style RS(255,223) over GF(2⁸): t = 16.
    pub fn rs_255_223() -> Self {
        ReedSolomon::new(8, 255, 223)
    }

    /// Block length n in symbols.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data length k in symbols.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Symbol-correcting capability t = (n − k)/2.
    pub fn t(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Bits per symbol (the field's m).
    pub fn symbol_bits(&self) -> u32 {
        self.field.m()
    }

    /// Systematically encode `data` (k symbols, each < 2^m) into an
    /// n-symbol codeword: data first, parity appended.
    ///
    /// # Panics
    /// Panics on malformed input; use [`ReedSolomon::try_encode`] to
    /// handle the error instead.
    pub fn encode(&self, data: &[u16]) -> Vec<u16> {
        match self.try_encode(data) {
            Ok(word) => word,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ReedSolomon::encode`]: errors if `data` is not exactly
    /// k symbols or contains out-of-field values.
    pub fn try_encode(&self, data: &[u16]) -> Result<Vec<u16>> {
        let mut word = Vec::new();
        self.try_encode_into(data, &mut word)?;
        Ok(word)
    }

    /// [`ReedSolomon::try_encode`] into a caller-owned buffer: `word` is
    /// cleared and refilled with the n-symbol codeword, allocating nothing
    /// once the buffer has reached capacity. On error the buffer contents
    /// are unspecified.
    pub fn try_encode_into(&self, data: &[u16], word: &mut Vec<u16>) -> Result<()> {
        if data.len() != self.k {
            return Err(MosaicError::LengthMismatch {
                what: "RS data block",
                expected: self.k,
                got: data.len(),
            });
        }
        let mask = (self.field.size() - 1) as u16;
        let two_t = self.n - self.k;
        word.clear();
        word.extend_from_slice(data);
        word.resize(self.n, 0);
        // Long division of data·x^{2t} by g(x); remainder becomes parity.
        // The parity region `word[k..]` doubles as the running remainder.
        let (data_part, rem) = word.split_at_mut(self.k);
        for &d in data_part.iter() {
            if d > mask {
                // lint: allow(R4) reason=cold error path; allocates only on invalid input
                return Err(MosaicError::invalid_code(format!(
                    "data symbol {d:#x} outside GF(2^{})",
                    self.field.m()
                )));
            }
            let factor = self.field.add(d, rem[0]);
            // Shift remainder left by one, feed in zero.
            rem.rotate_left(1);
            // bound: rem = word[k..n] has n − k = 2t ≥ 1 symbols (k < n).
            rem[two_t - 1] = 0;
            if factor != 0 {
                for (j, r) in rem.iter_mut().enumerate() {
                    // generator is lowest-first; we need the coefficient of
                    // x^{2t−1−j} which is generator[2t−1−j].
                    // bound: j < 2t, and g(x) has 2t + 1 coefficients.
                    let g = self.generator[two_t - 1 - j];
                    *r = self.field.add(*r, self.field.mul(factor, g));
                }
            }
        }
        Ok(())
    }

    /// Fused Horner syndrome kernel into `s.synd`; returns true when the
    /// word is already a codeword (all syndromes zero).
    ///
    /// One pass over the word updates all 2t accumulators, each through
    /// its precomputed multiply-by-root table (`acc ← T_i[acc] ⊕ c`, one
    /// batched lookup per root per symbol, all 2t dependency chains
    /// independent). `T_i[v] = v·α^i` by construction, so the loop
    /// interchange and the tables leave every value equal to
    /// [`ReedSolomon::syndromes_unchecked`] (pinned by the
    /// `fused_syndromes_match_reference` proptest) while the word streams
    /// through cache once.
    fn syndromes_into(&self, word: &[u16], s: &mut DecodeScratch) -> bool {
        let two_t = self.n - self.k;
        s.synd.clear();
        s.synd.resize(two_t, 0);
        let stride = self.field.size();
        for &c in word {
            for (acc, table) in s.synd.iter_mut().zip(self.synd_tables.chunks_exact(stride)) {
                *acc = table[*acc as usize] ^ c;
            }
        }
        s.synd.iter().all(|&v| v == 0)
    }

    /// Decode in place: detect, locate and correct up to t symbol errors.
    ///
    /// Errors only on malformed input (wrong word length); an
    /// uncorrectable word is the `Ok(`[`DecodeOutcome::Failure`]`)` case,
    /// not an `Err`.
    pub fn decode(&self, word: &mut [u16]) -> Result<DecodeOutcome> {
        self.decode_scratch(word, &mut DecodeScratch::new())
    }

    /// [`ReedSolomon::decode`] with caller-owned working storage: zero
    /// heap allocation per word once the scratch buffers are sized.
    pub fn decode_scratch(
        &self,
        word: &mut [u16],
        scratch: &mut DecodeScratch,
    ) -> Result<DecodeOutcome> {
        self.decode_with_erasures_scratch(word, &[], scratch)
    }

    /// Decode in place with known erasure positions (symbol indices the
    /// caller knows are unreliable — e.g. symbols that rode a channel the
    /// lane monitor has flagged). A Reed-Solomon code corrects any
    /// combination with `2·errors + erasures ≤ n − k`, so flagging dead
    /// Mosaic channels doubles the code's effective strength on them.
    ///
    /// Implementation: errors-and-erasures via the standard transformation
    /// — build the erasure locator Γ(x) from the known positions, run
    /// Berlekamp-Massey on the Γ-modified syndromes to find the *error*
    /// locator Λ(x), then correct with the combined locator Ψ = Λ·Γ.
    pub fn decode_with_erasures(
        &self,
        word: &mut [u16],
        erasures: &[usize],
    ) -> Result<DecodeOutcome> {
        self.decode_with_erasures_scratch(word, erasures, &mut DecodeScratch::new())
    }

    /// [`ReedSolomon::decode_with_erasures`] with caller-owned working
    /// storage. Every buffer lives in `scratch`; once its buffers are
    /// sized (after the first decode of a given code), no heap allocation
    /// happens per word. Values are bit-identical to the allocating path:
    /// GF(2^m) arithmetic is exact and the operation sequence is unchanged.
    pub fn decode_with_erasures_scratch(
        &self,
        word: &mut [u16],
        erasures: &[usize],
        scratch: &mut DecodeScratch,
    ) -> Result<DecodeOutcome> {
        if word.len() != self.n {
            return Err(MosaicError::LengthMismatch {
                what: "RS codeword",
                expected: self.n,
                got: word.len(),
            });
        }
        let two_t = self.n - self.k;
        if erasures.len() > two_t {
            return Ok(DecodeOutcome::Failure);
        }
        for &e in erasures {
            if e >= self.n {
                return Err(MosaicError::IndexOutOfRange {
                    what: "erasure",
                    index: e,
                    limit: self.n,
                });
            }
        }
        if self.syndromes_into(word, scratch) {
            // Fused syndromes say the word is clean: skip the decode
            // machinery entirely (the common case at operating BERs).
            return Ok(DecodeOutcome::Clean);
        }

        // Erasure locator Γ(x) = Π (1 + X_j x), X_j = α^{n−1−index}
        // (characteristic 2: minus is plus). Built in place: multiplying
        // by (1 + X·x) descending-index is exactly the poly_mul update.
        scratch.gamma.clear();
        scratch.gamma.push(1);
        for &idx in erasures {
            let x = self.field.alpha_pow(self.n - 1 - idx);
            scratch.gamma.push(0);
            for i in (1..scratch.gamma.len()).rev() {
                scratch.gamma[i] = self
                    .field
                    .add(scratch.gamma[i], self.field.mul(x, scratch.gamma[i - 1]));
            }
        }
        Ok(self.finish_decode(word, erasures.len(), scratch))
    }

    /// Shared tail of error / errors-and-erasures decoding: Γ-initialized
    /// Berlekamp-Massey, Chien search and Forney on the combined locator.
    /// Expects syndromes in `s.synd` and the erasure locator in `s.gamma`.
    fn finish_decode(
        &self,
        word: &mut [u16],
        n_erasures: usize,
        s: &mut DecodeScratch,
    ) -> DecodeOutcome {
        let two_t = self.n - self.k;

        // Berlekamp-Massey initialized with the erasure locator: Λ starts
        // as Γ, the register length starts at e, and iterations begin at
        // r = e. With no erasures this is the textbook errors-only BM.
        // The output Λ is the *combined* locator Ψ = Γ·(error locator).
        let e = n_erasures;
        s.lambda.clear();
        s.lambda.resize(two_t + 1, 0);
        s.prev.clear();
        s.prev.resize(two_t + 1, 0);
        s.cand.clear();
        s.cand.resize(two_t + 1, 0);
        let glen = s.gamma.len();
        s.lambda[..glen].copy_from_slice(&s.gamma);
        s.prev[..glen].copy_from_slice(&s.gamma);
        let mut l = e; // current LFSR length
        let mut shift = 1usize; // x-power multiplying prev
        let mut b = 1u16; // last non-zero discrepancy
        for r in e..two_t {
            // Discrepancy δ = Σ_i Λ_i · S_{r−i}.
            let mut delta = 0u16;
            for i in 0..=r.min(two_t) {
                if s.lambda[i] != 0 {
                    delta = self
                        .field
                        .add(delta, self.field.mul(s.lambda[i], s.synd[r - i]));
                }
            }
            if delta == 0 {
                shift += 1;
                continue;
            }
            let coeff = self.field.div(delta, b);
            // candidate = Λ − coeff · x^shift · prev
            s.cand.copy_from_slice(&s.lambda);
            for i in shift..=two_t {
                if s.prev[i - shift] != 0 {
                    s.cand[i] = self
                        .field
                        .add(s.cand[i], self.field.mul(coeff, s.prev[i - shift]));
                }
            }
            if 2 * l <= r + e {
                // prev := old Λ, Λ := candidate — as buffer swaps instead
                // of the reference path's clone-and-move.
                std::mem::swap(&mut s.prev, &mut s.lambda);
                b = delta;
                l = r + 1 - l + e;
                shift = 1;
            } else {
                shift += 1;
            }
            std::mem::swap(&mut s.lambda, &mut s.cand);
        }
        let deg = s.lambda.iter().rposition(|&c| c != 0).unwrap_or(0);
        // 2·errors + erasures ≤ 2t ⇒ deg Ψ = errors + erasures ≤ t + e/2.
        let max_deg = (2 * self.t() + e) / 2;
        if deg == 0 || deg > max_deg {
            return DecodeOutcome::Failure;
        }

        // Chien search over the n valid positions. A root Λ(α^{−p}) = 0
        // marks an error at polynomial power p, i.e. word index n−1−p.
        // `chien_roots[p]` is the precomputed α^{−p} (same `alpha_pow`
        // expression, evaluated once at construction — see DESIGN §11).
        s.positions.clear();
        for (p, &x_inv) in self.chien_roots.iter().enumerate() {
            if self.field.poly_eval(&s.lambda, x_inv) == 0 {
                s.positions.push(p);
            }
        }
        if s.positions.len() != deg {
            return DecodeOutcome::Failure;
        }

        // Forney: Ω(x) = S(x)·Λ(x) mod x^{2t}; with b = 0 the magnitude at
        // location X = α^p is e = X · Ω(X⁻¹) / Λ'(X⁻¹). Computed directly
        // into scratch, accumulating only the surviving (< 2t) terms —
        // the same xors poly_mul-then-truncate performs.
        s.omega.clear();
        s.omega.resize(two_t, 0);
        for (i, &si) in s.synd.iter().enumerate() {
            if si == 0 {
                continue;
            }
            for (j, &lj) in s.lambda.iter().enumerate() {
                if i + j >= two_t {
                    break;
                }
                s.omega[i + j] = self.field.add(s.omega[i + j], self.field.mul(si, lj));
            }
        }
        // Formal derivative of Λ (characteristic 2: even terms vanish).
        s.deriv.clear();
        s.deriv.resize(two_t, 0);
        for i in (1..s.lambda.len()).step_by(2) {
            s.deriv[i - 1] = s.lambda[i];
        }

        let mut corrected = 0usize;
        for &p in &s.positions {
            let x = self.field.alpha_pow(p);
            let x_inv = self.field.inv(x);
            let denom = self.field.poly_eval(&s.deriv, x_inv);
            if denom == 0 {
                return DecodeOutcome::Failure;
            }
            let num = self.field.poly_eval(&s.omega, x_inv);
            let magnitude = self.field.mul(x, self.field.div(num, denom));
            let idx = self.n - 1 - p;
            word[idx] = self.field.add(word[idx], magnitude);
            corrected += 1;
        }

        // Guard against miscorrection: the result must be a codeword.
        // The syndrome buffers are free again at this point.
        if !self.syndromes_into(word, s) {
            return DecodeOutcome::Failure;
        }
        DecodeOutcome::Corrected(corrected)
    }
}

/// The PR-2-era allocating decoder, retained verbatim as the differential
/// oracle for the scratch-based path (see the `scratch_matches_reference`
/// proptests).
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    impl ReedSolomon {
        /// The 2t syndromes of an n-symbol word (all-zero means "is a
        /// codeword"), one log/exp `field.mul` Horner pass per syndrome. The
        /// per-syndrome reference for [`ReedSolomon::syndromes_into`] and the
        /// reference decoder below; no decode path calls it.
        pub(super) fn syndromes_unchecked(&self, word: &[u16]) -> Vec<u16> {
            let two_t = self.n - self.k;
            (0..two_t)
                .map(|i| {
                    let x = self.field.alpha_pow(i);
                    // Evaluate with index 0 = highest degree (Horner forward).
                    let mut acc = 0u16;
                    for &c in word {
                        acc = self.field.add(self.field.mul(acc, x), c);
                    }
                    acc
                })
                .collect()
        }
    }

    /// Allocating errors-and-erasures decode, pre-scratch implementation.
    pub fn decode_with_erasures(
        rs: &ReedSolomon,
        word: &mut [u16],
        erasures: &[usize],
    ) -> Result<DecodeOutcome> {
        if word.len() != rs.n {
            return Err(MosaicError::LengthMismatch {
                what: "RS codeword",
                expected: rs.n,
                got: word.len(),
            });
        }
        let two_t = rs.n - rs.k;
        if erasures.len() > two_t {
            return Ok(DecodeOutcome::Failure);
        }
        for &e in erasures {
            if e >= rs.n {
                return Err(MosaicError::IndexOutOfRange {
                    what: "erasure",
                    index: e,
                    limit: rs.n,
                });
            }
        }
        let synd = rs.syndromes_unchecked(word);
        if synd.iter().all(|&s| s == 0) {
            return Ok(DecodeOutcome::Clean);
        }
        let mut gamma = vec![1u16];
        for &idx in erasures {
            let x = rs.field.alpha_pow(rs.n - 1 - idx);
            gamma = rs.field.poly_mul(&gamma, &[1, x]);
        }
        Ok(finish_decode(rs, word, &synd, &gamma, erasures.len()))
    }

    fn finish_decode(
        rs: &ReedSolomon,
        word: &mut [u16],
        synd: &[u16],
        gamma: &[u16],
        n_erasures: usize,
    ) -> DecodeOutcome {
        let two_t = rs.n - rs.k;
        let e = n_erasures;
        let mut lambda = vec![0u16; two_t + 1];
        let mut prev = vec![0u16; two_t + 1];
        lambda[..gamma.len()].copy_from_slice(gamma);
        prev[..gamma.len()].copy_from_slice(gamma);
        let mut l = e;
        let mut shift = 1usize;
        let mut b = 1u16;
        for r in e..two_t {
            let mut delta = 0u16;
            for i in 0..=r.min(two_t) {
                if lambda[i] != 0 {
                    delta = rs.field.add(delta, rs.field.mul(lambda[i], synd[r - i]));
                }
            }
            if delta == 0 {
                shift += 1;
                continue;
            }
            let coeff = rs.field.div(delta, b);
            let mut cand = lambda.clone();
            for i in shift..=two_t {
                if prev[i - shift] != 0 {
                    cand[i] = rs.field.add(cand[i], rs.field.mul(coeff, prev[i - shift]));
                }
            }
            if 2 * l <= r + e {
                prev = lambda;
                b = delta;
                l = r + 1 - l + e;
                shift = 1;
            } else {
                shift += 1;
            }
            lambda = cand;
        }
        let deg = lambda.iter().rposition(|&c| c != 0).unwrap_or(0);
        let max_deg = (2 * rs.t() + e) / 2;
        if deg == 0 || deg > max_deg {
            return DecodeOutcome::Failure;
        }
        let mut error_powers = Vec::with_capacity(deg);
        for p in 0..rs.n {
            let x_inv = rs
                .field
                .alpha_pow((rs.field.order() - p % rs.field.order()) % rs.field.order());
            if rs.field.poly_eval(&lambda, x_inv) == 0 {
                error_powers.push(p);
            }
        }
        if error_powers.len() != deg {
            return DecodeOutcome::Failure;
        }
        let s_poly: Vec<u16> = synd.to_vec();
        let mut omega = rs.field.poly_mul(&s_poly, &lambda);
        omega.truncate(two_t);
        let mut lambda_deriv = vec![0u16; lambda.len().saturating_sub(1)];
        for i in (1..lambda.len()).step_by(2) {
            lambda_deriv[i - 1] = lambda[i];
        }
        let mut corrected = 0usize;
        for &p in &error_powers {
            let x = rs.field.alpha_pow(p);
            let x_inv = rs.field.inv(x);
            let denom = rs.field.poly_eval(&lambda_deriv, x_inv);
            if denom == 0 {
                return DecodeOutcome::Failure;
            }
            let num = rs.field.poly_eval(&omega, x_inv);
            let magnitude = rs.field.mul(x, rs.field.div(num, denom));
            let idx = rs.n - 1 - p;
            word[idx] = rs.field.add(word[idx], magnitude);
            corrected += 1;
        }
        if rs.syndromes_unchecked(word).iter().any(|&s| s != 0) {
            return DecodeOutcome::Failure;
        }
        DecodeOutcome::Corrected(corrected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn inject_errors(rs: &ReedSolomon, word: &mut [u16], count: usize, rng: &mut StdRng) {
        let mask = (rs.field.size() - 1) as u16;
        let mut positions: Vec<usize> = (0..word.len()).collect();
        for i in 0..count {
            let j = rng.gen_range(i..positions.len());
            positions.swap(i, j);
            let pos = positions[i];
            let old = word[pos];
            loop {
                let v = rng.gen::<u16>() & mask;
                if v != old {
                    word[pos] = v;
                    break;
                }
            }
        }
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        assert!(ReedSolomon::try_new(8, 300, 10).is_err()); // n > 2^8 − 1
        assert!(ReedSolomon::try_new(8, 31, 0).is_err());
        assert!(ReedSolomon::try_new(8, 31, 31).is_err());
        assert!(ReedSolomon::try_new(99, 31, 23).is_err());
        let rs = ReedSolomon::new(8, 31, 23);
        assert!(rs.try_encode(&[0u16; 5]).is_err());
        assert!(rs.try_encode(&[0x100u16; 23]).is_err());
        let mut short = vec![0u16; 10];
        assert!(rs.decode(&mut short).is_err());
        let mut word = rs.encode(&[0u16; 23]);
        assert!(rs.decode_with_erasures(&mut word, &[31]).is_err());
    }

    #[test]
    fn kp4_parameters() {
        let rs = ReedSolomon::kp4();
        assert_eq!((rs.n(), rs.k(), rs.t()), (544, 514, 15));
        assert_eq!(rs.symbol_bits(), 10);
    }

    #[test]
    fn encode_appends_parity_systematically() {
        let rs = ReedSolomon::new(8, 15, 11);
        let data: Vec<u16> = (1..=11).collect();
        let word = rs.encode(&data);
        assert_eq!(&word[..11], data.as_slice());
        assert_eq!(word.len(), 15);
        // Valid codeword: all syndromes zero.
        assert!(rs.syndromes_unchecked(&word).iter().all(|&s| s == 0));
    }

    #[test]
    fn clean_word_decodes_clean() {
        let rs = ReedSolomon::new(8, 15, 11);
        let mut word = rs.encode(&(1..=11).collect::<Vec<_>>());
        assert_eq!(rs.decode(&mut word).unwrap(), DecodeOutcome::Clean);
    }

    #[test]
    fn corrects_exactly_t_errors() {
        let rs = ReedSolomon::rs_255_223();
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<u16> = (0..223).map(|_| rng.gen::<u16>() & 0xFF).collect();
        let clean = rs.encode(&data);
        let mut word = clean.clone();
        inject_errors(&rs, &mut word, rs.t(), &mut rng);
        assert_eq!(
            rs.decode(&mut word).unwrap(),
            DecodeOutcome::Corrected(rs.t())
        );
        assert_eq!(word, clean);
    }

    #[test]
    fn kp4_corrects_fifteen_errors() {
        let rs = ReedSolomon::kp4();
        let mut rng = StdRng::seed_from_u64(42);
        let data: Vec<u16> = (0..514).map(|_| rng.gen::<u16>() & 0x3FF).collect();
        let clean = rs.encode(&data);
        let mut word = clean.clone();
        inject_errors(&rs, &mut word, 15, &mut rng);
        assert_eq!(rs.decode(&mut word).unwrap(), DecodeOutcome::Corrected(15));
        assert_eq!(word, clean);
    }

    #[test]
    fn detects_beyond_capacity_most_of_the_time() {
        // With t+a few errors, BM either fails or Chien mismatches; a
        // miscorrection is possible in principle but vanishingly unlikely
        // for these seeds — assert we at least never *silently corrupt* in
        // a way the final syndrome check misses.
        let rs = ReedSolomon::new(8, 31, 23); // t = 4
        let mut rng = StdRng::seed_from_u64(3);
        let mut failures = 0;
        for _ in 0..50 {
            let data: Vec<u16> = (0..23).map(|_| rng.gen::<u16>() & 0xFF).collect();
            let clean = rs.encode(&data);
            let mut word = clean.clone();
            inject_errors(&rs, &mut word, rs.t() + 3, &mut rng);
            match rs.decode(&mut word).unwrap() {
                DecodeOutcome::Failure => failures += 1,
                DecodeOutcome::Corrected(_) => {
                    // If it "corrected", it must at least be a codeword —
                    // i.e. a miscorrection to another codeword, not garbage.
                    assert!(rs.syndromes_unchecked(&word).iter().all(|&s| s == 0));
                }
                DecodeOutcome::Clean => panic!("corrupted word reported clean"),
            }
        }
        assert!(failures >= 45, "only {failures}/50 detected");
    }

    #[test]
    fn kr4_corrects_seven() {
        let rs = ReedSolomon::kr4();
        assert_eq!(rs.t(), 7);
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<u16> = (0..514).map(|_| rng.gen::<u16>() & 0x3FF).collect();
        let clean = rs.encode(&data);
        let mut word = clean.clone();
        inject_errors(&rs, &mut word, 7, &mut rng);
        assert_eq!(rs.decode(&mut word).unwrap(), DecodeOutcome::Corrected(7));
        assert_eq!(word, clean);
    }

    #[test]
    fn erasures_alone_up_to_2t() {
        // With all corruption flagged as erasures, the code corrects up to
        // 2t = 8 of them — double the blind-error capability.
        let rs = ReedSolomon::new(8, 31, 23); // t = 4
        let mut rng = StdRng::seed_from_u64(21);
        let data: Vec<u16> = (0..23).map(|_| rng.gen::<u16>() & 0xFF).collect();
        let clean = rs.encode(&data);
        let mut word = clean.clone();
        let positions = [0usize, 5, 9, 14, 18, 22, 27, 30]; // 8 = 2t
        for &p in &positions {
            word[p] ^= 0xA5;
        }
        let out = rs.decode_with_erasures(&mut word, &positions).unwrap();
        assert_eq!(out, DecodeOutcome::Corrected(8));
        assert_eq!(word, clean);
    }

    #[test]
    fn mixed_errors_and_erasures() {
        // 2·errors + erasures ≤ 2t: with t = 4, three erasures plus two
        // blind errors (2·2 + 3 = 7 ≤ 8) must decode.
        let rs = ReedSolomon::new(8, 31, 23);
        let mut rng = StdRng::seed_from_u64(31);
        let data: Vec<u16> = (0..23).map(|_| rng.gen::<u16>() & 0xFF).collect();
        let clean = rs.encode(&data);
        let mut word = clean.clone();
        let erased = [2usize, 11, 25];
        for &p in &erased {
            word[p] ^= 0x3C;
        }
        word[7] ^= 0x81;
        word[19] ^= 0x42;
        let out = rs.decode_with_erasures(&mut word, &erased).unwrap();
        assert_eq!(out, DecodeOutcome::Corrected(5));
        assert_eq!(word, clean);
    }

    #[test]
    fn erased_but_actually_correct_symbols_are_harmless() {
        // Flagging healthy symbols as erasures must not corrupt them.
        let rs = ReedSolomon::new(8, 31, 23);
        let data: Vec<u16> = (0..23).collect();
        let clean = rs.encode(&data);
        let mut word = clean.clone();
        word[4] ^= 0xFF; // one real error
        let erased = [10usize, 20]; // two false alarms
        let out = rs.decode_with_erasures(&mut word, &erased).unwrap();
        assert!(matches!(out, DecodeOutcome::Corrected(_)));
        assert_eq!(word, clean);
    }

    #[test]
    fn too_many_erasures_rejected() {
        let rs = ReedSolomon::new(8, 31, 23);
        let data: Vec<u16> = (0..23).collect();
        let mut word = rs.encode(&data);
        let erased: Vec<usize> = (0..9).collect(); // 9 > 2t = 8
        word[0] ^= 1;
        assert_eq!(
            rs.decode_with_erasures(&mut word, &erased).unwrap(),
            DecodeOutcome::Failure
        );
    }

    #[test]
    fn kp4_dead_channel_scenario() {
        // Mosaic scenario: a dead channel flags ~1/30 of a KP4 word's
        // symbols as erasures (18 symbols), plus a few random errors on
        // other channels: 2·6 + 18 = 30 = 2t exactly.
        let rs = ReedSolomon::kp4();
        let mut rng = StdRng::seed_from_u64(77);
        let data: Vec<u16> = (0..514).map(|_| rng.gen::<u16>() & 0x3FF).collect();
        let clean = rs.encode(&data);
        let mut word = clean.clone();
        let erased: Vec<usize> = (0..18).map(|i| i * 30).collect();
        for &p in &erased {
            word[p] ^= 0x2AA;
        }
        for i in 0..6 {
            word[7 + i * 90] ^= 0x155;
        }
        let out = rs.decode_with_erasures(&mut word, &erased).unwrap();
        assert_eq!(out, DecodeOutcome::Corrected(24));
        assert_eq!(word, clean);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn erasure_roundtrip_random(
            seed in 0u64..300,
            n_erase in 0usize..=8,
            n_err_extra in 0usize..=4,
        ) {
            // Any combination with 2·errors + erasures ≤ 2t must decode.
            let rs = ReedSolomon::new(8, 31, 23); // 2t = 8
            let n_err = n_err_extra.min((8 - n_erase) / 2);
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u16> = (0..23).map(|_| rng.gen::<u16>() & 0xFF).collect();
            let clean = rs.encode(&data);
            let mut word = clean.clone();
            let mut pos: Vec<usize> = (0..31).collect();
            for i in 0..(n_erase + n_err) {
                let j = rng.gen_range(i..pos.len());
                pos.swap(i, j);
            }
            let erased = &pos[..n_erase];
            for &p in erased {
                let flip = (rng.gen::<u16>() & 0xFF).max(1);
                word[p] ^= flip;
            }
            for &p in &pos[n_erase..n_erase + n_err] {
                let flip = (rng.gen::<u16>() & 0xFF).max(1);
                word[p] ^= flip;
            }
            let out = rs.decode_with_erasures(&mut word, erased).unwrap();
            prop_assert_eq!(word, clean);
            if n_erase + n_err == 0 {
                prop_assert_eq!(out, DecodeOutcome::Clean);
            }
        }

        #[test]
        fn roundtrip_under_random_errors(
            seed in 0u64..1000,
            nerr in 0usize..=4,
        ) {
            let rs = ReedSolomon::new(8, 31, 23); // t = 4
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u16> = (0..23).map(|_| rng.gen::<u16>() & 0xFF).collect();
            let clean = rs.encode(&data);
            let mut word = clean.clone();
            inject_errors(&rs, &mut word, nerr, &mut rng);
            let out = rs.decode(&mut word).unwrap();
            prop_assert_eq!(word, clean);
            if nerr == 0 {
                prop_assert_eq!(out, DecodeOutcome::Clean);
            } else {
                prop_assert_eq!(out, DecodeOutcome::Corrected(nerr));
            }
        }

        #[test]
        fn scratch_matches_reference(
            seed in 0u64..5000,
            nerr in 0usize..=7,
            n_erase in 0usize..=9,
        ) {
            // Differential oracle: for random words — including garbage far
            // from any codeword and overloaded error patterns — the scratch
            // path must agree with the retained allocating decoder on both
            // outcome and final word contents, with and without erasures.
            let rs = ReedSolomon::new(8, 31, 23); // t = 4
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u16> = (0..23).map(|_| rng.gen::<u16>() & 0xFF).collect();
            let mut word = rs.encode(&data);
            let mut pos: Vec<usize> = (0..31).collect();
            for i in 0..(n_erase + nerr).min(31) {
                let j = rng.gen_range(i..pos.len());
                pos.swap(i, j);
            }
            let erased = &pos[..n_erase];
            for &p in &pos[..(n_erase + nerr).min(31)] {
                word[p] ^= (rng.gen::<u16>() & 0xFF).max(1);
            }
            let mut word_ref = word.clone();
            let mut word_new = word.clone();
            let mut scratch = DecodeScratch::new();
            let out_ref = reference::decode_with_erasures(&rs, &mut word_ref, erased).unwrap();
            let out_new = rs
                .decode_with_erasures_scratch(&mut word_new, erased, &mut scratch)
                .unwrap();
            prop_assert_eq!(out_new, out_ref);
            prop_assert_eq!(word_new, word_ref);
        }

        #[test]
        fn fused_syndromes_match_reference(seed in 0u64..2000) {
            let rs = ReedSolomon::new(8, 31, 23);
            let mut rng = StdRng::seed_from_u64(seed);
            let word: Vec<u16> = (0..31).map(|_| rng.gen::<u16>() & 0xFF).collect();
            let mut scratch = DecodeScratch::new();
            let all_zero = rs.syndromes_into(&word, &mut scratch);
            let reference = rs.syndromes_unchecked(&word);
            prop_assert_eq!(&scratch.synd, &reference);
            prop_assert_eq!(all_zero, reference.iter().all(|&s| s == 0));
        }

        #[test]
        fn encode_into_matches_encode(seed in 0u64..2000) {
            let rs = ReedSolomon::new(8, 31, 23);
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u16> = (0..23).map(|_| rng.gen::<u16>() & 0xFF).collect();
            let mut word = vec![0xFFFFu16; 7]; // stale garbage must not leak
            rs.try_encode_into(&data, &mut word).unwrap();
            prop_assert_eq!(word, rs.encode(&data));
        }

        #[test]
        fn shortened_codes_roundtrip(seed in 0u64..200) {
            // A shortened RS(20,12) over GF(2^8), t = 4.
            let rs = ReedSolomon::new(8, 20, 12);
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u16> = (0..12).map(|_| rng.gen::<u16>() & 0xFF).collect();
            let clean = rs.encode(&data);
            let mut word = clean.clone();
            inject_errors(&rs, &mut word, 4, &mut rng);
            prop_assert_eq!(rs.decode(&mut word).unwrap(), DecodeOutcome::Corrected(4));
            prop_assert_eq!(word, clean);
        }
    }
}

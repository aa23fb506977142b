//! The algebraic decoder both codes share, and the storage it runs on.
//!
//! Reed-Solomon and binary BCH decode the same way: 2t syndromes at the
//! consecutive roots α^b..α^{b+2t−1} (RS: b = 0; BCH: b = 1), a
//! Berlekamp-Massey pass that finds the locator Λ(x), and a Chien search
//! for its roots among the n transmitted positions. `DecoderCore` holds
//! one copy of each, with the tables they read; the codes keep only what
//! differs (RS's erasure locator and Forney magnitudes, BCH's bit flips).
//!
//! Monte-Carlo sweeps decode millions of codewords; allocating syndrome,
//! locator and evaluator polynomials per word dominated the decode cost.
//! A [`DecodeScratch`] owns every buffer the decoders need, so a caller
//! that keeps one scratch per worker decodes with zero heap allocation
//! per word (after the first decode sizes the buffers).
//!
//! Ownership rules (see DESIGN.md §8):
//! * The decoder never reads scratch contents on entry — every buffer is
//!   cleared/overwritten before use, so one scratch can serve codes of
//!   different sizes and both RS and BCH interchangeably.
//! * Buffers only grow; steady-state decode does not touch the allocator.
//! * A scratch is plain data: `Clone` for fan-out, `Default`/[`new`] for
//!   construction, no lifetime ties to any particular code.
//!
//! [`new`]: DecodeScratch::new

use crate::gf::GaloisField;

/// Outcome of a decode attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// The word was already a codeword.
    Clean,
    /// Errors were found and corrected (count of corrected symbols, or
    /// bits for BCH).
    Corrected(usize),
    /// More errors than the code can correct: decoding failure *detected*.
    /// The word is left unmodified.
    Failure,
}

/// Reusable working storage for [`crate::rs::ReedSolomon`] and
/// [`crate::bch::Bch`] decoding.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Syndromes S_b..S_{b+2t−1}.
    pub(crate) synd: Vec<u16>,
    /// Erasure locator Γ(x); `[1]` when there are no erasures.
    pub(crate) gamma: Vec<u16>,
    /// Error/combined locator Λ(x) (Berlekamp-Massey state).
    pub(crate) lambda: Vec<u16>,
    /// Previous locator B(x) (Berlekamp-Massey state).
    pub(crate) prev: Vec<u16>,
    /// Update candidate (Berlekamp-Massey state).
    pub(crate) cand: Vec<u16>,
    /// Error evaluator Ω(x) (Forney).
    pub(crate) omega: Vec<u16>,
    /// Formal derivative Λ′(x) (Forney).
    pub(crate) deriv: Vec<u16>,
    /// Chien-search hits: error polynomial powers p (word index n−1−p).
    pub(crate) positions: Vec<usize>,
}

impl DecodeScratch {
    /// Empty scratch; buffers are sized lazily by the first decode.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Syndromes, Berlekamp-Massey and Chien search for one code of length
/// n with 2t consecutive roots, and the field they compute in.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DecoderCore {
    pub(crate) field: GaloisField,
    /// Host-side multiply-by-root tables for the syndrome kernel, built
    /// once per code: row `i` (stride = field size) holds
    /// `T_i[v] = v · α^{b+i}`, so the Horner step `acc·α^{b+i} + c`
    /// becomes one lookup and one XOR (see DESIGN §11). ~2·two_t·2^m
    /// bytes — 60 KB for KP4, built once per sweep config.
    synd_tables: Vec<u16>,
    /// Chien-search root table: `chien_roots[p] = α^{−p}` for each of the
    /// n valid positions, hoisting the modular exponent arithmetic out of
    /// the per-position search loop.
    chien_roots: Vec<u16>,
}

impl DecoderCore {
    /// Tables for a length-`n` code whose `two_t` syndromes are taken at
    /// α^b, α^{b+1}, … with `b = first_root`. Each entry is the exact
    /// `field.mul`/`alpha_pow` value the inner loops would otherwise
    /// recompute per symbol/position.
    pub(crate) fn new(field: GaloisField, n: usize, first_root: usize, two_t: usize) -> Self {
        let size = field.size();
        let mut synd_tables = vec![0u16; two_t * size];
        for (i, table) in synd_tables.chunks_exact_mut(size).enumerate() {
            let root = field.alpha_pow(first_root + i);
            for (v, slot) in table.iter_mut().enumerate() {
                *slot = field.mul(v as u16, root);
            }
        }
        let order = field.order();
        let chien_roots = (0..n)
            .map(|p| field.alpha_pow((order - p % order) % order))
            .collect();
        DecoderCore {
            field,
            synd_tables,
            chien_roots,
        }
    }

    /// Fused Horner syndrome kernel into `s.synd`; returns true when the
    /// word is already a codeword (all syndromes zero).
    ///
    /// One pass over the word (RS symbols or BCH bits) updates all 2t
    /// accumulators, each through its precomputed multiply-by-root table
    /// (`acc ← T_i[acc] ⊕ c`, one batched lookup per root per symbol, all
    /// 2t dependency chains independent). `T_i[v] = v·α^{b+i}` by
    /// construction, so the loop interchange and the tables leave every
    /// value equal to the per-syndrome references (pinned by each code's
    /// `fused_syndromes_match_reference` proptest) while the word streams
    /// through cache once.
    // No harness calls it directly: the decode_scratch harness covers it.
    // lint: no-alloc
    pub(crate) fn syndromes_into<S: Copy + Into<u16>>(
        &self,
        word: &[S],
        s: &mut DecodeScratch,
    ) -> bool {
        let stride = self.field.size();
        s.synd.clear();
        s.synd.resize(self.synd_tables.len() / stride, 0);
        for &c in word {
            let c: u16 = c.into();
            for (acc, table) in s.synd.iter_mut().zip(self.synd_tables.chunks_exact(stride)) {
                *acc = table[*acc as usize] ^ c;
            }
        }
        s.synd.iter().all(|&v| v == 0)
    }

    /// Locate the errors of a word whose syndromes are in `s.synd` and
    /// whose erasure locator Γ (of degree e, `[1]` for none) is in
    /// `s.gamma`, for a code correcting `2·errors + erasures ≤ 2t`.
    /// Returns true when the locator Λ left in `s.lambda` has degree
    /// 1..=(2t + e)/2 and exactly that many roots among the n positions;
    /// their error powers p (word index n−1−p) are then in `s.positions`.
    // No harness calls it directly: the decode_scratch harness covers it.
    // lint: no-alloc
    pub(crate) fn locate(&self, t: usize, s: &mut DecodeScratch) -> bool {
        let f = &self.field;
        let two_t = s.synd.len();

        // Berlekamp-Massey initialized with the erasure locator: Λ starts
        // as Γ, the register length starts at e, and iterations begin at
        // r = e. With no erasures this is the textbook errors-only BM.
        // The output Λ is the *combined* locator Ψ = Γ·(error locator).
        let e = s.gamma.len() - 1;
        s.lambda.clear();
        s.lambda.resize(two_t + 1, 0);
        s.prev.clear();
        s.prev.resize(two_t + 1, 0);
        s.cand.clear();
        s.cand.resize(two_t + 1, 0);
        s.lambda[..=e].copy_from_slice(&s.gamma);
        s.prev[..=e].copy_from_slice(&s.gamma);
        let mut l = e; // current LFSR length
        let mut shift = 1usize; // x-power multiplying prev
        let mut b = 1u16; // last non-zero discrepancy
        for r in e..two_t {
            // Discrepancy δ = Σ_i Λ_i · S_{r−i}.
            let mut delta = 0u16;
            for i in 0..=r {
                if s.lambda[i] != 0 {
                    delta = f.add(delta, f.mul(s.lambda[i], s.synd[r - i]));
                }
            }
            if delta == 0 {
                shift += 1;
                continue;
            }
            let coeff = f.div(delta, b);
            // candidate = Λ − coeff · x^shift · prev
            s.cand.copy_from_slice(&s.lambda);
            for i in shift..=two_t {
                if s.prev[i - shift] != 0 {
                    s.cand[i] = f.add(s.cand[i], f.mul(coeff, s.prev[i - shift]));
                }
            }
            if 2 * l <= r + e {
                // prev := old Λ, Λ := candidate — as buffer swaps instead
                // of the reference paths' clone-and-move.
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
        if deg == 0 || deg > (2 * t + e) / 2 {
            return false;
        }

        // Chien search over the n valid positions. A root Λ(α^{−p}) = 0
        // marks an error at polynomial power p. `chien_roots[p]` is the
        // precomputed α^{−p} (see DESIGN §11).
        s.positions.clear();
        for (p, &x_inv) in self.chien_roots.iter().enumerate() {
            if f.poly_eval(&s.lambda, x_inv) == 0 {
                s.positions.push(p);
            }
        }
        s.positions.len() == deg
    }
}

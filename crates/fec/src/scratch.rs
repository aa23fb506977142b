//! Caller-owned scratch storage for allocation-free decoding.
//!
//! Monte-Carlo sweeps decode millions of codewords; allocating syndrome,
//! locator and evaluator polynomials per word dominated the decode cost.
//! A [`DecodeScratch`] owns every buffer the RS and BCH decoders need, so
//! a caller that keeps one scratch per worker decodes with zero heap
//! allocation per word (after the first decode sizes the buffers).
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

/// Reusable working storage for [`crate::rs::ReedSolomon`] and
/// [`crate::bch::Bch`] decoding.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Syndromes S_0..S_{2t−1} (RS) or S_1..S_{2t} (BCH).
    pub(crate) synd: Vec<u16>,
    /// Erasure locator Γ(x).
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
    /// Chien-search hits: error polynomial powers (RS) or bit indices (BCH).
    pub(crate) positions: Vec<usize>,
}

impl DecodeScratch {
    /// Empty scratch; buffers are sized lazily by the first decode.
    pub fn new() -> Self {
        Self::default()
    }
}

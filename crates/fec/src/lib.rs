//! Forward error correction for the Mosaic reproduction.
//!
//! Mosaic inherits the Ethernet convention that the host-side FEC (KP4,
//! i.e. RS(544,514) over GF(2¹⁰)) protects the whole link, and its
//! wide-and-slow channels must deliver a pre-FEC BER below the KP4
//! threshold (2.4e-4). This crate implements the codes *for real* — encode
//! and decode run on actual symbols, so the link simulator corrects actual
//! injected errors rather than applying a formula:
//!
//! * [`gf`] — GF(2^m) arithmetic with log/antilog tables (m ≤ 12);
//! * [`decode`] — the one algebraic decoder both codes run: fused
//!   table-driven syndromes, Berlekamp-Massey and Chien search, the
//!   [`DecodeOutcome`] they report and the caller-owned [`DecodeScratch`]
//!   that makes the decode paths allocation-free in Monte-Carlo loops;
//! * [`rs`] — systematic Reed-Solomon on that decoder, with erasures and
//!   Forney's algorithm; constructors for KP4 RS(544,514) and KR4
//!   RS(528,514);
//! * [`bch`] — binary BCH codes on that decoder (Chien bit-flipping);
//! * [`interleave`] — block interleaving to spread burst errors;
//! * [`channel_map`] — codeword↔channel position arithmetic: turns lane
//!   monitors' "channel X is sick" into erasure lists for the decoder;
//! * [`analysis`] — analytic post-FEC error rates from pre-FEC BER
//!   (binomial tails, evaluated in the log domain), used to cross-check
//!   Monte-Carlo results and to run sweeps far below simulable BERs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bch;
pub mod channel_map;
pub mod decode;
pub mod gf;
pub mod interleave;
pub mod rs;

pub use bch::Bch;
pub use channel_map::ChannelMap;
pub use decode::{DecodeOutcome, DecodeScratch};
pub use gf::GaloisField;
pub use interleave::BlockInterleaver;
pub use rs::ReedSolomon;

/// The workspace error type, re-exported for FEC callers.
pub use mosaic_units::{MosaicError, Result};

/// The pre-FEC BER threshold conventionally quoted for KP4 RS(544,514):
/// random errors at this rate decode to better than 1e-15 post-FEC.
pub const KP4_BER_THRESHOLD: f64 = 2.4e-4;

/// The pre-FEC BER threshold conventionally quoted for KR4 RS(528,514).
pub const KR4_BER_THRESHOLD: f64 = 2.1e-5;

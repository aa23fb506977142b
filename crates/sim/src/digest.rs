//! FNV-1a 64: the workspace's one dependency-free digest.
//!
//! Every stable fingerprint in the reproduction — output and config
//! hashes in the run manifests, checkpoint keys, rollup and fault-campaign
//! fingerprints, RNG label hashing, the traffic harness's corruption
//! masks — is FNV-1a over little-endian bytes. Words go in as their eight
//! little-endian bytes ([`Fnv1a::u64`]), floats as their bit patterns
//! ([`Fnv1a::f64`]), so a digest is a pure function of the values and
//! identical on every platform. Not a cryptographic hash: it detects
//! drift and keys caches, nothing more.
//!
//! Two multipliers are in use, and both are load-bearing:
//!
//! * [`Fnv1a::new`] is textbook FNV-1a 64 (prime `0x100_0000_01b3`): the
//!   manifest output and config hashes.
//! * [`Fnv1a::sim`] multiplies by `0x1000_0000_01b3` — the FNV prime
//!   with one extra zero digit, as the simulation crates first wrote it.
//!   Every `DetRng` label stream is derived through it, so
//!   every Monte-Carlo draw (and with them every figure) depends on it;
//!   so do the fault-campaign digests, the rollup fingerprints, the
//!   checkpoint keys and the harness's corruption masks. It still mixes
//!   well (an odd multiplier), and changing it would move every result.
//!
//! (`mosaic_lint` keeps its own textbook copy on purpose: the checker
//! depends on no workspace crate, so the crates it checks can never break
//! it.)

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The multiplier of the simulation-side variant ([`Fnv1a::sim`]).
const SIM_PRIME: u64 = 0x1000_0000_01b3;

/// An incremental FNV-1a 64 hasher.
///
/// ```
/// use mosaic_sim::digest::{fnv1a, Fnv1a};
/// let mut h = Fnv1a::new();
/// h.bytes(b"ab");
/// assert_eq!(h.finish(), fnv1a(b"ab"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    hash: u64,
    prime: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// Textbook FNV-1a 64 at the offset basis.
    pub const fn new() -> Self {
        Fnv1a {
            hash: FNV_OFFSET,
            prime: FNV_PRIME,
        }
    }

    /// The simulation-side variant, multiplying by `0x1000_0000_01b3` (see
    /// the module docs for why it stays).
    pub const fn sim() -> Self {
        Fnv1a {
            hash: FNV_OFFSET,
            prime: SIM_PRIME,
        }
    }

    /// Fold in raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(self.prime);
        }
        self
    }

    /// Fold in a word as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold in a float as its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// Textbook FNV-1a 64 of a byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_variant_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sim_variant_is_pinned() {
        // Every DetRng label stream hangs off these values.
        assert_eq!(Fnv1a::sim().finish(), FNV_OFFSET);
        let mut h = FNV_OFFSET;
        for &b in b"traffic-run" {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        assert_eq!(Fnv1a::sim().bytes(b"traffic-run").finish(), h);
        assert_ne!(h, fnv1a(b"traffic-run"));
    }

    #[test]
    fn words_are_their_little_endian_bytes() {
        let mut h = Fnv1a::sim();
        h.u64(0x0102_0304_0506_0708).f64(1.5);
        let mut bytes = 0x0102_0304_0506_0708u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(h.finish(), Fnv1a::sim().bytes(&bytes).finish());
    }
}

//! Mapping FEC codewords onto parallel channels, and turning channel
//! health into erasure information.
//!
//! Mosaic stripes each RS codeword's symbols round-robin across its
//! channels. That mapping is what makes channel faults benign:
//!
//! * a *burst* on one channel touches ~n/C symbols of any word — spread,
//!   not concentrated ([`crate::interleave`] handles the time axis);
//! * a *dead or degraded* channel contributes a *known* set of symbol
//!   positions, which the decoder can treat as erasures — worth twice as
//!   much correction as blind errors (`2·errors + erasures ≤ n − k`).
//!
//! [`ChannelMap`] owns that position arithmetic and the erasure-budget
//! queries the link layer asks before deciding whether it must fail over
//! or can ride a sick channel.

use crate::rs::{DecodeOutcome, ReedSolomon};
use mosaic_units::{MosaicError, Result};

/// Round-robin assignment of an n-symbol codeword across C channels:
/// symbol `i` rides channel `i mod C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMap {
    n: usize,
    channels: usize,
}

impl ChannelMap {
    /// Map an `n`-symbol codeword over `channels` channels.
    ///
    /// # Panics
    /// Panics on invalid parameters; use [`ChannelMap::try_new`] to
    /// handle the error instead.
    pub fn new(n: usize, channels: usize) -> Self {
        match Self::try_new(n, channels) {
            Ok(map) => map,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ChannelMap::new`]: errors unless `1 ≤ channels ≤ n`.
    pub fn try_new(n: usize, channels: usize) -> Result<Self> {
        if channels < 1 || channels > n {
            return Err(MosaicError::invalid_config(
                "channels",
                format!("need 1 ≤ channels ≤ n={n}, got {channels}"),
            ));
        }
        Ok(ChannelMap { n, channels })
    }

    /// The symbol positions carried by `channel`.
    pub fn positions_of(&self, channel: usize) -> Vec<usize> {
        assert!(channel < self.channels, "channel {channel} out of range");
        (channel..self.n).step_by(self.channels).collect()
    }

    /// Symbols per channel (the maximum across channels).
    pub fn symbols_per_channel(&self) -> usize {
        self.n.div_ceil(self.channels)
    }

    /// The erasure list implied by a set of suspect channels; errors on a
    /// channel out of range.
    pub fn try_erasures_for(&self, suspect_channels: &[usize]) -> Result<Vec<usize>> {
        let mut out = Vec::new();
        for &c in suspect_channels {
            if c >= self.channels {
                return Err(MosaicError::IndexOutOfRange {
                    what: "channel",
                    index: c,
                    limit: self.channels,
                });
            }
            out.extend((c..self.n).step_by(self.channels));
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// How many whole channels the code can lose to erasure decoding while
    /// still correcting `reserve_errors` blind symbol errors elsewhere:
    /// the erasure budget is `n − k − 2·reserve_errors` symbols.
    pub fn erasable_channels(&self, rs: &ReedSolomon, reserve_errors: usize) -> usize {
        assert_eq!(rs.n(), self.n, "map/code length mismatch");
        let parity = rs.n() - rs.k();
        let budget = parity.saturating_sub(2 * reserve_errors);
        budget / self.symbols_per_channel()
    }

    /// Decode a word whose `suspect_channels` are flagged by the lane
    /// monitors: their symbols become erasures. Errors only on malformed
    /// input (out-of-range channels, wrong word length).
    pub fn decode_with_suspects(
        &self,
        rs: &ReedSolomon,
        word: &mut [u16],
        suspect_channels: &[usize],
    ) -> Result<DecodeOutcome> {
        let erasures = self.try_erasures_for(suspect_channels)?;
        rs.decode_with_erasures(word, &erasures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn positions_partition_the_word() {
        let map = ChannelMap::new(544, 30);
        let mut all: Vec<usize> = (0..30).flat_map(|c| map.positions_of(c)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..544).collect::<Vec<_>>());
    }

    #[test]
    fn kp4_over_30_channels_can_erase_one_channel() {
        // 544 symbols over 30 channels → ≤19 symbols per channel; the
        // 30-symbol parity budget covers one dead channel with room for
        // 5 blind errors elsewhere (2·5 + 19 ≤ 30... 29 ≤ 30).
        let rs = ReedSolomon::kp4();
        let map = ChannelMap::new(rs.n(), 30);
        assert_eq!(map.symbols_per_channel(), 19);
        assert_eq!(map.erasable_channels(&rs, 0), 1);
        assert_eq!(map.erasable_channels(&rs, 5), 1);
        assert_eq!(map.erasable_channels(&rs, 8), 0);
    }

    #[test]
    fn suspect_channel_decodes_via_erasures() {
        let rs = ReedSolomon::kp4();
        let map = ChannelMap::new(rs.n(), 30);
        let data: Vec<u16> = (0..rs.k() as u16).map(|v| v & 0x3FF).collect();
        let clean = rs.encode(&data);
        let mut word = clean.clone();
        for &p in &map.positions_of(7) {
            word[p] ^= 0x155; // channel 7 goes bad
        }
        word[0] ^= 0x2AA; // plus one blind error on channel 0
        let out = map.decode_with_suspects(&rs, &mut word, &[7]).unwrap();
        assert!(matches!(out, DecodeOutcome::Corrected(_)), "got {out:?}");
        assert_eq!(word, clean);
    }

    #[test]
    fn blind_decode_of_a_dead_channel_fails() {
        // The same fault without the suspect flag exceeds t = 15.
        let rs = ReedSolomon::kp4();
        let map = ChannelMap::new(rs.n(), 30);
        let data: Vec<u16> = (0..rs.k() as u16).map(|v| v & 0x3FF).collect();
        let mut word = rs.encode(&data);
        for &p in &map.positions_of(7) {
            word[p] ^= 0x155;
        }
        assert_eq!(rs.decode(&mut word).unwrap(), DecodeOutcome::Failure);
        assert!(map.decode_with_suspects(&rs, &mut word, &[99]).is_err());
    }

    proptest! {
        #[test]
        fn erasures_count_matches_channel_size(channels in 1usize..64, suspects in 0usize..4) {
            let map = ChannelMap::new(544, channels.min(544));
            let suspect_list: Vec<usize> = (0..suspects.min(map.channels)).collect();
            let erasures = map.try_erasures_for(&suspect_list).unwrap();
            let expect: usize = suspect_list.iter().map(|&c| map.positions_of(c).len()).sum();
            prop_assert_eq!(erasures.len(), expect);
        }

        #[test]
        fn positions_disjoint(channels in 2usize..32, c1 in 0usize..32, c2 in 0usize..32) {
            let map = ChannelMap::new(300, channels);
            let (a, b) = (c1 % channels, c2 % channels);
            prop_assume!(a != b);
            let pa = map.positions_of(a);
            let pb = map.positions_of(b);
            for p in &pa {
                prop_assert!(!pb.contains(p));
            }
        }
    }
}

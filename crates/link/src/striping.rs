//! Word striping across lanes and alignment-marker deskew.
//!
//! [`stripe_mapped`] sends payload word `j` to lane `j mod L` — plain
//! round-robin — and every `am_period` words per lane it inserts an
//! alignment marker (same sequence number on every lane simultaneously).
//! The receiver sees each lane with an unknown delay (skew):
//! [`deskew_mapped`] finds the markers, lines up equal sequence numbers,
//! and reads the words back in round-robin order. Marker sequence
//! numbers also expose lost or duplicated lane content as a hard error
//! instead of silent reordering.
//!
//! The marker is modeled as an out-of-band word variant ([`LaneWord`]);
//! hardware would carry it as a 66b control block. The logic — which is
//! what we reproduce — is identical.

/// Striping parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeConfig {
    /// Number of active lanes.
    pub lanes: usize,
    /// Payload words per lane between alignment markers.
    pub am_period: usize,
}

impl StripeConfig {
    /// Construct; errors on zero lanes or period.
    pub fn try_new(lanes: usize, am_period: usize) -> mosaic_units::Result<Self> {
        if lanes == 0 {
            return Err(mosaic_units::MosaicError::invalid_config(
                "lanes",
                "need at least one lane",
            ));
        }
        if am_period == 0 {
            return Err(mosaic_units::MosaicError::invalid_config(
                "am_period",
                "marker period must be non-zero",
            ));
        }
        Ok(StripeConfig { lanes, am_period })
    }

    /// Payload words consumed per marker block across all lanes.
    pub fn block_payload(&self) -> usize {
        self.lanes * self.am_period
    }
}

/// One word on one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneWord {
    /// Alignment marker with a block sequence number.
    Marker(u32),
    /// A payload word.
    Data(u64),
}

/// The striping kernel: lay `payload` round-robin over the `cfg.lanes`
/// logical lanes (word `j` of a block to lane `j mod L` at depth
/// `j / L`), padded with `pad` to whole marker blocks (at least one),
/// and append logical lane `l`'s stream — per block, a marker and then
/// `am_period` data words — straight onto `channels[assignment[l]]`.
/// Markers are numbered from `*next_seq`, which ends past the last
/// block. Lane-major with one strided extend per lane per block, so no
/// word costs a division. Allocation-free once `channels` is warm (lint
/// R4).
// lint: no-alloc proof=crates/link/tests/alloc_free.rs
pub fn stripe_mapped(
    cfg: StripeConfig,
    next_seq: &mut u32,
    payload: &[u64],
    pad: u64,
    assignment: &[usize],
    channels: &mut [Vec<LaneWord>],
) {
    let block = cfg.block_payload();
    let blocks = payload.len().div_ceil(block).max(1);
    for (l, &ch) in assignment.iter().enumerate() {
        let lane = &mut channels[ch];
        lane.reserve(blocks * (cfg.am_period + 1));
        let mut seq = *next_seq;
        for b in 0..blocks {
            lane.push(LaneWord::Marker(seq));
            seq = seq.wrapping_add(1);
            let end = lane.len() + cfg.am_period;
            let mine = payload.get(b * block + l..).unwrap_or_default();
            // Each chunk's first word is this lane's next word. `chunks`
            // rather than `step_by`: its exact-length extend does not hang
            // on LLVM inlining `StepBy::try_fold`, which flips with the
            // crate's codegen-unit split (+35% on `stripe_64lanes` when not).
            lane.extend(
                mine.chunks(cfg.lanes)
                    .take(cfg.am_period)
                    .map(|c| LaneWord::Data(c[0])),
            );
            lane.resize(end, LaneWord::Data(pad));
        }
    }
    *next_seq = next_seq.wrapping_add(blocks as u32);
}

/// Deskew/reassembly errors. Every variant names the offending lane and
/// the position/skew observed when the failure was detected, so callers
/// (and the degrade controller's logs) can attribute the fault to a
/// physical channel instead of guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeskewError {
    /// A lane stream contained no alignment marker at all.
    NoMarker {
        /// Index of the offending lane.
        lane: usize,
    },
    /// No common marker sequence number could be found across all lanes
    /// (skew exceeds the buffered streams).
    NoCommonMarker {
        /// Index of the lane whose buffered stream ran out first.
        lane: usize,
        /// Word offset the alignment search had reached on that lane when
        /// it ran off the end — the observed (unresolvable) skew.
        skew: usize,
    },
    /// A marker appeared where data was expected or vice versa.
    Misaligned {
        /// Index of the offending lane.
        lane: usize,
        /// Word offset within the lane stream where the mismatch sat.
        position: usize,
    },
}

impl std::fmt::Display for DeskewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeskewError::NoMarker { lane } => write!(f, "lane {lane} carried no marker"),
            DeskewError::NoCommonMarker { lane, skew } => {
                write!(f, "no common marker: lane {lane} exhausted at word {skew}")
            }
            DeskewError::Misaligned { lane, position } => {
                write!(f, "lane {lane} misaligned at word {position}")
            }
        }
    }
}

impl std::error::Error for DeskewError {}

/// Reusable working state for [`deskew_mapped`]: per-lane
/// first-marker sequence numbers and read cursors. One scratch serves any
/// lane count — buffers are cleared and regrown (capacity retained) per
/// call, so the steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct DeskewScratch {
    first_seq: Vec<u32>,
    pos: Vec<usize>,
}

/// The deskew kernel: reassemble the payload words from the streams of
/// logical lanes read in place — lane `l` is `channels[assignment[l]]` —
/// with arbitrary leading skew. `out` is cleared first; on success it
/// holds the payload words of every block complete on all lanes, each
/// block scattered lane-major into `out[depth * L + l]`. Errors name the
/// logical lane; a stray marker in a block's data is reported at the
/// first offending word in block order. On error `out` holds the blocks
/// before the failing one. Allocation-free once the buffers are warm
/// (lint R4).
// lint: no-alloc proof=crates/link/tests/alloc_free.rs
pub fn deskew_mapped(
    cfg: StripeConfig,
    channels: &[Vec<LaneWord>],
    assignment: &[usize],
    scratch: &mut DeskewScratch,
    out: &mut Vec<u64>,
) -> Result<(), DeskewError> {
    out.clear();
    let lanes = cfg.lanes;
    let am = cfg.am_period;
    // Find the first marker on each lane.
    let first_seq = &mut scratch.first_seq;
    let pos = &mut scratch.pos;
    first_seq.clear();
    pos.clear();
    for (i, &ch) in assignment.iter().enumerate() {
        let lane = &channels[ch];
        let p = lane
            .iter()
            .position(|w| matches!(w, LaneWord::Marker(_)))
            .ok_or(DeskewError::NoMarker { lane: i })?;
        let LaneWord::Marker(seq) = lane[p] else {
            // `position` just matched a marker here.
            return Err(DeskewError::Misaligned {
                lane: i,
                position: p,
            });
        };
        first_seq.push(seq);
        pos.push(p);
    }
    // Align every lane to the largest first-marker sequence number.
    let Some(&target) = first_seq.iter().max() else {
        // Zero configured lanes: nothing to reassemble.
        return Ok(());
    };
    for (i, &ch) in assignment.iter().enumerate() {
        let lane = &channels[ch];
        while {
            let LaneWord::Marker(seq) = lane[pos[i]] else {
                return Err(DeskewError::Misaligned {
                    lane: i,
                    position: pos[i],
                });
            };
            seq != target
        } {
            // Skip this whole block: marker + am_period words.
            pos[i] += 1 + am;
            if pos[i] >= lane.len() {
                return Err(DeskewError::NoCommonMarker {
                    lane: i,
                    skew: pos[i],
                });
            }
        }
    }

    // Read blocks while all lanes have a complete block buffered.
    let mut expected = target;
    loop {
        let complete = assignment
            .iter()
            .zip(pos.iter())
            .all(|(&ch, &p)| p + am < channels[ch].len());
        if !complete {
            break;
        }
        // Verify the marker row.
        for (i, (&ch, &p)) in assignment.iter().zip(pos.iter()).enumerate() {
            match channels[ch][p] {
                LaneWord::Marker(seq) if seq == expected => {}
                _ => {
                    return Err(DeskewError::Misaligned {
                        lane: i,
                        position: p,
                    })
                }
            }
        }
        // Scatter each lane's data into its round-robin slots. A stray
        // marker stops its lane; the one earliest in block order (slot
        // `depth * L + l`) is reported.
        let base = out.len();
        out.resize(base + cfg.block_payload(), 0);
        let block = &mut out[base..];
        let mut stray = usize::MAX;
        for (l, (&ch, &p)) in assignment.iter().zip(pos.iter()).enumerate() {
            let mut j = l;
            for word in &channels[ch][p + 1..p + 1 + am] {
                match *word {
                    LaneWord::Data(w) => block[j] = w,
                    LaneWord::Marker(_) => {
                        stray = stray.min(j);
                        break;
                    }
                }
                j += lanes;
            }
        }
        if stray != usize::MAX {
            out.truncate(base);
            let lane = stray % lanes;
            return Err(DeskewError::Misaligned {
                lane,
                position: pos[lane] + 1 + stray / lanes,
            });
        }
        for p in pos.iter_mut() {
            *p += 1 + am;
        }
        expected = expected.wrapping_add(1);
    }
    Ok(())
}

/// Test/simulation helper: delay a lane stream by `skew` words of line
/// noise (junk data words), as a real lane's differing trace/fiber length
/// and CDR lock time would.
pub fn apply_skew(stream: &[LaneWord], skew: usize, junk: u64) -> Vec<LaneWord> {
    let mut out = Vec::with_capacity(stream.len() + skew);
    out.extend(std::iter::repeat_n(LaneWord::Data(junk), skew));
    out.extend_from_slice(stream);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(lanes: usize, am_period: usize) -> StripeConfig {
        StripeConfig::try_new(lanes, am_period).unwrap()
    }

    /// Logical lane `l` on channel `(l + rotate) mod (L + 2)`: a map over
    /// two spare channels, as a gearbox's after failovers.
    fn rotated(lanes: usize, rotate: usize) -> Vec<usize> {
        (0..lanes).map(|l| (l + rotate) % (lanes + 2)).collect()
    }

    /// One `stripe_mapped` call onto `L + 2` empty channels.
    fn stripe(
        cfg: StripeConfig,
        seq: &mut u32,
        payload: &[u64],
        pad: u64,
        assignment: &[usize],
    ) -> Vec<Vec<LaneWord>> {
        let mut channels = vec![Vec::new(); cfg.lanes + 2];
        stripe_mapped(cfg, seq, payload, pad, assignment, &mut channels);
        channels
    }

    fn deskew(
        cfg: StripeConfig,
        channels: &[Vec<LaneWord>],
        assignment: &[usize],
    ) -> Result<Vec<u64>, DeskewError> {
        let mut out = Vec::new();
        let mut scratch = DeskewScratch::default();
        deskew_mapped(cfg, channels, assignment, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Stripe `0..words` onto the map rotated by `rotate`, delay logical
    /// lane `l` by `skews[l mod skews.len()]` junk words, and deskew.
    fn roundtrip(
        lanes: usize,
        am: usize,
        words: usize,
        rotate: usize,
        skews: &[usize],
    ) -> (Vec<u64>, Vec<u64>) {
        let cfg = cfg(lanes, am);
        let assignment = rotated(lanes, rotate);
        let payload: Vec<u64> = (0..words as u64).collect();
        let mut channels = stripe(cfg, &mut 0, &payload, u64::MAX, &assignment);
        for (l, &ch) in assignment.iter().enumerate() {
            channels[ch] = apply_skew(&channels[ch], skews[l % skews.len()], 0xDEAD);
        }
        let out = deskew(cfg, &channels, &assignment).expect("deskew");
        (payload, out)
    }

    #[test]
    fn no_skew_identity() {
        let (sent, got) = roundtrip(4, 8, 4 * 8 * 3, 1, &[0]);
        assert_eq!(got, sent);
    }

    #[test]
    fn heavy_unequal_skew_recovered() {
        let (sent, got) = roundtrip(8, 16, 8 * 16 * 4, 3, &[0, 3, 17, 29, 5, 11, 2, 40]);
        assert_eq!(got[..sent.len()], sent[..]);
    }

    #[test]
    fn padding_fills_final_block() {
        let cfg = cfg(4, 4);
        let assignment = rotated(4, 1);
        let payload: Vec<u64> = (0..10).collect(); // not a multiple of 16
        let channels = stripe(cfg, &mut 0, &payload, 0xFF, &assignment);
        let out = deskew(cfg, &channels, &assignment).unwrap();
        assert_eq!(&out[..10], payload.as_slice());
        assert!(out[10..].iter().all(|&w| w == 0xFF));
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn sequence_continues_across_calls() {
        let cfg = cfg(2, 2);
        let assignment = rotated(2, 1);
        let mut seq = 0;
        let mut channels = stripe(cfg, &mut seq, &[1, 2, 3, 4], 0, &assignment);
        assert_eq!(seq, 1);
        // A second call appends to the same channels and numbers its
        // markers from the cursor; the deskewer must read both blocks as
        // one continuous sequence.
        stripe_mapped(cfg, &mut seq, &[5, 6, 7, 8], 0, &assignment, &mut channels);
        assert_eq!(seq, 2);
        assert_eq!(channels[assignment[1]][3], LaneWord::Marker(1));
        assert_eq!(
            deskew(cfg, &channels, &assignment),
            Ok(vec![1, 2, 3, 4, 5, 6, 7, 8])
        );
    }

    #[test]
    fn missing_marker_is_an_error() {
        let cfg = cfg(2, 2);
        let assignment = rotated(2, 1);
        let mut channels = stripe(cfg, &mut 0, &[1, 2, 3, 4], 0, &assignment);
        channels[assignment[1]].retain(|w| !matches!(w, LaneWord::Marker(_)));
        assert_eq!(
            deskew(cfg, &channels, &assignment),
            Err(DeskewError::NoMarker { lane: 1 })
        );
    }

    #[test]
    fn excess_skew_reports_lane_and_skew() {
        let cfg = cfg(2, 2);
        let assignment = rotated(2, 1);
        let (ch0, ch1) = (assignment[0], assignment[1]);
        let mut seq = 0;
        let streams = stripe(cfg, &mut seq, &[1, 2, 3, 4], 0, &assignment);
        // Skew ≥ the stream length still recovers: apply_skew prepends
        // junk but the whole stream stays buffered, so alignment walks
        // past the junk and reads every block.
        let mut skewed = streams.clone();
        skewed[ch1] = apply_skew(&streams[ch1], streams[ch1].len() + 4, 0xBAD);
        assert_eq!(deskew(cfg, &skewed, &assignment), Ok(vec![1, 2, 3, 4]));
        // Unresolvable skew: lane 0 lacks the common marker entirely —
        // short stream on lane 0, later-epoch stream on lane 1.
        let next = stripe(cfg, &mut seq, &[5, 6, 7, 8], 0, &assignment);
        let mut truncated = streams.clone();
        truncated[ch1] = next[ch1].clone();
        let err = deskew(cfg, &truncated, &assignment).unwrap_err();
        match err {
            DeskewError::NoCommonMarker { lane, skew } => {
                assert_eq!(lane, 0);
                assert!(skew >= streams[ch0].len(), "skew {skew} should be past end");
            }
            other => panic!("expected NoCommonMarker, got {other:?}"),
        }
        let msg = format!("{err}");
        assert!(
            msg.contains("lane 0"),
            "message should name the lane: {msg}"
        );
    }

    #[test]
    fn misaligned_reports_position() {
        let cfg = cfg(2, 2);
        let assignment = rotated(2, 1);
        let mut channels = stripe(cfg, &mut 0, &[1, 2, 3, 4], 0, &assignment);
        channels[assignment[0]][2] = LaneWord::Marker(99);
        match deskew(cfg, &channels, &assignment) {
            Err(DeskewError::Misaligned { lane, position }) => {
                assert_eq!(lane, 0);
                assert_eq!(position, 2);
            }
            other => panic!("expected Misaligned, got {other:?}"),
        }
    }

    #[test]
    fn marker_where_data_expected_detected() {
        let cfg = cfg(2, 2);
        let assignment = rotated(2, 1);
        let mut channels = stripe(cfg, &mut 0, &[1, 2, 3, 4], 0, &assignment);
        // Corrupt: replace a data word with a rogue marker.
        channels[assignment[1]][1] = LaneWord::Marker(99);
        assert!(matches!(
            deskew(cfg, &channels, &assignment),
            Err(DeskewError::Misaligned { .. })
        ));
    }

    #[test]
    fn warm_buffers_do_not_carry_into_the_next_call() {
        // Buffers left by a wider, failed epoch give the same result as
        // fresh ones, so reusing them across calls cannot change output.
        let wide = cfg(6, 4);
        let wide_map = rotated(6, 5);
        let mut channels = stripe(wide, &mut 0, &[9; 70], 7, &wide_map);
        channels[wide_map[4]].retain(|w| !matches!(w, LaneWord::Marker(_)));
        let mut scratch = DeskewScratch::default();
        let mut out = Vec::new();
        assert!(deskew_mapped(wide, &channels, &wide_map, &mut scratch, &mut out).is_err());

        let narrow = cfg(3, 2);
        let narrow_map = rotated(3, 4);
        let payload: Vec<u64> = (100..115).collect();
        for ch in channels.iter_mut() {
            ch.clear();
        }
        let mut seq = 0;
        stripe_mapped(narrow, &mut seq, &payload, 1, &narrow_map, &mut channels);
        let fresh = stripe(narrow, &mut 0, &payload, 1, &narrow_map);
        assert_eq!(channels[..fresh.len()], fresh[..]);
        deskew_mapped(narrow, &channels, &narrow_map, &mut scratch, &mut out).unwrap();
        assert_eq!(Ok(out), deskew(narrow, &fresh, &narrow_map));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_skews_roundtrip(
            lanes in 1usize..12,
            am in 1usize..10,
            blocks in 1usize..6,
            rotate in 0usize..14,
            skew_seed in 0u64..1000,
        ) {
            let words = lanes * am * blocks;
            let skews: Vec<usize> = (0..lanes)
                .map(|i| ((skew_seed.wrapping_mul(i as u64 + 1) >> 3) % 23) as usize)
                .collect();
            let (sent, got) = roundtrip(lanes, am, words, rotate, &skews);
            prop_assert_eq!(&got[..sent.len()], &sent[..]);
        }

        /// Rogue markers at random data positions, striped onto a
        /// rotated channel map with per-lane skew: deskew blames the
        /// first one in block order, as logical lane `j % L` at that
        /// lane's stream position.
        #[test]
        fn rogue_marker_blames_first_word_in_block_order(
            lanes in 1usize..10,
            am in 1usize..8,
            blocks in 1usize..5,
            rotate in 0usize..12,
            n_rogues in 1usize..4,
            rogue_blocks in proptest::collection::vec(0usize..5, 3),
            rogue_words in proptest::collection::vec(0usize..80, 3),
            skew_seed in 0u64..1000,
        ) {
            let cfg = cfg(lanes, am);
            let assignment = rotated(lanes, rotate);
            let payload: Vec<u64> = (0..(lanes * am * blocks) as u64).collect();
            let mut channels = stripe(cfg, &mut 0, &payload, 0, &assignment);
            let skews: Vec<usize> = (0..lanes)
                .map(|l| ((skew_seed.wrapping_mul(l as u64 + 3) >> 2) % 7) as usize)
                .collect();
            let mut first = (usize::MAX, 0);
            for k in 0..n_rogues {
                let (b, j) = (rogue_blocks[k] % blocks, rogue_words[k] % cfg.block_payload());
                let (l, depth) = (j % lanes, j / lanes);
                channels[assignment[l]][b * (am + 1) + 1 + depth] = LaneWord::Marker(7777);
                first = first.min((b, j));
            }
            let (b, j) = first;
            let (l, depth) = (j % lanes, j / lanes);
            for (l, &ch) in assignment.iter().enumerate() {
                channels[ch] = apply_skew(&channels[ch], skews[l], 0xDEAD);
            }
            let mut scratch = DeskewScratch::default();
            let mut out = Vec::new();
            let got = deskew_mapped(cfg, &channels, &assignment, &mut scratch, &mut out);
            prop_assert_eq!(
                got,
                Err(DeskewError::Misaligned {
                    lane: l,
                    position: skews[l] + b * (am + 1) + 1 + depth,
                })
            );
            prop_assert_eq!(out.len(), b * cfg.block_payload());
        }
    }
}

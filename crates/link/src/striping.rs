//! Word striping across lanes and alignment-marker deskew.
//!
//! The distributor sends payload word `j` to lane `j mod L` — plain
//! round-robin — and every `am_period` words per lane it inserts an
//! alignment marker (same sequence number on every lane simultaneously).
//! The receiver sees each lane with an unknown delay (skew): it finds the
//! markers, lines up equal sequence numbers, and reads the words back in
//! round-robin order. Marker sequence numbers also expose lost or
//! duplicated lane content as a hard error instead of silent reordering.
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
    /// Construct; both fields must be non-zero.
    ///
    /// # Panics
    /// Panics on zero fields; use [`StripeConfig::try_new`] to handle the
    /// error instead.
    pub fn new(lanes: usize, am_period: usize) -> Self {
        match Self::try_new(lanes, am_period) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`StripeConfig::new`]: errors on zero lanes or period.
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

/// The transmit-side striper.
#[derive(Debug, Clone)]
pub struct Distributor {
    cfg: StripeConfig,
    next_seq: u32,
    identity: Vec<usize>,
}

impl Distributor {
    /// New distributor for `cfg`, markers starting at sequence 0.
    pub fn new(cfg: StripeConfig) -> Self {
        Distributor {
            cfg,
            next_seq: 0,
            identity: (0..cfg.lanes).collect(),
        }
    }

    /// Stripe `payload` across the lanes, padding the final block with
    /// `pad` words if needed. Returns one word stream per lane. Each call
    /// begins with an alignment marker on every lane and continues the
    /// sequence numbering from previous calls.
    pub fn stripe(&mut self, payload: &[u64], pad: u64) -> Vec<Vec<LaneWord>> {
        let mut lanes = Vec::with_capacity(self.cfg.lanes);
        self.stripe_into(payload, pad, &mut lanes);
        lanes
    }

    /// [`Distributor::stripe`] into caller-owned per-lane buffers:
    /// `lanes` is resized to the lane count and each stream is cleared
    /// and refilled, reusing its capacity. Allocation-free once the
    /// buffers are warm (lint R4).
    pub fn stripe_into(&mut self, payload: &[u64], pad: u64, lanes: &mut Vec<Vec<LaneWord>>) {
        lanes.truncate(self.cfg.lanes);
        lanes.resize_with(self.cfg.lanes, Default::default);
        for lane in lanes.iter_mut() {
            lane.clear();
        }
        stripe_mapped(
            self.cfg,
            &mut self.next_seq,
            payload,
            pad,
            &self.identity,
            lanes,
        );
    }
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
    /// Wrong number of lane streams supplied.
    LaneCount {
        /// Configured lane count.
        expected: usize,
        /// Number of streams actually supplied.
        got: usize,
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
            DeskewError::LaneCount { expected, got } => {
                write!(
                    f,
                    "wrong number of lane streams: expected {expected}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for DeskewError {}

impl From<DeskewError> for mosaic_units::MosaicError {
    fn from(e: DeskewError) -> Self {
        match e {
            DeskewError::LaneCount { expected, got } => mosaic_units::MosaicError::LengthMismatch {
                what: "lane streams",
                expected,
                got,
            },
            DeskewError::NoMarker { lane } => mosaic_units::MosaicError::infeasible(format!(
                "deskew failed on lane {lane}: no alignment marker in buffered stream"
            )),
            DeskewError::NoCommonMarker { lane, skew } => {
                mosaic_units::MosaicError::infeasible(format!(
                    "deskew failed on lane {lane}: skew of {skew} words exceeds the buffered stream"
                ))
            }
            DeskewError::Misaligned { lane, position } => mosaic_units::MosaicError::infeasible(
                format!("deskew failed on lane {lane}: marker/data mismatch at word {position}"),
            ),
        }
    }
}

/// Reusable working state for [`Deskewer::reassemble_into`]: per-lane
/// first-marker sequence numbers and read cursors. One scratch serves any
/// lane count — buffers are cleared and regrown (capacity retained) per
/// call, so the steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct DeskewScratch {
    first_seq: Vec<u32>,
    pos: Vec<usize>,
}

/// The receive-side deskewer.
#[derive(Debug, Clone)]
pub struct Deskewer {
    cfg: StripeConfig,
    identity: Vec<usize>,
}

impl Deskewer {
    /// New deskewer for `cfg`.
    pub fn new(cfg: StripeConfig) -> Self {
        Deskewer {
            cfg,
            identity: (0..cfg.lanes).collect(),
        }
    }

    /// Reassemble the payload stream from per-lane word streams with
    /// arbitrary leading skew. Returns the payload words of every block
    /// that is complete on all lanes.
    pub fn reassemble(&self, lanes: &[Vec<LaneWord>]) -> Result<Vec<u64>, DeskewError> {
        let mut scratch = DeskewScratch::default();
        let mut out = Vec::with_capacity(self.cfg.block_payload());
        self.reassemble_into(lanes, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`Deskewer::reassemble`] into a caller-owned output buffer using
    /// caller-owned scratch. `out` is cleared first; on success it holds
    /// the payload words of every complete block. Allocation-free once
    /// the buffers are warm (lint R4).
    pub fn reassemble_into(
        &self,
        lanes: &[Vec<LaneWord>],
        scratch: &mut DeskewScratch,
        out: &mut Vec<u64>,
    ) -> Result<(), DeskewError> {
        if lanes.len() != self.cfg.lanes {
            out.clear();
            return Err(DeskewError::LaneCount {
                expected: self.cfg.lanes,
                got: lanes.len(),
            });
        }
        deskew_mapped(self.cfg, lanes, &self.identity, scratch, out)
    }
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

    fn roundtrip(lanes: usize, am: usize, words: usize, skews: &[usize]) -> (Vec<u64>, Vec<u64>) {
        let cfg = StripeConfig::new(lanes, am);
        let payload: Vec<u64> = (0..words as u64).collect();
        let mut dist = Distributor::new(cfg);
        let streams = dist.stripe(&payload, u64::MAX);
        let skewed: Vec<Vec<LaneWord>> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| apply_skew(s, skews[i % skews.len()], 0xDEAD))
            .collect();
        let out = Deskewer::new(cfg).reassemble(&skewed).expect("deskew");
        (payload, out)
    }

    #[test]
    fn no_skew_identity() {
        let (sent, got) = roundtrip(4, 8, 4 * 8 * 3, &[0]);
        assert_eq!(got, sent);
    }

    #[test]
    fn heavy_unequal_skew_recovered() {
        let (sent, got) = roundtrip(8, 16, 8 * 16 * 4, &[0, 3, 17, 29, 5, 11, 2, 40]);
        assert_eq!(got[..sent.len()], sent[..]);
    }

    #[test]
    fn padding_fills_final_block() {
        let cfg = StripeConfig::new(4, 4);
        let payload: Vec<u64> = (0..10).collect(); // not a multiple of 16
        let mut dist = Distributor::new(cfg);
        let streams = dist.stripe(&payload, 0xFF);
        let out = Deskewer::new(cfg).reassemble(&streams).unwrap();
        assert_eq!(&out[..10], payload.as_slice());
        assert!(out[10..].iter().all(|&w| w == 0xFF));
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn sequence_continues_across_calls() {
        let cfg = StripeConfig::new(2, 2);
        let mut dist = Distributor::new(cfg);
        let s1 = dist.stripe(&[1, 2, 3, 4], 0);
        let s2 = dist.stripe(&[5, 6, 7, 8], 0);
        // Concatenate the two transmissions per lane; deskewer must read
        // both blocks as a continuous sequence.
        let joined: Vec<Vec<LaneWord>> = s1
            .into_iter()
            .zip(s2)
            .map(|(mut a, b)| {
                a.extend(b);
                a
            })
            .collect();
        let out = Deskewer::new(cfg).reassemble(&joined).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn missing_marker_is_an_error() {
        let cfg = StripeConfig::new(2, 2);
        let mut dist = Distributor::new(cfg);
        let mut streams = dist.stripe(&[1, 2, 3, 4], 0);
        streams[1].retain(|w| !matches!(w, LaneWord::Marker(_)));
        assert_eq!(
            Deskewer::new(cfg).reassemble(&streams),
            Err(DeskewError::NoMarker { lane: 1 })
        );
    }

    #[test]
    fn wrong_lane_count_rejected() {
        let cfg = StripeConfig::new(3, 2);
        let streams = vec![vec![], vec![]];
        assert_eq!(
            Deskewer::new(cfg).reassemble(&streams),
            Err(DeskewError::LaneCount {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn lane_count_converts_to_length_mismatch() {
        let e: mosaic_units::MosaicError = DeskewError::LaneCount {
            expected: 3,
            got: 2,
        }
        .into();
        assert!(matches!(
            e,
            mosaic_units::MosaicError::LengthMismatch {
                what: "lane streams",
                expected: 3,
                got: 2,
            }
        ));
    }

    #[test]
    fn excess_skew_reports_lane_and_skew() {
        let cfg = StripeConfig::new(2, 2);
        let mut dist = Distributor::new(cfg);
        let streams = dist.stripe(&[1, 2, 3, 4], 0);
        // Skew ≥ the stream length still recovers: apply_skew prepends
        // junk but the whole stream stays buffered, so alignment walks
        // past the junk and reads every block.
        let skewed = vec![
            streams[0].clone(),
            apply_skew(&streams[1], streams[1].len() + 4, 0xBAD),
        ];
        assert_eq!(Deskewer::new(cfg).reassemble(&skewed), Ok(vec![1, 2, 3, 4]));
        // Unresolvable skew: lane 0 lacks the common marker entirely —
        // short stream on lane 0, later-epoch stream on lane 1.
        let s1 = dist.stripe(&[5, 6, 7, 8], 0);
        let truncated = vec![streams[0].clone(), s1[1].clone()];
        let err = Deskewer::new(cfg).reassemble(&truncated).unwrap_err();
        match err {
            DeskewError::NoCommonMarker { lane, skew } => {
                assert_eq!(lane, 0);
                assert!(skew >= streams[0].len(), "skew {skew} should be past end");
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
        let cfg = StripeConfig::new(2, 2);
        let mut dist = Distributor::new(cfg);
        let mut streams = dist.stripe(&[1, 2, 3, 4], 0);
        streams[0][2] = LaneWord::Marker(99);
        match Deskewer::new(cfg).reassemble(&streams) {
            Err(DeskewError::Misaligned { lane, position }) => {
                assert_eq!(lane, 0);
                assert_eq!(position, 2);
            }
            other => panic!("expected Misaligned, got {other:?}"),
        }
    }

    #[test]
    fn stripe_into_matches_stripe_and_reuses_buffers() {
        let cfg = StripeConfig::new(3, 4);
        let payload: Vec<u64> = (0..40).collect();
        let mut a = Distributor::new(cfg);
        let mut b = Distributor::new(cfg);
        let fresh = a.stripe(&payload, 7);
        let mut reused: Vec<Vec<LaneWord>> = Vec::new();
        b.stripe_into(&payload, 7, &mut reused);
        assert_eq!(fresh, reused);
        // Second call with different payload still matches, with the
        // buffers recycled in place.
        let payload2: Vec<u64> = (100..140).collect();
        let fresh2 = a.stripe(&payload2, 9);
        b.stripe_into(&payload2, 9, &mut reused);
        assert_eq!(fresh2, reused);
    }

    #[test]
    fn reassemble_into_matches_reassemble() {
        let cfg = StripeConfig::new(4, 8);
        let payload: Vec<u64> = (0..4 * 8 * 3).map(|i| i as u64 * 3).collect();
        let mut dist = Distributor::new(cfg);
        let streams = dist.stripe(&payload, 0);
        let skewed: Vec<Vec<LaneWord>> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| apply_skew(s, i * 3, 0xDEAD))
            .collect();
        let d = Deskewer::new(cfg);
        let direct = d.reassemble(&skewed).unwrap();
        let mut scratch = DeskewScratch::default();
        let mut out = Vec::new();
        d.reassemble_into(&skewed, &mut scratch, &mut out).unwrap();
        assert_eq!(direct, out);
        // Reuse the same scratch/out for a second, clean pass.
        d.reassemble_into(&streams, &mut scratch, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn marker_where_data_expected_detected() {
        let cfg = StripeConfig::new(2, 2);
        let mut dist = Distributor::new(cfg);
        let mut streams = dist.stripe(&[1, 2, 3, 4], 0);
        // Corrupt: replace a data word with a rogue marker.
        streams[0][2] = LaneWord::Marker(99);
        assert!(matches!(
            Deskewer::new(cfg).reassemble(&streams),
            Err(DeskewError::Misaligned { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_skews_roundtrip(
            lanes in 1usize..12,
            am in 1usize..10,
            blocks in 1usize..6,
            skew_seed in 0u64..1000,
        ) {
            let words = lanes * am * blocks;
            let skews: Vec<usize> = (0..lanes)
                .map(|i| ((skew_seed.wrapping_mul(i as u64 + 1) >> 3) % 23) as usize)
                .collect();
            let (sent, got) = roundtrip(lanes, am, words, &skews);
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
            let cfg = StripeConfig::new(lanes, am);
            let physical = lanes + 2;
            let assignment: Vec<usize> = (0..lanes).map(|l| (l + rotate) % physical).collect();
            let payload: Vec<u64> = (0..(lanes * am * blocks) as u64).collect();
            let mut channels = vec![Vec::new(); physical];
            let mut seq = 0u32;
            stripe_mapped(cfg, &mut seq, &payload, 0, &assignment, &mut channels);
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

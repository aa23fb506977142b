//! The assembled gearbox: frames in, hundreds of lane streams out — and
//! back. This is the executable model of Mosaic's FPGA prototype logic.
//!
//! Transmit path: frames → self-delimiting byte stream (CRC-32 framing) →
//! 64-bit words → scrambler → round-robin striping with alignment markers
//! over the *active* physical channels (per [`LaneMap`]). Spare channels
//! idle. Receive path: select assigned channels, deskew on markers,
//! descramble, scan the byte stream for valid frames. Any corruption that
//! survives the optical layer's FEC surfaces here as a CRC-failed frame,
//! never as silently wrong data.
//!
//! Failure handling: when the caller retires a channel (its BER monitor
//! tripped, or it went dark) the map swaps in a spare; the next `transmit`
//! epoch uses the new assignment. In-flight data on the dead channel is
//! lost and shows up as dropped frames — exactly the behaviour the F11
//! resilience experiment measures.

use crate::framing::{frame_into, parse_frame, Frame, FrameError};
use crate::lanes::{FailureKind, LaneMap, NoSpares};
use crate::scrambler::Scrambler;
use crate::striping::{
    deskew_mapped, stripe_mapped, DeskewError, DeskewScratch, LaneWord, StripeConfig,
};

/// Idle word transmitted on spare/unassigned channels.
const IDLE_WORD: u64 = 0x1E1E_1E1E_1E1E_1E1E;

/// A gearbox endpoint. Transmit state (scrambler, frame and marker
/// sequence numbers) and receive state (descrambler) are separate and
/// both read the one lane map, so a single gearbox can carry its own
/// streams back; a link whose ends may remap at different epochs needs
/// one per end.
#[derive(Debug, Clone)]
pub struct Gearbox {
    cfg: StripeConfig,
    map: LaneMap,
    physical: usize,
    next_marker_seq: u32,
    tx_scrambler: Scrambler,
    rx_scrambler: Scrambler,
    next_tx_seq: u32,
}

/// What came out of a receive epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct RxReport {
    /// Frames recovered intact (CRC-verified), in arrival order.
    pub frames: Vec<Frame>,
    /// Byte positions that failed CRC or framing — corruption *detected*.
    pub corrupt_frames: usize,
    /// Total payload bytes delivered.
    pub payload_bytes: usize,
    /// True if deskew failed entirely this epoch (e.g. a channel died
    /// mid-epoch); the epoch's data is lost.
    pub deskew_failed: bool,
}

/// Reusable transmit-side working buffers for [`Gearbox::transmit_into`].
/// One per gearbox; capacities grow to the epoch's working set and then
/// stay, so the steady-state epoch loop allocates nothing (lint R4).
#[derive(Debug, Clone, Default)]
pub struct TxScratch {
    bytes: Vec<u8>,
    words: Vec<u64>,
}

/// Reusable receive-side working buffers for [`Gearbox::receive_into`].
#[derive(Debug, Clone, Default)]
pub struct RxScratch {
    deskew: DeskewScratch,
    words: Vec<u64>,
}

/// One recovered frame inside an [`RxBatch`]: the sequence number plus
/// the payload's position in the batch's descrambled byte stream. Borrow
/// the bytes via [`RxBatch::payload`] — no per-frame allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSlot {
    /// Sender-assigned sequence number.
    pub seq: u32,
    /// Payload start offset into [`RxBatch::bytes`].
    pub start: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// Allocation-free counterpart of [`RxReport`]: frames are descriptors
/// into the reused `bytes` buffer instead of owned vectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RxBatch {
    /// The epoch's descrambled byte stream (valid until the next call).
    pub bytes: Vec<u8>,
    /// Frames recovered intact (CRC-verified), in arrival order.
    pub frames: Vec<FrameSlot>,
    /// Byte positions that failed CRC or framing — corruption *detected*.
    pub corrupt_frames: usize,
    /// Total payload bytes delivered.
    pub payload_bytes: usize,
    /// Set when deskew failed entirely this epoch; carries the offending
    /// lane and observed skew for fault attribution.
    pub deskew_error: Option<DeskewError>,
}

impl RxBatch {
    /// Payload bytes of recovered frame `i`.
    pub fn payload(&self, i: usize) -> &[u8] {
        let s = self.frames[i];
        &self.bytes[s.start..s.start + s.len]
    }

    /// True if deskew failed entirely this epoch (mirror of
    /// [`RxReport::deskew_failed`]).
    pub fn deskew_failed(&self) -> bool {
        self.deskew_error.is_some()
    }
}

impl Gearbox {
    /// Build a gearbox striping over `logical` lanes drawn from
    /// `physical` channels (surplus = spares), with alignment markers
    /// every `am_period` words per lane.
    ///
    /// # Panics
    /// Panics on invalid geometry; use [`Gearbox::try_new`] to handle
    /// the error instead.
    pub fn new(logical: usize, physical: usize, am_period: usize) -> Self {
        match Self::try_new(logical, physical, am_period) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Gearbox::new`]: errors on zero lanes, zero marker
    /// period, or fewer physical channels than logical lanes.
    pub fn try_new(
        logical: usize,
        physical: usize,
        am_period: usize,
    ) -> mosaic_units::Result<Self> {
        let cfg = StripeConfig::try_new(logical, am_period)?;
        Ok(Gearbox {
            cfg,
            map: LaneMap::try_new(logical, physical)?,
            physical,
            next_marker_seq: 0,
            tx_scrambler: Scrambler::new(),
            rx_scrambler: Scrambler::new(),
            next_tx_seq: 0,
        })
    }

    /// The lane map (assignments, spares, retirements).
    pub fn lane_map(&self) -> &LaneMap {
        &self.map
    }

    /// Retire a physical channel and swap in a spare.
    pub fn fail_channel(
        &mut self,
        physical: usize,
        kind: FailureKind,
    ) -> Result<Option<usize>, NoSpares> {
        self.map.fail_channel(physical, kind)
    }

    /// Frame and transmit `payloads` (one frame each). Returns one word
    /// stream per *physical* channel: assigned channels carry stripes,
    /// spares carry idles, retired channels carry nothing.
    pub fn transmit(&mut self, payloads: &[&[u8]]) -> Vec<Vec<LaneWord>> {
        let mut scratch = TxScratch::default();
        let mut channels = Vec::with_capacity(self.physical);
        self.transmit_into(payloads, &mut scratch, &mut channels);
        channels
    }

    /// [`Gearbox::transmit`] into caller-owned buffers: `channels` is
    /// resized to the physical channel count and each stream refilled in
    /// place. With a warm `scratch` the epoch loop allocates nothing;
    /// every traffic epoch pushes a frame batch through here, so a
    /// per-frame allocation would show once per epoch across all of F19.
    // lint: no-alloc proof=crates/link/tests/alloc_free.rs
    pub fn transmit_into(
        &mut self,
        payloads: &[&[u8]],
        scratch: &mut TxScratch,
        channels: &mut Vec<Vec<LaneWord>>,
    ) {
        // Frames → byte stream.
        scratch.bytes.clear();
        for p in payloads {
            frame_into(self.next_tx_seq, p, &mut scratch.bytes);
            self.next_tx_seq = self.next_tx_seq.wrapping_add(1);
        }
        // Bytes → scrambled words in one pass: the zero-padded tail word,
        // then zero words to a whole marker block, all scrambled, so the
        // TX and RX scrambler states advance by exactly the same count.
        let block = self.cfg.block_payload();
        let n_words = scratch.bytes.len().div_ceil(8).div_ceil(block).max(1) * block;
        scratch.words.clear();
        scratch.words.reserve(n_words);
        let mut groups = scratch.bytes.chunks_exact(8);
        for g in &mut groups {
            let w = u64::from_le_bytes([g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7]]);
            scratch.words.push(self.tx_scrambler.scramble_word(w));
        }
        let mut tail = [0u8; 8];
        tail[..groups.remainder().len()].copy_from_slice(groups.remainder());
        let mut pad = u64::from_le_bytes(tail);
        while scratch.words.len() < n_words {
            scratch.words.push(self.tx_scrambler.scramble_word(pad));
            pad = 0;
        }
        // Stripe straight onto the assigned physical channels.
        channels.truncate(self.physical);
        channels.resize_with(self.physical, Default::default);
        for stream in channels.iter_mut() {
            stream.clear();
        }
        stripe_mapped(
            self.cfg,
            &mut self.next_marker_seq,
            &scratch.words,
            0,
            self.map.assignment(),
            channels,
        );
        // Spares idle at the same epoch length so the medium stays lit.
        let stream_len = channels[self.map.physical_for(0)].len();
        for (ch, stream) in channels.iter_mut().enumerate() {
            let retired = self.map.retired().iter().any(|&(p, _)| p == ch);
            if stream.is_empty() && !retired {
                stream.resize(stream_len, LaneWord::Data(IDLE_WORD));
            }
        }
    }

    /// Receive one epoch of physical channel streams.
    ///
    /// A failed deskew is *not* an error — it is a measured link outcome,
    /// reported via [`RxReport::deskew_failed`]. `Err` means the input is
    /// malformed: the number of streams does not match the gearbox's
    /// physical channel count.
    pub fn receive(&mut self, channels: &[Vec<LaneWord>]) -> mosaic_units::Result<RxReport> {
        let mut scratch = RxScratch::default();
        let mut batch = RxBatch::default();
        self.receive_into(channels, &mut scratch, &mut batch)?;
        let frames = batch
            .frames
            .iter()
            .map(|s| Frame {
                seq: s.seq,
                payload: batch.bytes[s.start..s.start + s.len].to_vec(),
            })
            .collect();
        Ok(RxReport {
            frames,
            corrupt_frames: batch.corrupt_frames,
            payload_bytes: batch.payload_bytes,
            deskew_failed: batch.deskew_error.is_some(),
        })
    }

    /// [`Gearbox::receive`] into caller-owned buffers: recovered frames
    /// are descriptors into `batch.bytes` instead of owned vectors. With
    /// warm buffers the epoch loop allocates nothing, like
    /// [`Gearbox::transmit_into`].
    // lint: no-alloc proof=crates/link/tests/alloc_free.rs
    pub fn receive_into(
        &mut self,
        channels: &[Vec<LaneWord>],
        scratch: &mut RxScratch,
        batch: &mut RxBatch,
    ) -> mosaic_units::Result<()> {
        if channels.len() != self.physical {
            return Err(mosaic_units::MosaicError::LengthMismatch {
                what: "channel streams",
                expected: self.physical,
                got: channels.len(),
            });
        }
        batch.bytes.clear();
        batch.frames.clear();
        batch.corrupt_frames = 0;
        batch.payload_bytes = 0;
        batch.deskew_error = None;
        // Deskew the assigned channels in place, in logical order.
        if let Err(e) = deskew_mapped(
            self.cfg,
            channels,
            self.map.assignment(),
            &mut scratch.deskew,
            &mut scratch.words,
        ) {
            batch.deskew_error = Some(e);
            return Ok(());
        }
        // Descramble each word into its 8-byte slot.
        batch.bytes.resize(scratch.words.len() * 8, 0);
        for (dst, &w) in batch.bytes.chunks_exact_mut(8).zip(scratch.words.iter()) {
            dst.copy_from_slice(&self.rx_scrambler.descramble_word(w).to_le_bytes());
        }
        batch.corrupt_frames = scan_frames_into(&batch.bytes, &mut batch.frames);
        batch.payload_bytes = batch.frames.iter().map(|s| s.len).sum();
        Ok(())
    }
}

/// Scan a byte stream for valid frames, resynchronizing on the magic
/// after any corruption: `frames` is cleared and refilled with
/// descriptors into `bytes`. Returns the count of detected-corrupt frame
/// candidates. Allocation-free once `frames` is warm (lint R4).
// lint: no-alloc proof=crates/link/tests/alloc_free.rs
pub fn scan_frames_into(bytes: &[u8], frames: &mut Vec<FrameSlot>) -> usize {
    frames.clear();
    let mut corrupt = 0usize;
    let magic = crate::framing::FRAME_MAGIC.to_le_bytes();
    let mut pos = 0usize;
    while pos + Frame::OVERHEAD <= bytes.len() {
        if bytes[pos] != magic[0] || bytes[pos + 1] != magic[1] {
            // Jump to the next byte that could start a magic.
            match bytes[pos + 1..].iter().position(|&b| b == magic[0]) {
                Some(k) => pos += 1 + k,
                None => break,
            }
            continue;
        }
        let len = u32::from_le_bytes([
            bytes[pos + 6],
            bytes[pos + 7],
            bytes[pos + 8],
            bytes[pos + 9],
        ]) as usize;
        let total = Frame::OVERHEAD + len;
        if len > bytes.len() || pos + total > bytes.len() {
            // Length field implausible — corrupted header or tail padding.
            corrupt += 1;
            pos += 2;
            continue;
        }
        match parse_frame(&bytes[pos..pos + total]) {
            Ok((seq, payload)) => {
                frames.push(FrameSlot {
                    seq,
                    start: pos + 10,
                    len: payload.len(),
                });
                pos += total;
            }
            Err(FrameError::BadCrc) => {
                corrupt += 1;
                pos += 2; // skip the magic, rescan inside
            }
            Err(_) => {
                pos += 2;
            }
        }
    }
    corrupt
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize, size: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..size).map(|j| ((i * 31 + j * 7) & 0xFF) as u8).collect())
            .collect()
    }

    #[test]
    fn clean_link_delivers_everything() {
        let mut tx = Gearbox::new(8, 10, 16);
        let mut rx = Gearbox::new(8, 10, 16);
        let data = payloads(20, 200);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let channels = tx.transmit(&refs);
        let report = rx.receive(&channels).unwrap();
        assert!(!report.deskew_failed);
        assert_eq!(report.frames.len(), 20);
        assert_eq!(report.corrupt_frames, 0);
        for (i, f) in report.frames.iter().enumerate() {
            assert_eq!(f.seq, i as u32);
            assert_eq!(f.payload, data[i]);
        }
    }

    #[test]
    fn skewed_channels_still_deliver() {
        let mut tx = Gearbox::new(4, 4, 8);
        let mut rx = Gearbox::new(4, 4, 8);
        let data = payloads(5, 100);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let channels = tx.transmit(&refs);
        let skewed: Vec<Vec<LaneWord>> = channels
            .iter()
            .enumerate()
            .map(|(i, s)| crate::striping::apply_skew(s, i * 5, 0xBAD))
            .collect();
        let report = rx.receive(&skewed).unwrap();
        assert_eq!(report.frames.len(), 5);
    }

    #[test]
    fn corrupted_word_loses_only_affected_frames() {
        let mut tx = Gearbox::new(4, 4, 8);
        let mut rx = Gearbox::new(4, 4, 8);
        let data = payloads(30, 64);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let mut channels = tx.transmit(&refs);
        // Corrupt a handful of data words on channel 2.
        let mut hits = 0;
        for w in channels[2].iter_mut() {
            if let LaneWord::Data(d) = w {
                *d ^= 0x8000_0000;
                hits += 1;
                if hits == 3 {
                    break;
                }
            }
        }
        let report = rx.receive(&channels).unwrap();
        assert!(!report.deskew_failed);
        assert!(
            report.frames.len() >= 24,
            "lost too many: {}",
            report.frames.len()
        );
        assert!(report.frames.len() < 30);
        assert!(report.corrupt_frames > 0);
        // Delivered frames are bit-exact.
        for f in &report.frames {
            assert_eq!(f.payload, data[f.seq as usize]);
        }
    }

    #[test]
    fn failover_to_spare_restores_service() {
        let mut tx = Gearbox::new(4, 6, 8);
        let mut rx = Gearbox::new(4, 6, 8);
        let data = payloads(10, 80);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();

        // Epoch 1: clean.
        let r1 = rx.receive(&tx.transmit(&refs)).unwrap();
        assert_eq!(r1.frames.len(), 10);

        // Channel 1 dies; both ends remap (control plane coordination).
        assert_eq!(tx.fail_channel(1, FailureKind::Dead).unwrap(), Some(1));
        assert_eq!(rx.fail_channel(1, FailureKind::Dead).unwrap(), Some(1));

        // Epoch 2: full service on the spare.
        let r2 = rx.receive(&tx.transmit(&refs)).unwrap();
        assert_eq!(r2.frames.len(), 10);
        // Logical lane 1 rides one of the two spares; the other is left.
        let map = tx.lane_map();
        assert_eq!(map.retired().len(), 1);
        assert!((4..6).contains(&map.physical_for(1)));
    }

    #[test]
    fn dead_channel_without_remap_fails_deskew() {
        let mut tx = Gearbox::new(4, 4, 8);
        let mut rx = Gearbox::new(4, 4, 8);
        let data = payloads(5, 50);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let mut channels = tx.transmit(&refs);
        // Channel 3 goes dark mid-epoch: its stream is junk.
        channels[3] = vec![LaneWord::Data(0); channels[3].len()];
        let report = rx.receive(&channels).unwrap();
        assert!(report.deskew_failed);
        assert!(report.frames.is_empty());
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        assert!(Gearbox::try_new(0, 4, 8).is_err());
        assert!(Gearbox::try_new(4, 2, 8).is_err());
        assert!(Gearbox::try_new(4, 4, 0).is_err());
        let mut rx = Gearbox::new(4, 4, 8);
        // Wrong number of channel streams is malformed input, not a
        // measured deskew failure.
        assert!(rx.receive(&[vec![], vec![]]).is_err());
    }

    #[test]
    fn into_pair_matches_allocating_path() {
        // Same seeds, same traffic: the scratch-reuse pair must produce
        // byte-identical channel streams and recover identical frames.
        let mut tx_a = Gearbox::new(4, 6, 8);
        let mut rx_a = Gearbox::new(4, 6, 8);
        let mut tx_b = Gearbox::new(4, 6, 8);
        let mut rx_b = Gearbox::new(4, 6, 8);
        let mut scratch_tx = TxScratch::default();
        let mut scratch_rx = RxScratch::default();
        let mut channels_b = Vec::new();
        let mut batch = RxBatch::default();
        for epoch in 0..4 {
            let data = payloads(6 + epoch, 90);
            let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
            let channels_a = tx_a.transmit(&refs);
            tx_b.transmit_into(&refs, &mut scratch_tx, &mut channels_b);
            assert_eq!(channels_a, channels_b);
            let report = rx_a.receive(&channels_a).unwrap();
            rx_b.receive_into(&channels_b, &mut scratch_rx, &mut batch)
                .unwrap();
            assert_eq!(report.frames.len(), batch.frames.len());
            assert_eq!(report.corrupt_frames, batch.corrupt_frames);
            assert_eq!(report.payload_bytes, batch.payload_bytes);
            assert_eq!(report.deskew_failed, batch.deskew_failed());
            for (i, f) in report.frames.iter().enumerate() {
                assert_eq!(f.seq, batch.frames[i].seq);
                assert_eq!(f.payload.as_slice(), batch.payload(i));
            }
        }
        // Mid-test failover keeps the pair in lockstep too.
        for g in [&mut tx_a, &mut rx_a, &mut tx_b, &mut rx_b] {
            g.fail_channel(2, FailureKind::Dead).unwrap();
        }
        let data = payloads(5, 64);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let channels_a = tx_a.transmit(&refs);
        tx_b.transmit_into(&refs, &mut scratch_tx, &mut channels_b);
        assert_eq!(channels_a, channels_b);
        let report = rx_a.receive(&channels_a).unwrap();
        rx_b.receive_into(&channels_b, &mut scratch_rx, &mut batch)
            .unwrap();
        assert_eq!(report.frames.len(), 5);
        assert_eq!(batch.frames.len(), 5);
    }

    #[test]
    fn receive_into_reports_deskew_error_detail() {
        let mut tx = Gearbox::new(4, 4, 8);
        let mut rx = Gearbox::new(4, 4, 8);
        let data = payloads(5, 50);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let mut channels = tx.transmit(&refs);
        channels[3] = vec![LaneWord::Data(0); channels[3].len()];
        let mut scratch = RxScratch::default();
        let mut batch = RxBatch::default();
        rx.receive_into(&channels, &mut scratch, &mut batch)
            .unwrap();
        assert!(batch.deskew_failed());
        // The dark channel is attributed: logical lane 3 maps to physical
        // channel 3 under the identity assignment.
        assert_eq!(batch.deskew_error, Some(DeskewError::NoMarker { lane: 3 }));
        assert!(batch.frames.is_empty());
    }

    #[test]
    fn scan_resynchronizes_after_garbage() {
        let mut bytes = vec![0x5Au8; 7]; // leading garbage
        frame_into(1, &[1; 20], &mut bytes);
        bytes.extend([0xFF; 13]); // mid-stream garbage
        frame_into(2, &[2; 20], &mut bytes);
        let mut frames = Vec::new();
        scan_frames_into(&bytes, &mut frames);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 1);
        assert_eq!(frames[1].seq, 2);
        assert_eq!(&bytes[frames[1].start..][..frames[1].len], &[2; 20]);
    }
}

//! Edge-case coverage for `apply_skew`, the frame scanner and the
//! gearbox epoch loop: zero-length payloads, skew at or past the buffered
//! stream length, truncated trailing frames, and payload bytes that
//! collide with the alignment magic. These are the corners the traffic
//! harness leans on when a fault campaign slices an epoch mid-frame.

use mosaic_link::framing::{frame_into, parse_frame, Frame, FRAME_MAGIC};
use mosaic_link::gearbox::{scan_frames_into, Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_link::striping::{
    apply_skew, deskew_mapped, stripe_mapped, DeskewScratch, LaneWord, StripeConfig,
};

/// Recovered `(seq, payload)` pairs and the corrupt-candidate count.
fn scan(bytes: &[u8]) -> (Vec<(u32, &[u8])>, usize) {
    let mut slots = Vec::new();
    let corrupt = scan_frames_into(bytes, &mut slots);
    let frames = slots
        .iter()
        .map(|s| (s.seq, &bytes[s.start..s.start + s.len]))
        .collect();
    (frames, corrupt)
}

/// A TX/RX gearbox pair driven the way the simulators drive it: one set
/// of scratch buffers and channel streams, reused every epoch.
struct Link {
    tx: Gearbox,
    rx: Gearbox,
    tx_scratch: TxScratch,
    rx_scratch: RxScratch,
    channels: Vec<Vec<LaneWord>>,
    batch: RxBatch,
}

impl Link {
    fn new(logical: usize, physical: usize, am_period: usize) -> Self {
        Link {
            tx: Gearbox::new(logical, physical, am_period),
            rx: Gearbox::new(logical, physical, am_period),
            tx_scratch: TxScratch::default(),
            rx_scratch: RxScratch::default(),
            channels: Vec::new(),
            batch: RxBatch::default(),
        }
    }

    fn epoch(&mut self, payloads: &[&[u8]]) -> &RxBatch {
        self.tx
            .transmit_into(payloads, &mut self.tx_scratch, &mut self.channels);
        self.rx
            .receive_into(&self.channels, &mut self.rx_scratch, &mut self.batch)
            .unwrap();
        &self.batch
    }
}

#[test]
fn zero_length_payload_roundtrips() {
    // A zero-length frame is legal: 14 bytes of pure header+CRC.
    let mut bytes = Vec::new();
    frame_into(41, &[], &mut bytes);
    assert_eq!(bytes.len(), Frame::OVERHEAD);
    assert_eq!(parse_frame(&bytes), Ok((41, &[][..])));

    // And it survives the full gearbox pipeline mixed with sized frames,
    // on cold buffers and again on warm ones.
    let mut link = Link::new(4, 4, 8);
    let sized = vec![7u8; 120];
    let refs: Vec<&[u8]> = vec![&[], &sized, &[], &sized];
    for epoch in 0..2u32 {
        let batch = link.epoch(&refs);
        assert!(!batch.deskew_failed());
        assert_eq!(batch.frames.len(), 4);
        assert_eq!(batch.frames[0].seq, 4 * epoch);
        assert_eq!(batch.payload(0).len(), 0);
        assert_eq!(batch.payload(1), sized.as_slice());
        assert_eq!(batch.payload(2).len(), 0);
        assert_eq!(batch.payload_bytes, 240);
    }
}

#[test]
fn scan_handles_stream_of_empty_frames() {
    let mut bytes = Vec::new();
    for seq in 0..5u32 {
        frame_into(seq, &[], &mut bytes);
    }
    let (frames, corrupt) = scan(&bytes);
    assert_eq!(corrupt, 0);
    assert_eq!(frames.len(), 5);
    for (i, (seq, payload)) in frames.iter().enumerate() {
        assert_eq!(*seq, i as u32);
        assert!(payload.is_empty());
    }
}

#[test]
fn skew_at_and_past_stream_length_still_recovers() {
    // apply_skew prepends junk; the data itself stays buffered, so even
    // skew ≥ the original stream length deskews — the receiver just
    // spends longer hunting for the first marker.
    let cfg = StripeConfig::try_new(4, 8).unwrap();
    let assignment = [5, 0, 1, 2]; // two spares, logical lane 0 moved
    let payload: Vec<u64> = (0..4 * 8 * 2).map(|i| i as u64 + 100).collect();
    let mut streams = vec![Vec::new(); 6];
    stripe_mapped(cfg, &mut 0, &payload, 0, &assignment, &mut streams);
    let len = streams[5].len();
    let mut scratch = DeskewScratch::default();
    let mut out = Vec::new();
    for extreme in [len - 1, len, len + 1, 3 * len] {
        let skewed: Vec<Vec<LaneWord>> = streams
            .iter()
            .enumerate()
            .map(|(ch, s)| apply_skew(s, if ch == 1 { extreme } else { ch }, 0xBAD))
            .collect();
        deskew_mapped(cfg, &skewed, &assignment, &mut scratch, &mut out).unwrap();
        assert_eq!(out, payload, "skew {extreme} should still deskew");
    }
}

#[test]
fn zero_skew_on_empty_stream_is_identity() {
    // Degenerate apply_skew inputs: no stream, no skew.
    assert_eq!(apply_skew(&[], 0, 0xBAD), Vec::new());
    let junk_only = apply_skew(&[], 3, 0x1234);
    assert_eq!(junk_only, vec![LaneWord::Data(0x1234); 3]);
}

#[test]
fn truncated_trailing_frame_is_detected_not_delivered() {
    let mut bytes = Vec::new();
    frame_into(1, &[0x11; 40], &mut bytes);
    let mut tail = Vec::new();
    frame_into(2, &[0x22; 40], &mut tail);

    // Cut mid-payload: the header promises more bytes than remain, so the
    // candidate is counted corrupt and never delivered.
    let mut cut_payload = bytes.clone();
    cut_payload.extend(&tail[..tail.len() - 10]);
    let (frames, corrupt) = scan(&cut_payload);
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].0, 1);
    assert!(
        corrupt >= 1,
        "truncated frame must be flagged, got {corrupt}"
    );

    // Cut mid-header: fewer than OVERHEAD bytes remain — nothing to
    // deliver, nothing misparsed.
    bytes.extend(&tail[..8]);
    let (frames, _) = scan(&bytes);
    assert_eq!(frames.len(), 1);
}

#[test]
fn magic_bytes_inside_payload_do_not_break_scanning() {
    // Fill payloads with back-to-back copies of the frame magic; the
    // scanner must not resynchronize inside a valid frame.
    let magic = FRAME_MAGIC.to_le_bytes();
    let tricky: Vec<u8> = magic.iter().copied().cycle().take(64).collect();
    let mut bytes = Vec::new();
    for seq in 0..4u32 {
        frame_into(seq, &tricky, &mut bytes);
    }
    let (frames, corrupt) = scan(&bytes);
    assert_eq!(corrupt, 0);
    assert_eq!(frames.len(), 4);
    for (i, (seq, payload)) in frames.iter().enumerate() {
        assert_eq!(*seq, i as u32);
        assert_eq!(*payload, tricky.as_slice());
    }

    // After corruption knocks out one frame, the scanner resyncs on the
    // next real frame even with decoy magics littered through payloads.
    let mut corrupted = bytes.clone();
    corrupted[2] ^= 0x40; // break frame 0's CRC via its seq field
    let (frames, corrupt) = scan(&corrupted);
    assert!(corrupt >= 1);
    // Frames 1..3 still come through (decoy magics may produce extra
    // corrupt candidates but never bogus deliveries).
    let seqs: Vec<u32> = frames.iter().map(|f| f.0).collect();
    assert!(seqs.contains(&1) && seqs.contains(&2) && seqs.contains(&3));
    for (_, payload) in &frames {
        assert_eq!(
            *payload,
            tricky.as_slice(),
            "delivered frames must be bit-exact"
        );
    }
}

#[test]
fn marker_collision_with_idle_pattern_survives_gearbox() {
    // Payload bytes equal to the idle word and the magic, interleaved:
    // the striping layer is payload-agnostic and the framing layer must
    // deliver the bytes bit-exact through scramble/stripe/deskew.
    let mut link = Link::new(4, 6, 8);
    let mut tricky = Vec::new();
    for _ in 0..16 {
        tricky.extend([0x1E, 0x1E, 0x5A, 0xA5]); // idle byte + magic LE
    }
    let refs: Vec<&[u8]> = vec![&tricky; 6];
    let batch = link.epoch(&refs);
    assert!(!batch.deskew_failed());
    assert_eq!(batch.frames.len(), 6);
    for i in 0..batch.frames.len() {
        assert_eq!(batch.payload(i), tricky.as_slice());
    }
}

//! Wire-format pin for the gearbox data path at F19's geometry (8
//! logical lanes over 12 physical channels, a marker every 16 words per
//! lane). Sixty-four epochs of mixed-size frames go through a
//! `transmit_into`/`receive_into` pair; halfway through, channel 3 dies
//! and the transmitter remaps one epoch before the receiver does, so the
//! stream also covers a deskew failure, spare idles and a retired
//! channel. A flipped data bit every eighth epoch covers CRC rejection.
//! Every channel stream and every `RxBatch` is folded into one FNV-1a
//! digest, so any change to a wire word, the lane mapping, the frame
//! scan or the deskew error attribution moves the constant.

use mosaic_link::gearbox::{Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_link::lanes::FailureKind;
use mosaic_link::striping::LaneWord;

/// Digest of the run below as the unfused data path produced it (byte
/// table CRC, separate copy and scramble passes, logical lanes copied
/// onto channels); the fused path must reproduce it exactly.
const GOLDEN: u64 = 0x2b8d_7002_2261_da6b;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn hash_channels(h: &mut Fnv, channels: &[Vec<LaneWord>]) {
    h.u64(channels.len() as u64);
    for stream in channels {
        h.u64(stream.len() as u64);
        for w in stream {
            match *w {
                LaneWord::Marker(seq) => {
                    h.u64(1);
                    h.u64(u64::from(seq));
                }
                LaneWord::Data(d) => {
                    h.u64(2);
                    h.u64(d);
                }
            }
        }
    }
}

fn hash_batch(h: &mut Fnv, batch: &RxBatch) {
    h.u64(batch.bytes.len() as u64);
    h.bytes(&batch.bytes);
    h.u64(batch.frames.len() as u64);
    for s in &batch.frames {
        h.u64(u64::from(s.seq));
        h.u64(s.start as u64);
        h.u64(s.len as u64);
    }
    h.u64(batch.corrupt_frames as u64);
    h.u64(batch.payload_bytes as u64);
    h.bytes(format!("{:?}", batch.deskew_error).as_bytes());
}

/// Epoch `e`'s payloads: 0 to 8 frames of 48 to 240 bytes (F19's 96-B
/// mix), with an empty epoch every 16.
fn payloads(e: usize) -> Vec<Vec<u8>> {
    let n = if e % 16 == 5 { 0 } else { 1 + (e * 7) % 8 };
    (0..n)
        .map(|i| {
            let size = 48 + (e * 31 + i * 17) % 193;
            (0..size)
                .map(|j| ((e * 131 + i * 29 + j * 7) & 0xFF) as u8)
                .collect()
        })
        .collect()
}

#[test]
fn gearbox_wire_format_is_pinned_at_f19_geometry() {
    let mut tx = Gearbox::new(8, 12, 16);
    let mut rx = Gearbox::new(8, 12, 16);
    let mut tx_scratch = TxScratch::default();
    let mut rx_scratch = RxScratch::default();
    let mut channels: Vec<Vec<LaneWord>> = Vec::new();
    let mut batch = RxBatch::default();
    let mut h = Fnv::new();
    let (mut delivered, mut deskew_failures, mut corrupt) = (0usize, 0usize, 0usize);
    for e in 0..64 {
        if e == 32 {
            tx.fail_channel(3, FailureKind::Dead).unwrap();
        }
        if e == 33 {
            rx.fail_channel(3, FailureKind::Dead).unwrap();
        }
        let data = payloads(e);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        tx.transmit_into(&refs, &mut tx_scratch, &mut channels);
        hash_channels(&mut h, &channels);
        if e % 8 == 3 {
            let ch = (e / 8) % 8;
            if let Some(LaneWord::Data(d)) = channels[ch].get_mut(5) {
                *d ^= 1 << (e % 64);
            }
        }
        rx.receive_into(&channels, &mut rx_scratch, &mut batch)
            .unwrap();
        hash_batch(&mut h, &batch);
        delivered += batch.frames.len();
        deskew_failures += usize::from(batch.deskew_failed());
        corrupt += batch.corrupt_frames;
    }
    // The run exercises every outcome the digest is meant to pin.
    assert!(delivered > 200, "delivered {delivered}");
    assert_eq!(deskew_failures, 1);
    assert!(corrupt > 0);
    assert_eq!(h.0, GOLDEN, "wire digest {:#018x}", h.0);
}

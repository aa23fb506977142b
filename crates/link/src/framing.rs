//! CRC-32 framed transport.
//!
//! The gearbox moves opaque frames (the host's packets) across the striped
//! channels. Every frame carries a sequence number, a length, and an IEEE
//! CRC-32 over header + payload, so any corruption that slips past FEC is
//! *detected* and surfaced as a lost frame — the simulator's ground truth
//! for frame-loss-rate measurements.

/// The slicing-by-16 CRC-32 tables (16 KiB), built at compile time.
/// `CRC_TABLES[0]` is the classic byte table (reflected polynomial
/// 0xEDB88320); row `k` advances a byte that sits `k` positions further
/// from the end of a group, so one 16-byte group folds in with sixteen
/// independent lookups and an 8-byte group with rows 0..8.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320), slicing by 16:
/// sixteen bytes per step through sixteen tables, then at most one
/// 8-byte step through eight and one 4-byte step through four, then the
/// byte loop for the tail.
///
/// Only the lookups of a step's first four bytes depend on the carried
/// CRC. Each step XORs the other lookups together first and folds the
/// carried ones in last, so the chain from one step's CRC to the next is
/// four parallel lookups and at most four XORs, not the fifteen of a
/// chain that starts with them. XOR is associative and commutative, so
/// the order changes no bit.
// lint: no-alloc proof=crates/link/tests/alloc_free.rs
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    // The four lookups of a word whose bytes sit `row..row + 4` positions
    // from the end of their step. Bytes are taken by shifts: with
    // `to_le_bytes` LLVM emitted AVX-512 gathers, 2.4 times slower.
    let fold4 = |w: u32, row: usize| {
        let b = |k: u32| ((w >> (8 * k)) & 0xFF) as usize;
        (t[row + 3][b(0)] ^ t[row + 2][b(1)]) ^ (t[row + 1][b(2)] ^ t[row][b(3)])
    };
    let word = |g: &[u8], k: usize| u32::from_le_bytes([g[k], g[k + 1], g[k + 2], g[k + 3]]);
    let mut crc = 0xFFFF_FFFFu32;
    let mut groups = data.chunks_exact(16);
    for g in &mut groups {
        let data = fold4(word(g, 4), 8) ^ fold4(word(g, 8), 4) ^ fold4(word(g, 12), 0);
        crc = data ^ fold4(word(g, 0) ^ crc, 12);
    }
    let mut rest = groups.remainder();
    if let Some((g, tail)) = rest.split_first_chunk::<8>() {
        crc = fold4(word(g, 4), 0) ^ fold4(word(g, 0) ^ crc, 4);
        rest = tail;
    }
    if let Some((g, tail)) = rest.split_first_chunk::<4>() {
        crc = fold4(u32::from_le_bytes(*g) ^ crc, 0);
        rest = tail;
    }
    for &b in rest {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Byte-at-a-time CRC-32 through one table: the test reference for
/// [`crc32`]; no production code calls it.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let t = &CRC_TABLES[0];
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = t[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Frame header magic (helps resynchronization scans in tests).
pub const FRAME_MAGIC: u16 = 0xA55A;

/// A transport frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Monotonic sequence number assigned by the sender.
    pub seq: u32,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Errors that can occur while parsing a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a minimal frame.
    Truncated,
    /// Header magic mismatch.
    BadMagic,
    /// Declared length inconsistent with the buffer.
    BadLength,
    /// CRC mismatch: corruption detected.
    BadCrc,
}

impl Frame {
    /// Wire size of the header + trailer around the payload.
    pub const OVERHEAD: usize = 2 + 4 + 4 + 4; // magic, seq, len, crc
}

/// Append one serialized frame (`magic | seq | len | payload | crc32`) to
/// `out` without constructing a [`Frame`]. The CRC covers only this
/// frame's bytes, so frames may be packed back to back in one buffer.
/// Allocation-free once `out` has capacity (lint R4).
// lint: no-alloc proof=crates/link/tests/alloc_free.rs
pub fn frame_into(seq: u32, payload: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Parse exactly one serialized frame, borrowing the payload from `buf`
/// instead of copying it. Allocation-free (lint R4).
// lint: no-alloc proof=crates/link/tests/alloc_free.rs
pub fn parse_frame(buf: &[u8]) -> Result<(u32, &[u8]), FrameError> {
    if buf.len() < Frame::OVERHEAD {
        return Err(FrameError::Truncated);
    }
    let magic = u16::from_le_bytes([buf[0], buf[1]]);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let seq = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]);
    let len = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
    if buf.len() != Frame::OVERHEAD + len {
        return Err(FrameError::BadLength);
    }
    let body = &buf[..10 + len];
    let crc_rx = u32::from_le_bytes([buf[10 + len], buf[11 + len], buf[12 + len], buf[13 + len]]);
    if crc32(body) != crc_rx {
        return Err(FrameError::BadCrc);
    }
    Ok((seq, &buf[10..10 + len]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn framed(seq: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(seq, payload, &mut out);
        out
    }

    #[test]
    fn crc32_known_answer() {
        // The classic check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn wire_layout_known_answer() {
        // magic | seq | len | payload | crc32, every field little-endian;
        // the CRC covers magic through payload.
        let bytes = framed(0x0403_0201, b"xyz");
        assert_eq!(
            bytes,
            [
                0x5A, 0xA5, // magic 0xA55A
                0x01, 0x02, 0x03, 0x04, // seq
                0x03, 0x00, 0x00, 0x00, // len
                b'x', b'y', b'z', // payload
                0xF7, 0x90, 0x6F, 0x81, // crc32 of the 13 bytes above
            ]
        );
        assert_eq!(parse_frame(&bytes), Ok((0x0403_0201, &b"xyz"[..])));
    }

    #[test]
    fn frame_roundtrip() {
        let bytes = framed(7, b"hello mosaic");
        assert_eq!(parse_frame(&bytes), Ok((7, &b"hello mosaic"[..])));
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = framed(1, &[0u8; 64]);
        bytes[20] ^= 0x40;
        assert_eq!(parse_frame(&bytes), Err(FrameError::BadCrc));
    }

    #[test]
    fn header_corruption_detected() {
        let mut bytes = framed(1, &[1, 2, 3]);
        bytes[0] ^= 0xFF;
        assert_eq!(parse_frame(&bytes), Err(FrameError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let bytes = framed(1, &[9; 32]);
        assert_eq!(
            parse_frame(&bytes[..bytes.len() - 3]),
            Err(FrameError::BadLength)
        );
        assert_eq!(parse_frame(&bytes[..5]), Err(FrameError::Truncated));
    }

    #[test]
    fn frame_into_packs_back_to_back() {
        let mut buf = Vec::new();
        frame_into(3, b"abc", &mut buf);
        let first_len = buf.len();
        frame_into(4, b"defgh", &mut buf);
        let (seq_a, pay_a) = parse_frame(&buf[..first_len]).unwrap();
        let (seq_b, pay_b) = parse_frame(&buf[first_len..]).unwrap();
        assert_eq!((seq_a, pay_a), (3, &b"abc"[..]));
        assert_eq!((seq_b, pay_b), (4, &b"defgh"[..]));
    }

    proptest! {
        #[test]
        fn crc32_matches_bytewise_oracle_at_every_short_length(
            data in proptest::collection::vec(any::<u8>(), 64),
        ) {
            for len in 0..=64 {
                prop_assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "len {}", len);
            }
        }

        #[test]
        fn crc32_matches_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }

        #[test]
        fn roundtrip_random(seq: u32, payload in proptest::collection::vec(any::<u8>(), 0..512)) {
            let bytes = framed(seq, &payload);
            prop_assert_eq!(bytes.len(), Frame::OVERHEAD + payload.len());
            prop_assert_eq!(parse_frame(&bytes), Ok((seq, payload.as_slice())));
        }

        #[test]
        fn any_single_byte_corruption_detected(
            seq: u32,
            payload in proptest::collection::vec(any::<u8>(), 1..128),
            pos_frac in 0f64..1.0,
            flip in 1u8..=255,
        ) {
            let mut bytes = framed(seq, &payload);
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= flip;
            prop_assert!(parse_frame(&bytes).is_err());
        }
    }
}

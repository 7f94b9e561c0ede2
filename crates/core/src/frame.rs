//! Checksummed, length-prefixed record framing.
//!
//! The durability layer (WAL + snapshot files in `req-service`) stores a
//! sequence of records on disk. A raw [`crate::binary`] payload cannot
//! stand alone in such a sequence: a crash can truncate the last record
//! mid-write, and bit rot silently corrupts old ones. Frames make both
//! failure modes *detectable*:
//!
//! ```text
//! len u32 (LE, payload bytes) | crc32 u32 (LE, over payload) | payload
//! ```
//!
//! A reader that hits a short header, a short payload, or a CRC mismatch
//! knows the frame — and everything after it — is unusable, and reports
//! [`ReqError::CorruptBytes`]. WAL recovery exploits exactly this: replay
//! stops at the first invalid frame, which is provably the write the crash
//! interrupted (see `req-service::wal`).
//!
//! The CRC is CRC-32/ISO-HDLC (the zlib/IEEE 802.3 polynomial, reflected,
//! init/xorout `0xFFFF_FFFF`) computed over the payload only; the length
//! prefix is implicitly covered because a wrong length misaligns the
//! payload window and fails the checksum with probability `1 − 2⁻³²`.
//!
//! [`ReqSketch::to_bytes_framed`]/[`ReqSketch::from_bytes_framed`] wrap the
//! versioned sketch encoding in one frame — the unit both the snapshot
//! store and any file-backed sketch cache persist.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::binary::Packable;
use crate::error::ReqError;
use crate::sketch::ReqSketch;

/// Frame header size: `len u32 + crc32 u32`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Largest payload a single frame may carry (1 GiB). Guards the reader
/// against allocating an attacker-chosen length from a corrupt header.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// CRC-32/ISO-HDLC lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32/ISO-HDLC (the zlib `crc32`) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append one frame (`len | crc32 | payload`) to `out`.
///
/// # Panics
/// If `payload` exceeds [`MAX_FRAME_PAYLOAD`]. A frame beyond that limit
/// (or beyond `u32::MAX`, which the length prefix would silently
/// truncate) would be *written* but categorically rejected by
/// [`read_frame`] — an acknowledged record that can never be read back
/// is strictly worse than a loud writer-side failure, so callers must
/// chunk their payloads below the limit (the service layer bounds its
/// batch sizes accordingly).
pub fn write_frame(out: &mut BytesMut, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD,
        "frame payload of {} bytes exceeds MAX_FRAME_PAYLOAD ({MAX_FRAME_PAYLOAD})",
        payload.len()
    );
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(crc32(payload));
    out.put_slice(payload);
}

/// Encode one standalone frame around `payload`.
pub fn frame(payload: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(FRAME_HEADER_LEN + payload.len());
    write_frame(&mut out, payload);
    out.freeze()
}

/// Read one frame from the front of `input`, consuming it and returning
/// the verified payload.
///
/// Errors with [`ReqError::CorruptBytes`] on a short header, an
/// implausible length, a short payload, or a checksum mismatch — and
/// consumes nothing if the frame is invalid, so the caller can recover
/// the byte offset of the last *valid* frame (WAL truncation point).
pub fn read_frame(input: &mut Bytes) -> Result<Bytes, ReqError> {
    if input.remaining() < FRAME_HEADER_LEN {
        return Err(ReqError::CorruptBytes(format!(
            "frame header needs {FRAME_HEADER_LEN} bytes, have {}",
            input.remaining()
        )));
    }
    // Peek the header without consuming: on any failure the caller must
    // still see the stream positioned at the bad frame's start.
    let head = &input.chunk()[..FRAME_HEADER_LEN];
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
    let want_crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(ReqError::CorruptBytes(format!(
            "frame claims {len} payload bytes (max {MAX_FRAME_PAYLOAD})"
        )));
    }
    if input.remaining() < FRAME_HEADER_LEN + len {
        return Err(ReqError::CorruptBytes(format!(
            "frame claims {len} payload bytes, only {} remain",
            input.remaining() - FRAME_HEADER_LEN
        )));
    }
    let got_crc = crc32(&input.chunk()[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len]);
    if got_crc != want_crc {
        return Err(ReqError::CorruptBytes(format!(
            "frame checksum mismatch: stored {want_crc:#010x}, computed {got_crc:#010x}"
        )));
    }
    input.advance(FRAME_HEADER_LEN);
    Ok(input.copy_to_bytes(len))
}

impl<T: Ord + Copy + Packable> ReqSketch<T> {
    /// [`ReqSketch::to_bytes`] wrapped in one checksummed frame — the unit
    /// the snapshot store persists.
    pub fn to_bytes_framed(&mut self) -> Bytes {
        frame(&self.to_bytes())
    }

    /// Decode a [`ReqSketch::to_bytes_framed`] frame: verify length and
    /// checksum, then deserialize the payload. Trailing bytes after the
    /// frame are rejected; use [`read_frame`] directly to read a sketch out
    /// of a longer stream.
    pub fn from_bytes_framed(data: &[u8]) -> Result<Self, ReqError> {
        let mut input = Bytes::copy_from_slice(data);
        let payload = read_frame(&mut input)?;
        if input.has_remaining() {
            return Err(ReqError::CorruptBytes(format!(
                "{} trailing bytes after framed sketch",
                input.remaining()
            )));
        }
        Self::from_bytes(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamPolicy;
    use crate::RankAccuracy;
    use sketch_traits::QuantileSketch;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frame_roundtrips() {
        for payload in [&b""[..], b"x", b"hello frame", &[0xFFu8; 1024][..]] {
            let framed = frame(payload);
            assert_eq!(framed.len(), FRAME_HEADER_LEN + payload.len());
            let mut input = framed.clone();
            let got = read_frame(&mut input).unwrap();
            assert_eq!(&got[..], payload);
            assert!(!input.has_remaining());
        }
    }

    #[test]
    fn consecutive_frames_read_in_order() {
        let mut out = BytesMut::new();
        write_frame(&mut out, b"first");
        write_frame(&mut out, b"");
        write_frame(&mut out, b"third");
        let mut input = out.freeze();
        assert_eq!(&read_frame(&mut input).unwrap()[..], b"first");
        assert_eq!(&read_frame(&mut input).unwrap()[..], b"");
        assert_eq!(&read_frame(&mut input).unwrap()[..], b"third");
        assert!(!input.has_remaining());
    }

    #[test]
    fn short_and_bitflipped_frames_are_rejected_without_consuming() {
        let framed = frame(b"payload bytes");

        // Every truncation fails, including a cut inside the header.
        for cut in 0..framed.len() {
            let mut input = Bytes::copy_from_slice(&framed[..cut]);
            let before = input.remaining();
            assert!(
                matches!(read_frame(&mut input), Err(ReqError::CorruptBytes(_))),
                "truncation at {cut} accepted"
            );
            assert_eq!(input.remaining(), before, "cut {cut} consumed bytes");
        }

        // Every single-bit flip anywhere in the frame fails.
        for byte in 0..framed.len() {
            let mut bad = framed.to_vec();
            bad[byte] ^= 0x10;
            let mut input = Bytes::from(bad);
            let res = read_frame(&mut input);
            // A flip in the length prefix may still "fail" as a short
            // frame rather than a checksum mismatch; either way it must
            // error and consume nothing.
            assert!(res.is_err(), "bit flip at byte {byte} accepted");
        }
    }

    #[test]
    fn implausible_length_is_rejected_before_allocation() {
        let mut out = BytesMut::new();
        out.put_u32_le(u32::MAX);
        out.put_u32_le(0);
        out.put_slice(&[0u8; 16]);
        let mut input = out.freeze();
        assert!(matches!(
            read_frame(&mut input),
            Err(ReqError::CorruptBytes(_))
        ));
    }

    #[test]
    fn sketch_frames_roundtrip_and_reject_corruption() {
        let mut s = ReqSketch::<u64>::with_policy(
            ParamPolicy::fixed_k(12).unwrap(),
            RankAccuracy::HighRank,
            9,
        );
        for i in 0..50_000u64 {
            s.update(i.wrapping_mul(2654435761) % 65_537);
        }
        let framed = s.to_bytes_framed();
        let t = ReqSketch::<u64>::from_bytes_framed(&framed).unwrap();
        assert_eq!(t.len(), s.len());
        for y in (0..65_537u64).step_by(4_099) {
            assert_eq!(t.rank(&y), s.rank(&y), "rank mismatch at {y}");
        }

        // Truncated tail and flipped payload bit both reject.
        assert!(ReqSketch::<u64>::from_bytes_framed(&framed[..framed.len() - 1]).is_err());
        let mut bad = framed.to_vec();
        let mid = FRAME_HEADER_LEN + (framed.len() - FRAME_HEADER_LEN) / 2;
        bad[mid] ^= 1;
        assert!(matches!(
            ReqSketch::<u64>::from_bytes_framed(&bad),
            Err(ReqError::CorruptBytes(_))
        ));

        // Trailing bytes after the frame reject.
        let mut bad = framed.to_vec();
        bad.push(0);
        assert!(ReqSketch::<u64>::from_bytes_framed(&bad).is_err());
    }
}

//! On-media segment format: CRC-framed records and sealed-segment footers.
//!
//! Every segment is a sequence of frames:
//!
//! ```text
//! ┌──────┬────────┬─────────┬───────┬───────┬─────────────┐
//! │ type │ stream │ index   │ len   │ crc   │ payload     │
//! │ 1 B  │ 4 B LE │ 8 B LE  │ 4 B LE│ 4 B LE│ `len` bytes │
//! └──────┴────────┴─────────┴───────┴───────┴─────────────┘
//! ```
//!
//! The CRC-32C covers the header fields (type, stream, index, len) and the
//! payload, so a torn or bit-flipped frame is always detectable. It is
//! computed incrementally, header then payload (`crc32c_update`),
//! so neither [`encode_frame_into`] nor [`scan`] glues the two into a
//! scratch buffer: encoding copies the payload once, into the caller's
//! reused frame buffer, and a scan reads every payload into one reused
//! buffer. Which CRC implementation runs (SSE4.2 or tables) never changes
//! a byte. Frame types:
//!
//! * [`FRAME_DATA`] — a record of `stream` at `index`;
//! * [`FRAME_CHOP`] — a logged chop: `stream` discarded indexes `< index`,
//!   and its payload is the caller's floor (`u64` LE) as of that chop;
//! * [`FRAME_SEAL`] — the segment footer, written (and synced) when the
//!   volume rolls to a new segment. `stream` and `index` are reserved
//!   (zero). A sealed segment is immutable: recovery treats *any*
//!   irregularity inside it as corruption rather than a torn tail, and
//!   read paths may cache it as one immutable buffer.
//!
//! [`scan`] walks a segment frame by frame and reports how it ended, which
//! is the whole recovery story: a clean end, a seal, or a torn tail with
//! the last valid offset to truncate back to.

use crate::media::Media;
use crate::{crc32c, crc32c_update, StorageError};

pub(crate) const FRAME_DATA: u8 = 0xA7;
pub(crate) const FRAME_CHOP: u8 = 0xA8;
pub(crate) const FRAME_SEAL: u8 = 0xA9;
/// frame-type (1) + stream (4) + index (8) + len (4) + crc (4)
pub(crate) const HEADER_LEN: usize = 21;

/// One decoded frame header (payload not materialized).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub ftype: u8,
    pub stream: u32,
    pub index: u64,
    /// Offset of the payload within the segment.
    pub payload_offset: u64,
    pub payload_len: u32,
}

/// How a segment scan ended.
#[derive(Debug)]
pub(crate) enum ScanEnd {
    /// Every byte belongs to a valid frame and the last frame is not a
    /// seal — the segment is still open for appends. `valid_end` is
    /// carried for debug output; clean scans never truncate.
    CleanOpen {
        #[allow(dead_code)]
        valid_end: u64,
    },
    /// The segment ends with a valid [`FRAME_SEAL`] footer.
    Sealed {
        #[allow(dead_code)]
        valid_end: u64,
    },
    /// Scanning stopped early: bytes from `valid_end` on do not form a
    /// valid frame.
    Torn {
        valid_end: u64,
        offset: u64,
        detail: String,
    },
}

/// Encodes one frame (header + CRC + payload) into `out`, replacing its
/// contents. The CRC runs over the header and then the payload in place,
/// so the payload is copied exactly once: into `out`, which the caller
/// keeps and reuses for the next frame.
pub(crate) fn encode_frame_into(
    out: &mut Vec<u8>,
    ftype: u8,
    stream: u32,
    index: u64,
    payload: &[u8],
) {
    out.clear();
    out.reserve(HEADER_LEN + payload.len());
    out.push(ftype);
    out.extend_from_slice(&stream.to_le_bytes());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32c_update(crc32c(out), payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

/// [`encode_frame_into`] a fresh buffer.
#[cfg(test)]
pub(crate) fn encode_frame(ftype: u8, stream: u32, index: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, ftype, stream, index, payload);
    frame
}

/// Walks `media` frame by frame, invoking `on_frame` for every valid
/// frame (including the seal footer, if present) with its payload, and
/// reports how the segment ends. Frames after a seal footer are reported
/// as torn — a sealed segment never grows.
///
/// # Errors
///
/// Returns an error only on I/O failure; framing problems are reported
/// through [`ScanEnd::Torn`] so the caller decides whether they are a
/// recoverable torn tail or hard corruption.
pub(crate) fn scan(
    media: &mut dyn Media,
    mut on_frame: impl FnMut(Frame, &[u8]),
) -> Result<ScanEnd, StorageError> {
    let len = media.len();
    let mut offset = 0u64;
    let mut sealed = false;
    // One payload buffer for the whole scan, grown to the largest frame.
    let mut payload = Vec::new();
    loop {
        if sealed {
            return if offset == len {
                Ok(ScanEnd::Sealed { valid_end: offset })
            } else {
                Ok(ScanEnd::Torn {
                    valid_end: offset,
                    offset,
                    detail: "bytes after seal footer".into(),
                })
            };
        }
        if offset == len {
            return Ok(ScanEnd::CleanOpen { valid_end: offset });
        }
        if offset + HEADER_LEN as u64 > len {
            return Ok(ScanEnd::Torn {
                valid_end: offset,
                offset,
                detail: "truncated header".into(),
            });
        }
        let mut header = [0u8; HEADER_LEN];
        media.read_at(offset, &mut header)?;
        let ftype = header[0];
        let stream = u32::from_le_bytes(header[1..5].try_into().expect("slice"));
        let index = u64::from_le_bytes(header[5..13].try_into().expect("slice"));
        let plen = u32::from_le_bytes(header[13..17].try_into().expect("slice"));
        let crc = u32::from_le_bytes(header[17..21].try_into().expect("slice"));
        if ftype != FRAME_DATA && ftype != FRAME_CHOP && ftype != FRAME_SEAL {
            return Ok(ScanEnd::Torn {
                valid_end: offset,
                offset,
                detail: format!("bad frame type {ftype:#x}"),
            });
        }
        let body_end = offset + HEADER_LEN as u64 + plen as u64;
        if body_end > len {
            return Ok(ScanEnd::Torn {
                valid_end: offset,
                offset,
                detail: "frame extends past segment".into(),
            });
        }
        payload.resize(plen as usize, 0);
        media.read_at(offset + HEADER_LEN as u64, &mut payload)?;
        if crc32c_update(crc32c(&header[..17]), &payload) != crc {
            return Ok(ScanEnd::Torn {
                valid_end: offset,
                offset,
                detail: "crc mismatch".into(),
            });
        }
        on_frame(
            Frame {
                ftype,
                stream,
                index,
                payload_offset: offset + HEADER_LEN as u64,
                payload_len: plen,
            },
            &payload,
        );
        if ftype == FRAME_SEAL {
            sealed = true;
        }
        offset = body_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{MediaFactory, MemFactory};

    fn collect(media: &mut dyn Media) -> (Vec<Frame>, ScanEnd) {
        let mut frames = Vec::new();
        let end = scan(media, |f, _| frames.push(f)).unwrap();
        (frames, end)
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // The on-disk format, byte for byte: a change here breaks every
        // volume already written.
        let golden: &[u8] = &[
            0xA7, // FRAME_DATA
            0x07, 0x00, 0x00, 0x00, // stream 7
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // index 3
            0x05, 0x00, 0x00, 0x00, // len 5
            0x2D, 0xBA, 0x84, 0xB2, // CRC-32C 0xB284BA2D
            b'h', b'e', b'l', b'l', b'o',
        ];
        assert_eq!(encode_frame(FRAME_DATA, 7, 3, b"hello"), golden);
    }

    #[test]
    fn reused_buffer_encodes_each_frame_afresh() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, FRAME_DATA, 1, 0, &[9u8; 4_000]);
        encode_frame_into(&mut buf, FRAME_CHOP, 2, 5, b"floor");
        assert_eq!(buf, encode_frame(FRAME_CHOP, 2, 5, b"floor"));
    }

    #[test]
    fn scan_roundtrips_frames_and_detects_seal() {
        let f = MemFactory::new();
        let mut m = f.open("seg").unwrap();
        m.append(&encode_frame(FRAME_DATA, 7, 0, b"hello")).unwrap();
        m.append(&encode_frame(FRAME_CHOP, 7, 1, &[])).unwrap();
        let (frames, end) = collect(m.as_mut());
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].stream, 7);
        assert_eq!(frames[0].payload_len, 5);
        assert!(matches!(end, ScanEnd::CleanOpen { .. }));

        m.append(&encode_frame(FRAME_SEAL, 0, 3, &[])).unwrap();
        let (frames, end) = collect(m.as_mut());
        assert_eq!(frames.len(), 3);
        assert!(matches!(end, ScanEnd::Sealed { .. }));
    }

    #[test]
    fn scan_reports_torn_tail_and_bytes_after_seal() {
        let f = MemFactory::new();
        let mut m = f.open("seg").unwrap();
        let frame = encode_frame(FRAME_DATA, 1, 0, b"abc");
        m.append(&frame).unwrap();
        m.append(&frame[..10]).unwrap(); // torn second frame
        let (frames, end) = collect(m.as_mut());
        assert_eq!(frames.len(), 1);
        match end {
            ScanEnd::Torn { valid_end, .. } => assert_eq!(valid_end, frame.len() as u64),
            other => panic!("expected torn tail, got {other:?}"),
        }

        let mut s = f.open("sealed").unwrap();
        s.append(&encode_frame(FRAME_SEAL, 0, 0, &[])).unwrap();
        s.append(b"garbage").unwrap();
        let (_, end) = collect(s.as_mut());
        assert!(matches!(end, ScanEnd::Torn { .. }));
    }
}

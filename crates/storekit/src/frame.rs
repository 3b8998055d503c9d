//! The one record format of both storekit files: a length-framed,
//! sequence-numbered, checksummed payload (DESIGN.md §12d, §13a).
//!
//! ```text
//! [u32 BE payload len] [u64 BE seq] [u64 BE checksum] [payload]
//! ```
//!
//! The checksum is FNV-1a over the len, seq and payload bytes, so a torn
//! frame — cut anywhere, its 20-byte header included — never verifies,
//! and a frame's bytes are a pure function of its seq and payload. A
//! snapshot is a header and one frame per section; a write-ahead log is a
//! header and one frame per delta.

use std::ops::Range;

use crate::StoreError;

/// Bytes of framing ahead of each payload.
pub const FRAME_HEADER_LEN: usize = 4 + 8 + 8;

/// FNV-1a over `parts`, in order.
fn checksum(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in parts.iter().flat_map(|part| part.iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A big-endian integer from up to eight bytes.
pub(crate) fn be(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |acc, &b| acc << 8 | u64::from(b))
}

/// Appends to `out` the frame numbered `seq` whose payload is `payload`'s
/// parts, concatenated. A payload wider than `u32::MAX` is `TooLarge`.
pub(crate) fn encode(out: &mut Vec<u8>, seq: u64, payload: &[&[u8]]) -> Result<(), StoreError> {
    let size: usize = payload.iter().map(|part| part.len()).sum();
    let len = u32::try_from(size).map_err(|_| StoreError::TooLarge {
        what: "frame payload".into(),
        size,
        max: u32::MAX as usize,
    })?;
    let (len, seq) = (len.to_be_bytes(), seq.to_be_bytes());
    let mut parts = vec![&len[..], &seq[..]];
    parts.extend_from_slice(payload);
    out.reserve(FRAME_HEADER_LEN + size);
    out.extend_from_slice(&len);
    out.extend_from_slice(&seq);
    out.extend_from_slice(&checksum(&parts).to_be_bytes());
    for part in payload {
        out.extend_from_slice(part);
    }
    Ok(())
}

/// One intact frame: its seq and where its payload lies in the scanned
/// bytes.
pub(crate) struct Frame {
    pub seq: u64,
    pub payload: Range<usize>,
}

/// The intact frames of `bytes` from offset `start` on, in order, and the
/// offset just past the last of them. That offset is `bytes.len()` unless
/// a frame is torn — too short for its length, or failing its checksum —
/// where the scan stops.
pub(crate) fn scan(bytes: &[u8], start: usize) -> (Vec<Frame>, usize) {
    let mut frames = Vec::new();
    let mut end = start;
    while let Some(frame) = read_at(bytes, end) {
        end = frame.payload.end;
        frames.push(frame);
    }
    (frames, end)
}

/// The first intact frame that starts after offset `after` and whose seq
/// `wanted` accepts, with its offset. The seq is read before the checksum,
/// so a filter that rejects almost every seq keeps the search linear.
pub(crate) fn find_after(
    bytes: &[u8],
    after: usize,
    wanted: impl Fn(u64) -> bool,
) -> Option<(usize, Frame)> {
    (after.saturating_add(1)..bytes.len()).find_map(|at| {
        let head = bytes.get(at..at.checked_add(FRAME_HEADER_LEN)?)?;
        if !wanted(be(&head[4..12])) {
            return None;
        }
        read_at(bytes, at).map(|frame| (at, frame))
    })
}

fn read_at(bytes: &[u8], at: usize) -> Option<Frame> {
    let head = bytes.get(at..at.checked_add(FRAME_HEADER_LEN)?)?;
    let start = at + FRAME_HEADER_LEN;
    let payload = start..start.checked_add(be(&head[..4]) as usize)?;
    let body = bytes.get(payload.clone())?;
    (checksum(&[&head[..12], body]) == be(&head[12..]))
        .then(|| Frame { seq: be(&head[4..12]), payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for (seq, payload) in (7u64..).zip(payloads) {
            encode(&mut out, seq, &[payload]).unwrap();
        }
        out
    }

    #[test]
    fn payload_round_trips() {
        let bytes = frames(&[b"alpha", b"", b"gamma"]);
        let (got, end) = scan(&bytes, 0);
        assert_eq!(end, bytes.len());
        let read: Vec<(u64, &[u8])> =
            got.iter().map(|f| (f.seq, &bytes[f.payload.clone()])).collect();
        assert_eq!(read, vec![(7, &b"alpha"[..]), (8, b""), (9, b"gamma")]);
        // Parts concatenate: the frame is the frame of the joined payload.
        let mut split = Vec::new();
        encode(&mut split, 7, &[b"al", b"", b"pha"]).unwrap();
        assert_eq!(split, frames(&[b"alpha"]));
    }

    #[test]
    fn torn_frame_is_detected() {
        let bytes = frames(&[b"kept", b"second-record-payload"]);
        let second = FRAME_HEADER_LEN + 4;
        // Every cut inside the second frame, header included, keeps the first.
        for cut in second..bytes.len() {
            assert_eq!(scan(&bytes[..cut], 0).1, second, "cut at {cut}");
        }
        // Every flipped bit of the second frame, header included, too.
        for at in second..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[at] ^= 1 << bit;
                let (got, end) = scan(&damaged, 0);
                assert_eq!((got.len(), end), (1, second), "bit {bit} of byte {at}");
            }
        }
    }
}

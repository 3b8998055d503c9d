//! The fixed-size page: 4 KiB, a checksummed header, one payload.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "USK1"
//!      4     4  page id
//!      8     1  kind (meta / blob)
//!      9     7  reserved (zero)
//!     16     4  payload length
//!     20     4  reserved (zero)
//!     24     8  checksum (FNV-1a over every other byte of the page)
//!     32  4064  payload, zero-padded to the end of the page
//! ```
//!
//! The checksum covers bytes `[0, 24)` and `[32, 4096)`; a torn write —
//! only a prefix of the page reaching disk — is therefore detected on the
//! next read as a checksum mismatch and surfaces as a typed
//! [`StoreError::Corrupt`], never as a panic. The padding is zeroed on
//! every write, so a page image is a pure function of its id, kind and
//! payload — the page-level half of the snapshot byte-identity contract.

use crate::StoreError;

/// Page size in bytes.
pub const PAGE_SIZE: usize = 4096;
/// Header bytes preceding the payload.
pub const HEADER_SIZE: usize = 32;
/// Payload capacity of one page.
pub const PAYLOAD_SIZE: usize = PAGE_SIZE - HEADER_SIZE;
/// The file magic, "USK1".
pub const MAGIC: [u8; 4] = *b"USK1";

const OFF_MAGIC: usize = 0;
const OFF_PAGE_ID: usize = 4;
const OFF_KIND: usize = 8;
const OFF_PAYLOAD_LEN: usize = 16;
const OFF_CHECKSUM: usize = 24;

/// What a page stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Page 0: snapshot directory.
    Meta,
    /// A run of raw section bytes.
    Blob,
}

impl PageKind {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            PageKind::Meta => 0,
            PageKind::Blob => 1,
        }
    }

    /// Parses an on-disk tag.
    pub fn from_tag(tag: u8) -> Option<PageKind> {
        match tag {
            0 => Some(PageKind::Meta),
            1 => Some(PageKind::Blob),
            _ => None,
        }
    }
}

/// One 4 KiB page image.
#[derive(Clone)]
pub struct Page {
    bytes: [u8; PAGE_SIZE],
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.id())
            .field("kind_tag", &self.bytes[OFF_KIND])
            .field("payload_len", &self.payload_len())
            .finish()
    }
}

impl Page {
    /// A zeroed page initialized with the given id and kind (valid
    /// checksum, empty payload).
    pub fn new(id: u32, kind: PageKind) -> Page {
        let mut p = Page { bytes: [0; PAGE_SIZE] };
        p.bytes[OFF_MAGIC..OFF_MAGIC + 4].copy_from_slice(&MAGIC);
        p.bytes[OFF_PAGE_ID..OFF_PAGE_ID + 4].copy_from_slice(&id.to_le_bytes());
        p.bytes[OFF_KIND] = kind.tag();
        p.seal();
        p
    }

    /// Wraps raw bytes read from a file, verifying magic, id, kind tag,
    /// and checksum. A short or corrupted (torn) image is a typed error.
    pub fn from_bytes(expected_id: u32, raw: &[u8]) -> Result<Page, StoreError> {
        let bytes: [u8; PAGE_SIZE] = raw.try_into().map_err(|_| StoreError::Corrupt {
            page_id: expected_id,
            reason: format!("short page image: {} bytes", raw.len()),
        })?;
        let p = Page { bytes };
        if p.bytes[OFF_MAGIC..OFF_MAGIC + 4] != MAGIC {
            return Err(StoreError::Corrupt { page_id: expected_id, reason: "bad magic".into() });
        }
        if p.id() != expected_id {
            return Err(StoreError::Corrupt {
                page_id: expected_id,
                reason: format!("page id mismatch: header says {}", p.id()),
            });
        }
        if PageKind::from_tag(p.bytes[OFF_KIND]).is_none() {
            return Err(StoreError::Corrupt {
                page_id: expected_id,
                reason: format!("unknown page kind {}", p.bytes[OFF_KIND]),
            });
        }
        let stored = u64::from_le_bytes(
            p.bytes[OFF_CHECKSUM..OFF_CHECKSUM + 8].try_into().unwrap_or([0; 8]),
        );
        let actual = p.compute_checksum();
        if stored != actual {
            return Err(StoreError::Corrupt {
                page_id: expected_id,
                reason: format!("checksum mismatch: stored {stored:#018x}, actual {actual:#018x}"),
            });
        }
        Ok(p)
    }

    /// The raw page image (checksum must be [`sealed`](Self::seal) first).
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Page id from the header.
    pub fn id(&self) -> u32 {
        u32::from_le_bytes(self.bytes[OFF_PAGE_ID..OFF_PAGE_ID + 4].try_into().unwrap_or([0; 4]))
    }

    /// Page kind from the header. Both constructors admit only known
    /// tags, so the fallback is never taken.
    pub fn kind(&self) -> PageKind {
        PageKind::from_tag(self.bytes[OFF_KIND]).unwrap_or(PageKind::Blob)
    }

    fn payload_len(&self) -> usize {
        let raw = self.bytes[OFF_PAYLOAD_LEN..OFF_PAYLOAD_LEN + 4].try_into().unwrap_or([0; 4]);
        u32::from_le_bytes(raw) as usize
    }

    /// Stored checksum.
    pub fn checksum(&self) -> u64 {
        u64::from_le_bytes(self.bytes[OFF_CHECKSUM..OFF_CHECKSUM + 8].try_into().unwrap_or([0; 8]))
    }

    /// FNV-1a over every byte except the checksum field itself.
    fn compute_checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.bytes[..OFF_CHECKSUM]);
        eat(&self.bytes[HEADER_SIZE..]);
        h
    }

    /// Recomputes and stores the checksum. Must be the last mutation
    /// before the page is written out.
    pub fn seal(&mut self) {
        let sum = self.compute_checksum();
        self.bytes[OFF_CHECKSUM..OFF_CHECKSUM + 8].copy_from_slice(&sum.to_le_bytes());
    }

    /// True when the stored checksum matches the content.
    pub fn verify(&self) -> bool {
        self.checksum() == self.compute_checksum()
    }

    /// Replaces the payload, zeroing the rest of the page and recording
    /// the length in the header.
    pub fn set_payload(&mut self, data: &[u8]) -> Result<(), StoreError> {
        if data.len() > PAYLOAD_SIZE {
            return Err(StoreError::TooLarge {
                what: "page payload".into(),
                size: data.len(),
                max: PAYLOAD_SIZE,
            });
        }
        self.bytes[HEADER_SIZE..HEADER_SIZE + data.len()].copy_from_slice(data);
        for b in &mut self.bytes[HEADER_SIZE + data.len()..] {
            *b = 0;
        }
        self.bytes[OFF_PAYLOAD_LEN..OFF_PAYLOAD_LEN + 4]
            .copy_from_slice(&(data.len() as u32).to_le_bytes());
        Ok(())
    }

    /// The payload, by the length the header records.
    pub fn payload(&self) -> Result<&[u8], StoreError> {
        let len = self.payload_len();
        self.bytes.get(HEADER_SIZE..HEADER_SIZE + len).ok_or_else(|| StoreError::Corrupt {
            page_id: self.id(),
            reason: format!("payload length {len} exceeds page"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_sealed_and_empty() {
        let p = Page::new(7, PageKind::Blob);
        assert!(p.verify());
        assert_eq!(p.id(), 7);
        assert_eq!(p.kind(), PageKind::Blob);
        assert_eq!(p.payload().unwrap(), b"");
    }

    #[test]
    fn payload_round_trips() {
        let mut p = Page::new(3, PageKind::Blob);
        p.set_payload(b"section bytes").unwrap();
        p.seal();
        assert_eq!(p.payload().unwrap(), b"section bytes");
        assert!(p.set_payload(&vec![0u8; PAYLOAD_SIZE + 1]).is_err());
        assert!(p.set_payload(&vec![9u8; PAYLOAD_SIZE]).is_ok(), "exact fit is fine");
    }

    #[test]
    fn torn_page_is_detected() {
        let mut p = Page::new(5, PageKind::Blob);
        // The payload must reach past the midpoint, else tearing the
        // second half changes nothing.
        p.set_payload(&vec![0xAB; 3000]).unwrap();
        p.seal();
        // Simulate a torn write: only the first half of the image.
        let mut torn = [0u8; PAGE_SIZE];
        torn[..PAGE_SIZE / 2].copy_from_slice(&p.as_bytes()[..PAGE_SIZE / 2]);
        let err = Page::from_bytes(5, &torn).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { page_id: 5, .. }), "{err}");
    }

    #[test]
    fn wrong_id_magic_and_kind_detected() {
        let mut p = Page::new(5, PageKind::Blob);
        p.seal();
        assert!(Page::from_bytes(6, p.as_bytes()).is_err(), "id mismatch");
        let mut bad_magic = *p.as_bytes();
        bad_magic[0] = b'X';
        assert!(Page::from_bytes(5, &bad_magic).is_err());
        assert!(Page::from_bytes(5, &[0u8; 10]).is_err(), "short image");
        // A version-1 b-tree leaf: correctly sealed, kind tag retired.
        let mut leaf = p.clone();
        leaf.bytes[OFF_KIND] = 2;
        leaf.seal();
        assert!(Page::from_bytes(5, leaf.as_bytes()).is_err(), "unknown kind");
    }
}

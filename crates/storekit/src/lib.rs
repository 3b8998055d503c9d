//! `storekit` — persistent paged storage for the unified engine.
//!
//! The crate turns the engine's in-memory substrates (document store,
//! BM25 inverted index, heterogeneous graph, stats catalog) into one
//! byte-stable snapshot file, structured as:
//!
//! - [`page`] — fixed 4 KiB pages: checksummed header + one payload;
//! - [`pager`] — page-granular file I/O hosting the two injected storage
//!   fault sites (torn page, failed flush);
//! - [`snapshot`] — the page 0 directory format, named sections on
//!   consecutive blob pages, and the write-temp → flush → verify → rename
//!   commit protocol;
//! - [`codec`] — the little-endian byte codec snapshot payloads use;
//! - [`wal`] — the segmented write-ahead log of ingest deltas.
//!
//! Each page of a snapshot is written once (section pages in order, the
//! directory last) and the file is read back whole, so there is no page
//! cache and no index structure on disk.
//!
//! Determinism contract (DESIGN.md §12): page images and whole snapshot
//! files are pure functions of the section bytes and their order,
//! so two engine builds from the same seed produce byte-identical
//! snapshot files, and a reopened snapshot answers every workload query
//! byte-identically to the in-memory build that wrote it.
//!
//! Like the other engine crates, storekit is panic-free on untrusted
//! input: torn pages, truncated files, and bad directories surface as
//! typed [`StoreError`]s, and injected faults propagate as
//! [`StoreError::Fault`] for the engine's degradation ladder.

pub mod codec;
pub mod page;
pub mod pager;
pub mod snapshot;
pub mod wal;

pub use codec::{Decoder, Encoder};
pub use page::{Page, PageKind, PAGE_SIZE, PAYLOAD_SIZE};
pub use pager::Pager;
pub use snapshot::{Snapshot, SnapshotWriter};
pub use wal::{Wal, WalRecord, WalRecovery};

use faultkit::InjectedFault;

/// Typed storage errors: every failure mode of the paged layer, injected
/// or organic, without panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Operating-system I/O failure (open, read, write, rename).
    Io(String),
    /// A page failed structural validation: bad magic, wrong id echo,
    /// unknown kind, checksum mismatch (e.g. a torn write), or a payload
    /// that is not the piece of its section the directory implies.
    Corrupt {
        /// The page that failed validation.
        page_id: u32,
        /// What was wrong with it.
        reason: String,
    },
    /// An injected fault fired at a storage site (torn page write or
    /// failed flush); carries the site and key for the trace.
    Fault(InjectedFault),
    /// A snapshot payload failed to decode (truncation, bad framing).
    Decode(String),
    /// The snapshot directory (or any single payload) does not fit one
    /// page. Section contents have no size limit.
    TooLarge {
        /// What overflowed.
        what: String,
        /// Its size in bytes.
        size: usize,
        /// The limit it exceeded.
        max: usize,
    },
    /// The snapshot directory itself is malformed or inconsistent.
    InvalidSnapshot(String),
    /// A write-ahead-log segment is malformed somewhere other than its
    /// truncatable tail (bad header, non-contiguous chain, mid-log frame
    /// damage).
    WalCorrupt {
        /// The segment index that failed validation.
        segment: u32,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage i/o: {e}"),
            StoreError::Corrupt { page_id, reason } => {
                write!(f, "page {page_id} corrupt: {reason}")
            }
            StoreError::Fault(fault) => write!(f, "storage fault: {fault}"),
            StoreError::Decode(e) => write!(f, "snapshot decode: {e}"),
            StoreError::TooLarge { what, size, max } => {
                write!(f, "{what} is {size} bytes, limit {max}")
            }
            StoreError::InvalidSnapshot(e) => write!(f, "invalid snapshot: {e}"),
            StoreError::WalCorrupt { segment, reason } => {
                write!(f, "wal segment {segment} corrupt: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<InjectedFault> for StoreError {
    fn from(fault: InjectedFault) -> Self {
        StoreError::Fault(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_useful_context() {
        let e = StoreError::Corrupt { page_id: 9, reason: "checksum mismatch".into() };
        assert!(e.to_string().contains("page 9"));
        let e = StoreError::TooLarge { what: "snapshot directory".into(), size: 5000, max: 4064 };
        assert!(e.to_string().contains("5000"));
        assert!(e.to_string().contains("4064"));
    }
}

//! `storekit` — persistent storage for the unified engine: a byte-stable
//! snapshot file and a write-ahead log, each one file of the same
//! checksummed frames.
//!
//! - [`frame`] — the record format both files share, `[u32 len][u64 seq]
//!   [u64 FNV-1a][payload]`, with its one writer and one scanner;
//! - [`snapshot`] — a header, one frame per named section and a closing
//!   frame, committed write-temp → sync → verify → rename;
//! - [`wal`] — the write-ahead log of ingest deltas;
//! - [`codec`] — the little-endian byte codec snapshot payloads use.
//!
//! Both files are written front to back and read back whole, so there is
//! no page, no cache and no index structure on disk.
//!
//! Determinism contract (DESIGN.md §12): a snapshot file is a pure
//! function of its section names, bytes and order, so two engine builds
//! from the same seed produce byte-identical snapshot files, and a
//! reopened snapshot answers every workload query byte-identically to the
//! in-memory build that wrote it.
//!
//! Like the other engine crates, storekit is panic-free on untrusted
//! input: torn frames, truncated files and bad headers surface as typed
//! [`StoreError`]s, and injected faults propagate as
//! [`StoreError::Fault`] for the engine's degradation ladder.

// Panic-free on untrusted input (DESIGN.md §8, §10).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod codec;
pub mod frame;
pub mod snapshot;
pub mod wal;

pub use codec::{Decoder, Encoder};
pub use frame::FRAME_HEADER_LEN;
pub use snapshot::{Snapshot, SnapshotWriter};
pub use wal::{Wal, WalRecord, WalRecovery};

use std::fs::File;
use std::path::{Path, PathBuf};

use faultkit::InjectedFault;

/// Typed storage errors: every failure mode of the storage layer,
/// injected or organic, without panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Operating-system I/O failure (open, read, write, rename).
    Io(String),
    /// A snapshot frame failed validation: cut short (a torn write or a
    /// truncated file) or failing its checksum.
    Corrupt(String),
    /// An injected fault fired at a storage site (torn write or failed
    /// flush); carries the site and key for the trace.
    Fault(InjectedFault),
    /// A snapshot payload failed to decode (truncation, bad framing, a
    /// count larger than the bytes left).
    Decode(String),
    /// A frame payload is wider than its `u32` length field.
    TooLarge {
        /// What overflowed.
        what: String,
        /// Its size in bytes.
        size: usize,
        /// The limit it exceeded.
        max: usize,
    },
    /// A snapshot's header or frame sequence is malformed: bad magic,
    /// another format version, no closing frame, a missing section.
    InvalidSnapshot(String),
    /// The write-ahead log is malformed somewhere other than its
    /// truncatable tail: bad header or a break in the record sequence.
    WalCorrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage i/o: {e}"),
            StoreError::Corrupt(e) => write!(f, "snapshot corrupt: {e}"),
            StoreError::Fault(fault) => write!(f, "storage fault: {fault}"),
            StoreError::Decode(e) => write!(f, "snapshot decode: {e}"),
            StoreError::TooLarge { what, size, max } => {
                write!(f, "{what} is {size} bytes, limit {max}")
            }
            StoreError::InvalidSnapshot(e) => write!(f, "invalid snapshot: {e}"),
            StoreError::WalCorrupt(e) => write!(f, "wal corrupt: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<InjectedFault> for StoreError {
    fn from(fault: InjectedFault) -> Self {
        StoreError::Fault(fault)
    }
}

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{ctx} {}: {e}", path.display()))
}

/// `<path>.tmp`: where a file is built before it is renamed over `path`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// The directory holding `path`, opened for the sync that follows a rename
/// into it: the rename survives a power loss, not only a process crash,
/// once the directory entry it rewrote is on disk.
fn parent_dir(path: &Path) -> Result<File, StoreError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir).map_err(|e| io_err("open directory", dir, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_useful_context() {
        let e = StoreError::Corrupt("frame 3 at byte 96 is torn".into());
        assert!(e.to_string().contains("frame 3"));
        let e = StoreError::TooLarge { what: "frame payload".into(), size: 5000, max: 4064 };
        assert!(e.to_string().contains("5000"));
        assert!(e.to_string().contains("4064"));
    }
}

//! Snapshot files: named byte sections, one checksummed frame each.
//!
//! ```text
//! "USKSNAP1" [u32 LE version]
//! frame seq 1..=n   payload = name (u32 LE length, UTF-8), then the section's bytes
//! frame seq n + 1   payload = the empty name, then n as u64 LE (the closing frame)
//! ```
//!
//! The frames are [`crate::frame`]'s, the write-ahead log's record format.
//! The closing frame is what makes a file cut at a frame boundary fail to
//! open rather than read as a shorter snapshot, and why no section may be
//! named `""`.
//!
//! Crash consistency: the writer builds `<path>.tmp`;
//! [`SnapshotWriter::commit`] writes the closing frame, syncs, re-opens
//! the file as a [`Snapshot`] (every frame checksum-verified), and only
//! then renames it over `path`. A torn write or failed flush (the two
//! injected fault sites) surfaces as a typed error and leaves any previous
//! snapshot at `path` untouched; the next writer truncates the leftover.
//!
//! Determinism: the file is a pure function of the section names, bytes
//! and order, so identical sections produce byte-identical files —
//! enforced by the golden frame table and the CI storage gate.

use std::fs::File;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

use faultkit::{FaultPlan, Site};

use crate::codec::{Decoder, Encoder};
use crate::frame;
use crate::{io_err, parent_dir, tmp_path, StoreError};

const SNAP_MAGIC: &[u8; 8] = b"USKSNAP1";
const SNAP_VERSION: u32 = 9;
const HEADER_LEN: usize = 8 + 4;

fn invalid(reason: impl Into<String>) -> StoreError {
    StoreError::InvalidSnapshot(reason.into())
}

/// Builds a snapshot file section by section.
pub struct SnapshotWriter {
    file: File,
    tmp_path: PathBuf,
    faults: FaultPlan,
    /// Section names in the order written.
    names: Vec<String>,
    /// What precedes the next frame in the file: the header, until the
    /// first frame is written.
    pending: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a snapshot that will commit to `path`, building it in
    /// `<path>.tmp` (truncating any leftover there).
    pub fn create(path: &Path, faults: FaultPlan) -> Result<SnapshotWriter, StoreError> {
        let tmp_path = tmp_path(path);
        let file = File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, e))?;
        let mut pending = SNAP_MAGIC.to_vec();
        pending.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        Ok(SnapshotWriter { file, tmp_path, faults, names: Vec::new(), pending })
    }

    /// Writes `bytes` as section `name`, the next frame of the file.
    pub fn add_section(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        if name.is_empty() {
            return Err(invalid("the empty section name is the closing frame's"));
        }
        if self.names.iter().any(|n| n == name) {
            return Err(invalid(format!("duplicate section {name:?}")));
        }
        self.write_frame(name, bytes)?;
        self.names.push(name.to_string());
        Ok(())
    }

    /// Writes frame `names.len() + 1`, holding `name` and then `bytes`.
    ///
    /// Fault site [`Site::StoreWrite`] (key `section:<name>`, `section:`
    /// for the closing frame): only the first half of the frame reaches
    /// the file before the typed error returns — a genuine torn frame that
    /// the verify step, and any later open, rejects.
    fn write_frame(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let mut name_field = Encoder::new();
        name_field.str(name);
        let mut image = std::mem::take(&mut self.pending);
        let start = image.len();
        let seq = self.names.len() as u64 + 1;
        frame::encode(&mut image, seq, &[&name_field.into_bytes(), bytes])?;
        let torn = self.faults.check(Site::StoreWrite, &format!("section:{name}")).err();
        let end = if torn.is_some() { start + (image.len() - start) / 2 } else { image.len() };
        #[expect(clippy::disallowed_methods, reason = "covered by Site::StoreWrite above")]
        self.file.write_all(&image[..end]).map_err(|e| io_err("write", &self.tmp_path, e))?;
        torn.map_or(Ok(()), |fault| Err(StoreError::Fault(fault)))
    }

    /// Writes the closing frame, syncs, verifies the whole file, renames
    /// it over `path` and syncs the directory the rename changed. On any
    /// error before the rename the target is untouched.
    ///
    /// Fault site [`Site::StoreFlush`] (key `file`): returns the typed
    /// error without syncing, modelling a lost `fsync`.
    pub fn commit(mut self, path: &Path) -> Result<(), StoreError> {
        let count = self.names.len() as u64;
        self.write_frame("", &count.to_le_bytes())?;
        self.faults.check(Site::StoreFlush, "file").map_err(StoreError::Fault)?;
        #[expect(clippy::disallowed_methods, reason = "covered by Site::StoreFlush above")]
        self.file.sync_all().map_err(|e| io_err("sync", &self.tmp_path, e))?;
        drop(self.file);
        Snapshot::open(&self.tmp_path)?;
        std::fs::rename(&self.tmp_path, path)
            .map_err(|e| StoreError::Io(format!("rename snapshot into place: {e}")))?;
        #[expect(clippy::disallowed_methods, reason = "after the rename: old or new, both whole")]
        parent_dir(path)?.sync_all().map_err(|e| io_err("sync the directory of", path, e))
    }
}

/// A snapshot file, read whole and verified.
pub struct Snapshot {
    bytes: Vec<u8>,
    /// `(name, byte range)` of each section, in file order.
    sections: Vec<(String, Range<usize>)>,
}

impl Snapshot {
    /// Reads the file at `path` and verifies its header, every frame's
    /// checksum, the frame sequence and the closing frame.
    pub fn open(path: &Path) -> Result<Snapshot, StoreError> {
        let bytes = std::fs::read(path).map_err(|e| io_err("read", path, e))?;
        if !bytes.starts_with(SNAP_MAGIC) {
            return Err(invalid("bad snapshot magic"));
        }
        let version = bytes.get(8..HEADER_LEN).ok_or_else(|| invalid("file ends in its header"))?;
        let version = u32::from_le_bytes([version[0], version[1], version[2], version[3]]);
        if version != SNAP_VERSION {
            return Err(invalid(format!("unsupported snapshot version {version}")));
        }
        let (frames, end) = frame::scan(&bytes, HEADER_LEN);
        if end != bytes.len() {
            let n = frames.len() + 1;
            return Err(StoreError::Corrupt(format!("frame {n} at byte {end} is torn")));
        }
        if let Some((frame, seq)) = frames.iter().zip(1u64..).find(|(f, seq)| f.seq != *seq) {
            return Err(invalid(format!("frame {seq} carries seq {}", frame.seq)));
        }
        let mut sections = Vec::with_capacity(frames.len());
        for frame in &frames {
            let mut d = Decoder::new(&bytes[frame.payload.clone()]);
            let name = d.str()?;
            sections.push((name, frame.payload.end - d.remaining()..frame.payload.end));
        }
        let closed = sections.pop().filter(|(name, count)| {
            name.is_empty() && bytes[count.clone()] == (sections.len() as u64).to_le_bytes()
        });
        if closed.is_none() {
            return Err(invalid(format!("no closing frame after {} sections", sections.len())));
        }
        Ok(Snapshot { bytes, sections })
    }

    /// Section `name`'s bytes.
    pub fn section(&self, name: &str) -> Result<&[u8], StoreError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, range)| &self.bytes[range.clone()])
            .ok_or_else(|| invalid(format!("no section {name:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("storekit-snap-{}-{name}.usk", std::process::id()));
        p
    }

    fn write(path: &Path, sections: &[(&str, &[u8])]) -> Vec<u8> {
        let mut w = SnapshotWriter::create(path, FaultPlan::disabled()).unwrap();
        for (name, bytes) in sections {
            w.add_section(name, bytes).unwrap();
        }
        w.commit(path).unwrap();
        std::fs::read(path).unwrap()
    }

    #[test]
    fn unknown_snapshot_version_is_rejected() {
        let path = tmp("verbump");
        let clean = write(&path, &[("docs", b"payload")]);
        // Another format version in a well-formed file: the retired paged
        // versions 1–3, version 4 (no string value sets in the engine's
        // statistics), version 5 (a persisted statistics section), version 6
        // (a persisted BM25 index), version 7 (graph nodes with ids, labels,
        // chunk document ids and record table names), version 8 (a stored
        // entity-name index, `graph.entities`) and a future one.
        for other in [1, 2, 3, 4, 5, 6, 7, 8, SNAP_VERSION + 1] {
            let mut patched = clean.clone();
            patched[8..HEADER_LEN].copy_from_slice(&u32::to_le_bytes(other));
            std::fs::write(&path, &patched).unwrap();
            match Snapshot::open(&path) {
                Err(StoreError::InvalidSnapshot(reason)) => {
                    assert_eq!(reason, format!("unsupported snapshot version {other}"))
                }
                Err(e) => panic!("expected InvalidSnapshot, got {e}"),
                Ok(_) => panic!("version-{other} snapshot must not open"),
            }
        }
        // A paged file (version 3 and older) starts with its page magic.
        let mut paged = b"USK1".to_vec();
        paged.resize(4096, 0);
        std::fs::write(&path, &paged).unwrap();
        assert!(matches!(Snapshot::open(&path), Err(StoreError::InvalidSnapshot(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sections_round_trip() {
        let path = tmp("roundtrip");
        let mut w = SnapshotWriter::create(&path, FaultPlan::disabled()).unwrap();
        let big = (0..20_000u32).flat_map(|i| i.to_le_bytes()).collect::<Vec<u8>>();
        w.add_section("docs", &big).unwrap();
        w.add_section("empty", b"").unwrap();
        w.add_section("tail", b"after the empty one").unwrap();
        assert!(matches!(w.add_section("docs", b"again"), Err(StoreError::InvalidSnapshot(_))));
        assert!(matches!(w.add_section("", b"closing?"), Err(StoreError::InvalidSnapshot(_))));
        w.commit(&path).unwrap();

        let s = Snapshot::open(&path).unwrap();
        // Any order, any number of times.
        assert_eq!(s.section("tail").unwrap(), b"after the empty one");
        assert_eq!(s.section("docs").unwrap(), big);
        assert_eq!(s.section("empty").unwrap(), b"");
        assert_eq!(s.section("docs").unwrap(), big);
        assert!(matches!(s.section("missing"), Err(StoreError::InvalidSnapshot(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn same_inputs_produce_byte_identical_files() {
        let build = |name: &str| -> Vec<u8> {
            let path = tmp(name);
            let bytes = write(&path, &[("a", &[3u8; 10_000]), ("b", b"tail")]);
            let _ = std::fs::remove_file(&path);
            bytes
        };
        assert_eq!(build("ident-a"), build("ident-b"));
    }

    #[test]
    fn commit_under_torn_write_fails_and_preserves_target() {
        let path = tmp("torn-commit");
        // A previous good snapshot sits at the target.
        let before = write(&path, &[("v", b"version-1")]);

        // Rebuild with the torn-write site firing on every frame.
        let plan = FaultPlan::single(Site::StoreWrite).with_seed(7);
        let result = SnapshotWriter::create(&path, plan).and_then(|mut w| {
            w.add_section("v", b"version-2")?;
            w.commit(&path)
        });
        match result {
            Err(StoreError::Fault(f)) => {
                assert_eq!((f.site, f.key.as_str()), (Site::StoreWrite, "section:v"))
            }
            other => panic!("expected a torn write, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), before, "target untouched");
        // The torn frame really is on disk: the header and half a frame.
        let torn = std::fs::read(tmp_path(&path)).unwrap();
        assert!(torn.len() > HEADER_LEN && torn.len() < before.len(), "{} bytes", torn.len());
        assert!(matches!(Snapshot::open(&tmp_path(&path)), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tmp_path(&path));
    }

    #[test]
    fn commit_under_failed_flush_fails_and_preserves_target() {
        let path = tmp("flush-commit");
        let before = write(&path, &[("v", b"version-1")]);

        let plan = FaultPlan::single(Site::StoreFlush).with_seed(7);
        let result = SnapshotWriter::create(&path, plan).and_then(|mut w| {
            w.add_section("v", b"version-2")?;
            w.commit(&path)
        });
        assert!(matches!(result, Err(StoreError::Fault(_))), "{result:?}");
        assert_eq!(std::fs::read(&path).unwrap(), before, "target untouched");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tmp_path(&path));
    }

    #[test]
    fn truncated_file_is_rejected_on_open() {
        let path = tmp("truncated");
        let full = write(&path, &[("v", &[1u8; 9_000])]);
        let open = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            Snapshot::open(&path).map(|_| ())
        };
        // Cut inside a frame: the frame is torn.
        assert!(matches!(open(&full[..full.len() - 100]), Err(StoreError::Corrupt(_))));
        // Cut at a frame boundary: the closing frame is missing.
        let closing = frame::FRAME_HEADER_LEN + 4 + 8;
        assert!(matches!(open(&full[..full.len() - closing]), Err(StoreError::InvalidSnapshot(_))));
        // A frame too many: the closing frame is not last.
        let mut longer = full.clone();
        longer.extend_from_slice(&full[full.len() - closing..]);
        assert!(matches!(open(&longer), Err(StoreError::InvalidSnapshot(_))));
        let _ = std::fs::remove_file(&path);
    }
}

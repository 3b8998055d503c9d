//! Snapshot files: a page 0 directory over named byte sections.
//!
//! A snapshot is one page file. Page 0 (kind [`PageKind::Meta`]) holds
//! the directory:
//!
//! ```text
//! "USKSNAP1"  version u32
//! sections:   count u32, then [name, byte_len u64] ...
//! ```
//!
//! Each section is a raw byte stream cut into [`PAYLOAD_SIZE`] pieces on
//! consecutive [`PageKind::Blob`] pages, sections following one another
//! in directory order from page 1 (an empty section occupies no page).
//! Page positions are therefore a function of the lengths alone: the
//! directory cannot point outside the file, and a file with a page more
//! or fewer than its directory accounts for does not open.
//!
//! Crash consistency: the writer builds `<path>.tmp`;
//! [`SnapshotWriter::commit`] flushes it, re-reads and checksum-verifies
//! every page with a fresh pager, and only then renames over `path`. A
//! torn page or failed flush (the two injected fault sites) surfaces as a
//! typed error and leaves any previous snapshot at `path` untouched.
//!
//! Determinism: every page image is a pure function of its id, kind and
//! payload, so identical sections in identical order produce
//! byte-identical files — enforced by the golden page-image test and the
//! CI storage gate.

use std::path::{Path, PathBuf};

use faultkit::FaultPlan;

use crate::codec::{Decoder, Encoder};
use crate::page::{Page, PageKind, PAYLOAD_SIZE};
use crate::pager::Pager;
use crate::StoreError;

const SNAP_MAGIC: &str = "USKSNAP1";
const SNAP_VERSION: u32 = 2;

/// Pages a section of `byte_len` bytes occupies.
fn pages_for(byte_len: usize) -> usize {
    byte_len.div_ceil(PAYLOAD_SIZE)
}

/// Builds a snapshot file section by section.
pub struct SnapshotWriter {
    pager: Pager,
    tmp_path: PathBuf,
    /// `(name, byte_len)` in the order written.
    sections: Vec<(String, usize)>,
    next_page: u32,
}

impl SnapshotWriter {
    /// Starts a snapshot that will commit to `path` (building in
    /// `<path>.tmp`). Page 0 is reserved for the directory.
    pub fn create(path: &Path, faults: FaultPlan) -> Result<SnapshotWriter, StoreError> {
        let tmp_path = tmp_path_for(path);
        let pager = Pager::create(&tmp_path, faults)?;
        Ok(SnapshotWriter { pager, tmp_path, sections: Vec::new(), next_page: 1 })
    }

    /// Writes `bytes` as section `name` on the next free pages.
    pub fn add_section(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        if self.sections.iter().any(|(n, _)| n == name) {
            return Err(StoreError::InvalidSnapshot(format!("duplicate section {name:?}")));
        }
        for chunk in bytes.chunks(PAYLOAD_SIZE) {
            self.write_page(self.next_page, PageKind::Blob, chunk)?;
            self.next_page = self
                .next_page
                .checked_add(1)
                .ok_or_else(|| StoreError::Io("snapshot exceeds 2^32 pages".to_string()))?;
        }
        self.sections.push((name.to_string(), bytes.len()));
        Ok(())
    }

    fn write_page(&mut self, id: u32, kind: PageKind, payload: &[u8]) -> Result<(), StoreError> {
        let mut page = Page::new(id, kind);
        page.set_payload(payload)?;
        page.seal();
        self.pager.write_page(&page)
    }

    /// Writes the directory, flushes, verifies every page on disk, and
    /// renames the temporary file over `path`. On any error the target is
    /// untouched.
    pub fn commit(mut self, path: &Path) -> Result<(), StoreError> {
        let mut meta = Encoder::new();
        meta.str(SNAP_MAGIC);
        meta.u32(SNAP_VERSION);
        meta.u32(self.sections.len() as u32);
        for (name, byte_len) in &self.sections {
            meta.str(name);
            meta.usize(*byte_len);
        }
        let meta_bytes = meta.into_bytes();
        if meta_bytes.len() > PAYLOAD_SIZE {
            return Err(StoreError::TooLarge {
                what: "snapshot directory".to_string(),
                size: meta_bytes.len(),
                max: PAYLOAD_SIZE,
            });
        }
        self.write_page(0, PageKind::Meta, &meta_bytes)?;
        self.pager.flush()?;
        drop(self.pager);

        // Post-flush verification with a fresh pager: every page must
        // read back with a valid checksum before the snapshot becomes
        // visible at `path`.
        let mut pager = Pager::open(&self.tmp_path, FaultPlan::disabled())?;
        if pager.num_pages() != self.next_page {
            return Err(StoreError::InvalidSnapshot(format!(
                "file has {} pages, expected {}",
                pager.num_pages(),
                self.next_page
            )));
        }
        for id in 0..self.next_page {
            pager.read_page(id)?;
        }
        drop(pager);
        std::fs::rename(&self.tmp_path, path)
            .map_err(|e| StoreError::Io(format!("rename snapshot into place: {e}")))
    }
}

fn tmp_path_for(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

struct SectionEntry {
    name: String,
    first_page: u32,
    byte_len: usize,
}

/// A read-open snapshot file.
pub struct Snapshot {
    pager: Pager,
    sections: Vec<SectionEntry>,
}

impl Snapshot {
    /// Opens a snapshot file and validates its directory against the
    /// file's length.
    pub fn open(path: &Path, faults: FaultPlan) -> Result<Snapshot, StoreError> {
        let mut pager = Pager::open(path, faults)?;
        let meta = pager.read_page(0)?;
        if meta.kind() != PageKind::Meta {
            return Err(StoreError::InvalidSnapshot(format!(
                "page 0 is {:?}, not a directory",
                meta.kind()
            )));
        }
        let mut d = Decoder::new(meta.payload()?);
        if d.str()? != SNAP_MAGIC {
            return Err(StoreError::InvalidSnapshot("bad snapshot magic".to_string()));
        }
        let version = d.u32()?;
        if version != SNAP_VERSION {
            return Err(StoreError::InvalidSnapshot(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let n_sections = d.u32()?;
        let mut sections = Vec::new();
        let mut next_page = 1u32;
        for _ in 0..n_sections {
            let name = d.str()?;
            let byte_len = d.usize()?;
            let end = u32::try_from(pages_for(byte_len))
                .ok()
                .and_then(|n| next_page.checked_add(n))
                .filter(|&end| end <= pager.num_pages())
                .ok_or_else(|| {
                    StoreError::InvalidSnapshot(format!(
                        "section {name:?} ({byte_len} bytes) runs past the end of the file"
                    ))
                })?;
            sections.push(SectionEntry { name, first_page: next_page, byte_len });
            next_page = end;
        }
        if !d.is_done() {
            return Err(StoreError::InvalidSnapshot("trailing bytes in directory".to_string()));
        }
        if next_page != pager.num_pages() {
            return Err(StoreError::InvalidSnapshot(format!(
                "file has {} pages, directory accounts for {next_page}",
                pager.num_pages()
            )));
        }
        Ok(Snapshot { pager, sections })
    }

    /// Reads section `name` back as one byte vector.
    pub fn section(&mut self, name: &str) -> Result<Vec<u8>, StoreError> {
        let entry = self
            .sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| StoreError::InvalidSnapshot(format!("no section {name:?}")))?;
        // `open` checked the length against the file's, so this bounds
        // the allocation by the file size.
        let byte_len = entry.byte_len;
        let mut out = Vec::with_capacity(byte_len);
        for id in (entry.first_page..).take(pages_for(byte_len)) {
            let page = self.pager.read_page(id)?;
            let payload = page.payload()?;
            let expected = PAYLOAD_SIZE.min(byte_len - out.len());
            if page.kind() != PageKind::Blob || payload.len() != expected {
                return Err(StoreError::Corrupt {
                    page_id: id,
                    reason: format!(
                        "section {name:?} expects a blob of {expected} bytes, found {:?} of {}",
                        page.kind(),
                        payload.len()
                    ),
                });
            }
            out.extend_from_slice(payload);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use faultkit::Site;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("storekit-snap-{}-{name}.usk", std::process::id()));
        p
    }

    #[test]
    fn unknown_directory_version_is_rejected() {
        let path = tmp("verbump");
        let mut w = SnapshotWriter::create(&path, FaultPlan::disabled()).unwrap();
        w.add_section("docs", b"payload").unwrap();
        w.commit(&path).unwrap();

        // Rewrite the directory's format version in place — to the retired
        // version 1 and to a future one: read page 0, patch the u32 after
        // the magic string, re-seal (the checksum must stay valid — this
        // is another format, not a torn page), write back.
        for other in [1, SNAP_VERSION + 1] {
            let mut pager = Pager::open(&path, FaultPlan::disabled()).unwrap();
            let mut page = pager.read_page(0).unwrap();
            let payload = page.payload().unwrap().to_vec();
            let mut d = Decoder::new(&payload);
            assert_eq!(d.str().unwrap(), SNAP_MAGIC);
            let version_off = payload.len() - d.remaining();
            let mut patched = payload;
            patched[version_off..version_off + 4].copy_from_slice(&other.to_le_bytes());
            page.set_payload(&patched).unwrap();
            page.seal();
            pager.write_page(&page).unwrap();
            pager.flush().unwrap();

            match Snapshot::open(&path, FaultPlan::disabled()) {
                Err(StoreError::InvalidSnapshot(reason)) => assert_eq!(
                    reason,
                    format!("unsupported snapshot version {other}"),
                    "reason should name the offending version"
                ),
                Err(e) => panic!("expected InvalidSnapshot, got {e}"),
                Ok(_) => panic!("version-{other} snapshot must not open"),
            }
        }
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
        w.commit(&path).unwrap();

        let mut s = Snapshot::open(&path, FaultPlan::disabled()).unwrap();
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
            let mut w = SnapshotWriter::create(&path, FaultPlan::disabled()).unwrap();
            w.add_section("a", &vec![3u8; 10_000]).unwrap();
            w.add_section("b", b"tail").unwrap();
            w.commit(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            bytes
        };
        assert_eq!(build("ident-a"), build("ident-b"));
    }

    #[test]
    fn directory_wider_than_a_page_is_too_large() {
        let path = tmp("wide-directory");
        let mut w = SnapshotWriter::create(&path, FaultPlan::disabled()).unwrap();
        for i in 0..PAYLOAD_SIZE / 16 {
            w.add_section(&format!("section-{i:04}"), b"").unwrap();
        }
        match w.commit(&path) {
            Err(StoreError::TooLarge { what, max, .. }) => {
                assert_eq!((what.as_str(), max), ("snapshot directory", PAYLOAD_SIZE));
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(!path.exists(), "nothing was renamed into place");
        let _ = std::fs::remove_file(tmp_path_for(&path));
    }

    #[test]
    fn commit_under_torn_page_fails_and_preserves_target() {
        let path = tmp("torn-commit");
        // A previous good snapshot sits at the target.
        let mut w = SnapshotWriter::create(&path, FaultPlan::disabled()).unwrap();
        w.add_section("v", b"version-1").unwrap();
        w.commit(&path).unwrap();
        let before = std::fs::read(&path).unwrap();

        // Rebuild with the torn-page site firing on every write.
        let plan = FaultPlan::single(Site::StorePageWrite).with_seed(7);
        let result = SnapshotWriter::create(&path, plan).and_then(|mut w| {
            w.add_section("v", b"version-2")?;
            w.commit(&path)
        });
        assert!(matches!(result, Err(StoreError::Fault(_))), "{result:?}");
        assert_eq!(std::fs::read(&path).unwrap(), before, "target untouched");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tmp_path_for(&path));
    }

    #[test]
    fn commit_under_failed_flush_fails_and_preserves_target() {
        let path = tmp("flush-commit");
        let mut w = SnapshotWriter::create(&path, FaultPlan::disabled()).unwrap();
        w.add_section("v", b"version-1").unwrap();
        w.commit(&path).unwrap();
        let before = std::fs::read(&path).unwrap();

        let plan = FaultPlan::single(Site::StoreFlush).with_seed(7);
        let result = SnapshotWriter::create(&path, plan).and_then(|mut w| {
            w.add_section("v", b"version-2")?;
            w.commit(&path)
        });
        assert!(matches!(result, Err(StoreError::Fault(_))), "{result:?}");
        assert_eq!(std::fs::read(&path).unwrap(), before, "target untouched");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tmp_path_for(&path));
    }

    #[test]
    fn truncated_file_is_rejected_on_open() {
        let path = tmp("truncated");
        let mut w = SnapshotWriter::create(&path, FaultPlan::disabled()).unwrap();
        w.add_section("v", &vec![1u8; 9_000]).unwrap();
        w.commit(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Chop mid-page: the pager rejects the ragged length outright.
        std::fs::write(&path, &full[..full.len() - 100]).unwrap();
        assert!(matches!(
            Snapshot::open(&path, FaultPlan::disabled()),
            Err(StoreError::Corrupt { .. })
        ));
        // Chop a whole page: the directory accounts for more than is there.
        std::fs::write(&path, &full[..full.len() - PAGE_SIZE]).unwrap();
        assert!(matches!(
            Snapshot::open(&path, FaultPlan::disabled()),
            Err(StoreError::InvalidSnapshot(_))
        ));
        // So does a page too many.
        let mut longer = full.clone();
        longer.extend_from_slice(&full[PAGE_SIZE..2 * PAGE_SIZE]);
        std::fs::write(&path, &longer).unwrap();
        assert!(matches!(
            Snapshot::open(&path, FaultPlan::disabled()),
            Err(StoreError::InvalidSnapshot(_))
        ));
        let _ = std::fs::remove_file(&path);
    }
}

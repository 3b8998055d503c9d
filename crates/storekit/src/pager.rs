//! Page-granular file I/O with injected fault sites.
//!
//! The pager owns one file handle and reads/writes whole [`Page`]s at
//! `id * PAGE_SIZE`. It hosts the two storage fault sites
//! (DESIGN.md §12):
//!
//! - [`Site::StorePageWrite`], key `page:<id>` — a *torn page*: the pager
//!   genuinely writes only the first half of the image to disk, then
//!   returns the typed [`InjectedFault`](faultkit::InjectedFault) wrapped in
//!   [`StoreError::Fault`]. The corruption is real; a later read of the
//!   page fails checksum verification with [`StoreError::Corrupt`].
//! - [`Site::StoreFlush`], key `file` — a *failed flush*: `flush`
//!   returns the typed error without syncing, modelling a lost
//!   `fsync`.
//!
//! The fault plan is passed in by the caller (the engine resolves
//! `UNISEM_FAULTS` once at the boundary); the pager itself never reads
//! the environment.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use faultkit::{FaultPlan, Site};

use crate::page::{Page, PAGE_SIZE};
use crate::StoreError;

/// Whole-page file I/O.
#[derive(Debug)]
pub struct Pager {
    file: File,
    num_pages: u32,
    faults: FaultPlan,
}

impl Pager {
    /// Creates (truncating) a page file at `path`.
    pub fn create(path: &Path, faults: FaultPlan) -> Result<Pager, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StoreError::Io(format!("create {}: {e}", path.display())))?;
        Ok(Pager { file, num_pages: 0, faults })
    }

    /// Opens an existing page file. The length must be an exact multiple
    /// of [`PAGE_SIZE`]; a trailing partial page (e.g. from a torn final
    /// write) is reported as corruption of the page it would occupy.
    pub fn open(path: &Path, faults: FaultPlan) -> Result<Pager, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::Io(format!("open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| StoreError::Io(format!("stat {}: {e}", path.display())))?
            .len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StoreError::Corrupt {
                page_id: (len / PAGE_SIZE as u64) as u32,
                reason: format!("file length {len} is not a multiple of {PAGE_SIZE}"),
            });
        }
        let num_pages = u32::try_from(len / PAGE_SIZE as u64)
            .map_err(|_| StoreError::Io(format!("{}: too many pages", path.display())))?;
        Ok(Pager { file, num_pages, faults })
    }

    /// Pages currently in the file.
    pub fn num_pages(&self) -> u32 {
        self.num_pages
    }

    /// Reads and verifies page `id` (magic, id echo, kind tag, checksum).
    pub fn read_page(&mut self, id: u32) -> Result<Page, StoreError> {
        if id >= self.num_pages {
            return Err(StoreError::Corrupt {
                page_id: id,
                reason: format!("read past end of file ({} pages)", self.num_pages),
            });
        }
        self.file
            .seek(SeekFrom::Start(u64::from(id) * PAGE_SIZE as u64))
            .map_err(|e| StoreError::Io(format!("seek page {id}: {e}")))?;
        let mut buf = [0u8; PAGE_SIZE];
        self.file
            .read_exact(&mut buf)
            .map_err(|e| StoreError::Io(format!("read page {id}: {e}")))?;
        Page::from_bytes(id, &buf)
    }

    /// Writes a sealed page at its id, growing the file as needed.
    ///
    /// Fault site [`Site::StorePageWrite`] (key `page:<id>`): only the
    /// first `PAGE_SIZE / 2` bytes reach the file before the typed error
    /// returns — a genuine torn page that the next read detects.
    pub fn write_page(&mut self, page: &Page) -> Result<(), StoreError> {
        let id = page.id();
        debug_assert!(page.verify(), "page {id} written without seal()");
        self.file
            .seek(SeekFrom::Start(u64::from(id) * PAGE_SIZE as u64))
            .map_err(|e| StoreError::Io(format!("seek page {id}: {e}")))?;
        let torn = self.faults.check(Site::StorePageWrite, &format!("page:{id}")).err();
        let image: &[u8] =
            if torn.is_some() { &page.as_bytes()[..PAGE_SIZE / 2] } else { &page.as_bytes()[..] };
        self.file.write_all(image).map_err(|e| StoreError::Io(format!("write page {id}: {e}")))?;
        if id >= self.num_pages {
            // A torn write can still extend the file; the partial tail is
            // caught at open() / read_page() time.
            self.num_pages = id + 1;
        }
        match torn {
            Some(fault) => Err(StoreError::Fault(fault)),
            None => Ok(()),
        }
    }

    /// Flushes buffered writes and syncs file contents to disk.
    ///
    /// Fault site [`Site::StoreFlush`] (key `file`): returns the typed
    /// error without syncing, modelling a lost `fsync`.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.faults.check(Site::StoreFlush, "file").map_err(StoreError::Fault)?;
        self.file
            .flush()
            .and_then(|()| self.file.sync_all())
            .map_err(|e| StoreError::Io(format!("flush: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("storekit-pager-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn write_read_round_trip() {
        let path = tmp("roundtrip");
        let mut pager = Pager::create(&path, FaultPlan::disabled()).unwrap();
        let mut p = Page::new(0, PageKind::Blob);
        p.set_payload(b"hello").unwrap();
        p.seal();
        pager.write_page(&p).unwrap();
        let mut q = Page::new(1, PageKind::Blob);
        q.set_payload(b"world").unwrap();
        q.seal();
        pager.write_page(&q).unwrap();
        assert_eq!(pager.num_pages(), 2);
        pager.flush().unwrap();

        let mut reopened = Pager::open(&path, FaultPlan::disabled()).unwrap();
        assert_eq!(reopened.num_pages(), 2);
        assert_eq!(reopened.read_page(0).unwrap().payload().unwrap(), b"hello");
        assert_eq!(reopened.read_page(1).unwrap().payload().unwrap(), b"world");
        assert!(reopened.read_page(2).is_err(), "read past end is typed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_page_fault_corrupts_for_real() {
        let path = tmp("torn");
        let plan = FaultPlan::single(Site::StorePageWrite).with_seed(0);
        let mut pager = Pager::create(&path, plan).unwrap();
        let mut p = Page::new(0, PageKind::Blob);
        p.set_payload(b"doomed").unwrap();
        p.seal();
        let err = pager.write_page(&p).unwrap_err();
        assert!(matches!(err, StoreError::Fault(_)), "{err}");
        // The torn image really is on disk: half a page.
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len as usize, PAGE_SIZE / 2);
        assert!(Pager::open(&path, FaultPlan::disabled()).is_err(), "partial page detected");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_overwrite_fails_checksum_on_read() {
        let path = tmp("torn-overwrite");
        let mut pager = Pager::create(&path, FaultPlan::disabled()).unwrap();
        let mut a = Page::new(0, PageKind::Blob);
        // Payloads span past the page midpoint so the torn overwrite
        // really leaves a front/back hybrid on disk.
        a.set_payload(&vec![0x11; 3000]).unwrap();
        a.seal();
        pager.write_page(&a).unwrap();
        let mut b = Page::new(1, PageKind::Blob);
        b.set_payload(b"pad").unwrap();
        b.seal();
        pager.write_page(&b).unwrap();
        pager.flush().unwrap();
        drop(pager);

        // Reopen with the torn-write fault armed and overwrite page 0.
        let plan = FaultPlan::single(Site::StorePageWrite).with_seed(0);
        let mut pager = Pager::open(&path, plan).unwrap();
        let mut a2 = Page::new(0, PageKind::Blob);
        a2.set_payload(&vec![0x22; 3000]).unwrap();
        a2.seal();
        assert!(pager.write_page(&a2).is_err());
        drop(pager);

        // File length stays page-aligned, so open succeeds, but page 0 is
        // a front-half/back-half hybrid and fails its checksum.
        let mut pager = Pager::open(&path, FaultPlan::disabled()).unwrap();
        let err = pager.read_page(0).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { page_id: 0, .. }), "{err}");
        assert!(pager.read_page(1).is_ok(), "other pages unharmed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_flush_fault_is_typed() {
        let path = tmp("flush");
        let plan = FaultPlan::single(Site::StoreFlush).with_seed(0);
        let mut pager = Pager::create(&path, plan).unwrap();
        let err = pager.flush().unwrap_err();
        assert!(matches!(err, StoreError::Fault(f) if f.site == Site::StoreFlush));
        let _ = std::fs::remove_file(&path);
    }
}

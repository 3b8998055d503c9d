//! Write-ahead log: checksummed, length-framed, seq-numbered delta
//! records in one file (DESIGN.md §13).
//!
//! The log makes incremental ingestion durable under the same
//! fsync-then-ack discipline the snapshot commit uses: a delta is
//! appended ([`Wal::append`]), made durable ([`Wal::flush`]), and only
//! then acknowledged and applied in memory. Recovery ([`Wal::open`])
//! replays every intact record in sequence order and *physically
//! truncates* a torn tail — the one place where losing data is correct,
//! because a torn record was never acknowledged. A damaged record with an
//! intact later record after it is not a torn tail: later records were
//! acknowledged, so recovery refuses the log instead of cutting them off.
//!
//! ## File format
//!
//! The log at `<base>` starts with a 20-byte header:
//!
//! ```text
//! [8B magic "USKWAL01"] [u32 BE version] [u64 BE first seq]
//! ```
//!
//! followed by [frames](crate::frame) whose sequence numbers count up from
//! the first seq by exactly one. The file bytes are a pure function of the
//! first seq and the appended payloads, so same-seed delta streams produce
//! byte-identical logs.
//!
//! [`Wal::create`] writes and syncs the header at `<base>.tmp` and then
//! renames it over `<base>`, so a file at `<base>` always has a whole
//! header: a crash inside `create` leaves at most a stray `<base>.tmp`,
//! which the next `create` overwrites.
//!
//! ## Fault sites
//!
//! - [`Site::WalAppend`], key `seq:<n>` — a *torn append*: only the first
//!   half of the frame reaches the file before the typed error returns.
//!   The damage is real; recovery truncates it. The log handle is
//!   poisoned afterwards (a crashed writer never appends again).
//! - [`Site::WalFlush`], key `log` — a *lost buffer*: frames appended
//!   since the last successful flush are rolled back (they were never
//!   durable) and the typed error returns; the log itself stays
//!   consistent at its last durable prefix.
//! - [`Site::WalCheckpoint`], key `truncate` — fires inside
//!   [`Wal::truncate_all`] before the log is replaced, modelling a crash
//!   between snapshot fold and log truncation.

use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use faultkit::{FaultPlan, Site};
use tracekit::{Metric, MetricsRegistry};

use crate::frame::{self, be};
use crate::{io_err, parent_dir, tmp_path, StoreError};

const WAL_MAGIC: &[u8; 8] = b"USKWAL01";
const WAL_VERSION: u32 = 2;
const HEADER_LEN: usize = 8 + 4 + 8;

/// One intact log record, as replayed by [`Wal::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based across the log's lifetime).
    pub seq: u64,
    /// The opaque payload the caller appended.
    pub payload: Vec<u8>,
}

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Intact records replayed.
    pub records: usize,
    /// 1 when a torn tail was truncated (at most one is possible).
    pub torn_truncations: usize,
    /// Bytes physically removed by tail truncation.
    pub truncated_bytes: u64,
}

/// An append-only write-ahead log in one file.
#[derive(Debug)]
pub struct Wal {
    base: PathBuf,
    file: File,
    faults: FaultPlan,
    metrics: Option<Arc<MetricsRegistry>>,
    /// Sequence number the next append will take.
    next_seq: u64,
    /// File length in bytes (header + frames, incl. torn).
    len: u64,
    /// Durable prefix of the file (advanced by flush).
    synced_len: u64,
    /// `next_seq` as of the last successful flush (flush-fault rollback
    /// restores it, so an unacknowledged append never consumes a seq).
    synced_seq: u64,
    /// Set after a torn append: the handle models a crashed writer and
    /// refuses further appends/flushes.
    poisoned: bool,
}

fn wal_corrupt(reason: impl Into<String>) -> StoreError {
    StoreError::WalCorrupt(reason.into())
}

impl Wal {
    /// Starts a fresh log at `base`, atomically replacing any log there.
    /// Sequence numbering starts at `first_seq` (1 for a new engine; the
    /// snapshot's last applied seq + 1 after a checkpoint).
    ///
    /// There is no fault site here on purpose (a new `(site, key)` would
    /// fire under the pinned plans and move the goldens). A crash before
    /// the rename leaves `<base>` as it was — no log, or the stale log of
    /// a checkpoint whose records recovery skips by sequence number.
    pub fn create(
        base: &Path,
        first_seq: u64,
        faults: FaultPlan,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Result<Wal, StoreError> {
        let tmp = tmp_path(base);
        let mut file = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        let mut header = WAL_MAGIC.to_vec();
        header.extend_from_slice(&WAL_VERSION.to_be_bytes());
        header.extend_from_slice(&first_seq.to_be_bytes());
        #[expect(
            clippy::disallowed_methods,
            reason = "a crash here leaves a torn <base>.tmp that exists() and open() never look at and the next create truncates (wal::tests::torn_create_leaves_no_log; recovery.rs half_written_wal_create_recovers_byte_identically)"
        )]
        file.write_all(&header).map_err(|e| io_err("write", &tmp, e))?;
        #[expect(
            clippy::disallowed_methods,
            reason = "same window as the header write above: nothing is at <base> until the rename below"
        )]
        file.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
        std::fs::rename(&tmp, base).map_err(|e| io_err("rename into place", base, e))?;
        // Without this a power loss after a checkpoint could bring back the
        // log the rename replaced.
        #[expect(clippy::disallowed_methods, reason = "after the rename; old or new log recovers")]
        parent_dir(base)?.sync_all().map_err(|e| io_err("sync the directory of", base, e))?;
        Ok(Wal {
            base: base.to_path_buf(),
            file,
            faults,
            metrics,
            next_seq: first_seq,
            len: HEADER_LEN as u64,
            synced_len: HEADER_LEN as u64,
            synced_seq: first_seq,
            poisoned: false,
        })
    }

    /// The log's files: `[base]` when a log exists there, else none.
    pub fn segment_paths(base: &Path) -> Vec<PathBuf> {
        if Self::exists(base) {
            vec![base.to_path_buf()]
        } else {
            Vec::new()
        }
    }

    /// True when a log exists at `base`.
    pub fn exists(base: &Path) -> bool {
        base.is_file()
    }

    /// Opens the log at `base`, replaying every intact record in order and
    /// truncating a torn tail. The returned handle appends after the last
    /// intact record. A short or malformed header, a break in the
    /// sequence, or a record that does not verify followed by one of a
    /// later seq that does, is not a torn tail: it surfaces as
    /// [`StoreError::WalCorrupt`] and the file is left as it was.
    pub fn open(
        base: &Path,
        faults: FaultPlan,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Result<(Wal, Vec<WalRecord>, WalRecovery), StoreError> {
        let bytes = std::fs::read(base).map_err(|e| io_err("read", base, e))?;
        let header = bytes
            .get(..HEADER_LEN)
            .ok_or_else(|| wal_corrupt(format!("header truncated ({}B)", bytes.len())))?;
        if &header[..8] != WAL_MAGIC {
            return Err(wal_corrupt("bad magic"));
        }
        let version = be(&header[8..12]);
        if version != u64::from(WAL_VERSION) {
            return Err(wal_corrupt(format!("unsupported wal version {version}")));
        }
        let first_seq = be(&header[12..]);
        let (frames, end) = frame::scan(&bytes, HEADER_LEN);
        let mut records = Vec::with_capacity(frames.len());
        let mut next_seq = first_seq;
        for frame in frames {
            if frame.seq != next_seq {
                return Err(wal_corrupt(format!(
                    "record seq {} breaks sequence (expected {next_seq})",
                    frame.seq
                )));
            }
            records.push(WalRecord { seq: next_seq, payload: bytes[frame.payload].to_vec() });
            next_seq = next_seq.wrapping_add(1);
        }

        // Only an append can tear, and only the last one: an intact record
        // of a later seq past the first bad frame was written, flushed and
        // acknowledged after it, so the bad frame is damage, not a tear.
        // Every frame is at least a header long, which bounds the seqs
        // that could follow.
        let room = ((bytes.len() - end) / frame::FRAME_HEADER_LEN) as u64;
        let later = |seq: u64| seq.checked_sub(next_seq).is_some_and(|d| d > 0 && d <= room);
        if let Some((at, intact)) = frame::find_after(&bytes, end, later) {
            return Err(wal_corrupt(format!(
                "record seq {next_seq} at offset {end} does not verify, but record seq {} at \
                 offset {at} after it does: mid-log damage, not a torn tail",
                intact.seq
            )));
        }

        let mut file =
            OpenOptions::new().write(true).open(base).map_err(|e| io_err("open", base, e))?;
        let mut recovery = WalRecovery { records: records.len(), ..WalRecovery::default() };
        if end < bytes.len() {
            // A torn frame ends the log: anything past the first
            // unverifiable frame was never acknowledged.
            recovery.torn_truncations = 1;
            recovery.truncated_bytes = (bytes.len() - end) as u64;
            #[expect(
                clippy::disallowed_methods,
                reason = "recovery truncation is idempotent: a crash here leaves a torn tail that the next open repairs the same way (covered by the torn-append crash matrix); injecting a fault would only re-run this path"
            )]
            file.set_len(end as u64).map_err(|e| io_err("truncate", base, e))?;
            #[expect(
                clippy::disallowed_methods,
                reason = "same idempotent recovery window as the set_len above; the tail is already truncated, re-syncing on the next open is equivalent"
            )]
            file.sync_all().map_err(|e| io_err("sync", base, e))?;
        }
        file.seek(SeekFrom::Start(end as u64)).map_err(|e| io_err("seek", base, e))?;
        if let Some(m) = &metrics {
            m.add(Metric::WalReplayedRecords, records.len() as u64);
            m.add(Metric::WalTornTruncations, recovery.torn_truncations as u64);
        }
        let wal = Wal {
            base: base.to_path_buf(),
            file,
            faults,
            metrics,
            next_seq,
            len: end as u64,
            synced_len: end as u64,
            synced_seq: next_seq,
            poisoned: false,
        };
        Ok((wal, records, recovery))
    }

    /// Sequence number the next append will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn incr(&self, metric: Metric) {
        if let Some(m) = &self.metrics {
            m.incr(metric);
        }
    }

    /// Appends one record, returning its sequence number. The record is
    /// **not durable** until the next successful [`Wal::flush`] — callers
    /// must not acknowledge (or apply) it before then.
    ///
    /// Fault site [`Site::WalAppend`] (key `seq:<n>`): only the first half
    /// of the frame reaches the file before the typed error returns — a
    /// genuine torn record that recovery truncates. The handle is poisoned
    /// afterwards.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        if self.poisoned {
            return Err(StoreError::Io("wal poisoned by a torn append".into()));
        }
        let seq = self.next_seq;
        let mut frame = Vec::new();
        frame::encode(&mut frame, seq, &[payload])?;
        let torn = self.faults.check(Site::WalAppend, &format!("seq:{seq}")).err();
        let image: &[u8] = if torn.is_some() { &frame[..frame.len() / 2] } else { &frame[..] };
        #[expect(clippy::disallowed_methods, reason = "covered by Site::WalAppend above")]
        self.file.write_all(image).map_err(|e| io_err("append", &self.base, e))?;
        self.len += image.len() as u64;
        if let Some(fault) = torn {
            self.poisoned = true;
            return Err(StoreError::Fault(fault));
        }
        self.next_seq = seq + 1;
        self.incr(Metric::WalAppends);
        if let Some(m) = &self.metrics {
            m.add(Metric::WalAppendedBytes, payload.len() as u64);
        }
        Ok(seq)
    }

    /// Makes every appended record durable (fsync), advancing the
    /// acknowledged prefix.
    ///
    /// Fault site [`Site::WalFlush`] (key `log`): the frames appended
    /// since the last successful flush are physically rolled back —
    /// buffered writes that never became durable — and the typed error
    /// returns. The log stays consistent at its last durable prefix, and
    /// the rolled-back records' sequence numbers are reused.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Io("wal poisoned by a torn append".into()));
        }
        if let Err(fault) = self.faults.check(Site::WalFlush, "log") {
            #[expect(clippy::disallowed_methods, reason = "the Site::WalFlush rollback itself")]
            self.file.set_len(self.synced_len).map_err(|e| io_err("rollback", &self.base, e))?;
            self.file
                .seek(SeekFrom::Start(self.synced_len))
                .map_err(|e| io_err("seek", &self.base, e))?;
            self.len = self.synced_len;
            self.next_seq = self.synced_seq;
            return Err(StoreError::Fault(fault));
        }
        #[expect(clippy::disallowed_methods, reason = "covered by Site::WalFlush above")]
        self.file.sync_all().map_err(|e| io_err("sync", &self.base, e))?;
        self.synced_len = self.len;
        self.synced_seq = self.next_seq;
        self.incr(Metric::WalFlushes);
        Ok(())
    }

    /// Replaces the log with an empty one whose numbering continues at
    /// the current `next_seq` — the log half of a checkpoint, called after
    /// the folded snapshot is durably in place.
    ///
    /// Fault site [`Site::WalCheckpoint`] (key `truncate`): fires before
    /// the log is replaced, modelling a crash between snapshot fold and
    /// log truncation; the stale log survives intact and recovery skips
    /// its records by sequence number.
    pub fn truncate_all(&mut self) -> Result<(), StoreError> {
        self.faults.check(Site::WalCheckpoint, "truncate").map_err(StoreError::Fault)?;
        *self = Wal::create(&self.base, self.next_seq, self.faults, self.metrics.clone())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("storekit-wal-{}-{name}", std::process::id()));
        p
    }

    fn cleanup(base: &Path) {
        let _ = std::fs::remove_file(base);
        let _ = std::fs::remove_file(tmp_path(base));
    }

    #[test]
    fn append_flush_replay_round_trip() {
        let base = tmp("roundtrip");
        cleanup(&base);
        let mut wal = Wal::create(&base, 1, FaultPlan::disabled(), None).unwrap();
        for payload in [b"alpha".as_slice(), b"beta", b"gamma"] {
            wal.append(payload).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);

        let (wal, records, recovery) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(recovery, WalRecovery { records: 3, ..WalRecovery::default() });
        assert_eq!(
            records,
            vec![
                WalRecord { seq: 1, payload: b"alpha".to_vec() },
                WalRecord { seq: 2, payload: b"beta".to_vec() },
                WalRecord { seq: 3, payload: b"gamma".to_vec() },
            ]
        );
        assert_eq!(wal.next_seq(), 4);
        assert_eq!(Wal::segment_paths(&base), vec![base.clone()], "one file");
        cleanup(&base);
    }

    #[test]
    fn reopened_log_appends_continue_the_sequence() {
        let base = tmp("continue");
        cleanup(&base);
        let mut wal = Wal::create(&base, 1, FaultPlan::disabled(), None).unwrap();
        wal.append(b"one").unwrap();
        wal.flush().unwrap();
        drop(wal);
        let (mut wal, _, _) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(wal.append(b"two").unwrap(), 2);
        wal.flush().unwrap();
        drop(wal);
        let (_, records, _) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], WalRecord { seq: 2, payload: b"two".to_vec() });
        cleanup(&base);
    }

    #[test]
    fn torn_append_is_truncated_on_recovery() {
        let base = tmp("torn");
        cleanup(&base);
        let mut wal = Wal::create(&base, 1, FaultPlan::disabled(), None).unwrap();
        wal.append(b"kept").unwrap();
        wal.flush().unwrap();
        drop(wal);

        let plan = FaultPlan::single(Site::WalAppend).with_seed(0);
        let (mut wal, _, _) = Wal::open(&base, plan, None).unwrap();
        let err = wal.append(b"doomed-record-payload").unwrap_err();
        assert!(matches!(err, StoreError::Fault(f) if f.site == Site::WalAppend));
        // Poisoned: the handle models a crashed writer.
        assert!(wal.append(b"more").is_err());
        drop(wal);

        let (wal, records, recovery) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(records.len(), 1, "torn record dropped");
        assert_eq!(records[0].payload, b"kept");
        assert_eq!(recovery.torn_truncations, 1);
        assert!(recovery.truncated_bytes > 0);
        assert_eq!(wal.next_seq(), 2, "torn seq is reusable");
        cleanup(&base);
    }

    #[test]
    fn failed_flush_rolls_back_unacknowledged_records() {
        let base = tmp("flushfault");
        cleanup(&base);
        let mut wal = Wal::create(&base, 1, FaultPlan::disabled(), None).unwrap();
        wal.append(b"durable").unwrap();
        wal.flush().unwrap();
        drop(wal);

        let plan = FaultPlan::single(Site::WalFlush).with_seed(0);
        let (mut wal, _, _) = Wal::open(&base, plan, None).unwrap();
        wal.append(b"lost").unwrap();
        match wal.flush() {
            Err(StoreError::Fault(f)) => {
                assert_eq!((f.site, f.key.as_str()), (Site::WalFlush, "log"))
            }
            other => panic!("expected a lost flush, got {other:?}"),
        }
        assert_eq!(wal.next_seq(), 2, "rolled-back seq is reused");
        drop(wal);

        let (_, records, recovery) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"durable");
        assert_eq!(recovery.torn_truncations, 0, "rollback leaves no torn tail");
        cleanup(&base);
    }

    #[test]
    fn truncate_all_restarts_numbering_at_next_seq() {
        let base = tmp("truncate");
        cleanup(&base);
        let mut wal = Wal::create(&base, 1, FaultPlan::disabled(), None).unwrap();
        for _ in 0..3 {
            wal.append(b"x").unwrap();
        }
        wal.flush().unwrap();
        wal.truncate_all().unwrap();
        assert_eq!(wal.next_seq(), 4);
        assert_eq!(wal.append(b"after").unwrap(), 4);
        wal.flush().unwrap();
        drop(wal);
        let (_, records, _) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(records, vec![WalRecord { seq: 4, payload: b"after".to_vec() }]);
        cleanup(&base);
    }

    #[test]
    fn checkpoint_fault_preserves_the_log() {
        let base = tmp("ckptfault");
        cleanup(&base);
        let plan = FaultPlan::single(Site::WalCheckpoint).with_seed(0);
        let mut wal = Wal::create(&base, 1, plan, None).unwrap();
        wal.append(b"survives").unwrap();
        wal.flush().unwrap();
        let err = wal.truncate_all().unwrap_err();
        assert!(matches!(err, StoreError::Fault(f) if f.site == Site::WalCheckpoint));
        drop(wal);
        let (_, records, _) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(records.len(), 1, "faulted truncation must not lose the log");
        cleanup(&base);
    }

    #[test]
    fn same_payload_stream_writes_byte_identical_segments() {
        let a = tmp("bytes-a");
        let b = tmp("bytes-b");
        for base in [&a, &b] {
            cleanup(base);
            let mut wal = Wal::create(base, 1, FaultPlan::disabled(), None).unwrap();
            for i in 0..8u32 {
                wal.append(format!("delta-{i}").as_bytes()).unwrap();
            }
            wal.flush().unwrap();
        }
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        cleanup(&a);
        cleanup(&b);
    }

    #[test]
    fn mid_log_damage_is_typed_corruption_not_truncation() {
        let base = tmp("midlog");
        cleanup(&base);
        let mut wal = Wal::create(&base, 1, FaultPlan::disabled(), None).unwrap();
        for i in 0..5u8 {
            wal.append(&[b'a' + i; 64]).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let clean = std::fs::read(&base).unwrap();
        let frame_len = frame::FRAME_HEADER_LEN + 64;
        assert_eq!(clean.len(), HEADER_LEN + 5 * frame_len);
        let second = HEADER_LEN + frame_len;
        // One flipped byte inside the 2nd record: records 3–5 still verify
        // and were acknowledged, so recovery must not cut them off.
        let mut bytes = clean.clone();
        bytes[second + frame::FRAME_HEADER_LEN + 10] ^= 0x01;
        std::fs::write(&base, &bytes).unwrap();
        match Wal::open(&base, FaultPlan::disabled(), None) {
            Err(StoreError::WalCorrupt(reason)) => {
                assert!(reason.contains(&format!("record seq 2 at offset {second}")), "{reason}");
                assert!(reason.contains(&format!("seq 3 at offset {}", second + frame_len)));
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        assert_eq!(std::fs::read(&base).unwrap(), bytes, "the log is left untouched");
        // Damage to the 1st record's length field, too.
        let mut bytes = clean.clone();
        bytes[HEADER_LEN + 3] ^= 0x40;
        std::fs::write(&base, &bytes).unwrap();
        let err = Wal::open(&base, FaultPlan::disabled(), None).unwrap_err();
        assert!(matches!(err, StoreError::WalCorrupt(_)), "{err}");
        // The same flip in the final record is a torn tail: cut, not refused.
        let mut bytes = clean.clone();
        bytes[HEADER_LEN + 4 * frame_len + frame::FRAME_HEADER_LEN + 10] ^= 0x01;
        std::fs::write(&base, &bytes).unwrap();
        let (_, records, recovery) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(recovery.torn_truncations, 1);
        assert_eq!(recovery.truncated_bytes, frame_len as u64);
        cleanup(&base);
    }

    #[test]
    fn bad_header_is_rejected() {
        let base = tmp("badheader");
        cleanup(&base);
        let mut wal = Wal::create(&base, 1, FaultPlan::disabled(), None).unwrap();
        wal.append(b"x").unwrap();
        wal.flush().unwrap();
        drop(wal);
        let clean = std::fs::read(&base).unwrap();
        let reason = |bytes: &[u8]| {
            std::fs::write(&base, bytes).unwrap();
            match Wal::open(&base, FaultPlan::disabled(), None) {
                Err(StoreError::WalCorrupt(reason)) => reason,
                other => panic!("expected WalCorrupt, got {other:?}"),
            }
        };
        let mut bad_magic = clean.clone();
        bad_magic[0] ^= 0xFF;
        assert!(reason(&bad_magic).contains("magic"));
        // The segmented version 1 and a future one are typed, too.
        for version in [1u8, 9] {
            let mut other = clean.clone();
            other[11] = version;
            assert_eq!(reason(&other), format!("unsupported wal version {version}"));
        }
        // `create` renames only a whole header into place, so a short one
        // is damage, not a torn tail.
        assert!(reason(&clean[..10]).contains("header truncated"));
        assert!(reason(&[]).contains("header truncated"));
        cleanup(&base);
    }

    #[test]
    fn torn_create_leaves_no_log() {
        // A crash inside `create` (first enable, or the re-create half of
        // `truncate_all`): half a header at `<base>.tmp`, nothing at `<base>`.
        let base = tmp("torncreate");
        cleanup(&base);
        std::fs::write(tmp_path(&base), b"USKWAL01\0\0").unwrap();
        assert!(!Wal::exists(&base));
        assert!(Wal::segment_paths(&base).is_empty());
        let err = Wal::open(&base, FaultPlan::disabled(), None).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        let mut wal = Wal::create(&base, 7, FaultPlan::disabled(), None).unwrap();
        assert_eq!(wal.append(b"first").unwrap(), 7);
        wal.flush().unwrap();
        drop(wal);
        assert!(Wal::exists(&base));
        assert!(!tmp_path(&base).exists(), "the leftover was overwritten and renamed");
        let (_, records, _) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(records, vec![WalRecord { seq: 7, payload: b"first".to_vec() }]);
        cleanup(&base);
    }
}

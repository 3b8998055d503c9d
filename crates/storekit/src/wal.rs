//! Write-ahead log: checksummed, length-framed, seq-numbered delta
//! records in segment files (DESIGN.md §13).
//!
//! The log makes incremental ingestion durable under the same
//! fsync-then-ack discipline the pager commit path uses: a delta is
//! appended ([`Wal::append`]), made durable ([`Wal::flush`]), and only
//! then acknowledged and applied in memory. Recovery ([`Wal::open`])
//! replays every intact record in sequence order and *physically
//! truncates* a torn tail — the one place where losing data is correct,
//! because a torn record was never acknowledged.
//!
//! ## Segment format
//!
//! A log is a chain of segment files `<base>.NNNNNN` with contiguous
//! indices. Each segment starts with a 24-byte header:
//!
//! ```text
//! [8B magic "USKWAL01"] [u32 BE version] [u32 BE segment index] [u64 BE first seq]
//! ```
//!
//! followed by length-framed records:
//!
//! ```text
//! [u32 BE payload len] [u64 BE seq] [u64 BE checksum] [payload]
//! ```
//!
//! The checksum is FNV-1a over the len, seq, and payload bytes, so a torn
//! frame — truncated anywhere, including inside the 20-byte frame header —
//! never verifies. Sequence numbers increase by exactly 1 across segment
//! boundaries; the file bytes are a pure function of the appended payload
//! stream, so same-seed delta streams produce byte-identical segments.
//!
//! ## Fault sites
//!
//! - [`Site::WalAppend`], key `seq:<n>` — a *torn append*: only the first
//!   half of the frame reaches the file before the typed error returns.
//!   The damage is real; recovery truncates it. The log handle is
//!   poisoned afterwards (a crashed writer never appends again).
//! - [`Site::WalFlush`], key `segment:<idx>` — a *lost buffer*: frames
//!   appended since the last successful flush are rolled back (they were
//!   never durable) and the typed error returns; the log itself stays
//!   consistent at its last durable prefix.
//! - [`Site::WalCheckpoint`], key `truncate` — fires inside
//!   [`Wal::truncate_all`] before anything is deleted, modelling a crash
//!   between snapshot fold and log truncation.

use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use faultkit::{FaultPlan, Site};
use tracekit::{Metric, MetricsRegistry};

use crate::StoreError;

const WAL_MAGIC: &[u8; 8] = b"USKWAL01";
const WAL_VERSION: u32 = 1;
const HEADER_LEN: u64 = 24;
const FRAME_HEADER_LEN: usize = 4 + 8 + 8;

/// Default segment roll threshold. Appends that find the current segment
/// at or past this size (and fully durable) start a new segment.
pub const DEFAULT_SEGMENT_CAP: u64 = 1 << 20;

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
    /// Segments scanned.
    pub segments: usize,
    /// Intact records replayed.
    pub records: usize,
    /// 1 when a torn tail was truncated (at most one is possible).
    pub torn_truncations: usize,
    /// Bytes physically removed by tail truncation (including any
    /// dropped empty trailing segments).
    pub truncated_bytes: u64,
}

/// An append-only write-ahead log over segment files.
#[derive(Debug)]
pub struct Wal {
    base: PathBuf,
    file: File,
    faults: FaultPlan,
    metrics: Option<Arc<MetricsRegistry>>,
    /// Sequence number the next append will take.
    next_seq: u64,
    segment_index: u32,
    /// Current segment length in bytes (header + frames, incl. torn).
    segment_len: u64,
    /// Durable prefix of the current segment (advanced by flush).
    synced_len: u64,
    /// `next_seq` as of the last successful flush (flush-fault rollback
    /// restores it, so an unacknowledged append never consumes a seq).
    synced_seq: u64,
    segment_cap: u64,
    /// Set after a torn append: the handle models a crashed writer and
    /// refuses further appends/flushes.
    poisoned: bool,
}

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{ctx} {}: {e}", path.display()))
}

fn wal_corrupt(segment: u32, reason: impl Into<String>) -> StoreError {
    StoreError::WalCorrupt { segment, reason: reason.into() }
}

/// FNV-1a over the frame's len, seq, and payload bytes.
fn frame_checksum(len: u32, seq: u64, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in len.to_be_bytes() {
        eat(b);
    }
    for b in seq.to_be_bytes() {
        eat(b);
    }
    for &b in payload {
        eat(b);
    }
    h
}

fn segment_path(base: &Path, index: u32) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".{index:06}"));
    PathBuf::from(name)
}

fn encode_header(index: u32, first_seq: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_be_bytes());
    h[12..16].copy_from_slice(&index.to_be_bytes());
    h[16..24].copy_from_slice(&first_seq.to_be_bytes());
    h
}

/// Creates segment `index` of the log at `base`, header written and
/// synced — the only place a header is written. There is no fault site
/// here on purpose (a new `(site, key)` would fire under the pinned plans
/// and move the goldens). A crash inside that leaves the file shorter
/// than a header is recovered: [`Wal::open`] and [`Wal::exists`] treat
/// such a last segment as never created.
fn open_segment(base: &Path, index: u32, first_seq: u64) -> Result<File, StoreError> {
    let path = segment_path(base, index);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .map_err(|e| io_err("create", &path, e))?;
    // udlint: allow(uncovered-io-site) -- a crash mid-header leaves a short last segment, which open drops as an unfinished roll and exists reports as no log (wal::tests::short_trailing_segment_is_an_unfinished_roll, lone_short_segment_is_no_log_yet; recovery.rs torn_segment_header_*)
    file.write_all(&encode_header(index, first_seq)).map_err(|e| io_err("write", &path, e))?;
    // udlint: allow(uncovered-io-site) -- same window as the header write above: an unsynced header is a short or absent file after the crash, recovered the same way by the same tests
    file.sync_all().map_err(|e| io_err("sync", &path, e))?;
    Ok(file)
}

impl Wal {
    /// Starts a fresh log at `base`, deleting any existing segments.
    /// Sequence numbering starts at `first_seq` (1 for a new engine; the
    /// snapshot's last applied seq + 1 after a checkpoint).
    pub fn create(
        base: &Path,
        first_seq: u64,
        faults: FaultPlan,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Result<Wal, StoreError> {
        for path in Self::segment_paths(base) {
            std::fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
        }
        Ok(Wal {
            base: base.to_path_buf(),
            file: open_segment(base, 0, first_seq)?,
            faults,
            metrics,
            next_seq: first_seq,
            segment_index: 0,
            segment_len: HEADER_LEN,
            synced_len: HEADER_LEN,
            synced_seq: first_seq,
            segment_cap: DEFAULT_SEGMENT_CAP,
            poisoned: false,
        })
    }

    /// Existing segment files of the log at `base`, in index order. The
    /// directory listing is sorted, so the result never depends on
    /// filesystem enumeration order.
    pub fn segment_paths(base: &Path) -> Vec<PathBuf> {
        let dir = base.parent().unwrap_or_else(|| Path::new("."));
        let stem = match base.file_name().and_then(|n| n.to_str()) {
            Some(s) => s,
            None => return Vec::new(),
        };
        let mut found: Vec<(u32, PathBuf)> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(suffix) = name.strip_prefix(stem).and_then(|r| r.strip_prefix('.')) else {
                    continue;
                };
                if suffix.len() == 6 && suffix.bytes().all(|b| b.is_ascii_digit()) {
                    if let Ok(idx) = suffix.parse::<u32>() {
                        found.push((idx, entry.path()));
                    }
                }
            }
        }
        found.sort_by_key(|(idx, _)| *idx);
        found.into_iter().map(|(_, p)| p).collect()
    }

    /// True when a log exists at `base`: at least one segment, and not
    /// just a lone file shorter than a header — that is a [`Wal::create`]
    /// that crashed before anything could be appended, so there is no log
    /// yet and `create` (which removes leftovers) is the way to get one.
    pub fn exists(base: &Path) -> bool {
        Self::is_log(&Self::segment_paths(base))
    }

    fn is_log(segments: &[PathBuf]) -> bool {
        match segments {
            [] => false,
            [only] => std::fs::metadata(only).map_or(true, |m| m.len() >= HEADER_LEN),
            _ => true,
        }
    }

    /// Opens the log at `base`, replaying every intact record in order and
    /// truncating a torn tail (plus any segments after it). The returned
    /// handle appends after the last intact record.
    ///
    /// A *last* segment shorter than its header is a torn tail too — a
    /// roll that crashed before any record could follow it: it is deleted
    /// and appends resume on the segment before it. A short header
    /// anywhere else, a malformed header, a gap in the segment chain, or a
    /// sequence discontinuity is *not* a torn tail and surfaces as
    /// [`StoreError::WalCorrupt`].
    pub fn open(
        base: &Path,
        faults: FaultPlan,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Result<(Wal, Vec<WalRecord>, WalRecovery), StoreError> {
        let paths = Self::segment_paths(base);
        if !Self::is_log(&paths) {
            return Err(StoreError::Io(format!("no wal segments at {}", base.display())));
        }
        let mut records: Vec<WalRecord> = Vec::new();
        let mut recovery = WalRecovery { segments: paths.len(), ..WalRecovery::default() };
        let mut expected_seq: Option<u64> = None;
        // (segment index, durable end offset) of the last intact frame.
        let mut tail: (u32, u64) = (0, HEADER_LEN);
        let mut tail_first_seq = 1u64;

        for (chain_pos, path) in paths.iter().enumerate() {
            let bytes = std::fs::read(path).map_err(|e| io_err("read", path, e))?;
            let idx = chain_pos as u32;
            if bytes.len() < HEADER_LEN as usize {
                if chain_pos + 1 < paths.len() {
                    return Err(wal_corrupt(idx, format!("header truncated ({}B)", bytes.len())));
                }
                // An unfinished roll: the header never became durable, so
                // nothing in this segment was acknowledged. Drop the file;
                // `tail` still names the end of the segment before it.
                std::fs::remove_file(path).map_err(|e| io_err("remove", path, e))?;
                recovery.torn_truncations = 1;
                recovery.truncated_bytes = bytes.len() as u64;
                recovery.segments = chain_pos;
                break;
            }
            if &bytes[..8] != WAL_MAGIC {
                return Err(wal_corrupt(idx, "bad magic"));
            }
            let version = u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
            if version != WAL_VERSION {
                return Err(wal_corrupt(idx, format!("unsupported wal version {version}")));
            }
            let header_idx = u32::from_be_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
            if header_idx != idx {
                return Err(wal_corrupt(
                    idx,
                    format!("segment chain gap: header says index {header_idx}"),
                ));
            }
            let first_seq = u64::from_be_bytes([
                bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22],
                bytes[23],
            ]);
            if let Some(expected) = expected_seq {
                if first_seq != expected {
                    return Err(wal_corrupt(
                        idx,
                        format!("first seq {first_seq} breaks sequence (expected {expected})"),
                    ));
                }
            }
            tail = (idx, HEADER_LEN);
            tail_first_seq = first_seq;
            let mut off = HEADER_LEN as usize;
            let mut next = first_seq;
            let mut torn = false;
            while off < bytes.len() {
                let rest = &bytes[off..];
                if rest.len() < FRAME_HEADER_LEN {
                    torn = true;
                    break;
                }
                let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                let seq = u64::from_be_bytes([
                    rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10], rest[11],
                ]);
                let checksum = u64::from_be_bytes([
                    rest[12], rest[13], rest[14], rest[15], rest[16], rest[17], rest[18], rest[19],
                ]);
                if rest.len() < FRAME_HEADER_LEN + len {
                    torn = true;
                    break;
                }
                let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
                if frame_checksum(len as u32, seq, payload) != checksum {
                    torn = true;
                    break;
                }
                if seq != next {
                    return Err(wal_corrupt(
                        idx,
                        format!("record seq {seq} breaks sequence (expected {next})"),
                    ));
                }
                records.push(WalRecord { seq, payload: payload.to_vec() });
                next = seq + 1;
                off += FRAME_HEADER_LEN + len;
                tail = (idx, off as u64);
            }
            expected_seq = Some(next);
            if torn {
                // A torn frame ends the log: truncate it here, drop any
                // segments after this one, and stop scanning. Anything past
                // the first unverifiable frame was never acknowledged.
                let keep = off as u64;
                recovery.torn_truncations = 1;
                recovery.truncated_bytes = bytes.len() as u64 - keep;
                let f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err("open", path, e))?;
                // udlint: allow(uncovered-io-site) -- recovery truncation is idempotent: a crash here leaves a torn tail that the next open repairs the same way (covered by the torn-append crash matrix); injecting a fault would only re-run this path
                f.set_len(keep).map_err(|e| io_err("truncate", path, e))?;
                // udlint: allow(uncovered-io-site) -- same idempotent recovery window as the set_len above; the tail is already truncated, re-syncing on the next open is equivalent
                f.sync_all().map_err(|e| io_err("sync", path, e))?;
                for later in &paths[chain_pos + 1..] {
                    let len = std::fs::metadata(later).map(|m| m.len()).unwrap_or(0);
                    recovery.truncated_bytes += len;
                    std::fs::remove_file(later).map_err(|e| io_err("remove", later, e))?;
                }
                recovery.segments = chain_pos + 1;
                break;
            }
        }

        recovery.records = records.len();
        if let Some(m) = &metrics {
            m.add(Metric::WalReplayedRecords, records.len() as u64);
            m.add(Metric::WalTornTruncations, recovery.torn_truncations as u64);
        }
        let next_seq = records.last().map(|r| r.seq + 1).unwrap_or(tail_first_seq);
        let path = segment_path(base, tail.0);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", &path, e))?;
        let wal = Wal {
            base: base.to_path_buf(),
            file,
            faults,
            metrics,
            next_seq,
            segment_index: tail.0,
            segment_len: tail.1,
            synced_len: tail.1,
            synced_seq: next_seq,
            segment_cap: DEFAULT_SEGMENT_CAP,
            poisoned: false,
        };
        Ok((wal, records, recovery))
    }

    /// Overrides the segment roll threshold (tests use tiny caps to
    /// exercise multi-segment chains).
    pub fn set_segment_cap(&mut self, bytes: u64) {
        self.segment_cap = bytes.max(HEADER_LEN + FRAME_HEADER_LEN as u64);
    }

    /// Sequence number the next append will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Index of the segment currently appended to.
    pub fn segment_index(&self) -> u32 {
        self.segment_index
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
        // Roll to a fresh segment only from a fully durable boundary, so
        // flush-fault rollback never has to span files.
        if self.segment_len >= self.segment_cap && self.synced_len == self.segment_len {
            self.roll_segment()?;
        }
        let seq = self.next_seq;
        let len = u32::try_from(payload.len()).map_err(|_| StoreError::TooLarge {
            what: "wal record".into(),
            size: payload.len(),
            max: u32::MAX as usize,
        })?;
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(&seq.to_be_bytes());
        frame.extend_from_slice(&frame_checksum(len, seq, payload).to_be_bytes());
        frame.extend_from_slice(payload);

        let torn = self.faults.check(Site::WalAppend, &format!("seq:{seq}")).err();
        let image: &[u8] = if torn.is_some() { &frame[..frame.len() / 2] } else { &frame[..] };
        let path = segment_path(&self.base, self.segment_index);
        self.file.write_all(image).map_err(|e| io_err("append", &path, e))?;
        self.segment_len += image.len() as u64;
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
    /// Fault site [`Site::WalFlush`] (key `segment:<idx>`): the frames
    /// appended since the last successful flush are physically rolled back
    /// — buffered writes that never became durable — and the typed error
    /// returns. The log stays consistent at its last durable prefix, and
    /// the rolled-back records' sequence numbers are reused.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Io("wal poisoned by a torn append".into()));
        }
        let path = segment_path(&self.base, self.segment_index);
        if let Err(fault) =
            self.faults.check(Site::WalFlush, &format!("segment:{}", self.segment_index))
        {
            self.file.set_len(self.synced_len).map_err(|e| io_err("rollback", &path, e))?;
            self.file
                .seek(SeekFrom::Start(self.synced_len))
                .map_err(|e| io_err("seek", &path, e))?;
            self.segment_len = self.synced_len;
            self.next_seq = self.synced_seq;
            return Err(StoreError::Fault(fault));
        }
        self.file.sync_all().map_err(|e| io_err("sync", &path, e))?;
        self.synced_len = self.segment_len;
        self.synced_seq = self.next_seq;
        self.incr(Metric::WalFlushes);
        Ok(())
    }

    /// Deletes every segment and starts a fresh one whose numbering
    /// continues at the current `next_seq` — the log half of a checkpoint,
    /// called after the folded snapshot is durably in place.
    ///
    /// Fault site [`Site::WalCheckpoint`] (key `truncate`): fires before
    /// anything is deleted, modelling a crash between snapshot fold and
    /// log truncation; the stale log survives intact and recovery skips
    /// its records by sequence number.
    pub fn truncate_all(&mut self) -> Result<(), StoreError> {
        self.faults.check(Site::WalCheckpoint, "truncate").map_err(StoreError::Fault)?;
        let next = self.next_seq;
        for path in Self::segment_paths(&self.base) {
            std::fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
        }
        let fresh = Wal::create(&self.base, next, self.faults, self.metrics.clone())?;
        let cap = self.segment_cap;
        *self = fresh;
        self.segment_cap = cap;
        Ok(())
    }

    fn roll_segment(&mut self) -> Result<(), StoreError> {
        let index = self.segment_index + 1;
        self.file = open_segment(&self.base, index, self.next_seq)?;
        self.segment_index = index;
        self.segment_len = HEADER_LEN;
        self.synced_len = HEADER_LEN;
        self.synced_seq = self.next_seq;
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
        for p in Wal::segment_paths(base) {
            let _ = std::fs::remove_file(p);
        }
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
        assert_eq!(recovery, WalRecovery { segments: 1, records: 3, ..WalRecovery::default() });
        assert_eq!(
            records,
            vec![
                WalRecord { seq: 1, payload: b"alpha".to_vec() },
                WalRecord { seq: 2, payload: b"beta".to_vec() },
                WalRecord { seq: 3, payload: b"gamma".to_vec() },
            ]
        );
        assert_eq!(wal.next_seq(), 4);
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
        let err = wal.flush().unwrap_err();
        assert!(matches!(err, StoreError::Fault(f) if f.site == Site::WalFlush));
        assert_eq!(wal.next_seq(), 2, "rolled-back seq is reused");
        drop(wal);

        let (_, records, recovery) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"durable");
        assert_eq!(recovery.torn_truncations, 0, "rollback leaves no torn tail");
        cleanup(&base);
    }

    #[test]
    fn segments_roll_and_chain() {
        let base = tmp("segments");
        cleanup(&base);
        let mut wal = Wal::create(&base, 1, FaultPlan::disabled(), None).unwrap();
        wal.set_segment_cap(64);
        for i in 0..10u32 {
            wal.append(format!("record-{i}-payload-padding").as_bytes()).unwrap();
            wal.flush().unwrap();
        }
        assert!(wal.segment_index() > 0, "cap of 64B must roll");
        drop(wal);
        let (wal, records, recovery) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(records.len(), 10);
        assert!(recovery.segments > 1);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=10).collect::<Vec<_>>());
        assert_eq!(wal.next_seq(), 11);
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
        cleanup(&a);
        cleanup(&b);
        for base in [&a, &b] {
            let mut wal = Wal::create(base, 1, FaultPlan::disabled(), None).unwrap();
            wal.set_segment_cap(96);
            for i in 0..8u32 {
                wal.append(format!("delta-{i}").as_bytes()).unwrap();
            }
            wal.flush().unwrap();
        }
        let pa = Wal::segment_paths(&a);
        let pb = Wal::segment_paths(&b);
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(std::fs::read(x).unwrap(), std::fs::read(y).unwrap());
        }
        cleanup(&a);
        cleanup(&b);
    }

    #[test]
    fn mid_log_damage_is_typed_corruption_not_truncation() {
        let base = tmp("midlog");
        cleanup(&base);
        let mut wal = Wal::create(&base, 1, FaultPlan::disabled(), None).unwrap();
        wal.append(b"first-record-payload").unwrap();
        wal.append(b"second-record-payload").unwrap();
        wal.flush().unwrap();
        drop(wal);
        // Flip a byte inside the FIRST record's payload: the checksum
        // fails, everything after is unreadable, and — because the damage
        // is not at the acknowledged tail — recovery still truncates to
        // the last verifiable prefix (zero records) rather than erroring:
        // a torn tail and mid-log rot are indistinguishable to a scanner.
        let path = segment_path(&base, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let off = HEADER_LEN as usize + FRAME_HEADER_LEN + 2;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, records, recovery) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!(records.len(), 0);
        assert_eq!(recovery.torn_truncations, 1);
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
        let path = segment_path(&base, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF; // magic
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&base, FaultPlan::disabled(), None).unwrap_err();
        assert!(matches!(err, StoreError::WalCorrupt { segment: 0, .. }), "{err}");
        // Unsupported version is typed, too.
        bytes[0] ^= 0xFF;
        bytes[11] = 9;
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&base, FaultPlan::disabled(), None).unwrap_err();
        match err {
            StoreError::WalCorrupt { segment: 0, reason } => {
                assert!(reason.contains("version"), "{reason}")
            }
            other => panic!("expected WalCorrupt, got {other}"),
        }
        cleanup(&base);
    }

    /// Four one-record segments (cap 64 B), all durable.
    fn four_segment_log(base: &Path) -> u32 {
        cleanup(base);
        let mut wal = Wal::create(base, 1, FaultPlan::disabled(), None).unwrap();
        wal.set_segment_cap(64);
        for i in 0..4u32 {
            wal.append(format!("record-{i}-payload-padding").as_bytes()).unwrap();
            wal.flush().unwrap();
        }
        assert_eq!(wal.segment_index(), 3);
        wal.segment_index()
    }

    #[test]
    fn short_trailing_segment_is_an_unfinished_roll() {
        // A crash inside `open_segment` during a roll: the file exists, its
        // header does not (empty, or cut inside the 24 bytes).
        for torn_len in [0usize, 10] {
            let base = tmp(&format!("tornroll{torn_len}"));
            let last = four_segment_log(&base);
            let torn = segment_path(&base, last + 1);
            std::fs::write(&torn, &encode_header(last + 1, 5)[..torn_len]).unwrap();

            let (mut wal, records, recovery) =
                Wal::open(&base, FaultPlan::disabled(), None).unwrap();
            assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
            assert_eq!(
                recovery,
                WalRecovery {
                    segments: 4,
                    records: 4,
                    torn_truncations: 1,
                    truncated_bytes: torn_len as u64
                }
            );
            assert!(!torn.exists(), "the unfinished segment is deleted");
            assert_eq!(wal.segment_index(), last, "appends resume on the segment before it");
            assert_eq!(wal.append(b"next").unwrap(), 5);
            wal.flush().unwrap();
            drop(wal);
            let (_, records, recovery) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
            assert_eq!(records.len(), 5);
            assert_eq!(records[4], WalRecord { seq: 5, payload: b"next".to_vec() });
            assert_eq!(recovery.torn_truncations, 0, "repaired once, clean afterwards");
            cleanup(&base);
        }
    }

    #[test]
    fn lone_short_segment_is_no_log_yet() {
        // A crash inside `create` (first enable, or the re-create half of
        // `truncate_all`): nothing was ever appended, so there is no log.
        for torn_len in [0usize, 10] {
            let base = tmp(&format!("torncreate{torn_len}"));
            cleanup(&base);
            std::fs::write(segment_path(&base, 0), &encode_header(0, 7)[..torn_len]).unwrap();
            assert!(!Wal::exists(&base));
            let err = Wal::open(&base, FaultPlan::disabled(), None).unwrap_err();
            assert!(matches!(err, StoreError::Io(_)), "{err}");
            let mut wal = Wal::create(&base, 7, FaultPlan::disabled(), None).unwrap();
            assert_eq!(wal.append(b"first").unwrap(), 7);
            wal.flush().unwrap();
            drop(wal);
            assert!(Wal::exists(&base));
            let (_, records, _) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
            assert_eq!(records, vec![WalRecord { seq: 7, payload: b"first".to_vec() }]);
            cleanup(&base);
        }
    }

    #[test]
    fn short_header_before_the_last_segment_and_bad_last_header_stay_corrupt() {
        let base = tmp("shortmid");
        let last = four_segment_log(&base);
        let corrupt_at = |index: u32, bytes: &[u8]| {
            let path = segment_path(&base, index);
            let saved = std::fs::read(&path).unwrap();
            std::fs::write(&path, bytes).unwrap();
            let err = Wal::open(&base, FaultPlan::disabled(), None).unwrap_err();
            std::fs::write(&path, saved).unwrap();
            match err {
                StoreError::WalCorrupt { segment, reason } => {
                    assert_eq!(segment, index, "{reason}");
                    reason
                }
                other => panic!("expected WalCorrupt, got {other}"),
            }
        };
        // Acknowledged records follow a short header: not a tail.
        assert!(corrupt_at(0, &[]).contains("header truncated"));
        assert!(corrupt_at(1, &encode_header(1, 2)[..10]).contains("header truncated"));
        // A full-length header is judged on its content wherever it sits.
        let mut bad_magic = encode_header(last, 4);
        bad_magic[0] ^= 0xFF;
        assert!(corrupt_at(last, &bad_magic).contains("magic"));
        let mut bad_version = encode_header(last, 4);
        bad_version[11] = 9;
        assert!(corrupt_at(last, &bad_version).contains("version"));
        assert!(corrupt_at(last, &encode_header(last + 1, 4)).contains("chain gap"));
        // Nothing above repaired or removed anything.
        let (_, records, recovery) = Wal::open(&base, FaultPlan::disabled(), None).unwrap();
        assert_eq!((records.len(), recovery.torn_truncations), (4, 0));
        cleanup(&base);
    }
}

//! Property suite for the snapshot section file (detkit harness, with
//! shrinking).
//!
//! Section sets are arbitrary, with lengths drawn around the frame-header
//! size — where a reader that confuses framing with payload goes wrong if
//! it goes wrong anywhere. Three properties: what is written is what is
//! read and the same input is the same file; no single flipped byte
//! survives the frame checksums and the header check; no truncation is
//! read as a shorter snapshot.

use std::path::{Path, PathBuf};

use detkit::prop::{just, one_of, usizes, vec_of, zip, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use faultkit::FaultPlan;
use storekit::{Snapshot, SnapshotWriter, StoreError, FRAME_HEADER_LEN};

/// Magic "USKSNAP1" and a `u32` version.
const FILE_HEADER_LEN: usize = 8 + 4;

/// One section per `(length, fill)` pair: named by position, filled with
/// a byte pattern that differs between sections and along a section.
fn section_sets() -> Gen<Vec<(String, Vec<u8>)>> {
    let length = one_of(vec![
        just(0),
        just(1),
        just(FRAME_HEADER_LEN - 1),
        just(FRAME_HEADER_LEN),
        just(FRAME_HEADER_LEN + 1),
        usizes(2, 2 * FRAME_HEADER_LEN),
        usizes(100, 20_000),
    ]);
    vec_of(&zip(&length, &usizes(0, 250)), 0, 6).map(|specs| {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(len, fill))| {
                let bytes = (0..len).map(|j| ((fill + j + j / 97) % 251) as u8).collect();
                (format!("section-{i}"), bytes)
            })
            .collect()
    })
}

/// Picks that the damage properties scale to a file's length.
fn picks() -> Gen<Vec<usize>> {
    vec_of(&usizes(0, 1 << 20), 1, 8)
}

fn tmp(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "storekit-sections-{}-{tag}-{:?}.usk",
        std::process::id(),
        std::thread::current().id()
    ));
    path
}

fn write(path: &Path, sections: &[(String, Vec<u8>)]) -> Result<Vec<u8>, String> {
    let mut w = SnapshotWriter::create(path, FaultPlan::disabled()).map_err(|e| e.to_string())?;
    for (name, bytes) in sections {
        w.add_section(name, bytes).map_err(|e| e.to_string())?;
    }
    w.commit(path).map_err(|e| e.to_string())?;
    std::fs::read(path).map_err(|e| e.to_string())
}

/// Opens `path` and reads every section back, in file order.
fn read_all(path: &Path, sections: &[(String, Vec<u8>)]) -> Result<Vec<Vec<u8>>, StoreError> {
    let snap = Snapshot::open(path)?;
    sections.iter().map(|(name, _)| snap.section(name).map(<[u8]>::to_vec)).collect()
}

/// Where each frame ends: one frame per section (payload = `u32` name
/// length, name, bytes), then the closing frame (empty name, `u64` count).
fn frame_ends(sections: &[(String, Vec<u8>)]) -> Vec<usize> {
    let payloads = sections.iter().map(|(name, bytes)| 4 + name.len() + bytes.len());
    let mut end = FILE_HEADER_LEN;
    payloads
        .chain([4 + 8])
        .map(|len| {
            end += FRAME_HEADER_LEN + len;
            end
        })
        .collect()
}

prop_check!(sections_round_trip_and_rewrite_byte_identically, section_sets(), |sections| {
    let (a, b) = (tmp("rt-a"), tmp("rt-b"));
    let first = write(&a, sections)?;

    // The second writer is also offered a name it already holds: the
    // refusal is typed and leaves no trace in the file.
    let mut w = SnapshotWriter::create(&b, FaultPlan::disabled()).map_err(|e| e.to_string())?;
    for (name, bytes) in sections {
        w.add_section(name, bytes).map_err(|e| e.to_string())?;
        let again = w.add_section(name, b"again");
        prop_assert!(matches!(again, Err(StoreError::InvalidSnapshot(_))), "{again:?}");
    }
    w.commit(&b).map_err(|e| e.to_string())?;
    let second = std::fs::read(&b).map_err(|e| e.to_string())?;
    prop_assert!(first == second, "two writes of the same sections differ");

    let ends = frame_ends(sections);
    prop_assert_eq!(ends.last(), Some(&first.len()), "header + frames");
    let got = read_all(&a, sections).map_err(|e| e.to_string())?;
    for ((name, want), got) in sections.iter().zip(&got) {
        prop_assert!(want == got, "{name}: wrote {} bytes, read {}", want.len(), got.len());
    }
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
    Ok(())
});

prop_check!(any_flipped_byte_is_rejected, zip(&section_sets(), &picks()), |(sections, picks)| {
    let path = tmp("flip");
    let clean = write(&path, sections)?;
    for pick in picks {
        let at = pick % clean.len();
        let mut damaged = clean.clone();
        damaged[at] ^= 1 << (pick % 8);
        std::fs::write(&path, &damaged).map_err(|e| e.to_string())?;
        let result = read_all(&path, sections);
        prop_assert!(
            matches!(result, Err(StoreError::Corrupt(_) | StoreError::InvalidSnapshot(_))),
            "byte {at} of {} flipped, read gave {:?}",
            clean.len(),
            result.map(|s| s.len())
        );
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
});

prop_check!(any_truncation_is_rejected, zip(&section_sets(), &picks()), |(sections, picks)| {
    let path = tmp("trunc");
    let clean = write(&path, sections)?;
    let ends = frame_ends(sections);
    for pick in picks {
        // Anywhere, and at a frame boundary (where every frame left is
        // whole). The last boundary is the whole file, so it is skipped.
        let boundary = if ends.len() > 1 { ends[pick % (ends.len() - 1)] } else { 0 };
        for keep in [pick % clean.len(), boundary, pick % FILE_HEADER_LEN] {
            std::fs::write(&path, &clean[..keep]).map_err(|e| e.to_string())?;
            let result = read_all(&path, sections);
            prop_assert!(
                result.is_err(),
                "{keep} of {} bytes kept, read gave {} sections",
                clean.len(),
                sections.len()
            );
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
});

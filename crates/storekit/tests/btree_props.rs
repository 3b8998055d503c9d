//! Model-diff property suite: the persistent B-tree against a
//! `std::collections::BTreeMap` oracle (detkit harness, with shrinking).
//!
//! Random operation scripts (insert / delete / lookup / range scan) run
//! against both the page-backed tree and the in-memory oracle; any
//! divergence shrinks to a minimal failing script. Workload shapes are
//! chosen to force every structural path: leaf splits, internal splits,
//! borrow, merge, and root collapse (fat values make pages overflow
//! after a handful of entries).

use std::collections::BTreeMap;

use detkit::prop::{usizes, vec_of, zip3, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use faultkit::FaultPlan;
use storekit::{BTree, BufferPool, Pager};

/// One scripted operation over a small key universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Insert(usize, usize),
    Delete(usize),
    Lookup(usize),
    Scan(usize, usize),
}

/// Generator: scripts of up to `len` ops over `keys` distinct keys, with
/// values fat enough (`val_stride` bytes times a small factor) to force
/// splits quickly.
fn scripts(keys: usize, len: usize) -> Gen<Vec<Op>> {
    let op =
        zip3(&usizes(0, 9), &usizes(0, keys - 1), &usizes(0, keys - 1)).map(
            |&(tag, a, b)| match tag {
                0 | 1 | 2 | 3 | 4 => Op::Insert(a, b),
                5 | 6 => Op::Delete(a),
                7 | 8 => Op::Lookup(a),
                _ => Op::Scan(a.min(b), a.max(b)),
            },
        );
    vec_of(&op, 1, len)
}

fn key_bytes(k: usize) -> Vec<u8> {
    format!("key-{k:06}").into_bytes()
}

/// Values are wide (size varies with the value tag) so a page holds only
/// a few cells — scripts of ~100 ops exercise multi-level trees.
fn val_bytes(v: usize) -> Vec<u8> {
    let width = 200 + (v % 7) * 120;
    vec![(v % 251) as u8; width]
}

/// The snapshot layer's shape: 1 KiB posting chunks beside short entries,
/// so cells in one node differ in size by two orders of magnitude.
fn mixed_val_bytes(v: usize) -> Vec<u8> {
    let width = if v.is_multiple_of(3) { storekit::MAX_VALUE } else { 4 + v % 9 };
    vec![(v % 251) as u8; width]
}

fn fresh_pool(tag: &str) -> (BufferPool, std::path::PathBuf) {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "storekit-props-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let pager = Pager::create(&path, FaultPlan::disabled()).expect("create page file");
    (BufferPool::new(pager, 8, None), path)
}

/// Runs a script against tree + oracle, checking every op's result and
/// the full ordered iteration at the end.
fn run_model_diff(script: &[Op], tag: &str, val_bytes: fn(usize) -> Vec<u8>) -> Result<(), String> {
    let (mut pool, path) = fresh_pool(tag);
    let mut tree = BTree::create(&mut pool).map_err(|e| e.to_string())?;
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for (step, op) in script.iter().enumerate() {
        match *op {
            Op::Insert(k, v) => {
                let key = key_bytes(k);
                let val = val_bytes(v);
                let got = tree.insert(&mut pool, &key, &val).map_err(|e| e.to_string())?;
                let want = oracle.insert(key, val);
                prop_assert_eq!(got, want, "insert at step {step}");
            }
            Op::Delete(k) => {
                let key = key_bytes(k);
                let got = tree.delete(&mut pool, &key).map_err(|e| e.to_string())?;
                let want = oracle.remove(&key);
                prop_assert_eq!(got, want, "delete at step {step}");
            }
            Op::Lookup(k) => {
                let key = key_bytes(k);
                let got = tree.get(&mut pool, &key).map_err(|e| e.to_string())?;
                let want = oracle.get(&key).cloned();
                prop_assert_eq!(got, want, "lookup at step {step}");
            }
            Op::Scan(lo, hi) => {
                let lo_k = key_bytes(lo);
                let hi_k = key_bytes(hi);
                let got =
                    tree.scan(&mut pool, Some(&lo_k), Some(&hi_k)).map_err(|e| e.to_string())?;
                let want: Vec<(Vec<u8>, Vec<u8>)> =
                    oracle.range(lo_k..hi_k).map(|(k, v)| (k.clone(), v.clone())).collect();
                prop_assert_eq!(got, want, "range scan at step {step}");
            }
        }
    }
    // Final full ordered iteration must equal the oracle exactly.
    let all = tree.scan(&mut pool, None, None).map_err(|e| e.to_string())?;
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    prop_assert_eq!(all.len(), want.len(), "final cardinality");
    prop_assert_eq!(all, want, "final ordered iteration");
    let _ = std::fs::remove_file(&path);
    Ok(())
}

// Mixed scripts over a small key universe: heavy overwrite and
// delete-reinsert churn, every op's result diffed against the oracle.
prop_check!(btree_matches_oracle_small_universe, scripts(12, 80), |script| {
    run_model_diff(script, "small", val_bytes)
});

// A wider key universe drives deeper trees (multi-level internal splits)
// before deletes walk them back down (borrow / merge / root collapse).
prop_check!(btree_matches_oracle_wide_universe, scripts(120, 120), |script| {
    run_model_diff(script, "wide", val_bytes)
});

// Page-quarter values mixed with values of a few bytes: a split must
// balance bytes, not cell counts, or one half overflows its page.
prop_check!(btree_matches_oracle_mixed_value_sizes, scripts(160, 200), |script| {
    run_model_diff(script, "mixed", mixed_val_bytes)
});

// Insert-then-delete-everything: the tree must drain to empty through
// merges and collapse its root, whatever the interleaving order.
prop_check!(btree_drains_to_empty, vec_of(&usizes(0, 60), 1, 80), |ks| {
    let (mut pool, path) = fresh_pool("drain");
    let mut tree = BTree::create(&mut pool).map_err(|e| e.to_string())?;
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for &k in ks {
        let key = key_bytes(k);
        let val = val_bytes(k);
        tree.insert(&mut pool, &key, &val).map_err(|e| e.to_string())?;
        oracle.insert(key, val);
    }
    prop_assert_eq!(tree.len(&mut pool).map_err(|e| e.to_string())?, oracle.len());
    // Delete in generated (arbitrary) order, diffing each result.
    for &k in ks {
        let key = key_bytes(k);
        let got = tree.delete(&mut pool, &key).map_err(|e| e.to_string())?;
        prop_assert_eq!(got, oracle.remove(&key));
    }
    prop_assert!(tree.is_empty(&mut pool).map_err(|e| e.to_string())?, "tree drained");
    let _ = std::fs::remove_file(&path);
    Ok(())
});

// Determinism: replaying the same script into two fresh files produces
// byte-identical page files — the model-diff side of the snapshot
// byte-identity contract.
prop_check!(btree_replay_is_byte_identical, scripts(40, 60), |script| {
    let run = |tag: &str| -> Result<Vec<u8>, String> {
        let (mut pool, path) = fresh_pool(tag);
        let mut tree = BTree::create(&mut pool).map_err(|e| e.to_string())?;
        for op in script {
            match *op {
                Op::Insert(k, v) => {
                    tree.insert(&mut pool, &key_bytes(k), &val_bytes(v))
                        .map_err(|e| e.to_string())?;
                }
                Op::Delete(k) => {
                    tree.delete(&mut pool, &key_bytes(k)).map_err(|e| e.to_string())?;
                }
                Op::Lookup(k) => {
                    tree.get(&mut pool, &key_bytes(k)).map_err(|e| e.to_string())?;
                }
                Op::Scan(lo, hi) => {
                    tree.scan(&mut pool, Some(&key_bytes(lo)), Some(&key_bytes(hi)))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        pool.flush_all().map_err(|e| e.to_string())?;
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&path);
        Ok(bytes)
    };
    let a = run("replay-a")?;
    let b = run("replay-b")?;
    prop_assert_eq!(a.len(), b.len(), "file sizes diverge");
    prop_assert!(a == b, "page files diverge byte-wise");
    Ok(())
});

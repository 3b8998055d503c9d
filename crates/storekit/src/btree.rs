//! Persistent B-tree over the buffer pool.
//!
//! Keys and values are byte strings ordered lexicographically. Nodes are
//! slotted pages:
//!
//! - **leaf** cells: `[klen u16][vlen u16][key][value]`
//! - **internal** cells: `[klen u16][child u32][key]`, with the leftmost
//!   child (keys below every separator) in the page `aux` word. The cell
//!   at separator `k` routes keys `>= k` (up to the next separator).
//!
//! Every mutation decodes the touched node into vectors, modifies them,
//! and re-encodes the page canonically via [`Page::set_records`] — a page
//! image is a pure function of the node's logical content, which is what
//! makes same-seed snapshot files byte-identical (DESIGN.md §12).
//!
//! Balancing: a node that overflows its page splits where its two halves
//! come closest in bytes (leaf separators are copied up, internal
//! separators move up). A
//! non-root node that falls below quarter occupancy after a delete merges
//! with a sibling when the combined cells fit in one page, otherwise
//! borrows one cell; empty internal roots collapse into their only
//! child. Size bounds ([`MAX_KEY`], [`MAX_VALUE`]) keep a cell under
//! 1.6 KiB, so the halves of a byte-balanced split differ by less than
//! that and both fit their page, however cell sizes are mixed (a split by
//! cell count does not: two 1 KiB posting chunks beside short cells can
//! leave one half over a page).

use crate::buffer::BufferPool;
use crate::page::{Page, PageKind, PAYLOAD_SIZE};
use crate::StoreError;

/// Largest key the tree accepts, bytes.
pub const MAX_KEY: usize = 512;
/// Largest value the tree accepts, bytes; larger payloads are chunked by
/// the snapshot layer across consecutive keys.
pub const MAX_VALUE: usize = 1024;

/// Quarter occupancy: below this a non-root node seeks a merge/borrow.
const MIN_FILL: usize = PAYLOAD_SIZE / 4;

/// A persistent ordered map rooted at one page.
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    root: u32,
}

enum Node {
    Leaf { entries: Vec<(Vec<u8>, Vec<u8>)> },
    Internal { leftmost: u32, entries: Vec<(Vec<u8>, u32)> },
}

impl Node {
    fn encode(&self) -> (PageKind, u32, Vec<Vec<u8>>) {
        match self {
            Node::Leaf { entries } => {
                let cells = entries
                    .iter()
                    .map(|(k, v)| {
                        let mut c = Vec::with_capacity(4 + k.len() + v.len());
                        c.extend_from_slice(&(k.len() as u16).to_le_bytes());
                        c.extend_from_slice(&(v.len() as u16).to_le_bytes());
                        c.extend_from_slice(k);
                        c.extend_from_slice(v);
                        c
                    })
                    .collect();
                (PageKind::BtreeLeaf, 0, cells)
            }
            Node::Internal { leftmost, entries } => {
                let cells = entries
                    .iter()
                    .map(|(k, child)| {
                        let mut c = Vec::with_capacity(6 + k.len());
                        c.extend_from_slice(&(k.len() as u16).to_le_bytes());
                        c.extend_from_slice(&child.to_le_bytes());
                        c.extend_from_slice(k);
                        c
                    })
                    .collect();
                (PageKind::BtreeInternal, *leftmost, cells)
            }
        }
    }

    fn size(&self) -> usize {
        let (_, _, cells) = self.encode();
        Page::records_size(&cells)
    }

    /// The cell index that splits this node into the two byte-wise most
    /// even halves (`1..len`, both halves non-empty).
    fn split_point(&self) -> usize {
        let (_, _, cells) = self.encode();
        let total = Page::records_size(&cells);
        let mut left = 0;
        (1..cells.len())
            .min_by_key(|&mid| {
                left += Page::records_size(&cells[mid - 1..mid]);
                left.abs_diff(total - left)
            })
            .unwrap_or(1)
    }
}

fn corrupt(page_id: u32, reason: &str) -> StoreError {
    StoreError::Corrupt { page_id, reason: reason.to_string() }
}

fn decode_leaf_cell(page_id: u32, cell: &[u8]) -> Result<(Vec<u8>, Vec<u8>), StoreError> {
    if cell.len() < 4 {
        return Err(corrupt(page_id, "leaf cell shorter than its header"));
    }
    let klen = u16::from_le_bytes([cell[0], cell[1]]) as usize;
    let vlen = u16::from_le_bytes([cell[2], cell[3]]) as usize;
    let key =
        cell.get(4..4 + klen).ok_or_else(|| corrupt(page_id, "leaf cell key overruns cell"))?;
    let val = cell
        .get(4 + klen..4 + klen + vlen)
        .ok_or_else(|| corrupt(page_id, "leaf cell value overruns cell"))?;
    Ok((key.to_vec(), val.to_vec()))
}

fn decode_internal_cell(page_id: u32, cell: &[u8]) -> Result<(Vec<u8>, u32), StoreError> {
    if cell.len() < 6 {
        return Err(corrupt(page_id, "internal cell shorter than its header"));
    }
    let klen = u16::from_le_bytes([cell[0], cell[1]]) as usize;
    let child = u32::from_le_bytes([cell[2], cell[3], cell[4], cell[5]]);
    let key =
        cell.get(6..6 + klen).ok_or_else(|| corrupt(page_id, "internal cell key overruns cell"))?;
    Ok((key.to_vec(), child))
}

fn load(pool: &mut BufferPool, id: u32) -> Result<Node, StoreError> {
    pool.read(id, |page| -> Result<Node, StoreError> {
        match page.kind() {
            PageKind::BtreeLeaf => {
                let mut entries = Vec::with_capacity(page.slot_count() as usize);
                for slot in 0..page.slot_count() {
                    entries.push(decode_leaf_cell(id, page.record(slot)?)?);
                }
                Ok(Node::Leaf { entries })
            }
            PageKind::BtreeInternal => {
                let leftmost = page.aux();
                let mut entries = Vec::with_capacity(page.slot_count() as usize);
                for slot in 0..page.slot_count() {
                    entries.push(decode_internal_cell(id, page.record(slot)?)?);
                }
                Ok(Node::Internal { leftmost, entries })
            }
            other => Err(corrupt(id, &format!("expected b-tree node, found {other:?}"))),
        }
    })?
}

fn store(pool: &mut BufferPool, id: u32, node: &Node) -> Result<(), StoreError> {
    let (kind, aux, cells) = node.encode();
    pool.write(id, |page| -> Result<(), StoreError> {
        page.set_kind(kind);
        page.set_aux(aux);
        page.set_records(&cells)
    })?
}

/// Routes `key` to a child slot: `0` means the leftmost child, `i + 1`
/// means `entries[i].1`. Keys equal to a separator go right.
fn route(entries: &[(Vec<u8>, u32)], key: &[u8]) -> usize {
    entries.partition_point(|(k, _)| k.as_slice() <= key)
}

fn child_at(leftmost: u32, entries: &[(Vec<u8>, u32)], slot: usize) -> u32 {
    if slot == 0 {
        leftmost
    } else {
        entries[slot - 1].1
    }
}

impl BTree {
    /// Creates an empty tree, allocating its root leaf.
    pub fn create(pool: &mut BufferPool) -> Result<BTree, StoreError> {
        let root = pool.allocate(PageKind::BtreeLeaf)?;
        store(pool, root, &Node::Leaf { entries: Vec::new() })?;
        Ok(BTree { root })
    }

    /// Reattaches to a tree whose root page id was recorded elsewhere
    /// (the snapshot meta page).
    pub fn open(root: u32) -> BTree {
        BTree { root }
    }

    /// The current root page id (changes across splits and collapses —
    /// persist it after mutating).
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Inserts or replaces `key`, returning the previous value if any.
    pub fn insert(
        &mut self,
        pool: &mut BufferPool,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>, StoreError> {
        if key.len() > MAX_KEY {
            return Err(StoreError::TooLarge {
                what: "b-tree key".to_string(),
                size: key.len(),
                max: MAX_KEY,
            });
        }
        if value.len() > MAX_VALUE {
            return Err(StoreError::TooLarge {
                what: "b-tree value".to_string(),
                size: value.len(),
                max: MAX_VALUE,
            });
        }
        let (old, split) = self.insert_rec(pool, self.root, key, value)?;
        if let Some((sep, right)) = split {
            let new_root = pool.allocate(PageKind::BtreeInternal)?;
            store(
                pool,
                new_root,
                &Node::Internal { leftmost: self.root, entries: vec![(sep, right)] },
            )?;
            self.root = new_root;
        }
        Ok(old)
    }

    fn insert_rec(
        &mut self,
        pool: &mut BufferPool,
        id: u32,
        key: &[u8],
        value: &[u8],
    ) -> Result<(Option<Vec<u8>>, Option<(Vec<u8>, u32)>), StoreError> {
        match load(pool, id)? {
            Node::Leaf { mut entries } => {
                let old = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => Some(std::mem::replace(&mut entries[i].1, value.to_vec())),
                    Err(i) => {
                        entries.insert(i, (key.to_vec(), value.to_vec()));
                        None
                    }
                };
                let node = Node::Leaf { entries };
                if node.size() <= PAYLOAD_SIZE {
                    store(pool, id, &node)?;
                    return Ok((old, None));
                }
                let mid = node.split_point();
                let Node::Leaf { mut entries } = node else {
                    return Err(corrupt(id, "leaf changed kind"));
                };
                let right_entries = entries.split_off(mid);
                let sep = right_entries
                    .first()
                    .map(|(k, _)| k.clone())
                    .ok_or_else(|| corrupt(id, "leaf split produced empty right node"))?;
                let right = pool.allocate(PageKind::BtreeLeaf)?;
                store(pool, id, &Node::Leaf { entries })?;
                store(pool, right, &Node::Leaf { entries: right_entries })?;
                Ok((old, Some((sep, right))))
            }
            Node::Internal { leftmost, mut entries } => {
                let slot = route(&entries, key);
                let child = child_at(leftmost, &entries, slot);
                let (old, split) = self.insert_rec(pool, child, key, value)?;
                let Some((sep, new_child)) = split else {
                    return Ok((old, None));
                };
                let pos = entries.partition_point(|(k, _)| k.as_slice() < sep.as_slice());
                entries.insert(pos, (sep, new_child));
                let node = Node::Internal { leftmost, entries };
                if node.size() <= PAYLOAD_SIZE {
                    store(pool, id, &node)?;
                    return Ok((old, None));
                }
                let mid = node.split_point();
                let Node::Internal { leftmost, mut entries } = node else {
                    return Err(corrupt(id, "internal changed kind"));
                };
                let mut right_entries = entries.split_off(mid);
                let (up_key, up_child) = if right_entries.is_empty() {
                    return Err(corrupt(id, "internal split produced empty right node"));
                } else {
                    right_entries.remove(0)
                };
                let right = pool.allocate(PageKind::BtreeInternal)?;
                store(pool, id, &Node::Internal { leftmost, entries })?;
                store(pool, right, &Node::Internal { leftmost: up_child, entries: right_entries })?;
                Ok((old, Some((up_key, right))))
            }
        }
    }

    /// Looks up `key`.
    pub fn get(&self, pool: &mut BufferPool, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let mut id = self.root;
        loop {
            match load(pool, id)? {
                Node::Leaf { entries } => {
                    return Ok(entries
                        .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                        .ok()
                        .map(|i| entries[i].1.clone()));
                }
                Node::Internal { leftmost, entries } => {
                    id = child_at(leftmost, &entries, route(&entries, key));
                }
            }
        }
    }

    /// Removes `key`, returning its value if present. Non-root nodes that
    /// fall below quarter occupancy merge with or borrow from a sibling;
    /// an empty internal root collapses into its only child.
    pub fn delete(
        &mut self,
        pool: &mut BufferPool,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, StoreError> {
        let (old, _under) = self.delete_rec(pool, self.root, key)?;
        if old.is_some() {
            if let Node::Internal { leftmost, entries } = load(pool, self.root)? {
                if entries.is_empty() {
                    let stale = self.root;
                    self.root = leftmost;
                    pool.free(stale)?;
                }
            }
        }
        Ok(old)
    }

    fn delete_rec(
        &mut self,
        pool: &mut BufferPool,
        id: u32,
        key: &[u8],
    ) -> Result<(Option<Vec<u8>>, bool), StoreError> {
        match load(pool, id)? {
            Node::Leaf { mut entries } => {
                let Ok(i) = entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) else {
                    return Ok((None, false));
                };
                let (_, old) = entries.remove(i);
                let node = Node::Leaf { entries };
                let under = node.size() < MIN_FILL;
                store(pool, id, &node)?;
                Ok((Some(old), under))
            }
            Node::Internal { mut leftmost, mut entries } => {
                let slot = route(&entries, key);
                let child = child_at(leftmost, &entries, slot);
                let (old, child_under) = self.delete_rec(pool, child, key)?;
                if old.is_none() {
                    return Ok((None, false));
                }
                if child_under && !entries.is_empty() {
                    rebalance_child(pool, &mut leftmost, &mut entries, slot)?;
                }
                let node = Node::Internal { leftmost, entries };
                let under = node.size() < MIN_FILL;
                store(pool, id, &node)?;
                Ok((old, under))
            }
        }
    }

    /// All entries with `lo <= key < hi` in key order (`None` bounds are
    /// open). `scan(None, None)` is a full ordered iteration.
    pub fn scan(
        &self,
        pool: &mut BufferPool,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, StoreError> {
        let mut out = Vec::new();
        self.scan_rec(pool, self.root, lo, hi, &mut out)?;
        Ok(out)
    }

    fn scan_rec(
        &self,
        pool: &mut BufferPool,
        id: u32,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), StoreError> {
        match load(pool, id)? {
            Node::Leaf { entries } => {
                for (k, v) in entries {
                    if lo.is_some_and(|lo| k.as_slice() < lo) {
                        continue;
                    }
                    if hi.is_some_and(|hi| k.as_slice() >= hi) {
                        break;
                    }
                    out.push((k, v));
                }
            }
            Node::Internal { leftmost, entries } => {
                // Children overlapping [lo, hi): from the child routing lo
                // (or the first) through the child routing hi.
                let first = lo.map_or(0, |lo| route(&entries, lo));
                let last = hi.map_or(entries.len(), |hi| route(&entries, hi));
                for slot in first..=last {
                    self.scan_rec(pool, child_at(leftmost, &entries, slot), lo, hi, out)?;
                }
            }
        }
        Ok(())
    }

    /// Number of entries (full traversal).
    pub fn len(&self, pool: &mut BufferPool) -> Result<usize, StoreError> {
        Ok(self.scan(pool, None, None)?.len())
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self, pool: &mut BufferPool) -> Result<bool, StoreError> {
        Ok(self.len(pool)? == 0)
    }
}

/// Restores occupancy of the child at `slot` by merging with an adjacent
/// sibling when the combined cells fit in one page, or borrowing one cell
/// otherwise. `leftmost`/`entries` are the parent's decoded fields; the
/// caller re-stores the parent.
fn rebalance_child(
    pool: &mut BufferPool,
    leftmost: &mut u32,
    entries: &mut Vec<(Vec<u8>, u32)>,
    slot: usize,
) -> Result<(), StoreError> {
    // Pair the underflowing child with its left sibling when it has one,
    // else with its right sibling. `sep_idx` separates the pair.
    let (sep_idx, under_is_right) = if slot > 0 { (slot - 1, true) } else { (0, false) };
    let left_id = child_at(*leftmost, entries, sep_idx);
    let right_id = entries
        .get(sep_idx)
        .map(|(_, c)| *c)
        .ok_or_else(|| corrupt(left_id, "rebalance with no sibling"))?;
    let left = load(pool, left_id)?;
    let right = load(pool, right_id)?;
    match (left, right) {
        (Node::Leaf { entries: mut le }, Node::Leaf { entries: mut re }) => {
            let merged_size = {
                let mut all = le.clone();
                all.extend(re.iter().cloned());
                Node::Leaf { entries: all }.size()
            };
            if merged_size <= PAYLOAD_SIZE {
                le.extend(re);
                store(pool, left_id, &Node::Leaf { entries: le })?;
                pool.free(right_id)?;
                entries.remove(sep_idx);
                return Ok(());
            }
            // Borrow one cell toward the poorer side.
            if under_is_right {
                let moved = le.pop().ok_or_else(|| corrupt(left_id, "borrow from empty leaf"))?;
                re.insert(0, moved);
            } else {
                if re.is_empty() {
                    return Err(corrupt(right_id, "borrow from empty leaf"));
                }
                le.push(re.remove(0));
            }
            let new_sep = re
                .first()
                .map(|(k, _)| k.clone())
                .ok_or_else(|| corrupt(right_id, "leaf emptied by borrow"))?;
            entries[sep_idx].0 = new_sep;
            store(pool, left_id, &Node::Leaf { entries: le })?;
            store(pool, right_id, &Node::Leaf { entries: re })?;
            Ok(())
        }
        (
            Node::Internal { leftmost: l_left, entries: mut le },
            Node::Internal { leftmost: r_left, entries: mut re },
        ) => {
            let sep_key = entries[sep_idx].0.clone();
            let merged_size = {
                let mut all = le.clone();
                all.push((sep_key.clone(), r_left));
                all.extend(re.iter().cloned());
                Node::Internal { leftmost: l_left, entries: all }.size()
            };
            if merged_size <= PAYLOAD_SIZE {
                le.push((sep_key, r_left));
                le.extend(re);
                store(pool, left_id, &Node::Internal { leftmost: l_left, entries: le })?;
                pool.free(right_id)?;
                entries.remove(sep_idx);
                return Ok(());
            }
            // Rotate one separator through the parent.
            if under_is_right {
                let (lk, lc) =
                    le.pop().ok_or_else(|| corrupt(left_id, "rotate from empty internal"))?;
                re.insert(0, (sep_key, r_left));
                store(pool, right_id, &Node::Internal { leftmost: lc, entries: re })?;
                store(pool, left_id, &Node::Internal { leftmost: l_left, entries: le })?;
                entries[sep_idx].0 = lk;
            } else {
                if re.is_empty() {
                    return Err(corrupt(right_id, "rotate from empty internal"));
                }
                let (rk, rc) = re.remove(0);
                le.push((sep_key, r_left));
                store(pool, left_id, &Node::Internal { leftmost: l_left, entries: le })?;
                store(pool, right_id, &Node::Internal { leftmost: rc, entries: re })?;
                entries[sep_idx].0 = rk;
            }
            Ok(())
        }
        _ => Err(corrupt(left_id, "sibling nodes differ in kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;
    use faultkit::FaultPlan;

    fn pool(name: &str) -> (BufferPool, std::path::PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!("storekit-btree-{}-{name}", std::process::id()));
        let pager = Pager::create(&path, FaultPlan::disabled()).unwrap();
        (BufferPool::new(pager, 8, None), path)
    }

    #[test]
    fn insert_get_delete_basic() {
        let (mut p, path) = pool("basic");
        let mut t = BTree::create(&mut p).unwrap();
        assert_eq!(t.insert(&mut p, b"b", b"2").unwrap(), None);
        assert_eq!(t.insert(&mut p, b"a", b"1").unwrap(), None);
        assert_eq!(t.insert(&mut p, b"a", b"one").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(&mut p, b"a").unwrap(), Some(b"one".to_vec()));
        assert_eq!(t.get(&mut p, b"zz").unwrap(), None);
        assert_eq!(t.delete(&mut p, b"a").unwrap(), Some(b"one".to_vec()));
        assert_eq!(t.delete(&mut p, b"a").unwrap(), None);
        assert_eq!(t.len(&mut p).unwrap(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn many_inserts_split_and_stay_ordered() {
        let (mut p, path) = pool("splits");
        let mut t = BTree::create(&mut p).unwrap();
        // Big values force multi-level splits quickly.
        for i in (0..500u32).rev() {
            let key = format!("key-{i:05}");
            let val = vec![(i % 251) as u8; 64];
            t.insert(&mut p, key.as_bytes(), &val).unwrap();
        }
        assert_eq!(t.len(&mut p).unwrap(), 500);
        let all = t.scan(&mut p, None, None).unwrap();
        let keys: Vec<_> = all.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "ordered iteration");
        for i in 0..500u32 {
            let key = format!("key-{i:05}");
            assert_eq!(
                t.get(&mut p, key.as_bytes()).unwrap(),
                Some(vec![(i % 251) as u8; 64]),
                "{key}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn split_balances_bytes_not_cell_count() {
        // Twenty short cells then four page-quarter cells: halving by count
        // would leave all four wide cells (4 × ~1 KiB) in the right half.
        let (mut p, path) = pool("byte-split");
        let mut t = BTree::create(&mut p).unwrap();
        for i in 0..20u32 {
            t.insert(&mut p, format!("a{i:02}").as_bytes(), b"short").unwrap();
        }
        for i in 0..4u32 {
            t.insert(&mut p, format!("b{i}").as_bytes(), &[i as u8; MAX_VALUE]).unwrap();
        }
        // Growing a value in place overflows a full leaf the same way.
        t.insert(&mut p, b"a00", &[7u8; MAX_VALUE]).unwrap();
        assert_eq!(t.len(&mut p).unwrap(), 24);
        assert_eq!(t.get(&mut p, b"b3").unwrap(), Some(vec![3u8; MAX_VALUE]));
        assert_eq!(t.get(&mut p, b"a00").unwrap(), Some(vec![7u8; MAX_VALUE]));
        assert_eq!(t.get(&mut p, b"a19").unwrap(), Some(b"short".to_vec()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deletes_merge_back_down() {
        let (mut p, path) = pool("merges");
        let mut t = BTree::create(&mut p).unwrap();
        for i in 0..400u32 {
            t.insert(&mut p, format!("k{i:04}").as_bytes(), &[i as u8; 100]).unwrap();
        }
        for i in 0..400u32 {
            assert!(t.delete(&mut p, format!("k{i:04}").as_bytes()).unwrap().is_some(), "{i}");
        }
        assert!(t.is_empty(&mut p).unwrap());
        // After full deletion the root collapsed back to a single leaf.
        assert!(
            matches!(load(&mut p, t.root()).unwrap(), Node::Leaf { entries } if entries.is_empty())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn range_scan_respects_bounds() {
        let (mut p, path) = pool("range");
        let mut t = BTree::create(&mut p).unwrap();
        for i in 0..100u32 {
            t.insert(&mut p, format!("{i:03}").as_bytes(), b"v").unwrap();
        }
        let mid = t.scan(&mut p, Some(b"010"), Some(b"020")).unwrap();
        let keys: Vec<String> =
            mid.iter().map(|(k, _)| String::from_utf8(k.clone()).unwrap()).collect();
        assert_eq!(keys, (10..20).map(|i| format!("{i:03}")).collect::<Vec<_>>());
        assert_eq!(t.scan(&mut p, Some(b"zzz"), None).unwrap(), vec![]);
        assert_eq!(t.scan(&mut p, None, Some(b"000")).unwrap(), vec![]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_keys_and_values_rejected() {
        let (mut p, path) = pool("limits");
        let mut t = BTree::create(&mut p).unwrap();
        assert!(matches!(
            t.insert(&mut p, &vec![0u8; MAX_KEY + 1], b"v"),
            Err(StoreError::TooLarge { .. })
        ));
        assert!(matches!(
            t.insert(&mut p, b"k", &vec![0u8; MAX_VALUE + 1]),
            Err(StoreError::TooLarge { .. })
        ));
        assert!(t.insert(&mut p, &vec![1u8; MAX_KEY], &vec![2u8; MAX_VALUE]).is_ok());
        let _ = std::fs::remove_file(&path);
    }
}

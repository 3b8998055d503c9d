//! The referential-entity table anchor linking reads (DESIGN.md §5b).
//!
//! A question's mentions link to entity nodes by exact name, then by fuzzy
//! label similarity, then by a shared label word. Both fallbacks are about
//! referential entities only ([`EntityKind::is_referential`]), and a
//! question that names no known entity takes both. The table keeps what
//! they read in the shape they read it: labels grouped by char length, so
//! a similarity bound that rules out a length skips its whole group, and
//! each label word's entities, so a word is one lookup. The graph keeps
//! the table current as entities are added; it is derived from the nodes
//! and never persisted.
//!
//! [`EntityKind::is_referential`]: unisem_slm::EntityKind::is_referential

use std::collections::BTreeMap;

use crate::graph::NodeId;

/// The labels of one char length, back to back in ascending node-id order.
#[derive(Debug, Clone, Default, PartialEq)]
struct LengthGroup {
    /// The labels, concatenated.
    text: String,
    /// Per label, its node and the byte offset in `text` where it ends.
    entries: Vec<(NodeId, u32)>,
}

/// Referential entities by label length and by label word.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EntityTable {
    /// `by_length[n]` holds the labels of `n` chars.
    by_length: Vec<LengthGroup>,
    /// Label word (a whitespace-separated part) → the ascending ids of the
    /// entities whose label holds it, each once.
    words: BTreeMap<String, Vec<NodeId>>,
    len: usize,
}

impl EntityTable {
    /// Records entity `id` labelled `label`. Ids arrive in ascending order
    /// (node ids are handed out densely), so every list stays sorted by
    /// appending and the cost is O(label).
    pub(crate) fn insert(&mut self, id: NodeId, label: &str) {
        let chars = label.chars().count();
        if self.by_length.len() <= chars {
            self.by_length.resize_with(chars + 1, LengthGroup::default);
        }
        let group = &mut self.by_length[chars];
        group.text.push_str(label);
        group.entries.push((id, group.text.len() as u32));
        for word in label.split_whitespace() {
            match self.words.get_mut(word) {
                // A word the label holds twice lists the entity once.
                Some(ids) if ids.last() == Some(&id) => {}
                Some(ids) => ids.push(id),
                None => {
                    self.words.insert(word.to_owned(), vec![id]);
                }
            }
        }
        self.len += 1;
    }

    /// Number of entities in the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the graph has no referential entity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The char lengths a label may have: every label is shorter than the
    /// end of this range.
    pub fn lengths(&self) -> std::ops::Range<usize> {
        0..self.by_length.len()
    }

    /// The entities whose label has `chars` chars, with their labels, in
    /// ascending id order.
    pub fn labels_of_length(&self, chars: usize) -> impl Iterator<Item = (NodeId, &str)> + '_ {
        let group = self.by_length.get(chars);
        let text = group.map_or("", |g| g.text.as_str());
        let mut start = 0;
        group.map_or(&[][..], |g| &g.entries[..]).iter().map(move |&(id, end)| {
            let label = &text[start..end as usize];
            start = end as usize;
            (id, label)
        })
    }

    /// The ascending ids of the entities whose label holds `word` as a
    /// whitespace-separated part.
    pub fn holding(&self, word: &str) -> &[NodeId] {
        self.words.get(word).map_or(&[], Vec::as_slice)
    }

    /// Every label word with [`Self::holding`]'s ids, in word order.
    pub fn words(&self) -> impl Iterator<Item = (&str, &[NodeId])> + '_ {
        self.words.iter().map(|(w, ids)| (w.as_str(), ids.as_slice()))
    }

    /// Approximate resident bytes: the label text and per-label entries of
    /// every length group, and each word with its id list.
    pub fn approx_bytes(&self) -> usize {
        let groups: usize = self
            .by_length
            .iter()
            .map(|g| g.text.len() + g.entries.len() * std::mem::size_of::<(NodeId, u32)>())
            .sum();
        let words: usize = self
            .words
            .iter()
            .map(|(w, ids)| w.len() + ids.len() * std::mem::size_of::<NodeId>())
            .sum();
        groups + words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_by_length_and_lists_each_word_once() {
        let mut t = EntityTable::default();
        t.insert(NodeId(2), "drug a");
        t.insert(NodeId(5), "né x");
        t.insert(NodeId(7), "drug b");
        t.insert(NodeId(9), "bora bora");
        assert_eq!(t.len(), 4);
        assert_eq!(
            t.labels_of_length(6).collect::<Vec<_>>(),
            [(NodeId(2), "drug a"), (NodeId(7), "drug b")]
        );
        // Lengths are in chars: "né x" is 4 chars in 5 bytes.
        assert_eq!(t.labels_of_length(4).collect::<Vec<_>>(), [(NodeId(5), "né x")]);
        assert_eq!(t.labels_of_length(3).count(), 0);
        assert_eq!(t.labels_of_length(99).count(), 0);
        assert_eq!(t.lengths(), 0..10);
        assert_eq!(t.holding("drug"), [NodeId(2), NodeId(7)]);
        assert_eq!(t.holding("bora"), [NodeId(9)]);
        assert!(t.holding("dru").is_empty());
        assert_eq!(t.words().count(), 6);
        assert!(t.approx_bytes() > 0);
    }
}

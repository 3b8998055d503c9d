//! Build-time statistics catalog (DESIGN.md §11).
//!
//! The cost model's and the pruning rule's only data input. Collected at
//! build time from every substrate: relational row counts, per-column
//! cardinalities and the folded values of string columns, inverted-index
//! posting-list lengths, and the graph degree histogram. Incremental ingest
//! keeps it current piecewise — [`TableStats::refresh`] for a table a delta
//! appended to, [`TextStats::collect`] and [`GraphDegreeStats::collect`]
//! from totals the substrates maintain as they append — and the result
//! equals a from-scratch [`StatsCatalog::collect`].
//!
//! Determinism contract: every number here is a pure function of the
//! ingested data — never of timing, thread count, or iteration order.
//! Tables live in a `BTreeMap`, so catalog iteration (and [`render`])
//! is byte-identical at any pool width; the thread-matrix test in
//! `tests/tests/planner_diff.rs` checks exactly that.
//!
//! [`render`]: StatsCatalog::render

use std::collections::BTreeMap;

use unisem_docstore::DocStore;
use unisem_hetgraph::HetGraph;
use unisem_relstore::schema::same_name;
use unisem_relstore::{DataType, Database, Table, Value};

/// Cardinality statistics for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Distinct non-NULL values (SQL comparison semantics).
    pub distinct: usize,
    /// NULL count.
    pub nulls: usize,
    /// For a `Str` column, its distinct values folded by `str::to_lowercase`
    /// — the fold `LIKE` applies to both its sides — sorted, without
    /// repeats; `None` for a column of any other type. Catalog pruning
    /// (`planner::prune`) proves string filters empty against it.
    pub folded: Option<Vec<String>>,
}

/// Statistics for one relational table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    /// Row count.
    pub rows: usize,
    /// Per-column statistics, schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Row count, per-column cardinalities and folded string values of one
    /// table (linear in the table, up to the per-column sort). Each
    /// distinct value is folded once, not each cell.
    pub fn collect(table: &Table) -> TableStats {
        let columns = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (values, nulls) = table.column_stats(i);
                let folded = (c.dtype == DataType::Str).then(|| {
                    let mut folded: Vec<String> =
                        values.iter().filter_map(|v| v.as_str()).map(str::to_lowercase).collect();
                    folded.sort_unstable();
                    folded.dedup();
                    folded
                });
                ColumnStats { name: c.name.clone(), distinct: values.len(), nulls, folded }
            })
            .collect();
        TableStats { rows: table.num_rows(), columns }
    }

    /// Brings statistics collected over the first `self.rows` rows of
    /// `table` up to all of them. Tables are append-only, so the folded
    /// value sets take in only the appended rows; the distinct and NULL
    /// counts are re-collected (linear in the table, up to the sort).
    pub fn refresh(&mut self, table: &Table) {
        for (i, c) in self.columns.iter_mut().enumerate() {
            let (values, nulls) = table.column_stats(i);
            (c.distinct, c.nulls) = (values.len(), nulls);
            if let Some(folded) = &mut c.folded {
                for v in table.column(i).get(self.rows..).unwrap_or_default() {
                    if let Value::Str(s) = v {
                        let f = s.to_lowercase();
                        if let Err(at) = folded.binary_search(&f) {
                            folded.insert(at, f);
                        }
                    }
                }
            }
        }
        self.rows = table.num_rows();
    }

    /// Statistics for a named column, if present. Names match as the
    /// table's schema matches them: ignoring case.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| same_name(&c.name, name))
    }

    /// Distinct count for a named column; an unknown column estimates as
    /// the full row count (every value unique — the conservative default).
    pub fn distinct(&self, name: &str) -> usize {
        self.column(name).map(|c| c.distinct).unwrap_or(self.rows).max(1)
    }
}

/// Inverted-index statistics for the unstructured substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TextStats {
    /// Documents in the store.
    pub documents: usize,
    /// Chunks indexed.
    pub chunks: usize,
    /// Distinct indexed terms.
    pub terms: usize,
    /// Total posting entries across all terms.
    pub postings: usize,
    /// Longest posting list.
    pub max_posting: usize,
}

impl TextStats {
    /// Reads the totals the document store and its index maintain.
    pub fn collect(docs: &DocStore) -> TextStats {
        let (terms, postings, max_posting) = docs.posting_stats();
        TextStats {
            documents: docs.num_documents(),
            chunks: docs.num_chunks(),
            terms,
            postings,
            max_posting,
        }
    }
}

/// Degree statistics for the heterogeneous graph.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphDegreeStats {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Mean degree scaled by 1000 (integer arithmetic keeps the catalog
    /// float-free and therefore trivially byte-stable).
    pub avg_degree_x1000: usize,
    /// Power-of-two degree histogram: `(inclusive upper bound, node
    /// count)`, overflow bucket reported with bound `usize::MAX`.
    pub histogram: Vec<(usize, usize)>,
}

impl GraphDegreeStats {
    /// Reads the degree totals the graph maintains.
    pub fn collect(graph: &HetGraph) -> GraphDegreeStats {
        let nodes = graph.num_nodes();
        GraphDegreeStats {
            nodes,
            edges: graph.num_edges(),
            max_degree: graph.max_degree(),
            avg_degree_x1000: (graph.num_edges() * 2 * 1000).checked_div(nodes).unwrap_or(0),
            histogram: graph.degree_histogram(),
        }
    }
}

/// The per-substrate statistics catalog the planner costs plans against.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsCatalog {
    /// Per-table statistics, keyed by table name (deterministic order).
    pub tables: BTreeMap<String, TableStats>,
    /// Inverted-index statistics.
    pub text: TextStats,
    /// Graph degree statistics.
    pub graph: GraphDegreeStats,
}

impl StatsCatalog {
    /// Collects statistics from every substrate. Single-threaded by
    /// design: statistics are part of the build's deterministic output,
    /// and the collection pass is linear in the relational data.
    pub fn collect(db: &Database, docs: &DocStore, graph: &HetGraph) -> StatsCatalog {
        let tables = db
            .table_names()
            .into_iter()
            .filter_map(|name| Some((name.to_string(), TableStats::collect(db.table(name).ok()?))))
            .collect();
        let text = TextStats::collect(docs);
        let graph = GraphDegreeStats::collect(graph);
        StatsCatalog { tables, text, graph }
    }

    /// Statistics for a named table.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }

    /// Total column statistics collected (feeds the build gauge).
    pub fn num_columns(&self) -> usize {
        self.tables.values().map(|t| t.columns.len()).sum()
    }

    /// Deterministic plaintext rendering, one fact per line. Tables come
    /// out in `BTreeMap` key order, so the bytes are identical for any
    /// build thread count.
    pub fn render(&self) -> String {
        let mut out = String::from("statistics catalog:\n");
        for (name, t) in &self.tables {
            out.push_str(&format!("  table {name}: rows={}\n", t.rows));
            for c in &t.columns {
                out.push_str(&format!(
                    "    column {}: distinct={} nulls={}\n",
                    c.name, c.distinct, c.nulls
                ));
            }
        }
        out.push_str(&format!(
            "  text: documents={} chunks={} terms={} postings={} max_posting={}\n",
            self.text.documents,
            self.text.chunks,
            self.text.terms,
            self.text.postings,
            self.text.max_posting
        ));
        out.push_str(&format!(
            "  graph: nodes={} edges={} max_degree={} avg_degree_x1000={}\n",
            self.graph.nodes, self.graph.edges, self.graph.max_degree, self.graph.avg_degree_x1000
        ));
        for (bound, count) in &self.graph.histogram {
            if *count > 0 {
                let label =
                    if *bound == usize::MAX { "inf".to_string() } else { format!("{bound}") };
                out.push_str(&format!("    degree<={label}: {count}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisem_relstore::{DataType, Schema, Table, Value};
    use unisem_text::ChunkConfig;

    fn sample_catalog() -> StatsCatalog {
        let mut db = Database::new();
        let t = Table::from_rows(
            Schema::of(&[("product", DataType::Str), ("amount", DataType::Float)]),
            vec![
                vec![Value::str("a"), Value::Float(1.0)],
                vec![Value::str("a"), Value::Float(2.0)],
                vec![Value::str("b"), Value::Null],
            ],
        )
        .expect("typed rows");
        db.create_table("sales", t).expect("fresh");
        let mut docs = DocStore::new(ChunkConfig::default());
        docs.add_document("d", "alpha beta alpha.", "src");
        StatsCatalog::collect(&db, &docs, &HetGraph::new())
    }

    #[test]
    fn collects_cardinalities_and_text_stats() {
        let cat = sample_catalog();
        let t = cat.table("sales").expect("collected");
        assert_eq!(t.rows, 3);
        assert_eq!(t.distinct("product"), 2);
        assert_eq!(t.column("amount").expect("col").nulls, 1);
        assert_eq!(t.distinct("missing"), 3, "unknown column defaults to row count");
        assert!(cat.text.terms > 0);
        assert!(cat.text.postings >= cat.text.terms);
        assert_eq!(cat.num_columns(), 2);
    }

    #[test]
    fn render_is_stable_and_complete() {
        let cat = sample_catalog();
        assert_eq!(cat.render(), cat.render());
        let text = cat.render();
        assert!(text.contains("table sales: rows=3"), "{text}");
        assert!(text.contains("column product: distinct=2"), "{text}");
        assert!(text.contains("text: documents=1"), "{text}");
    }

    #[test]
    fn columns_are_found_as_the_schema_finds_them() {
        let t = Table::from_rows(
            Schema::of(&[("Product", DataType::Str), ("Units", DataType::Int)]),
            vec![
                vec![Value::str("Aero"), Value::Int(1)],
                vec![Value::str("AERO"), Value::Int(2)],
                vec![Value::str("\u{39f}\u{3a3}"), Value::Null],
            ],
        )
        .expect("typed rows");
        let stats = TableStats::collect(&t);
        let product = stats.column("product").expect("found ignoring case");
        assert_eq!(product.distinct, 3);
        assert_eq!(stats.distinct("PRODUCT"), 3, "the cost model sees it too");
        // "ΟΣ" folds to "ος" with a final sigma: `to_lowercase`, not a fold
        // per char.
        assert_eq!(product.folded, Some(vec!["aero".into(), "\u{3bf}\u{3c2}".into()]));
        assert_eq!(stats.column("units").expect("found").folded, None, "not a Str column");
    }

    #[test]
    fn refresh_over_appended_rows_equals_a_recollection() {
        let rows = [("b", 1), ("B", 2), ("a", 3), ("\u{212a}", 4)];
        let schema = Schema::of(&[("s", DataType::Str), ("n", DataType::Int)]);
        let mut t = Table::empty(schema);
        let mut stats = TableStats::collect(&t);
        for (s, n) in rows {
            t.push_row(vec![Value::str(s), Value::Int(n)]).expect("typed row");
            t.push_row(vec![Value::Null, Value::Null]).expect("typed row");
            stats.refresh(&t);
            assert_eq!(stats, TableStats::collect(&t), "after {s}");
        }
        // The Kelvin sign folds to an ASCII `k`.
        let folded = ["a", "b", "k"].map(String::from).to_vec();
        assert_eq!(stats.columns[0].folded, Some(folded));
    }

    #[test]
    fn empty_substrates_collect_cleanly() {
        let cat = StatsCatalog::collect(&Database::new(), &DocStore::default(), &HetGraph::new());
        assert!(cat.tables.is_empty());
        assert_eq!(cat.graph.nodes, 0);
        assert_eq!(cat.graph.avg_degree_x1000, 0);
    }
}

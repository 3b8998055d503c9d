//! Build-time statistics catalog (DESIGN.md §11).
//!
//! The cost model's only data input: relational row counts and per-column
//! cardinalities, inverted-index posting-list lengths, and the graph
//! degree histogram. Every figure is read from a total its substrate
//! maintains as it grows — a table's distinct and NULL counts from the
//! value index relstore keeps beside it — so collecting is
//! O(tables × columns), whether at build time, after a delta (only the
//! touched tables are re-read) or on snapshot open (the catalog is
//! derived, not persisted), and a maintained catalog equals a
//! from-scratch [`StatsCatalog::collect`].
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
use unisem_relstore::{Database, Table, TableIndex};

/// Cardinality statistics for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Distinct non-NULL values (SQL comparison semantics).
    pub distinct: usize,
    /// NULL count.
    pub nulls: usize,
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
    /// Row count and per-column cardinalities of one table, read from the
    /// counts its value index maintains: O(columns).
    pub fn collect(table: &Table, index: &TableIndex) -> TableStats {
        let columns = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| ColumnStats {
                name: c.name.clone(),
                distinct: index.distinct(i),
                nulls: index.nulls(i),
            })
            .collect();
        TableStats { rows: table.num_rows(), columns }
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
    /// Collects statistics from every substrate's maintained totals.
    pub fn collect(db: &Database, docs: &DocStore, graph: &HetGraph) -> StatsCatalog {
        let tables = db
            .table_names()
            .into_iter()
            .filter_map(|name| {
                let (table, index) = db.indexed(name).ok()?;
                Some((name.to_string(), TableStats::collect(table, index)))
            })
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

    fn stats_of(table: Table) -> TableStats {
        let mut db = Database::new();
        db.create_table("t", table).expect("fresh");
        let (table, index) = db.indexed("t").expect("registered");
        TableStats::collect(table, index)
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
        let stats = stats_of(t);
        let product = stats.column("product").expect("found ignoring case");
        assert_eq!(product.distinct, 3, "told apart case-sensitively, as SQL compares");
        assert_eq!(stats.distinct("PRODUCT"), 3, "the cost model sees it too");
        assert_eq!(stats.column("units").expect("found").nulls, 1);
    }

    #[test]
    fn refresh_over_appended_rows_equals_a_recollection() {
        let rows = [("b", 1.0), ("B", 2.0), ("a", -0.0), ("\u{212a}", 0.0)];
        let schema = Schema::of(&[("s", DataType::Str), ("x", DataType::Float)]);
        let mut db = Database::new();
        db.create_table("t", Table::empty(schema.clone())).expect("fresh");
        let mut all = Vec::new();
        for (s, x) in rows {
            for row in [vec![Value::str(s), Value::Float(x)], vec![Value::Null, Value::Null]] {
                all.push(row.clone());
                let checked = db.table("t").and_then(|t| t.check_row(row)).expect("typed row");
                db.append("t", checked).expect("registered");
            }
            let (table, index) = db.indexed("t").expect("registered");
            let maintained = TableStats::collect(table, index);
            let rebuilt = Table::from_rows(schema.clone(), all.clone()).expect("typed rows");
            assert_eq!(maintained, stats_of(rebuilt), "after {s}");
        }
        let stats = db.indexed("t").map(|(t, i)| TableStats::collect(t, i)).expect("registered");
        // Four spellings; -0.0 = 0.0.
        assert_eq!((stats.distinct("s"), stats.distinct("x")), (4, 3));
        assert_eq!(stats.column("s").map(|c| c.nulls), Some(4));
    }

    #[test]
    fn empty_substrates_collect_cleanly() {
        let cat = StatsCatalog::collect(&Database::new(), &DocStore::default(), &HetGraph::new());
        assert!(cat.tables.is_empty());
        assert_eq!(cat.graph.nodes, 0);
        assert_eq!(cat.graph.avg_degree_x1000, 0);
    }
}

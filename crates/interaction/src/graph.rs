//! The index interaction graph (the paper's Figure 2).
//!
//! "We use an undirected graph in which the vertices of the graph
//! represent indexes and the weights of the edges are the degree of
//! interaction for a pair of indexes. If the graph has too many edges, the
//! user can dynamically change the number of interactions that are being
//! displayed."

use crate::InteractionAnalysis;
use pgdesign_catalog::design::Index;
use pgdesign_catalog::schema::Schema;
use std::fmt::Write as _;

/// A weighted undirected interaction graph.
#[derive(Debug, Clone)]
pub struct InteractionGraph {
    /// Vertices: the candidate indexes.
    pub indexes: Vec<Index>,
    /// Edges `(i, j, doi)` with `i < j`, sorted by weight descending.
    pub edges: Vec<(usize, usize, f64)>,
    /// Queries whose contexts the analysis sampled
    /// ([`InteractionAnalysis::sampled_queries`]); 0 means every weight is
    /// exact.
    pub sampled_queries: usize,
}

impl InteractionGraph {
    /// Build from a finished analysis, dropping zero-weight edges.
    pub fn from_analysis(an: &InteractionAnalysis) -> Self {
        let n = an.indexes.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if an.doi[i][j] > 1e-12 {
                    edges.push((i, j, an.doi[i][j]));
                }
            }
        }
        edges.sort_by(|a, b| b.2.total_cmp(&a.2));
        InteractionGraph {
            indexes: an.indexes.clone(),
            edges,
            sampled_queries: an.sampled_queries,
        }
    }

    /// `(contexts sampled on N queries)` when the analysis behind this
    /// graph had to sample, `None` when every weight is exact — what the
    /// text renderings put beside their header.
    pub fn sampling_note(&self) -> Option<String> {
        (self.sampled_queries > 0)
            .then(|| format!("(contexts sampled on {} queries)", self.sampled_queries))
    }

    /// The `k` strongest interactions (the UI's display filter).
    pub fn top_edges(&self, k: usize) -> &[(usize, usize, f64)] {
        &self.edges[..k.min(self.edges.len())]
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Render the graph in Graphviz DOT, limited to the top `k` edges.
    pub fn to_dot(&self, schema: &Schema, k: usize) -> String {
        let mut s = String::from("graph interactions {\n  node [shape=box];\n");
        for (i, idx) in self.indexes.iter().enumerate() {
            let _ = writeln!(s, "  i{} [label=\"{}\"];", i, idx.display(schema));
        }
        for (i, j, w) in self.top_edges(k) {
            let _ = writeln!(
                s,
                "  i{i} -- i{j} [label=\"{w:.3}\", penwidth={:.1}];",
                1.0 + 4.0 * w.min(1.0)
            );
        }
        s.push_str("}\n");
        s
    }

    /// A plain-text edge list for terminal display, headed by
    /// [`Self::sampling_note`] when there is one.
    pub fn to_text(&self, schema: &Schema, k: usize) -> String {
        let mut s = String::new();
        if let Some(note) = self.sampling_note() {
            let _ = writeln!(s, "{note}");
        }
        for (i, j, w) in self.top_edges(k) {
            let _ = writeln!(
                s,
                "{:>8.4}  {}  ~  {}",
                w,
                self.indexes[*i].display(schema),
                self.indexes[*j].display(schema)
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::schema::{SchemaBuilder, TableId};
    use pgdesign_catalog::types::DataType;

    fn sample() -> (Schema, InteractionGraph) {
        let schema = SchemaBuilder::new()
            .table("t")
            .column("a", DataType::Int)
            .column("b", DataType::Int)
            .column("c", DataType::Int)
            .build()
            .unwrap();
        let an = InteractionAnalysis {
            indexes: vec![
                Index::new(TableId(0), vec![0]),
                Index::new(TableId(0), vec![1]),
                Index::new(TableId(0), vec![2]),
            ],
            doi: vec![
                vec![0.0, 0.8, 0.0],
                vec![0.8, 0.0, 0.3],
                vec![0.0, 0.3, 0.0],
            ],
            sampled_queries: 0,
        };
        (schema, InteractionGraph::from_analysis(&an))
    }

    #[test]
    fn edges_sorted_descending() {
        let (_, g) = sample();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edges[0], (0, 1, 0.8));
        assert_eq!(g.edges[1], (1, 2, 0.3));
    }

    #[test]
    fn top_edges_filter() {
        let (_, g) = sample();
        assert_eq!(g.top_edges(1).len(), 1);
        assert_eq!(g.top_edges(10).len(), 2);
        assert_eq!(g.top_edges(0).len(), 0);
    }

    #[test]
    fn dot_contains_vertices_and_edges() {
        let (schema, g) = sample();
        let dot = g.to_dot(&schema, 10);
        assert!(dot.starts_with("graph interactions {"));
        assert!(dot.contains("t(a)"));
        assert!(dot.contains("i0 -- i1"));
        assert!(dot.contains("0.800"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn text_render_lists_pairs() {
        let (schema, g) = sample();
        let text = g.to_text(&schema, 1);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("t(a)") && text.contains("t(b)"));
    }

    #[test]
    fn text_render_says_when_contexts_were_sampled() {
        let (schema, mut g) = sample();
        assert_eq!(g.sampling_note(), None);
        g.sampled_queries = 3;
        let text = g.to_text(&schema, 1);
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("(contexts sampled on 3 queries)\n"));
    }
}

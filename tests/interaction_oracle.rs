//! The interaction graph as the sessions serve it, against the pair-outer
//! sweep it replaced (`crates/interaction/src/oracle.rs`, test-only and
//! included here by path): the same edges bit for bit through every kind
//! of what-if edit and on published snapshots, for a counted fraction of
//! the matrix lookups.

#[path = "../crates/interaction/src/oracle.rs"]
mod oracle;

use pgdesign::Designer;
use pgdesign_catalog::design::{HorizontalPartitioning, Index, VerticalPartitioning};
use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_interaction::{InteractionAnalysis, InteractionConfig, InteractionGraph};
use pgdesign_inum::MatrixCore;
use pgdesign_query::generators::sdss_workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The indexes the scripted DBA toggles (the benchmark's pool).
const INDEX_POOL: [(&str, &[&str]); 24] = [
    ("photoobj", &["objid"]),
    ("photoobj", &["ra"]),
    ("photoobj", &["dec"]),
    ("photoobj", &["ra", "dec"]),
    ("photoobj", &["type"]),
    ("photoobj", &["type", "r"]),
    ("photoobj", &["r"]),
    ("photoobj", &["g", "r"]),
    ("photoobj", &["r", "type"]),
    ("photoobj", &["run"]),
    ("photoobj", &["run", "camcol"]),
    ("photoobj", &["camcol", "r"]),
    ("photoobj", &["status"]),
    ("photoobj", &["status", "r"]),
    ("photoobj", &["ra", "r"]),
    ("photoobj", &["g"]),
    ("specobj", &["bestobjid"]),
    ("specobj", &["zredshift"]),
    ("specobj", &["class"]),
    ("specobj", &["zredshift", "bestobjid"]),
    ("neighbors", &["objid"]),
    ("neighbors", &["distance"]),
    ("field", &["run", "camcol"]),
    ("field", &["quality"]),
];

/// The graph the oracle's sweep gives over `indexes` (live candidates of
/// `matrix`, in graph order).
fn oracle_graph(matrix: &MatrixCore, indexes: &[Index]) -> InteractionGraph {
    let ids: Vec<usize> = indexes
        .iter()
        .map(|i| matrix.candidate_id(i).expect("selected indexes are live"))
        .collect();
    InteractionAnalysis {
        indexes: indexes.to_vec(),
        doi: oracle::doi(matrix, &ids, InteractionConfig::default().max_subsets),
        sampled_queries: 0,
    }
    .graph()
}

fn assert_same_edges(got: &InteractionGraph, want: &InteractionGraph, step: usize) {
    assert_eq!(got.sampled_queries, 0, "step {step}");
    assert_eq!(got.indexes, want.indexes, "step {step}");
    let bits = |g: &InteractionGraph| -> Vec<(usize, usize, u64)> {
        g.edges
            .iter()
            .map(|&(i, j, w)| (i, j, w.to_bits()))
            .collect()
    };
    assert_eq!(bits(got), bits(want), "step {step}");
}

#[test]
fn session_graph_equals_the_oracle_through_a_random_toggle_script() {
    let designer = Designer::new(sdss_catalog(0.01));
    let schema = &designer.catalog.schema;
    let photo = schema.table_by_name("photoobj").unwrap().id;
    let pool: Vec<Index> = INDEX_POOL
        .iter()
        .map(|(table, cols)| {
            let t = schema.table_by_name(table).unwrap();
            let cols = cols.iter().map(|c| t.column_by_name(c).unwrap()).collect();
            Index::new(t.id, cols)
        })
        .collect();
    let mut session = designer.session(sdss_workload(&designer.catalog, 40, 2010));
    let mut rng = StdRng::seed_from_u64(16);
    let mut selected: Vec<usize> = Vec::new();
    let (mut vertical, mut horizontal) = (false, false);
    let mut edges_seen = 0;

    for step in 0..200 {
        let mut published = false;
        match rng.random_range(0..10u32) {
            // Add (or, for an index removed earlier, re-add) — at most
            // ten selected, the widest the oracle sweeps unsampled.
            0..=3 if selected.len() < 10 => {
                let absent: Vec<usize> =
                    (0..pool.len()).filter(|i| !selected.contains(i)).collect();
                let pick = absent[rng.random_range(0..absent.len())];
                assert!(session.add_index(pool[pick].clone()));
                selected.push(pick);
            }
            0..=6 if !selected.is_empty() => {
                let pick = selected.swap_remove(rng.random_range(0..selected.len()));
                assert!(session.remove_index(&pool[pick]));
            }
            7 => {
                vertical = !vertical;
                if vertical {
                    let cut = rng.random_range(2..15u16);
                    let groups = vec![(0..cut).collect(), (cut..16).collect()];
                    session.set_vertical(VerticalPartitioning::new(photo, groups));
                } else {
                    session.clear_vertical(photo);
                }
            }
            8 => {
                horizontal = !horizontal;
                if horizontal {
                    let bounds = vec![90.0, 180.0, 270.0];
                    session.set_horizontal(HorizontalPartitioning::new(photo, 1, bounds));
                } else {
                    session.clear_horizontal(photo);
                }
            }
            _ => {
                session.publish();
                published = true;
            }
        }

        let graph = session.interaction_graph();
        assert_eq!(graph.indexes.len(), selected.len(), "step {step}");
        let want = oracle_graph(session.tuning_session().matrix(), &graph.indexes);
        assert_same_edges(&graph, &want, step);
        edges_seen += graph.edge_count();

        if published {
            // A reader pins the generation just published: same cells,
            // same graph, none of it through the writer.
            let reader = session.reader();
            let ids: Vec<usize> = graph
                .indexes
                .iter()
                .map(|i| reader.candidate_id(i).expect("published candidates"))
                .collect();
            assert_same_edges(&reader.interaction_graph(&ids), &want, step);
        }
    }
    assert!(
        edges_seen > 200,
        "the script must exercise real interactions"
    );
}

/// The machine-independent form of the latency claim: one graph at
/// `k = 8` over 200 queries costs `Σ_q 2^r_q` lookups, not `2^k · |W|`.
#[test]
fn one_graph_at_eight_indexes_costs_the_factorised_lookup_count() {
    let designer = Designer::new(sdss_catalog(0.01));
    let mut session = designer.session(sdss_workload(&designer.catalog, 200, 2010));
    for (table, cols) in [0, 3, 5, 6, 10, 16, 17, 20].map(|i| INDEX_POOL[i]) {
        assert!(session.add_index_by_name(table, cols).unwrap());
    }
    let before = session.tuning_stats().matrix.lookups;
    let graph = session.interaction_graph();
    let moved = session.tuning_stats().matrix.lookups - before;
    assert_eq!(graph.indexes.len(), 8);

    let matrix = session.tuning_session().matrix();
    let selected: Vec<usize> = graph
        .indexes
        .iter()
        .map(|i| matrix.candidate_id(i).unwrap())
        .collect();
    assert_eq!(matrix.active_query_ids().count(), 200);
    let expected: u64 = matrix
        .active_query_ids()
        .map(|q| {
            let owners = matrix.candidates_on(q);
            selected.iter().filter(|id| owners.contains(id)).count()
        })
        .filter(|&r| r >= 2)
        .map(|r| 1u64 << r)
        .sum();
    assert_eq!(moved, expected);
    assert!(moved <= 4_000, "{moved} lookups; the 2^k sweep made 51,200");
    assert!(moved > 0 && graph.edge_count() > 0);
}

//! The per-layer metrics `bench-trace` reports. Layers are the crates; a
//! metric is named `layer.what`. Every workload reports every metric: 0
//! means the workload never reached that layer, which is itself the
//! check that the layers are separated the way the workloads claim.

use crate::report::Better;
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// Times are means per call unless the name says otherwise; counts are
/// means per op (one recommend, step or observe) unless the name says
/// per epoch. README.md has the definition of each.
pub const PER_LAYER: [LayerMetric; 65] = [
    m("query.parse_us", "us", Lower),
    m("catalog.build_ms", "ms", Lower),
    m("optimizer.candidates_ms", "ms", Lower),
    m("optimizer.candidates", "count", Lower),
    m("optimizer.exact_cost_us", "us", Lower),
    // INUM level 1: the skeleton cache.
    m("inum.prepare_ms", "ms", Lower),
    m("inum.skeletons_built", "count", Lower),
    m("inum.skeleton_us", "us", Lower),
    m("inum.cost_us", "us", Lower),
    m("inum.cost_calls_per_observe", "count", Lower),
    // INUM level 2, write side: building and rotating the cost matrix.
    m("inum.build_ms", "ms", Lower),
    m("inum.cells_computed", "count", Lower),
    m("inum.cell_ns", "ns", Lower),
    m("inum.add_candidates_ms", "ms", Lower),
    m("inum.rotate_ms", "ms", Lower),
    m("inum.cells_reused_share", "share", Higher),
    m("inum.publish_us", "us", Lower),
    // INUM level 2, read side: configuration lookups.
    m("inum.lookups", "count", Lower),
    m("inum.lookup_ns", "ns", Lower),
    m("inum.joint_lookup_ns", "ns", Lower),
    m("inum.partition_lookup_share", "share", Lower),
    m("inum.lookup_time_share", "share", Lower),
    // INUM persistence codec.
    m("inum.encode_ms", "ms", Lower),
    m("inum.snapshot_bytes", "bytes", Lower),
    m("inum.restore_ms", "ms", Lower),
    m("cophy.merge_ms", "ms", Lower),
    m("cophy.atomic_ms", "ms", Lower),
    m("cophy.atomic_configs", "count", Lower),
    m("cophy.formulate_ms", "ms", Lower),
    m("cophy.ilp_vars", "count", Lower),
    m("cophy.ilp_rows", "count", Lower),
    m("cophy.greedy_ms", "ms", Lower),
    m("solver.milp_ms", "ms", Lower),
    m("solver.nodes", "count", Lower),
    m("solver.node_ms", "ms", Lower),
    m("solver.root_lp_ms", "ms", Lower),
    m("solver.gap", "fraction", Lower),
    m("solver.share", "share", Lower),
    m("autopart.search_ms", "ms", Lower),
    m("autopart.iterations", "count", Lower),
    m("interaction.analyze_ms", "ms", Lower),
    m("interaction.schedule_ms", "ms", Lower),
    m("interaction.graph_ms_p50", "ms", Lower),
    m("interaction.graph_ms_p99", "ms", Lower),
    m("interaction.graph_share", "share", Lower),
    m("core.toggle_us", "us", Lower),
    m("core.evaluate_us", "us", Lower),
    m("core.render_us", "us", Lower),
    m("core.unattributed_share", "share", Lower),
    m("colt.observe_us", "us", Lower),
    m("colt.epoch_ms", "ms", Lower),
    m("colt.whatif_calls_per_epoch", "count", Lower),
    m("colt.candidates_dropped_per_epoch", "count", Lower),
    m("colt.full_epoch_share", "share", Higher),
    m("durability.appends_per_epoch", "count", Lower),
    m("durability.syncs_per_epoch", "count", Lower),
    m("durability.bytes_per_epoch", "bytes", Lower),
    m("durability.sync_ms_p50", "ms", Lower),
    m("durability.checkpoints", "count", Lower),
    m("durability.checkpoint_ms", "ms", Lower),
    m("durability.read_ms", "ms", Lower),
    m("durability.store_share", "share", Lower),
    m("durability.state_bytes", "bytes", Lower),
    m("trace.overhead_share", "share", Lower),
    m("trace.replica_matches_facade", "count", Higher),
];

//! The greedy merge search as it was before per-query trial costing: every
//! trial registers its merged fragment and re-costs the whole workload
//! through [`pgdesign_inum::MatrixCore::joint_workload_cost_with`], every
//! fragment pair is tried, and the replication budget is checked on a
//! materialised [`VerticalPartitioning`]. Test-only — the oracle the
//! incremental search is checked against bit for bit.

use crate::AutoPartAdvisor;
use pgdesign_catalog::design::VerticalPartitioning;
use pgdesign_catalog::schema::TableId;
use pgdesign_inum::{CostMatrix, JointConfig, JointToggle};
use pgdesign_query::Workload;

/// The earlier per-table search; same contract as
/// `AutoPartAdvisor::partition_table_on`.
pub(crate) fn partition_table_on(
    advisor: &AutoPartAdvisor<'_>,
    matrix: &mut CostMatrix<'_>,
    cfg: &mut JointConfig,
    table: TableId,
    workload: &Workload,
    replication_left: &mut u64,
) -> usize {
    if advisor.config.max_iterations == 0 {
        return 0;
    }
    let catalog = advisor.inum.catalog();
    let width = catalog.schema.table(table).width();
    let atomic = advisor.atomic_fragments(workload, table);
    if atomic.len() <= 1 {
        return 0;
    }

    let unpartitioned = matrix.joint_workload_cost(cfg);
    let mut group_ids: Vec<usize> = atomic
        .iter()
        .map(|g| matrix.register_fragment(table, g))
        .collect();
    for &id in &group_ids {
        cfg.fragments.insert(id);
    }
    let mut groups = atomic;
    let mut current = matrix.joint_workload_cost(cfg);
    let mut iterations = 0usize;

    while iterations < advisor.config.max_iterations && group_ids.len() > 1 {
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for i in 0..group_ids.len() {
            for j in (i + 1)..group_ids.len() {
                let mut merged = groups[i].clone();
                merged.extend(groups[j].iter().copied());
                let mid = matrix.register_fragment(table, &merged);
                let c = matrix.joint_workload_cost_with(
                    cfg,
                    &JointToggle::merge(group_ids[i], group_ids[j], mid),
                );
                if c < current - 1e-9 && best.is_none_or(|(_, _, _, bc)| c < bc) {
                    best = Some((i, j, mid, c));
                }
            }
        }
        let mut best_repl: Option<(usize, usize, usize, f64)> = None;
        if *replication_left > 0 {
            for i in 0..group_ids.len() {
                for j in 0..group_ids.len() {
                    if i == j {
                        continue;
                    }
                    let mut extended = groups[j].clone();
                    extended.extend(groups[i].iter().copied());
                    let mut trial = groups.clone();
                    trial[j] = extended.clone();
                    let vp = VerticalPartitioning::new(table, trial);
                    if vp.replication_bytes(&catalog.schema, catalog.table_stats(table))
                        > *replication_left
                    {
                        continue;
                    }
                    let eid = matrix.register_fragment(table, &extended);
                    let c = matrix
                        .joint_workload_cost_with(cfg, &JointToggle::replace(group_ids[j], eid));
                    if c < current - 1e-9 && best_repl.is_none_or(|(_, _, _, bc)| c < bc) {
                        best_repl = Some((i, j, eid, c));
                    }
                }
            }
        }

        let take_merge = match (best, best_repl) {
            (Some((.., mc)), Some((.., rc))) => mc <= rc,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_merge {
            let (i, j, mid, c) = best.expect("checked above");
            cfg.fragments.remove(group_ids[j]);
            cfg.fragments.remove(group_ids[i]);
            groups.remove(j);
            groups.remove(i);
            group_ids.remove(j);
            group_ids.remove(i);
            if !group_ids.contains(&mid) {
                cfg.fragments.insert(mid);
                group_ids.push(mid);
                groups.push(matrix.fragment_columns(mid).to_vec());
            }
            current = c;
        } else {
            let (_, j, eid, c) = best_repl.expect("checked above");
            cfg.fragments.remove(group_ids[j]);
            groups.remove(j);
            group_ids.remove(j);
            if !group_ids.contains(&eid) {
                cfg.fragments.insert(eid);
                group_ids.push(eid);
                groups.push(matrix.fragment_columns(eid).to_vec());
            }
            current = c;
        }
        iterations += 1;
    }

    if current < unpartitioned - 1e-9 {
        let vp = VerticalPartitioning::new(table, groups);
        debug_assert!(vp.is_complete(width));
        *replication_left = replication_left
            .saturating_sub(vp.replication_bytes(&catalog.schema, catalog.table_stats(table)));
    } else {
        for &id in &group_ids {
            cfg.fragments.remove(id);
        }
    }
    iterations
}

//! The greedy search as it was before per-query trial costing: every
//! trial registers its merged fragment and re-costs the whole workload
//! on the configuration it would produce
//! ([`pgdesign_inum::MatrixCore::joint_workload_cost`]), every fragment
//! pair is tried, the replication budget is checked on a materialised
//! [`VerticalPartitioning`], and the horizontal pass and the reported
//! costs re-cost the whole workload too. Test-only — the oracle the
//! search is checked against bit for bit.

use crate::{AutoPartAdvisor, PartitionRecommendation};
use pgdesign_catalog::design::VerticalPartitioning;
use pgdesign_catalog::schema::TableId;
use pgdesign_inum::{CostMatrix, JointConfig};
use pgdesign_query::Workload;

/// The earlier `AutoPartAdvisor::recommend_on`.
pub(crate) fn recommend(
    advisor: &AutoPartAdvisor<'_>,
    matrix: &mut CostMatrix<'_>,
) -> PartitionRecommendation {
    let base_cost = matrix.joint_workload_cost(&matrix.empty_joint());
    let mut cfg = matrix.empty_joint();
    let iterations = search(advisor, matrix, &mut cfg);
    let cost = matrix.joint_workload_cost(&cfg);
    advisor.recommendation(matrix, cfg, base_cost, cost, iterations)
}

/// The earlier `AutoPartAdvisor::search_on`.
pub(crate) fn search(
    advisor: &AutoPartAdvisor<'_>,
    matrix: &mut CostMatrix<'_>,
    cfg: &mut JointConfig,
) -> usize {
    let workload = matrix.active_workload();
    let tables: Vec<TableId> = (advisor.inum.catalog().schema.tables())
        .map(|t| t.id)
        .collect();
    let mut iterations = 0usize;
    let mut replication_left = advisor.config.replication_budget_bytes;
    for &t in &tables {
        iterations += partition_table_on(advisor, matrix, cfg, t, &workload, &mut replication_left);
    }
    for &t in &tables {
        let Some(hp) = advisor.propose_split(t, workload.iter().map(|(q, _)| q)) else {
            continue;
        };
        let sid = matrix.register_split(hp);
        let mut trial = cfg.clone();
        trial.splits.insert(sid);
        if matrix.joint_workload_cost(&trial) - matrix.joint_workload_cost(cfg) < -1e-9 {
            *cfg = trial;
        }
    }
    iterations
}

/// The earlier per-table search.
fn partition_table_on(
    advisor: &AutoPartAdvisor<'_>,
    matrix: &mut CostMatrix<'_>,
    cfg: &mut JointConfig,
    table: TableId,
    workload: &Workload,
    replication_left: &mut u64,
) -> usize {
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

    while iterations < crate::MAX_ITERATIONS && group_ids.len() > 1 {
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for i in 0..group_ids.len() {
            for j in (i + 1)..group_ids.len() {
                let mut merged = groups[i].clone();
                merged.extend(groups[j].iter().copied());
                let mid = matrix.register_fragment(table, &merged);
                let mut trial = cfg.clone();
                trial.fragments.remove(group_ids[i]);
                trial.fragments.remove(group_ids[j]);
                trial.fragments.insert(mid);
                let c = matrix.joint_workload_cost(&trial);
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
                    let mut trial = cfg.clone();
                    trial.fragments.remove(group_ids[j]);
                    trial.fragments.insert(eid);
                    let c = matrix.joint_workload_cost(&trial);
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

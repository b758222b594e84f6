//! Index and partition maintenance costs under write activity.
//!
//! The advisors in the original demo tune read workloads; every index they
//! propose is free to keep. Real deployments pay for indexes on every
//! INSERT and UPDATE, which is why production advisors take a write
//! profile into account. This module prices that: given per-table write
//! rates (expressed per workload execution period, the same unit as query
//! weights), it costs the upkeep of each physical structure. CoPhy folds
//! these constants into its ILP objective (an index's `x_i` coefficient),
//! so heavily-written tables naturally repel marginal indexes.

use crate::params::CostParams;
use pgdesign_catalog::design::{Index, PhysicalDesign};
use pgdesign_catalog::schema::TableId;
use pgdesign_catalog::sizing;
use pgdesign_catalog::Catalog;
use std::collections::HashMap;

/// Write activity on one table per workload period.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableWrites {
    /// Rows inserted.
    pub inserts: f64,
    /// Rows updated.
    pub updates: f64,
    /// Columns the updates touch (an index is only maintained by an update
    /// when a key column changes). Empty means "unknown: assume all".
    pub updated_columns: Vec<u16>,
}

impl TableWrites {
    /// True if updates may modify any of the given index key columns.
    fn updates_touch(&self, key: &[u16]) -> bool {
        self.updated_columns.is_empty() || key.iter().any(|c| self.updated_columns.contains(c))
    }
}

/// Per-table write rates for a workload period.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteProfile {
    /// Write activity keyed by table.
    pub per_table: HashMap<TableId, TableWrites>,
}

impl WriteProfile {
    /// Empty profile: a read-only workload.
    pub fn read_only() -> Self {
        Self::default()
    }

    /// Builder-style insert registration.
    pub fn with_inserts(mut self, table: TableId, rows: f64) -> Self {
        self.per_table.entry(table).or_default().inserts += rows;
        self
    }

    /// Builder-style update registration.
    pub fn with_updates(mut self, table: TableId, rows: f64, columns: Vec<u16>) -> Self {
        let w = self.per_table.entry(table).or_default();
        w.updates += rows;
        for c in columns {
            if !w.updated_columns.contains(&c) {
                w.updated_columns.push(c);
            }
        }
        self
    }
}

/// Cost of one B-tree entry insertion: descent plus leaf modification,
/// with an amortized share of page splits.
fn btree_insert_cost(params: &CostParams, catalog: &Catalog, index: &Index) -> f64 {
    let stats = catalog.table_stats(index.table);
    let height = index.height(&catalog.schema, stats) as f64;
    let descent = height * params.random_page_cost * 0.25 + 30.0 * params.cpu_operator_cost;
    // One leaf page dirtied per insert (write-back amortized), split share
    // ~1/entries-per-page.
    let key_width = index.key_width(&catalog.schema);
    let entry = sizing::maxalign(u64::from(key_width)) + sizing::BTREE_ENTRY_OVERHEAD;
    let per_page = ((sizing::PAGE_SIZE - sizing::PAGE_HEADER) as f64 * sizing::BTREE_FILL_FACTOR
        / entry as f64)
        .max(2.0);
    let split_share = params.seq_page_cost / per_page;
    descent + params.cpu_index_tuple_cost + params.seq_page_cost * 0.5 + split_share
}

/// Maintenance cost of one index for one workload period.
pub fn index_maintenance_cost(
    params: &CostParams,
    catalog: &Catalog,
    index: &Index,
    profile: &WriteProfile,
) -> f64 {
    let Some(w) = profile.per_table.get(&index.table) else {
        return 0.0;
    };
    let per_insert = btree_insert_cost(params, catalog, index);
    let mut cost = w.inserts * per_insert;
    if w.updates > 0.0 && w.updates_touch(&index.columns) {
        // A key-changing update is a delete + insert.
        cost += w.updates * 2.0 * per_insert;
    }
    cost
}

/// Maintenance cost of a whole design (indexes + the extra heap writes a
/// vertical partitioning causes: every insert touches every fragment).
pub fn design_maintenance_cost(
    params: &CostParams,
    catalog: &Catalog,
    design: &PhysicalDesign,
    profile: &WriteProfile,
) -> f64 {
    let mut total = 0.0;
    for idx in design.indexes() {
        total += index_maintenance_cost(params, catalog, idx, profile);
    }
    for vp in design.verticals() {
        if let Some(w) = profile.per_table.get(&vp.table) {
            let extra_fragments = vp.groups.len().saturating_sub(1) as f64;
            total +=
                w.inserts * extra_fragments * (params.cpu_tuple_cost + params.seq_page_cost * 0.1);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::design::VerticalPartitioning;
    use pgdesign_catalog::samples::sdss_catalog;

    fn setup() -> (Catalog, CostParams, TableId) {
        let c = sdss_catalog(0.01);
        let t = c.schema.table_by_name("photoobj").unwrap().id;
        (c, CostParams::default(), t)
    }

    #[test]
    fn read_only_profile_is_free() {
        let (c, p, t) = setup();
        let idx = Index::new(t, vec![0]);
        let profile = WriteProfile::read_only();
        assert_eq!(index_maintenance_cost(&p, &c, &idx, &profile), 0.0);
    }

    #[test]
    fn inserts_charge_every_index_on_the_table() {
        let (c, p, t) = setup();
        let idx = Index::new(t, vec![0]);
        let profile = WriteProfile::read_only().with_inserts(t, 1000.0);
        let cost = index_maintenance_cost(&p, &c, &idx, &profile);
        assert!(cost > 0.0);
        // Linear in insert rate.
        let double = WriteProfile::read_only().with_inserts(t, 2000.0);
        let cost2 = index_maintenance_cost(&p, &c, &idx, &double);
        assert!((cost2 / cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn updates_only_charge_indexes_on_touched_columns() {
        let (c, p, t) = setup();
        let idx_on_ra = Index::new(t, vec![1]);
        let idx_on_r = Index::new(t, vec![6]);
        let profile = WriteProfile::read_only().with_updates(t, 500.0, vec![1]);
        let touched = index_maintenance_cost(&p, &c, &idx_on_ra, &profile);
        let untouched = index_maintenance_cost(&p, &c, &idx_on_r, &profile);
        assert!(touched > 0.0);
        assert_eq!(untouched, 0.0);
    }

    #[test]
    fn unknown_update_columns_charge_conservatively() {
        let (c, p, t) = setup();
        let idx = Index::new(t, vec![6]);
        let mut profile = WriteProfile::read_only();
        profile.per_table.insert(
            t,
            TableWrites {
                inserts: 0.0,
                updates: 100.0,
                updated_columns: vec![],
            },
        );
        assert!(index_maintenance_cost(&p, &c, &idx, &profile) > 0.0);
    }

    #[test]
    fn design_cost_sums_indexes_and_fragments() {
        let (c, p, t) = setup();
        let profile = WriteProfile::read_only().with_inserts(t, 1000.0);
        let mut design =
            PhysicalDesign::with_indexes([Index::new(t, vec![0]), Index::new(t, vec![1, 2])]);
        let idx_only = design_maintenance_cost(&p, &c, &design, &profile);
        design.set_vertical(VerticalPartitioning::new(
            t,
            vec![vec![0, 1, 2], (3..16).collect()],
        ));
        let with_vp = design_maintenance_cost(&p, &c, &design, &profile);
        assert!(idx_only > 0.0);
        assert!(with_vp > idx_only, "fragmented inserts cost extra");
    }

    #[test]
    fn wider_keys_cost_more_to_maintain() {
        let (c, p, t) = setup();
        let profile = WriteProfile::read_only().with_inserts(t, 1000.0);
        let narrow = Index::new(t, vec![3]);
        let wide = Index::new(t, vec![0, 1, 2, 4, 5]);
        assert!(
            index_maintenance_cost(&p, &c, &wide, &profile)
                >= index_maintenance_cost(&p, &c, &narrow, &profile)
        );
    }
}

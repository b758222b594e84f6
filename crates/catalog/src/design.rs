//! Physical design structures: indexes and partitions.
//!
//! A [`PhysicalDesign`] is the unit the what-if optimizer evaluates and the
//! unit every advisor (CoPhy, AutoPart, COLT) manipulates. Designs are
//! cheap to clone and hash so that configuration enumeration — the inner
//! loop of index interaction analysis — stays fast.

use crate::schema::{Schema, TableId};
use crate::sizing;
use crate::stats::TableStats;
use std::collections::BTreeMap;
use std::fmt;

/// A (possibly hypothetical) multi-column B-tree index.
///
/// There is no "hypothetical" flag: the whole point of the paper's what-if
/// component is that simulated and real structures share one definition and
/// one size model, differing only in whether they have been materialized.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Index {
    /// Indexed table.
    pub table: TableId,
    /// Key columns in significance order (ordinals within the table).
    pub columns: Vec<u16>,
    /// Whether the index enforces uniqueness of the full key.
    pub unique: bool,
}

impl Index {
    /// A non-unique index on the given columns.
    pub fn new(table: TableId, columns: Vec<u16>) -> Self {
        Index {
            table,
            columns,
            unique: false,
        }
    }

    /// A unique index on the given columns.
    pub fn unique(table: TableId, columns: Vec<u16>) -> Self {
        Index {
            table,
            columns,
            unique: true,
        }
    }

    /// Leading column of the key.
    pub fn leading_column(&self) -> u16 {
        self.columns[0]
    }

    /// Key width in bytes according to the schema.
    pub fn key_width(&self, schema: &Schema) -> u32 {
        schema.table(self.table).byte_width_of(&self.columns)
    }

    /// Estimated size in pages given the table's statistics.
    pub fn size_pages(&self, schema: &Schema, stats: &TableStats) -> u64 {
        sizing::btree_total_pages(stats.row_count, self.key_width(schema))
    }

    /// Estimated size in bytes.
    pub fn size_bytes(&self, schema: &Schema, stats: &TableStats) -> u64 {
        sizing::pages_to_bytes(self.size_pages(schema, stats))
    }

    /// Height of the B-tree (descent cost driver).
    pub fn height(&self, schema: &Schema, stats: &TableStats) -> u32 {
        sizing::btree_height(stats.row_count, self.key_width(schema))
    }

    /// True if the index key contains every column in `cols` (any order) —
    /// the covering test for index-only scans.
    pub fn covers(&self, cols: &[u16]) -> bool {
        cols.iter().all(|c| self.columns.contains(c))
    }

    /// Render with column names from the schema, e.g.
    /// `photoobj(ra, dec)`.
    pub fn display(&self, schema: &Schema) -> String {
        let t = schema.table(self.table);
        let cols: Vec<&str> = self
            .columns
            .iter()
            .map(|&c| t.column(c).name.as_str())
            .collect();
        format!(
            "{}({}){}",
            t.name,
            cols.join(", "),
            if self.unique { " UNIQUE" } else { "" }
        )
    }
}

impl fmt::Display for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "idx:{}({})",
            self.table,
            self.columns
                .iter()
                .map(|c| format!("c{c}"))
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// A vertical partitioning of one table into column groups (fragments).
///
/// Groups may overlap: AutoPart permits *replicating* hot columns into
/// multiple fragments subject to a replication budget. Every column must
/// appear in at least one group. Each fragment implicitly carries the row
/// id so fragments can be re-joined.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VerticalPartitioning {
    /// Partitioned table.
    pub table: TableId,
    /// Column groups; each inner vec is sorted and non-empty.
    pub groups: Vec<Vec<u16>>,
}

impl VerticalPartitioning {
    /// Build a partitioning, normalising group order and content order.
    pub fn new(table: TableId, mut groups: Vec<Vec<u16>>) -> Self {
        for g in &mut groups {
            g.sort_unstable();
            g.dedup();
        }
        groups.retain(|g| !g.is_empty());
        groups.sort();
        VerticalPartitioning { table, groups }
    }

    /// Check every column `0..width` is covered by some group.
    pub fn is_complete(&self, width: u16) -> bool {
        (0..width).all(|c| self.groups.iter().any(|g| g.contains(&c)))
    }

    /// Bytes of replicated storage beyond a disjoint partitioning: the sum
    /// of widths of columns stored more than once, weighted by row count.
    pub fn replication_bytes(&self, schema: &Schema, stats: &TableStats) -> u64 {
        let t = schema.table(self.table);
        let mut seen = vec![0u32; t.width() as usize];
        for g in &self.groups {
            for &c in g {
                seen[c as usize] += 1;
            }
        }
        let extra_width: u64 = seen
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 1)
            .map(|(c, &n)| u64::from(n - 1) * u64::from(t.column(c as u16).dtype.byte_width()))
            .sum();
        extra_width * stats.row_count
    }

    /// Groups whose column set intersects `needed`, i.e. the fragments a
    /// query touching `needed` must scan.
    pub fn fragments_for(&self, needed: &[u16]) -> Vec<usize> {
        // Greedy set cover: favour fragments covering many needed columns
        // so replicated columns are not fetched twice.
        let mut remaining: Vec<u16> = needed.to_vec();
        let mut picked = Vec::new();
        while !remaining.is_empty() {
            let best = self
                .groups
                .iter()
                .enumerate()
                .filter(|(i, _)| !picked.contains(i))
                .max_by_key(|(_, g)| remaining.iter().filter(|c| g.contains(c)).count());
            match best {
                Some((i, g)) if remaining.iter().any(|c| g.contains(c)) => {
                    remaining.retain(|c| !g.contains(c));
                    picked.push(i);
                }
                _ => break, // column not covered anywhere: malformed, stop
            }
        }
        picked.sort_unstable();
        picked
    }
}

/// Horizontal range partitioning of a table on one column.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizontalPartitioning {
    /// Partitioned table.
    pub table: TableId,
    /// Partitioning column ordinal.
    pub column: u16,
    /// Interior split points (numeric image), ascending: `k` bounds make
    /// `k + 1` partitions.
    pub bounds: Vec<f64>,
}

impl HorizontalPartitioning {
    /// Build, sorting and deduplicating the bounds.
    pub fn new(table: TableId, column: u16, mut bounds: Vec<f64>) -> Self {
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        HorizontalPartitioning {
            table,
            column,
            bounds,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.bounds.len() + 1
    }

    /// Fraction of partitions that survive pruning for a range restriction
    /// `[lo, hi]` on the partitioning column (either side open).
    pub fn surviving_fraction(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        // Partition `p` spans bounds `p - 1` to `p`, open at both ends.
        let lows = std::iter::once(f64::NEG_INFINITY).chain(self.bounds.iter().copied());
        let highs = self
            .bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY));
        let alive = lows
            .zip(highs)
            .filter(|&(p_lo, p_hi)| lo.is_none_or(|v| v <= p_hi) && hi.is_none_or(|v| v >= p_lo))
            .count();
        alive as f64 / self.partitions() as f64
    }
}

/// A complete physical design: a set of secondary indexes plus optional
/// per-table vertical and horizontal partitionings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhysicalDesign {
    indexes: Vec<Index>,
    vertical: BTreeMap<TableId, VerticalPartitioning>,
    horizontal: BTreeMap<TableId, HorizontalPartitioning>,
}

impl PhysicalDesign {
    /// The empty design (no secondary structures).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Design holding exactly the given indexes.
    pub fn with_indexes<I: IntoIterator<Item = Index>>(indexes: I) -> Self {
        let mut d = Self::default();
        for i in indexes {
            d.add_index(i);
        }
        d
    }

    /// Add an index (idempotent); returns true if it was new.
    pub fn add_index(&mut self, index: Index) -> bool {
        if self.indexes.contains(&index) {
            return false;
        }
        self.indexes.push(index);
        self.indexes.sort();
        true
    }

    /// Remove an index; returns true if it was present.
    pub fn remove_index(&mut self, index: &Index) -> bool {
        let before = self.indexes.len();
        self.indexes.retain(|i| i != index);
        before != self.indexes.len()
    }

    /// True if the design contains the index.
    pub fn has_index(&self, index: &Index) -> bool {
        self.indexes.contains(index)
    }

    /// All indexes, sorted.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Indexes on one table.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &Index> {
        self.indexes.iter().filter(move |i| i.table == table)
    }

    /// Install a vertical partitioning for its table, replacing any prior.
    pub fn set_vertical(&mut self, vp: VerticalPartitioning) {
        self.vertical.insert(vp.table, vp);
    }

    /// Install a horizontal partitioning for its table, replacing any prior.
    pub fn set_horizontal(&mut self, hp: HorizontalPartitioning) {
        self.horizontal.insert(hp.table, hp);
    }

    /// The vertical partitioning of a table, if any.
    pub fn vertical(&self, table: TableId) -> Option<&VerticalPartitioning> {
        self.vertical.get(&table)
    }

    /// The horizontal partitioning of a table, if any.
    pub fn horizontal(&self, table: TableId) -> Option<&HorizontalPartitioning> {
        self.horizontal.get(&table)
    }

    /// All vertical partitionings.
    pub fn verticals(&self) -> impl Iterator<Item = &VerticalPartitioning> {
        self.vertical.values()
    }

    /// All horizontal partitionings.
    pub fn horizontals(&self) -> impl Iterator<Item = &HorizontalPartitioning> {
        self.horizontal.values()
    }

    /// Union of this design and another (indexes and partitions; the other
    /// design's partitionings win on conflict).
    pub fn union(&self, other: &PhysicalDesign) -> PhysicalDesign {
        let mut d = self.clone();
        for i in &other.indexes {
            d.add_index(i.clone());
        }
        for vp in other.vertical.values() {
            d.set_vertical(vp.clone());
        }
        for hp in other.horizontal.values() {
            d.set_horizontal(hp.clone());
        }
        d
    }

    /// Total estimated bytes of all secondary indexes.
    pub fn index_bytes(&self, schema: &Schema, stats: &[TableStats]) -> u64 {
        self.indexes
            .iter()
            .map(|i| i.size_bytes(schema, &stats[i.table.0 as usize]))
            .sum()
    }

    /// Total replicated bytes introduced by vertical partitionings.
    pub fn replication_bytes(&self, schema: &Schema, stats: &[TableStats]) -> u64 {
        self.vertical
            .values()
            .map(|vp| vp.replication_bytes(schema, &stats[vp.table.0 as usize]))
            .sum()
    }

    /// Number of secondary indexes.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::stats::ColumnStats;
    use crate::types::DataType;

    fn schema() -> Schema {
        SchemaBuilder::new()
            .table("t")
            .column("a", DataType::BigInt)
            .column("b", DataType::Float)
            .column("c", DataType::Int)
            .column("d", DataType::Text { avg_len: 20 })
            .build()
            .unwrap()
    }

    fn stats() -> TableStats {
        TableStats {
            row_count: 1_000_000,
            columns: vec![
                ColumnStats::synthetic_key(1_000_000, 8.0),
                ColumnStats::synthetic_uniform(0.0, 1.0, 500_000.0, 8.0),
                ColumnStats::synthetic_uniform(0.0, 99.0, 100.0, 4.0),
                ColumnStats::synthetic_categorical(5, 21.0),
            ],
        }
    }

    #[test]
    fn index_prefix_and_cover() {
        let i = Index::new(TableId(0), vec![1, 2, 0]);
        assert!(i.covers(&[0, 2]));
        assert!(!i.covers(&[3]));
    }

    #[test]
    fn index_size_grows_with_key_width() {
        let s = schema();
        let st = stats();
        let narrow = Index::new(TableId(0), vec![2]);
        let wide = Index::new(TableId(0), vec![3, 0, 1]);
        assert!(wide.size_bytes(&s, &st) > narrow.size_bytes(&s, &st));
        assert!(narrow.size_bytes(&s, &st) > 0);
    }

    #[test]
    fn index_display_uses_names() {
        let s = schema();
        let i = Index::unique(TableId(0), vec![0, 1]);
        assert_eq!(i.display(&s), "t(a, b) UNIQUE");
    }

    #[test]
    fn design_add_remove_is_idempotent() {
        let mut d = PhysicalDesign::empty();
        let i = Index::new(TableId(0), vec![0]);
        assert!(d.add_index(i.clone()));
        assert!(!d.add_index(i.clone()));
        assert_eq!(d.index_count(), 1);
        assert!(d.remove_index(&i));
        assert!(!d.remove_index(&i));
        assert_eq!(d.index_count(), 0);
    }

    #[test]
    fn union_merges_everything() {
        let mut a = PhysicalDesign::with_indexes([Index::new(TableId(0), vec![0])]);
        a.set_vertical(VerticalPartitioning::new(
            TableId(0),
            vec![vec![0, 1, 2, 3]],
        ));
        let b = PhysicalDesign::with_indexes([Index::new(TableId(0), vec![1])]);
        let u = a.union(&b);
        assert_eq!(u.index_count(), 2);
        assert!(u.vertical(TableId(0)).is_some());
    }

    #[test]
    fn vertical_partitioning_completeness() {
        let vp = VerticalPartitioning::new(TableId(0), vec![vec![0, 1], vec![2, 3]]);
        assert!(vp.is_complete(4));
        assert!(!vp.is_complete(5));
        let partial = VerticalPartitioning::new(TableId(0), vec![vec![0]]);
        assert!(!partial.is_complete(2));
    }

    #[test]
    fn vertical_fragments_for_projection() {
        let vp = VerticalPartitioning::new(TableId(0), vec![vec![0, 1], vec![2], vec![3]]);
        assert_eq!(vp.fragments_for(&[0]), vec![0]);
        assert_eq!(vp.fragments_for(&[0, 2]), vec![0, 1]);
        assert_eq!(vp.fragments_for(&[3, 2, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn fragments_prefer_replicated_cover() {
        // Column 1 is replicated into both groups; asking for {0,1} should
        // read only the first fragment.
        let vp = VerticalPartitioning::new(TableId(0), vec![vec![0, 1], vec![1, 2]]);
        assert_eq!(vp.fragments_for(&[0, 1]), vec![0]);
    }

    #[test]
    fn replication_bytes_counts_overlap_only() {
        let s = schema();
        let st = stats();
        let disjoint = VerticalPartitioning::new(TableId(0), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(disjoint.replication_bytes(&s, &st), 0);
        // Column 0 (8 bytes) replicated once → 8 bytes × 1M rows.
        let overlapping = VerticalPartitioning::new(TableId(0), vec![vec![0, 1], vec![0, 2, 3]]);
        assert_eq!(overlapping.replication_bytes(&s, &st), 8_000_000);
    }

    #[test]
    fn horizontal_pruning() {
        let hp = HorizontalPartitioning::new(TableId(0), 2, vec![25.0, 50.0, 75.0]);
        assert_eq!(hp.partitions(), 4);
        assert_eq!(hp.surviving_fraction(None, None), 1.0);
        // Restriction to [0, 10] hits only the first partition.
        assert_eq!(hp.surviving_fraction(Some(0.0), Some(10.0)), 0.25);
        // Restriction to [30, 60] spans two partitions.
        assert_eq!(hp.surviving_fraction(Some(30.0), Some(60.0)), 0.5);
    }

    #[test]
    fn horizontal_bounds_normalised() {
        let hp = HorizontalPartitioning::new(TableId(0), 0, vec![50.0, 10.0, 50.0]);
        assert_eq!(hp.bounds, vec![10.0, 50.0]);
        assert_eq!(hp.partitions(), 3);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn surviving_fraction_in_unit_interval(
                bounds in proptest::collection::vec(-1e5f64..1e5, 0..10),
                lo in -2e5f64..2e5, hi in -2e5f64..2e5,
            ) {
                let hp = HorizontalPartitioning::new(TableId(0), 0, bounds);
                let (l, h) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                let f = hp.surviving_fraction(Some(l), Some(h));
                prop_assert!((0.0..=1.0).contains(&f));
                prop_assert!(f > 0.0, "a non-empty range always hits ≥1 partition");
            }

            #[test]
            fn fragments_cover_request(
                groups in proptest::collection::vec(proptest::collection::vec(0u16..6, 1..4), 1..5),
                needed in proptest::collection::vec(0u16..6, 1..5),
            ) {
                let vp = VerticalPartitioning::new(TableId(0), groups);
                let all: Vec<u16> = vp.groups.iter().flatten().copied().collect();
                let needed: Vec<u16> = needed.into_iter().filter(|c| all.contains(c)).collect();
                let frags = vp.fragments_for(&needed);
                for c in &needed {
                    prop_assert!(frags.iter().any(|&f| vp.groups[f].contains(c)));
                }
            }
        }
    }
}

//! Page and structure size model.
//!
//! The paper stresses (§2, critique of Monteiro et al.) that treating
//! what-if indexes as zero-size "severely affects the accuracy of the
//! optimizer". This module is the corrective: a PostgreSQL-flavoured size
//! model used uniformly for real and hypothetical structures, so what-if
//! costing and storage-budget accounting see the same bytes.
//! `tests/ablations.rs::zero_size_what_if_indexes_overshoot_the_budget`
//! ablates exactly this choice.

/// Bytes per heap/index page (PostgreSQL default block size).
pub const PAGE_SIZE: u64 = 8192;
/// Per-page header bytes.
pub const PAGE_HEADER: u64 = 24;
/// Per-tuple header bytes in heap pages (PostgreSQL `HeapTupleHeaderData`).
pub const HEAP_TUPLE_HEADER: u64 = 23;
/// Per-tuple line pointer in the page slot directory.
pub const ITEM_POINTER: u64 = 4;
/// B-tree per-entry overhead (IndexTupleData + line pointer).
pub const BTREE_ENTRY_OVERHEAD: u64 = 8 + 4;
/// Default index fill factor.
pub const BTREE_FILL_FACTOR: f64 = 0.90;
/// Heap fill factor.
pub const HEAP_FILL_FACTOR: f64 = 1.00;

/// Round a byte width up to the 8-byte alignment PostgreSQL uses (MAXALIGN).
pub fn maxalign(width: u64) -> u64 {
    width.div_ceil(8) * 8
}

/// Number of heap pages needed for `rows` tuples of `payload_width` bytes.
pub fn heap_pages(rows: u64, payload_width: u32) -> u64 {
    if rows == 0 {
        return 1;
    }
    let tuple = maxalign(HEAP_TUPLE_HEADER + u64::from(payload_width)) + ITEM_POINTER;
    let usable = ((PAGE_SIZE - PAGE_HEADER) as f64 * HEAP_FILL_FACTOR) as u64;
    let per_page = (usable / tuple).max(1);
    rows.div_ceil(per_page)
}

/// Number of leaf pages of a B-tree holding `rows` entries whose key part
/// is `key_width` bytes wide (heap pointer included in the overhead).
pub fn btree_leaf_pages(rows: u64, key_width: u32) -> u64 {
    if rows == 0 {
        return 1;
    }
    let entry = maxalign(u64::from(key_width)) + BTREE_ENTRY_OVERHEAD;
    let usable = ((PAGE_SIZE - PAGE_HEADER) as f64 * BTREE_FILL_FACTOR) as u64;
    let per_page = (usable / entry).max(1);
    rows.div_ceil(per_page)
}

/// Total pages of a B-tree (leaf + internal levels + metapage).
pub fn btree_total_pages(rows: u64, key_width: u32) -> u64 {
    let leaves = btree_leaf_pages(rows, key_width);
    let entry = maxalign(u64::from(key_width)) + BTREE_ENTRY_OVERHEAD;
    let fanout = (((PAGE_SIZE - PAGE_HEADER) as f64 * BTREE_FILL_FACTOR) as u64 / entry).max(2);
    let mut total = leaves + 1; // +1 metapage
    let mut level = leaves;
    while level > 1 {
        level = level.div_ceil(fanout);
        total += level;
    }
    total
}

/// Height (number of levels above the leaves) of the B-tree; the number of
/// page reads a single-key descent performs before touching a leaf.
pub fn btree_height(rows: u64, key_width: u32) -> u32 {
    let leaves = btree_leaf_pages(rows, key_width);
    let entry = maxalign(u64::from(key_width)) + BTREE_ENTRY_OVERHEAD;
    let fanout = (((PAGE_SIZE - PAGE_HEADER) as f64 * BTREE_FILL_FACTOR) as u64 / entry).max(2);
    let mut h = 0u32;
    let mut level = leaves;
    while level > 1 {
        level = level.div_ceil(fanout);
        h += 1;
    }
    h
}

/// Bytes occupied by `pages` pages.
pub fn pages_to_bytes(pages: u64) -> u64 {
    pages * PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxalign_rounds_up_to_eight() {
        assert_eq!(maxalign(0), 0);
        assert_eq!(maxalign(1), 8);
        assert_eq!(maxalign(8), 8);
        assert_eq!(maxalign(9), 16);
        assert_eq!(maxalign(23), 24);
    }

    #[test]
    fn heap_pages_scale_linearly() {
        let one = heap_pages(10_000, 100);
        let two = heap_pages(20_000, 100);
        assert!(two >= 2 * one - 1);
        assert!(two <= 2 * one + 1);
    }

    #[test]
    fn wider_rows_need_more_pages() {
        assert!(heap_pages(100_000, 200) > heap_pages(100_000, 50));
    }

    #[test]
    fn empty_relation_occupies_one_page() {
        assert_eq!(heap_pages(0, 100), 1);
        assert_eq!(btree_leaf_pages(0, 8), 1);
    }

    #[test]
    fn btree_total_exceeds_leaves() {
        let rows = 1_000_000;
        let leaves = btree_leaf_pages(rows, 8);
        let total = btree_total_pages(rows, 8);
        assert!(total > leaves);
        // Internal levels are a tiny fraction given the large fanout.
        assert!(total < leaves + leaves / 10 + 10);
    }

    #[test]
    fn btree_height_grows_logarithmically() {
        assert_eq!(btree_height(1, 8), 0);
        let h_small = btree_height(100_000, 8);
        let h_large = btree_height(100_000_000, 8);
        assert!(h_large >= h_small);
        assert!(h_large <= 4, "unexpectedly tall tree: {h_large}");
    }

    #[test]
    fn index_size_is_nonzero_even_for_narrow_keys() {
        // Guards against the zero-size what-if fallacy the paper calls out.
        assert!(pages_to_bytes(btree_total_pages(1_000_000, 4)) > 10 * PAGE_SIZE);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn heap_pages_monotone_in_rows(r1 in 0u64..10_000_000, r2 in 0u64..10_000_000, w in 1u32..2000) {
                let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
                prop_assert!(heap_pages(lo, w) <= heap_pages(hi, w));
            }

            #[test]
            fn btree_pages_monotone_in_width(r in 1u64..5_000_000, w1 in 1u32..500, w2 in 1u32..500) {
                let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
                prop_assert!(btree_total_pages(r, lo) <= btree_total_pages(r, hi));
            }
        }
    }
}

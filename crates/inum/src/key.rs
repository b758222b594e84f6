//! Cache keys — the *cell identity* of the two INUM cache levels.
//!
//! Both the skeleton cache ([`crate::Inum`]) and the incremental cost
//! matrix ([`crate::CostMatrix`]) find a query by [`query_cell_key`] and
//! then confirm it with `==` on the stored query: equal queries have
//! identical skeletons and identical matrix cells, so
//! [`crate::CostMatrix::add_queries`] reuses the resident `QueryMatrix` slot
//! of an equal query instead of recomputing its cells. Candidate cell
//! identity is the [`pgdesign_catalog::design::Index`] value itself
//! (table + column list), which [`crate::CostMatrix::add_candidate`]
//! dedupes on.

use pgdesign_query::ast::Query;
use std::hash::{Hash, Hasher};

/// FNV-1a, the cache-key hasher. Key derivation sits on the epoch hot
/// path (every [`crate::CostMatrix::add_queries`] call re-keys the whole
/// epoch to find resident queries), where SipHash's per-write overhead
/// was a measurable slice of the incremental update; FNV-1a is a few
/// multiplies per byte. Keys are hashes of literals the user controls, so
/// two different queries can share one — and neither cache trusts a key
/// alone: a key match with a different stored query is a miss. A
/// collision therefore costs a recomputation (and one more entry under
/// the key), never another query's skeletons or cells.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feed a fixed little-endian image — for hashes that are stored
    /// (`Hasher::write_u64` feeds native-endian bytes).
    pub(crate) fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

/// The cell-identity key of a query (exported as `query_cell_key`): a
/// hash over its template *and* literals (selectivities feed the internal
/// cost, so literals matter). Equal queries ⇒ equal keys; the converse is
/// only likely, so the caches compare the query itself on a key match.
pub fn query_key(query: &Query) -> u64 {
    use pgdesign_catalog::types::Value;
    use pgdesign_query::ast::{Aggregate, PredOp};

    fn hash_value<H: Hasher>(v: &Value, h: &mut H) {
        match v {
            Value::Null => 0u8.hash(h),
            Value::Int(i) => {
                1u8.hash(h);
                i.hash(h);
            }
            Value::Float(x) => {
                2u8.hash(h);
                x.to_bits().hash(h);
            }
            Value::Str(s) => {
                3u8.hash(h);
                s.hash(h);
            }
            Value::Bool(b) => {
                4u8.hash(h);
                b.hash(h);
            }
        }
    }

    let mut h = Fnv1a::new();
    for t in &query.tables {
        t.table.0.hash(&mut h);
    }
    query.select_star.hash(&mut h);
    for p in &query.projection {
        p.hash(&mut h);
    }
    for a in &query.aggregates {
        std::mem::discriminant(a).hash(&mut h);
        if let Aggregate::Count(c)
        | Aggregate::Sum(c)
        | Aggregate::Avg(c)
        | Aggregate::Min(c)
        | Aggregate::Max(c) = a
        {
            c.hash(&mut h);
        }
    }
    for f in &query.filters {
        f.col.hash(&mut h);
        match &f.op {
            PredOp::Cmp(op, v) => {
                0u8.hash(&mut h);
                op.hash(&mut h);
                hash_value(v, &mut h);
            }
            PredOp::Between(a, b) => {
                1u8.hash(&mut h);
                hash_value(a, &mut h);
                hash_value(b, &mut h);
            }
            PredOp::InList(vs) => {
                2u8.hash(&mut h);
                for v in vs {
                    hash_value(v, &mut h);
                }
            }
            PredOp::IsNull => 3u8.hash(&mut h),
            PredOp::IsNotNull => 4u8.hash(&mut h),
        }
    }
    for j in &query.joins {
        j.left.hash(&mut h);
        j.right.hash(&mut h);
    }
    for g in &query.group_by {
        g.hash(&mut h);
    }
    for o in &query.order_by {
        o.col.hash(&mut h);
        o.desc.hash(&mut h);
    }
    query.limit.hash(&mut h);
    h.finish()
}

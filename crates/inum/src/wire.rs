//! The workspace's one wire codec.
//!
//! Every durable artifact — snapshot records, edit-log records, the
//! online tuner's state they carry — is an explicit little-endian layout
//! over `pgdesign-durability`'s [`ByteWriter`]/[`ByteReader`]. A type's
//! layout is its [`Wire`] impl, and a record's field list is written
//! exactly once: [`wire_struct!`](crate::wire_struct) declares a record
//! (fields in wire order), [`wire_enum!`](crate::wire_enum) a `u8`-tagged
//! enum, and both expand to the `put` *and* the `get`, so the two cannot
//! drift.
//!
//! The trait lives here rather than in `pgdesign-durability` so the
//! catalog, query and optimizer types below can implement it (orphan
//! rule) without those crates learning about durability; `pgdesign-colt`
//! reuses it for its tuner state.
//!
//! Conventions: integers are fixed-width, `usize` travels as `u64`, `f64`
//! as its bit pattern, a `Vec`/`String` is a `u64` length prefix then the
//! elements, an `Option` is a `0`/`1` tag byte then the value.

use pgdesign_catalog::design::{HorizontalPartitioning, Index};
use pgdesign_catalog::schema::TableId;
use pgdesign_catalog::types::Value;
use pgdesign_durability::{ByteReader, ByteWriter, CodecError};
use pgdesign_optimizer::access::{FetchTarget, PathCost};
use pgdesign_optimizer::{CostParams, JoinControl};
use pgdesign_query::ast::{
    Aggregate, CmpOp, FilterPredicate, JoinPredicate, OrderItem, PredOp, Query, QueryColumn,
    QueryTable,
};
use std::sync::Arc;

/// Why a payload could not be decoded. Both variants are graceful-fallback
/// signals (cold build), never panics.
#[derive(Debug)]
pub enum PersistError {
    /// Structural failure: the bytes ran out or stopped making sense.
    Codec(CodecError),
    /// Semantic failure: well-formed bytes describing an impossible or
    /// inconsistent matrix (bad tag, key mismatch, out-of-range table).
    Invalid(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Codec(e) => write!(f, "{e}"),
            PersistError::Invalid(what) => write!(f, "invalid snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

/// A type with one byte layout, written and read by the same declaration.
pub trait Wire: Sized {
    /// Append this value's bytes.
    fn put(&self, w: &mut ByteWriter);
    /// Read one value. Runs on untrusted bytes: short or malformed input
    /// is an error, never a panic.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, PersistError>;
}

/// Encode one value as a whole record payload.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.put(&mut w);
    w.into_bytes()
}

/// Decode a whole record payload as one value; trailing bytes are an
/// error naming `what`.
pub fn from_bytes<T: Wire>(bytes: &[u8], what: &'static str) -> Result<T, PersistError> {
    let mut r = ByteReader::new(bytes);
    let value = T::get(&mut r)?;
    r.expect_end(what)?;
    Ok(value)
}

/// Declare a record's layout: `wire_struct!(Type: a, b, c)` writes and
/// reads the named fields in the listed order (`Type: 0` for a newtype).
/// Every field of the type must be listed.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty: $($field:tt),+ $(,)?) => {
        impl $crate::Wire for $ty {
            fn put(&self, w: &mut $crate::ByteWriter) {
                $( $crate::Wire::put(&self.$field, w); )+
            }
            fn get(r: &mut $crate::ByteReader<'_>) -> Result<Self, $crate::PersistError> {
                Ok(Self { $( $field: $crate::Wire::get(r)? ),+ })
            }
        }
    };
}

/// Declare a tagged enum's layout: `wire_enum!(Type, "what tag" { 0 =>
/// Unit, 1 => Tuple(a, b) })` — a `u8` tag, then the variant's fields in
/// order. An unknown tag is `PersistError::Invalid("what tag")`.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ty, $what:literal { $($tag:literal => $variant:ident $(( $($f:ident),+ ))?),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            fn put(&self, w: &mut $crate::ByteWriter) {
                match self {
                    $( Self::$variant $(( $($f),+ ))? => {
                        w.put_u8($tag);
                        $( $( $crate::Wire::put($f, w); )+ )?
                    } )+
                }
            }
            fn get(r: &mut $crate::ByteReader<'_>) -> Result<Self, $crate::PersistError> {
                Ok(match r.get_u8()? {
                    $( $tag => {
                        $( $( let $f = $crate::Wire::get(r)?; )+ )?
                        Self::$variant $(( $($f),+ ))?
                    } )+
                    _ => return Err($crate::PersistError::Invalid($what)),
                })
            }
        }
    };
}

macro_rules! wire_primitive {
    ($($ty:ty: $put:ident / $get:ident),+ $(,)?) => { $(
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
                Ok(r.$get()?)
            }
        }
    )+ };
}

wire_primitive! {
    u8: put_u8 / get_u8,
    u16: put_u16 / get_u16,
    u32: put_u32 / get_u32,
    u64: put_u64 / get_u64,
    u128: put_u128 / get_u128,
    i64: put_i64 / get_i64,
    f64: put_f64 / get_f64,
    bool: put_bool / get_bool,
}

impl Wire for usize {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u64(*self as u64);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        usize::try_from(r.get_u64()?).map_err(|_| PersistError::Invalid("usize out of range"))
    }
}

impl Wire for String {
    fn put(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(r.get_str()?)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.put_len(self.len());
        for item in self {
            item.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        // `get_len` has bounded the count by the bytes that remain.
        let n = r.get_len()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(value) => {
                w.put_u8(1);
                value.put(w);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(PersistError::Invalid("option tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Shared cells travel as the value they share.
impl<T: Wire> Wire for Arc<T> {
    fn put(&self, w: &mut ByteWriter) {
        (**self).put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Arc::new(T::get(r)?))
    }
}

// ---------------------------------------------------------------------------
// Catalog, query-AST and optimizer layouts
// ---------------------------------------------------------------------------

wire_struct!(TableId: 0);
wire_struct!(Index: table, columns, unique);
wire_struct!(HorizontalPartitioning: table, column, bounds);
wire_enum!(Value, "value tag" {
    0 => Null,
    1 => Int(v),
    2 => Float(v),
    3 => Str(v),
    4 => Bool(v),
});

wire_struct!(QueryColumn: slot, column);
wire_struct!(QueryTable: table, alias);
wire_enum!(Aggregate, "aggregate tag" {
    0 => CountStar,
    1 => Count(col),
    2 => Sum(col),
    3 => Avg(col),
    4 => Min(col),
    5 => Max(col),
});
wire_enum!(CmpOp, "cmp tag" {
    0 => Eq,
    1 => Lt,
    2 => Le,
    3 => Gt,
    4 => Ge,
    5 => Ne,
});
wire_enum!(PredOp, "predicate tag" {
    0 => Cmp(op, value),
    1 => Between(lo, hi),
    2 => InList(values),
    3 => IsNull,
    4 => IsNotNull,
});
wire_struct!(FilterPredicate: col, op);
wire_struct!(JoinPredicate: left, right);
wire_struct!(OrderItem: col, desc);
wire_struct!(
    Query: tables, projection, aggregates, select_star, filters, joins, group_by, order_by, limit
);

wire_struct!(
    CostParams: seq_page_cost, random_page_cost, cpu_tuple_cost, cpu_index_tuple_cost,
    cpu_operator_cost, effective_cache_pages, work_mem_bytes, index_only_heap_fetch_frac
);
wire_struct!(JoinControl: hash, merge, nestloop);
wire_struct!(FetchTarget: pages, fragments);
wire_struct!(PathCost: bitmap, pre, post, heap_rows, corr2, row_count);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::fmt::Debug;

    /// The codec's contract, checked on one value of any [`Wire`] type:
    /// `get` consumes exactly what `put` wrote and the decoded value
    /// re-encodes to the same bytes, and every strict prefix of the
    /// encoding is a [`CodecError`] — never a panic, never a value.
    /// Returns the decoded value for callers that can also compare it.
    pub(crate) fn assert_wire_contract<T: Wire>(value: &T) -> T {
        let bytes = to_bytes(value);
        let mut r = ByteReader::new(&bytes);
        let back = T::get(&mut r).expect("decode what was encoded");
        assert!(r.is_empty(), "reader at end");
        assert_eq!(to_bytes(&back), bytes, "re-encoding differs");
        for n in 0..bytes.len() {
            match from_bytes::<T>(&bytes[..n], "prefix") {
                Err(PersistError::Codec(_)) => {}
                Err(other) => panic!("prefix {n}/{}: {other}", bytes.len()),
                Ok(_) => panic!("prefix {n}/{} decoded", bytes.len()),
            }
        }
        back
    }

    fn assert_round_trips<T: Wire + PartialEq + Debug>(value: T) {
        assert_eq!(assert_wire_contract(&value), value);
    }

    fn every_kind_of_query() -> Query {
        let col = |slot, column| QueryColumn { slot, column };
        let filter = |column, op| FilterPredicate {
            col: col(0, column),
            op,
        };
        Query {
            tables: vec![
                QueryTable {
                    table: TableId(0),
                    alias: Some("p".to_string()),
                },
                QueryTable {
                    table: TableId(2),
                    alias: None,
                },
            ],
            projection: vec![col(0, 1), col(1, 0)],
            aggregates: vec![
                Aggregate::CountStar,
                Aggregate::Count(col(0, 2)),
                Aggregate::Sum(col(0, 3)),
                Aggregate::Avg(col(0, 4)),
                Aggregate::Min(col(1, 1)),
                Aggregate::Max(col(1, 2)),
            ],
            select_star: true,
            filters: vec![
                filter(0, PredOp::Cmp(CmpOp::Eq, Value::Int(-7))),
                filter(1, PredOp::Cmp(CmpOp::Lt, Value::Float(-0.0))),
                filter(2, PredOp::Cmp(CmpOp::Le, Value::Str("gälaxy".to_string()))),
                filter(3, PredOp::Cmp(CmpOp::Gt, Value::Bool(true))),
                filter(4, PredOp::Cmp(CmpOp::Ge, Value::Null)),
                filter(5, PredOp::Cmp(CmpOp::Ne, Value::Int(i64::MAX))),
                filter(6, PredOp::Between(Value::Float(1.5), Value::Float(2.5))),
                filter(7, PredOp::InList(vec![Value::Int(1), Value::Int(2)])),
                filter(8, PredOp::IsNull),
                filter(9, PredOp::IsNotNull),
            ],
            joins: vec![JoinPredicate {
                left: col(0, 0),
                right: col(1, 0),
            }],
            group_by: vec![col(0, 1)],
            order_by: vec![OrderItem {
                col: col(0, 1),
                desc: true,
            }],
            limit: Some(10),
        }
    }

    #[test]
    fn every_wire_type_round_trips_and_rejects_every_prefix() {
        assert_round_trips(0xabu8);
        assert_round_trips(0xabcdu16);
        assert_round_trips(0xdead_beefu32);
        assert_round_trips(u64::MAX - 1);
        assert_round_trips(1u128 << 100);
        assert_round_trips(-42i64);
        assert_round_trips(usize::MAX);
        assert_round_trips(true);
        assert_round_trips("héllo".to_string());
        // Floats travel as bit patterns: NaN payloads and signed zeros
        // survive (compared as bytes — NaN is not `==` itself).
        assert_wire_contract(&vec![f64::NAN, -0.0, f64::INFINITY, 1e-300]);
        assert_round_trips(vec![vec![1u16, 2], vec![]]);
        assert_round_trips(vec![Some("a".to_string()), None]);
        assert_round_trips((7u32, 2.5f64));
        assert_round_trips(Arc::new(9u64));

        assert_round_trips(TableId(3));
        assert_round_trips(Index {
            table: TableId(1),
            columns: vec![2, 0],
            unique: true,
        });
        assert_round_trips(HorizontalPartitioning {
            table: TableId(0),
            column: 4,
            bounds: vec![0.25, 0.5],
        });
        assert_round_trips(every_kind_of_query());
        assert_round_trips(CostParams::default());
        assert_round_trips(JoinControl::default());
        assert_round_trips(FetchTarget {
            pages: 12.0,
            fragments: 3,
        });
        assert_round_trips(PathCost {
            bitmap: true,
            pre: 1.5,
            post: 0.25,
            heap_rows: 40.0,
            corr2: 0.81,
            row_count: 1e5,
        });
    }

    #[test]
    fn unknown_tags_are_invalid_not_panics() {
        for bytes in [&[9u8][..], &[0, 9][..]] {
            assert!(matches!(
                from_bytes::<PredOp>(bytes, "predicate"),
                Err(PersistError::Invalid("cmp tag" | "predicate tag"))
            ));
        }
        assert!(matches!(
            from_bytes::<Option<u8>>(&[2, 0], "option"),
            Err(PersistError::Invalid("option tag"))
        ));
        // A value followed by garbage is not that value.
        assert!(matches!(
            from_bytes::<u8>(&[1, 2], "u8 record"),
            Err(PersistError::Codec(CodecError {
                what: "u8 record",
                at: 1
            }))
        ));
    }
}

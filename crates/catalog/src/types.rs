//! Data types and runtime values.
//!
//! The designer only ever needs values for two purposes: generating
//! synthetic data from which statistics are computed, and carrying literals
//! inside query predicates so that selectivities can be estimated. A small
//! closed set of types is therefore sufficient; it matches the types that
//! appear in the SDSS and TPC-H style schemas used by the paper's demo.

use std::cmp::Ordering;
use std::fmt;

/// Logical column data type.
///
/// `byte_width` feeds the size model ([`crate::sizing`]); variable-length
/// types carry an *average* width the way `pg_statistic.stawidth` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit integer.
    Int,
    /// 64-bit integer (object ids, keys).
    BigInt,
    /// 64-bit IEEE float (measurements, magnitudes).
    Float,
    /// Variable-length text with a given average byte length.
    Text {
        /// Average stored byte length, including the varlena header.
        avg_len: u16,
    },
    /// Boolean flag.
    Bool,
    /// Timestamp stored as microseconds since an epoch.
    Timestamp,
}

impl DataType {
    /// Average on-disk width of one value in bytes (PostgreSQL-flavoured).
    pub fn byte_width(&self) -> u32 {
        match self {
            DataType::Int => 4,
            DataType::BigInt => 8,
            DataType::Float => 8,
            DataType::Text { avg_len } => u32::from(*avg_len) + 1,
            DataType::Bool => 1,
            DataType::Timestamp => 8,
        }
    }

    /// True if values of this type have a natural linear order useful for
    /// B-tree indexing and range predicates (everything in our set does).
    pub fn is_orderable(&self) -> bool {
        true
    }

    /// True for types on which equality predicates are the norm and range
    /// predicates are unusual (flags / categorical text).
    pub fn is_categorical(&self) -> bool {
        matches!(self, DataType::Bool | DataType::Text { .. })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::BigInt => write!(f, "bigint"),
            DataType::Float => write!(f, "float"),
            DataType::Text { avg_len } => write!(f, "text({avg_len})"),
            DataType::Bool => write!(f, "bool"),
            DataType::Timestamp => write!(f, "timestamp"),
        }
    }
}

/// A runtime value: generated data cell or query literal.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value (covers `Int`, `BigInt` and `Timestamp`).
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// Text value.
    Str(String),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Project the value onto the real line for histogram placement.
    ///
    /// Strings are mapped through their first eight bytes interpreted as a
    /// big-endian integer, which preserves lexicographic order — the same
    /// trick PostgreSQL's `convert_string_to_scalar` uses for histogram
    /// interpolation on text columns. `NULL` has no numeric image.
    pub fn numeric_image(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => Some(string_to_scalar(s)),
        }
    }

    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL-style three-valued comparison; `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            // Heterogeneous comparisons fall back to the numeric image;
            // the parser only produces homogeneous ones.
            (a, b) => {
                let (x, y) = (a.numeric_image()?, b.numeric_image()?);
                Some(x.total_cmp(&y))
            }
        }
    }

    /// SQL equality (NULL never equals anything).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Total equality used for dedup/NDV computation: NULL == NULL here,
        // unlike SQL semantics, because ANALYZE counts NULLs as one group.
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.sql_eq(other),
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_order(other)
    }
}

impl Value {
    /// Total order used for sorting data during statistics computation:
    /// NULLs sort last, as with PostgreSQL's default `NULLS LAST`.
    fn total_order(&self, other: &Self) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => self.sql_cmp(other).unwrap_or(Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Map a string to a scalar preserving lexicographic order on the first
/// eight bytes (PostgreSQL `convert_string_to_scalar` analogue).
pub fn string_to_scalar(s: &str) -> f64 {
    let mut buf = [0u8; 8];
    for (i, b) in s.as_bytes().iter().take(8).enumerate() {
        buf[i] = *b;
    }
    u64::from_be_bytes(buf) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_are_positive_and_match_pg_conventions() {
        assert_eq!(DataType::Int.byte_width(), 4);
        assert_eq!(DataType::BigInt.byte_width(), 8);
        assert_eq!(DataType::Float.byte_width(), 8);
        assert_eq!(DataType::Text { avg_len: 12 }.byte_width(), 13);
        assert_eq!(DataType::Bool.byte_width(), 1);
        assert_eq!(DataType::Timestamp.byte_width(), 8);
    }

    #[test]
    fn sql_cmp_respects_null_semantics() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn total_order_sorts_nulls_last() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(1)];
        vals.sort();
        assert_eq!(vals[0], Value::Int(1));
        assert_eq!(vals[1], Value::Int(3));
        assert!(vals[2].is_null());
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)));
    }

    #[test]
    fn string_scalar_preserves_order() {
        let a = string_to_scalar("abc");
        let b = string_to_scalar("abd");
        let c = string_to_scalar("b");
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn numeric_image_of_strings_matches_scalar_map() {
        let v = Value::Str("galaxy".into());
        assert_eq!(v.numeric_image(), Some(string_to_scalar("galaxy")));
        assert_eq!(Value::Null.numeric_image(), None);
    }

    #[test]
    fn display_roundtrips_visually() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("x".into()).to_string(), "'x'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(DataType::Text { avg_len: 8 }.to_string(), "text(8)");
    }

    #[test]
    fn categorical_classification() {
        assert!(DataType::Bool.is_categorical());
        assert!(DataType::Text { avg_len: 4 }.is_categorical());
        assert!(!DataType::Float.is_categorical());
    }
}

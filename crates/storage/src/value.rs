//! Typed values and data types for KathDB's relational layer.
//!
//! Everything that flows through the relational semantic layer — base table
//! cells, scene-graph attributes, text-graph spans, lineage ids, model
//! scores — is a [`Value`]. A small closed set of types keeps the layer
//! "compact, tractable, and extensible to future modalities" (§3).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The data type of a column or value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (ids, years, counts).
    Int,
    /// 64-bit float (scores, coordinates).
    Float,
    /// UTF-8 text.
    Str,
    /// Boolean flag.
    Bool,
    /// Raw bytes (e.g. frame pixels in the `Frames` view).
    Blob,
    /// Any type; used for columns whose type is decided by a generated
    /// function body (the logical plan only carries signatures).
    Any,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
            DataType::Bool => "BOOL",
            DataType::Blob => "BLOB",
            DataType::Any => "ANY",
        };
        f.write_str(s)
    }
}

/// A single cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL-style NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Bytes.
    Blob(Vec<u8>),
}

impl Value {
    /// The runtime type of this value; `Null` reports [`DataType::Any`].
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Any,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bool(_) => DataType::Bool,
            Value::Blob(_) => DataType::Blob,
        }
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer payload, widening nothing.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric payload as f64 (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether the value is "truthy" for predicate evaluation. NULL is falsy
    /// (three-valued logic collapsed at the filter boundary, as in SQL
    /// `WHERE`).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            _ => false,
        }
    }

    /// SQL-style comparison: NULL compares as unknown (`None`); numeric
    /// types compare cross-type (Int vs Float, exactly — see
    /// [`cmp_int_f64`]); mismatched types are `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => cmp_int_f64(*a, *b),
            (Float(a), Int(b)) => cmp_int_f64(*b, *a).map(Ordering::reverse),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Blob(a), Blob(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used by ORDER BY and sorted indexes. NULLs sort first,
    /// then by type tag for mismatched types, then by payload. NaN sorts
    /// after all other floats. The rule is [`ValueRef::total_cmp`]'s, which
    /// a column slot read in place is ordered by too.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.borrowed().total_cmp(other.borrowed())
    }

    /// The value read in place.
    #[inline]
    pub(crate) fn borrowed(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Blob(b) => ValueRef::Blob(b),
        }
    }

    /// Renders the value the way the paper's figures print cells.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            // From 1e15 up and below 1e-5, the shortest exponent form that
            // reads back as the same float: `Display` would print every
            // digit (309 for `f64::MAX`, 302 for `1e-300`).
            Value::Float(f)
                if f.is_finite() && (f.abs() >= 1.0e15 || (*f != 0.0 && f.abs() < 1.0e-5)) =>
            {
                format!("{f:e}")
            }
            Value::Float(f) if f.fract() == 0.0 => format!("{f:.1}"),
            Value::Float(f) => f.to_string(),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => if *b { "True" } else { "False" }.to_string(),
            Value::Blob(b) => format!("<{} bytes>", b.len()),
        }
    }
}

/// A [`Value`] read in place — from an owned value or from a column's
/// typed payload — carrying the one total order every sort uses.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
    Bool(bool),
    Blob(&'a [u8]),
}

impl ValueRef<'_> {
    /// NULLs first, then by type tag for mismatched types, then by
    /// payload: `-0.0` equals `0.0`, NaN sorts after every other float (a
    /// negative NaN before), and Int↔Float compares exactly.
    #[inline]
    pub(crate) fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        fn rank(v: ValueRef<'_>) -> u8 {
            match v {
                ValueRef::Null => 0,
                ValueRef::Bool(_) => 1,
                ValueRef::Int(_) | ValueRef::Float(_) => 2,
                ValueRef::Str(_) => 3,
                ValueRef::Blob(_) => 4,
            }
        }
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => float_total_cmp(a, b),
            // Never through a lossy `as f64` cast, consistent with
            // `sql_cmp`. Against NaN an integer sits where its real value
            // would under `f64::total_cmp`: after a negative NaN, before a
            // positive one.
            (Int(a), Float(b)) => match cmp_int_f64(a, b) {
                Some(ord) => ord,
                None if b.is_sign_negative() => Ordering::Greater,
                None => Ordering::Less,
            },
            (Float(a), Int(b)) => match cmp_int_f64(b, a).map(Ordering::reverse) {
                Some(ord) => ord,
                None if a.is_sign_negative() => Ordering::Less,
                None => Ordering::Greater,
            },
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Blob(a), Blob(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// Two floats under the total order: `f64::total_cmp` with `-0.0` read as
/// `0.0`, so eq/hash/grouping treat them alike.
#[inline]
pub(crate) fn float_total_cmp(a: f64, b: f64) -> Ordering {
    fn norm(f: f64) -> f64 {
        if f == 0.0 {
            0.0
        } else {
            f
        }
    }
    norm(a).total_cmp(&norm(b))
}

/// Equality for joins/distinct: follows `total_cmp` (so NULL == NULL groups
/// together, and 1 == 1.0).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and equal-valued floats must hash identically because they
            // compare equal. Hash every numeric through its f64 bit pattern.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // Normalize -0.0 to 0.0 so they hash alike.
                let f = if *f == 0.0 { 0.0 } else { *f };
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Blob(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
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

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

/// Exact comparison of an `i64` against an `f64`, `None` iff `b` is NaN.
///
/// The obvious `(a as f64).partial_cmp(&b)` silently rounds: every integer
/// above 2^53 collapses onto its nearest representable double, so e.g.
/// `2^53 + 1` compared equal to `2^53 as f64`. This version is range- and
/// fraction-aware: it compares against `b`'s integer part (exact for any
/// finite double inside the `i64` range) and breaks the tie on `b`'s
/// fractional part, so distinct values never compare equal.
pub fn cmp_int_f64(a: i64, b: f64) -> Option<Ordering> {
    if b.is_nan() {
        return None;
    }
    // 2^63 exactly; i64 spans [-2^63, 2^63). Also catches ±infinity.
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    let bf = b.floor();
    if bf >= TWO_POW_63 {
        return Some(Ordering::Less); // b ≥ 2^63 > every i64
    }
    if bf < -TWO_POW_63 {
        return Some(Ordering::Greater); // b < -2^63 = i64::MIN ≤ a
    }
    let bi = bf as i64; // exact: bf is integral and within [-2^63, 2^63)
    Some(a.cmp(&bi).then(if b > bf {
        Ordering::Less // a == ⌊b⌋ but b has a fractional part
    } else {
        Ordering::Equal
    }))
}

/// A row is a vector of values, positionally aligned with a [`crate::Schema`].
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_cross_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn cross_type_comparison_is_exact_above_2_pow_53() {
        // 2^53 + 1 is not representable as f64; the old `i64 as f64` cast
        // collapsed it onto 2^53 and reported Equal.
        let big = (1i64 << 53) + 1;
        let rounded = (1i64 << 53) as f64;
        assert_eq!(
            Value::Int(big).sql_cmp(&Value::Float(rounded)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Float(rounded).sql_cmp(&Value::Int(big)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(big).total_cmp(&Value::Float(rounded)),
            Ordering::Greater
        );
        // Exact equality still holds where the double really is the integer.
        assert_eq!(
            Value::Int(1i64 << 53).sql_cmp(&Value::Float(rounded)),
            Some(Ordering::Equal)
        );
        // i64::MAX rounds UP to 2^63 as f64; they must not compare equal.
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::Float(i64::MAX as f64)),
            Some(Ordering::Less)
        );
        // i64::MIN is exactly -2^63.
        assert_eq!(
            Value::Int(i64::MIN).sql_cmp(&Value::Float(i64::MIN as f64)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn cross_type_comparison_handles_range_fraction_and_nan() {
        assert_eq!(cmp_int_f64(0, f64::INFINITY), Some(Ordering::Less));
        assert_eq!(cmp_int_f64(0, f64::NEG_INFINITY), Some(Ordering::Greater));
        assert_eq!(cmp_int_f64(0, f64::NAN), None);
        assert_eq!(cmp_int_f64(0, 1e300), Some(Ordering::Less));
        assert_eq!(cmp_int_f64(0, -1e300), Some(Ordering::Greater));
        assert_eq!(cmp_int_f64(2, 1.5), Some(Ordering::Greater));
        assert_eq!(cmp_int_f64(1, 1.5), Some(Ordering::Less));
        assert_eq!(cmp_int_f64(-2, -1.5), Some(Ordering::Less));
        assert_eq!(cmp_int_f64(-1, -1.5), Some(Ordering::Greater));
        assert_eq!(cmp_int_f64(0, -0.0), Some(Ordering::Equal));
        // NaN keeps its total_cmp position relative to integers.
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Float(f64::NAN)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(i64::MIN).total_cmp(&Value::Float(-f64::NAN)),
            Ordering::Greater
        );
    }

    #[test]
    fn total_cmp_orders_nulls_first() {
        let mut vals = [Value::Int(1), Value::Null, Value::Str("a".into())];
        vals.sort_by(Value::total_cmp);
        assert!(vals[0].is_null());
    }

    #[test]
    fn eq_and_hash_agree_across_numeric_types() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(Value::Int(5).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Str("x".into()).is_truthy());
    }

    #[test]
    fn render_matches_paper_style() {
        assert_eq!(Value::Bool(true).render(), "True");
        assert_eq!(Value::Float(1.0).render(), "1.0");
        assert_eq!(Value::Int(1991).render(), "1991");
        assert_eq!(Value::Null.render(), "NULL");
    }

    #[test]
    fn a_float_from_1e15_up_renders_in_shortest_exponent_form() {
        for (f, text) in [
            (f64::MAX, "1.7976931348623157e308"),
            (-f64::MAX, "-1.7976931348623157e308"),
            (1.0e15, "1e15"),
            (-2.5e20, "-2.5e20"),
            (9007199254740993.0, "9.007199254740992e15"),
            (999_999_999_999_999.0, "999999999999999.0"),
            (0.1, "0.1"),
            (1e-300, "1e-300"),
            (-2.5e-7, "-2.5e-7"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (5e-324, "5e-324"),
            (9.99e-6, "9.99e-6"),
            (1e-5, "0.00001"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (f64::INFINITY, "inf"),
            (f64::NAN, "NaN"),
        ] {
            assert_eq!(Value::Float(f).render(), text);
            if f.is_finite() {
                assert_eq!(text.parse::<f64>().unwrap(), f, "{text} reads back");
            }
        }
    }
}

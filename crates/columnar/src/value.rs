//! Dynamically typed values, tuples and sort keys.
//!
//! The PDT paper works over ordered relational tables whose sort keys may be
//! integers, strings, dates, or compounds thereof (Figures 17/18 sweep key
//! type and arity). [`Value`] is the dynamic value representation shared by
//! the stable store, the PDT/VDT value spaces, and the executor.

use std::cmp::Ordering;
use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Boolean flags (e.g. the `new` column of the paper's inventory table).
    Bool,
    /// 64-bit signed integers.
    Int,
    /// 64-bit IEEE doubles (prices, discounts).
    Double,
    /// UTF-8 strings.
    Str,
    /// Calendar dates, stored as days since 1970-01-01.
    Date,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Bool => "BOOL",
            ValueType::Int => "INT",
            ValueType::Double => "DOUBLE",
            ValueType::Str => "STR",
            ValueType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A dynamically typed value.
///
/// `Value` has a *total* order (doubles compare via `total_cmp`, `Null`
/// sorts first, and heterogeneous comparisons order by type tag) so that it
/// can be used directly as a sort-key component in `BTreeMap`s (the VDT
/// baseline) and in merge comparisons. Equality is identity under that
/// order (see the `PartialEq` impl): `==` agrees with `Hash` everywhere
/// and with `Ord` within a variant, so hashed and ordered key sets find
/// the same keys.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent value. Sorts before everything else.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float; ordered by `total_cmp` so sorting is total.
    Double(f64),
    /// UTF-8 string, ordered bytewise.
    Str(String),
    /// Date as days since the Unix epoch.
    Date(i32),
}

/// Two values are equal exactly when they are the same value under the
/// total order: the same variant, and `cmp` finds them equal. A NaN
/// equals itself (doubles compare by bits, as `total_cmp` and `Hash` see
/// them), `-0.0` and `0.0` differ, and an `Int` never equals a `Double`.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Double(a), Double(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            _ => false,
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
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            // Cross-numeric comparison: promote to double. Needed because
            // arithmetic in the executor may produce doubles compared with
            // integer literals.
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            // Fall back to a stable order on the type tag for remaining
            // heterogeneous pairs; schemas make these unreachable in
            // well-typed plans but a total order keeps sort code safe.
            (a, b) => a.type_tag().cmp(&b.type_tag()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Double(d) => {
                3u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                5u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl Value {
    fn type_tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 3,
            Value::Str(_) => 4,
            Value::Date(_) => 5,
        }
    }

    /// The [`ValueType`] of this value, or `None` for `Null`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Int(_) => Some(ValueType::Int),
            Value::Double(_) => Some(ValueType::Double),
            Value::Str(_) => Some(ValueType::Str),
            Value::Date(_) => Some(ValueType::Date),
        }
    }

    /// Integer accessor; panics on type mismatch (plans are statically typed
    /// by construction).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// Double accessor with implicit int promotion.
    pub fn as_double(&self) -> f64 {
        match self {
            Value::Double(d) => *d,
            Value::Int(i) => *i as f64,
            other => panic!("expected Double, got {other:?}"),
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, got {other:?}"),
        }
    }

    /// Date accessor (days since epoch).
    pub fn as_date(&self) -> i32 {
        match self {
            Value::Date(d) => *d,
            other => panic!("expected Date, got {other:?}"),
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected Bool, got {other:?}"),
        }
    }

    /// `true` if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d:.4}"),
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => f.write_str(&format_date(*d)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
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

/// A full row of a table.
pub type Tuple = Vec<Value>;

/// A (possibly compound) sort-key value: the projection of a tuple onto the
/// table's sort-key columns, in key order. Ordered lexicographically.
pub type SkKey = Vec<Value>;

/// One staged update against a key-addressed delta structure (the
/// value-based tree of `vdt`, the row buffer of `rowstore`): what a
/// transaction keeps per statement for conflict validation, for the WAL
/// flattening and for publication. Rows are addressed by the sort key of
/// the tuple they carry. An insert or delete statement stays one op —
/// and downstream one WAL entry — however many rows it touches; a
/// one-row statement is a batch of one.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyOp {
    /// Brand-new tuples staged by one statement (key-sorted, distinct
    /// keys not visible at staging time).
    Insert(Vec<Tuple>),
    /// Deletion of visible tuples staged by one statement.
    Delete {
        /// Full pre-images in visible — i.e. key — order: the sort key
        /// addresses each tuple, the rest detects a concurrent
        /// modification.
        pres: Vec<Tuple>,
    },
    /// In-place modification of one column of a visible tuple.
    Modify {
        /// Full pre-image of the tuple.
        pre: Tuple,
        /// The column assigned.
        col: usize,
        /// Its new value.
        value: Value,
    },
}

/// Extract the sort key of `tuple` given the sort-key column indices.
pub fn sk_of(tuple: &[Value], sort_key: &[usize]) -> SkKey {
    sort_key.iter().map(|&c| tuple[c].clone()).collect()
}

/// Parse `YYYY-MM-DD` into days since 1970-01-01 (proleptic Gregorian).
///
/// Uses Howard Hinnant's `days_from_civil` algorithm.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut it = s.split('-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: i64 = it.next()?.parse().ok()?;
    let d: i64 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d) as i32)
}

/// Format days-since-epoch as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m + 9) % 12; // [0, 11], Mar=0
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Extract the year of a days-since-epoch date (used by several TPC-H
/// queries that group on `EXTRACT(YEAR FROM ...)`).
pub fn date_year(days: i32) -> i64 {
    civil_from_days(days as i64).0
}

/// Build a date directly from year/month/day components.
pub fn date_from_ymd(y: i64, m: i64, d: i64) -> i32 {
    days_from_civil(y, m, d) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip_epoch() {
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(format_date(0), "1970-01-01");
    }

    #[test]
    fn date_roundtrip_tpch_range() {
        for (s, want_year) in [
            ("1992-01-01", 1992),
            ("1995-03-15", 1995),
            ("1998-12-01", 1998),
            ("1998-08-02", 1998),
        ] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s);
            assert_eq!(date_year(d), want_year);
        }
    }

    #[test]
    fn date_ordering_matches_string_ordering() {
        let a = parse_date("1994-01-01").unwrap();
        let b = parse_date("1994-12-31").unwrap();
        let c = parse_date("1995-01-01").unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn date_from_ymd_consistent() {
        assert_eq!(date_from_ymd(1996, 4, 1), parse_date("1996-04-01").unwrap());
    }

    #[test]
    fn value_total_order() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-5),
            Value::Int(7),
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        let mut sorted = vals.clone();
        sorted.sort();
        // sorting must be stable & not panic; homogeneous runs keep order
        assert_eq!(sorted[0], Value::Null);
    }

    #[test]
    fn value_numeric_cross_compare() {
        assert!(Value::Int(3) < Value::Double(3.5));
        assert!(Value::Double(2.5) < Value::Int(3));
        assert_eq!(
            Value::Int(3).cmp(&Value::Double(3.0)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn equality_is_identity_under_the_total_order() {
        use std::collections::HashSet;
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan, nan.clone(), "a NaN equals itself");
        assert_ne!(Value::Double(-0.0), Value::Double(0.0));
        assert_ne!(Value::Int(3), Value::Double(3.0), "variants never mix");
        // a hashed set finds exactly the keys the order finds equal
        let keys: HashSet<Vec<Value>> = [vec![nan.clone()], vec![Value::Double(0.0)]].into();
        assert!(keys.contains(&vec![Value::Double(f64::NAN)]));
        assert!(!keys.contains(&vec![Value::Double(-0.0)]));
    }

    #[test]
    fn sk_extraction() {
        let t: Tuple = vec!["London".into(), "chair".into(), false.into(), 30i64.into()];
        assert_eq!(
            sk_of(&t, &[0, 1]),
            vec![Value::Str("London".into()), Value::Str("chair".into())]
        );
    }

    #[test]
    fn accessors_panic_messages() {
        assert_eq!(Value::Int(4).as_int(), 4);
        assert_eq!(Value::Double(1.5).as_double(), 1.5);
        assert_eq!(Value::Int(4).as_double(), 4.0);
        assert_eq!(Value::Str("x".into()).as_str(), "x");
        assert!(Value::Bool(true).as_bool());
        assert!(Value::Null.is_null());
    }
}

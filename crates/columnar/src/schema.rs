//! Table schemas and sort-key definitions.

use crate::value::{Value, ValueType};
use std::cmp::Ordering;

/// A named, typed column of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within its schema.
    pub name: String,
    /// Column value type.
    pub vtype: ValueType,
}

impl Field {
    /// New field from a name and type.
    pub fn new(name: impl Into<String>, vtype: ValueType) -> Self {
        Field {
            name: name.into(),
            vtype,
        }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// New schema over `fields`, in column order.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, ValueType)]) -> Self {
        Schema {
            fields: pairs.iter().map(|(n, t)| Field::new(*n, *t)).collect(),
        }
    }

    /// All fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column with the given name. Panics if absent — schema
    /// references in hand-written plans are programming errors, not runtime
    /// conditions.
    pub fn col(&self, name: &str) -> usize {
        self.try_col(name)
            .unwrap_or_else(|| panic!("no column named {name:?} in schema"))
    }

    /// Index of the column with the given name, if present.
    pub fn try_col(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field at column index `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// The value type of column `idx`.
    pub fn vtype(&self, idx: usize) -> ValueType {
        self.fields[idx].vtype
    }

    /// The column types in schema order (batch-construction convenience).
    pub fn types(&self) -> Vec<ValueType> {
        self.fields.iter().map(|f| f.vtype).collect()
    }

    /// Type-check a tuple against this schema (`Null` matches any type).
    pub fn validate(&self, tuple: &[Value]) -> bool {
        tuple.len() == self.fields.len()
            && tuple
                .iter()
                .zip(&self.fields)
                .all(|(v, f)| v.is_null() || v.value_type() == Some(f.vtype))
    }
}

/// Definition of the table's physical sort order: the list of column
/// indices forming the (compound) sort key, in significance order. The paper
/// requires the sort key SK to also be a key of the table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SortKeyDef {
    cols: Vec<usize>,
}

impl SortKeyDef {
    /// New sort key over column indices, in significance order.
    pub fn new(cols: Vec<usize>) -> Self {
        SortKeyDef { cols }
    }

    /// The sort-key column indices, in significance order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of sort-key components.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the sort key is empty.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Compare two full tuples by this sort key.
    pub fn cmp_tuples(&self, a: &[Value], b: &[Value]) -> Ordering {
        for &c in &self.cols {
            match a[c].cmp(&b[c]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Tuple;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("store", ValueType::Str),
            ("prod", ValueType::Str),
            ("new", ValueType::Bool),
            ("qty", ValueType::Int),
        ])
    }

    #[test]
    fn col_lookup() {
        let s = schema();
        assert_eq!(s.col("store"), 0);
        assert_eq!(s.col("qty"), 3);
        assert_eq!(s.try_col("nope"), None);
        assert_eq!(s.len(), 4);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn col_lookup_missing_panics() {
        schema().col("missing");
    }

    #[test]
    fn validate_tuples() {
        let s = schema();
        assert!(s.validate(&["London".into(), "chair".into(), false.into(), 30i64.into()]));
        assert!(s.validate(&["London".into(), "chair".into(), Value::Null, 30i64.into()]));
        assert!(!s.validate(&["London".into(), "chair".into(), false.into()]));
        assert!(!s.validate(&[1i64.into(), "chair".into(), false.into(), 30i64.into()]));
    }

    #[test]
    fn sort_key_compare() {
        let sk = SortKeyDef::new(vec![0, 1]);
        let a: Tuple = vec!["Berlin".into(), "table".into(), true.into(), 10i64.into()];
        let b: Tuple = vec!["London".into(), "chair".into(), false.into(), 30i64.into()];
        assert_eq!(sk.cmp_tuples(&a, &b), Ordering::Less);
        assert_eq!(sk.cmp_tuples(&a, &a), Ordering::Equal);
    }
}

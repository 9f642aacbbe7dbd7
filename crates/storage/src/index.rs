//! Secondary indexes over tables.
//!
//! KathDB materializes every intermediate view (§3); a hash index makes
//! equality lookups (`lid -> row`, `WHERE col = literal`) cheap. An index
//! is built from one table value and owned by it ([`Table::hash_index`]).

use crate::{StorageError, Table, Value};
use std::collections::HashMap;

/// A hash index from column value to row positions.
#[derive(Debug, Clone)]
pub struct HashIndex {
    column: String,
    map: HashMap<Value, Vec<usize>>,
}

impl HashIndex {
    /// Builds the index over one column of `table`. NULLs are not indexed.
    /// Streams page by page on paged tables (bounded by the pool budget).
    pub fn build(table: &Table, column: &str) -> Result<Self, StorageError> {
        let mut map: HashMap<Value, Vec<usize>> = HashMap::new();
        table.for_each_in_column(column, |pos, v| {
            if !v.is_null() {
                map.entry(v.clone()).or_default().push(pos);
            }
            Ok(())
        })?;
        Ok(Self {
            column: column.to_string(),
            map,
        })
    }

    /// The indexed column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Row positions matching `value` (empty slice if none).
    pub fn lookup(&self, value: &Value) -> &[usize] {
        self.map.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct indexed keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Schema};

    fn table() -> Table {
        let schema = Schema::of(&[("id", DataType::Int), ("year", DataType::Int)]);
        Table::from_rows(
            "t",
            schema,
            vec![
                vec![1i64.into(), 1991i64.into()],
                vec![2i64.into(), 1988i64.into()],
                vec![3i64.into(), Value::Null],
                vec![4i64.into(), 1991i64.into()],
                vec![5i64.into(), 2001i64.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn hash_index_lookup() {
        let t = table();
        let ix = HashIndex::build(&t, "year").unwrap();
        assert_eq!(ix.lookup(&Value::Int(1991)), &[0, 3]);
        assert_eq!(ix.lookup(&Value::Int(1900)), &[] as &[usize]);
        assert_eq!(ix.distinct_keys(), 3);
        // NULLs are not indexed.
        assert_eq!(ix.lookup(&Value::Null), &[] as &[usize]);
    }

    #[test]
    fn unknown_column_is_error() {
        let t = table();
        assert!(HashIndex::build(&t, "nope").is_err());
    }
}

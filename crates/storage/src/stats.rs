//! Table statistics for cost-based optimization.
//!
//! The paper's optimizer "attaches cost and accuracy statistics to individual
//! FAO implementations and compares alternatives … under a unified cost
//! model" (§1). Relational costs bottom out in these per-table statistics.

use crate::{StorageError, Table, Value};
use std::collections::HashSet;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Number of distinct non-NULL values.
    pub ndv: usize,
    /// Number of NULLs.
    pub null_count: usize,
    /// Minimum non-NULL value.
    pub min: Option<Value>,
    /// Maximum non-NULL value.
    pub max: Option<Value>,
}

impl ColumnStats {
    /// Estimated selectivity of an equality predicate on this column
    /// (classical `1/ndv` with a floor to avoid zero estimates).
    pub fn eq_selectivity(&self) -> f64 {
        if self.ndv == 0 {
            0.0
        } else {
            (1.0 / self.ndv as f64).max(1e-6)
        }
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Row count.
    pub rows: usize,
    /// Per-column statistics, aligned with the schema.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Collects exact statistics by streaming each column once: a sealed
    /// part is read a page at a time through the pool, never materialized,
    /// and a page that cannot be read is an error.
    pub fn collect(table: &Table) -> Result<Self, StorageError> {
        let mut columns = Vec::with_capacity(table.schema().arity());
        for column in table.schema().columns() {
            let mut distinct: HashSet<Value> = HashSet::new();
            let mut stats = ColumnStats {
                name: column.name.clone(),
                ndv: 0,
                null_count: 0,
                min: None,
                max: None,
            };
            table.for_each_in_column(&column.name, |_, v| {
                if v.is_null() {
                    stats.null_count += 1;
                    return Ok(());
                }
                if stats.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                    stats.min = Some(v.clone());
                }
                if stats.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                    stats.max = Some(v.clone());
                }
                if !distinct.contains(v) {
                    distinct.insert(v.clone());
                }
                Ok(())
            })?;
            stats.ndv = distinct.len();
            columns.push(stats);
        }
        Ok(Self {
            rows: table.len(),
            columns,
        })
    }

    /// Stats for a named column.
    pub fn column(&self, name: &str) -> Result<&ColumnStats, StorageError> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_string()))
    }

    /// Estimated output cardinality of an equi-join with `other` on the given
    /// columns: `|L|·|R| / max(ndv_L, ndv_R)` (System-R style).
    pub fn join_cardinality(
        &self,
        col: &str,
        other: &TableStats,
        other_col: &str,
    ) -> Result<f64, StorageError> {
        let l = self.column(col)?;
        let r = other.column(other_col)?;
        let denom = l.ndv.max(r.ndv).max(1) as f64;
        Ok(self.rows as f64 * other.rows as f64 / denom)
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
            ],
        )
        .unwrap()
    }

    #[test]
    fn collect_counts_ndv_nulls_min_max() {
        let s = TableStats::collect(&table()).unwrap();
        assert_eq!(s.rows, 4);
        let year = s.column("year").unwrap();
        assert_eq!(year.ndv, 2);
        assert_eq!(year.null_count, 1);
        assert_eq!(year.min, Some(Value::Int(1988)));
        assert_eq!(year.max, Some(Value::Int(1991)));
    }

    #[test]
    fn eq_selectivity() {
        let s = TableStats::collect(&table()).unwrap();
        let id = s.column("id").unwrap();
        assert!((id.eq_selectivity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn join_cardinality_estimate() {
        let s = TableStats::collect(&table()).unwrap();
        // Self-join on id: 4*4/4 = 4.
        let est = s.join_cardinality("id", &s, "id").unwrap();
        assert!((est - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_table_stats() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let t = Table::new("e", schema);
        let s = TableStats::collect(&t).unwrap();
        assert_eq!(s.rows, 0);
        assert_eq!(s.column("x").unwrap().ndv, 0);
        assert_eq!(s.column("x").unwrap().eq_selectivity(), 0.0);
    }
}

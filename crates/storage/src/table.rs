//! Tables: the materialization unit of KathDB.
//!
//! Every intermediate result in a KathDB pipeline is materialized as a table
//! so that lineage can reference it (§3) and the explainer can show it (§5).
//!
//! A table is either *resident* (plain `Vec<Row>`, the shape every operator
//! was written against) or *paged* (a [`PagedTable`] of compressed column
//! pages read through the buffer pool). Tables become paged at checkpoint
//! and recovery; mutation materializes them back to resident. The legacy
//! `rows()`/`row()` accessors stay infallible by lazily materializing a
//! paged table's row cache on first use — hot paths (scans, index builds)
//! use the page-aware fallible accessors instead and never pay for that.
//!
//! A table registered in a catalog is never mutated again, so everything
//! derived from its rows — hash indexes, vector indexes, statistics — is
//! owned by the table value itself ([`Table::hash_index`],
//! [`Table::vector_index`], [`Table::stats`]): built at most once, on first
//! use, shared by every clone and every catalog version that holds the same
//! rows, and dropped with the last of them. It cannot be stale because what
//! it was computed from cannot change; a mutated clone starts with none.

use crate::paged::PagedTable;
use crate::pool::BufferPool;
use crate::{HashIndex, Row, Schema, StorageError, TableStats, Value, VectorIndex};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Column → the one value built from that column of one table's rows.
struct PerColumn<T> {
    built: RwLock<BTreeMap<String, Arc<T>>>,
}

impl<T> Default for PerColumn<T> {
    fn default() -> Self {
        Self {
            built: RwLock::default(),
        }
    }
}

impl<T> PerColumn<T> {
    /// The value for `column`, built on first use. `build` scans the table
    /// and so runs with no lock held; when two callers race, the first
    /// insert wins and both get that one.
    fn get_or_build(
        &self,
        column: &str,
        build: impl FnOnce() -> Result<T, StorageError>,
    ) -> Result<Arc<T>, StorageError> {
        if let Some(found) = self.built.read().get(column) {
            return Ok(Arc::clone(found));
        }
        let fresh = Arc::new(build()?);
        let mut built = self.built.write();
        Ok(Arc::clone(built.entry(column.to_string()).or_insert(fresh)))
    }
}

/// What a table value owns besides its rows (see the module docs).
#[derive(Default)]
struct Derived {
    hash: PerColumn<HashIndex>,
    vector: PerColumn<VectorIndex>,
    stats: OnceLock<TableStats>,
}

impl fmt::Debug for Derived {
    /// Opaque: a table's debug form is its rows, not its indexes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Derived").finish_non_exhaustive()
    }
}

#[derive(Debug)]
enum Repr {
    Resident(Vec<Row>),
    Paged {
        pages: Arc<PagedTable>,
        // Lazily materialized rows for the legacy `rows()` accessor.
        cache: OnceLock<Vec<Row>>,
    },
}

impl Clone for Repr {
    fn clone(&self) -> Self {
        match self {
            Repr::Resident(rows) => Repr::Resident(rows.clone()),
            // Cloning a paged table shares the page set; the row cache is
            // per-clone so an un-materialized clone stays lightweight.
            Repr::Paged { pages, .. } => Repr::Paged {
                pages: Arc::clone(pages),
                cache: OnceLock::new(),
            },
        }
    }
}

/// A named, schema-checked collection of rows, resident or page-backed.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    repr: Repr,
    // Shared by clones and by the paged form of the same rows; replaced by
    // an empty one when the rows change (`push`).
    derived: Arc<Derived>,
}

impl PartialEq for Table {
    /// Logical equality: same name, schema, and row contents — a paged
    /// table equals its resident counterpart. Derived state is not part of
    /// it.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.schema == other.schema
            && self.len() == other.len()
            && self.rows() == other.rows()
    }
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self {
            name: name.into(),
            schema,
            repr: Repr::Resident(Vec::new()),
            derived: Arc::default(),
        }
    }

    /// Builds a table from rows, validating each against the schema.
    pub fn from_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Row>,
    ) -> Result<Self, StorageError> {
        let mut t = Table::new(name, schema);
        for row in rows {
            t.push(row)?;
        }
        Ok(t)
    }

    /// Wraps an existing paged representation as a table.
    pub fn from_paged(name: impl Into<String>, pages: Arc<PagedTable>) -> Self {
        Self {
            name: name.into(),
            schema: pages.schema().clone(),
            repr: Repr::Paged {
                pages,
                cache: OnceLock::new(),
            },
            derived: Arc::default(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the table (used when an intermediate result is registered
    /// under the `output` name its plan node declared).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Resident(rows) => rows.len(),
            Repr::Paged { pages, .. } => pages.len(),
        }
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the table is page-backed (vs fully resident).
    pub fn is_paged(&self) -> bool {
        matches!(self.repr, Repr::Paged { .. })
    }

    /// The paged representation, when the table is page-backed.
    pub fn paged(&self) -> Option<&Arc<PagedTable>> {
        match &self.repr {
            Repr::Paged { pages, .. } => Some(pages),
            Repr::Resident(_) => None,
        }
    }

    /// Converts to the paged representation (no-op if already paged). The
    /// rows are the same, so the result shares this table's derived state.
    pub fn to_paged(
        &self,
        pool: &Arc<BufferPool>,
        page_rows: usize,
    ) -> Result<Table, StorageError> {
        match &self.repr {
            Repr::Paged { .. } => Ok(self.clone()),
            Repr::Resident(rows) => {
                let pages =
                    PagedTable::from_rows(self.schema.clone(), rows, Arc::clone(pool), page_rows)?;
                Ok(Table {
                    derived: Arc::clone(&self.derived),
                    ..Table::from_paged(self.name.clone(), Arc::new(pages))
                })
            }
        }
    }

    /// All rows. On a paged table this materializes (and caches) every row
    /// on first use — hot paths should prefer [`Table::row_at`],
    /// [`Table::for_each_in_column`], or page-level access via
    /// [`Table::paged`].
    ///
    /// # Panics
    /// Panics if a paged table's backing pages cannot be read (missing or
    /// corrupt page files). Fallible callers should use [`Table::row_at`].
    pub fn rows(&self) -> &[Row] {
        match &self.repr {
            Repr::Resident(rows) => rows,
            Repr::Paged { pages, cache } => cache.get_or_init(|| {
                pages
                    .materialize()
                    .expect("paged table backing pages unreadable")
            }),
        }
    }

    /// A row by position (legacy infallible accessor; see [`Table::rows`]).
    pub fn row(&self, idx: usize) -> Option<&Row> {
        self.rows().get(idx)
    }

    /// A row by position without forcing full materialization; reads
    /// through the buffer pool on a paged table.
    pub fn row_at(&self, idx: usize) -> Result<Option<Row>, StorageError> {
        match &self.repr {
            Repr::Resident(rows) => Ok(rows.get(idx).cloned()),
            Repr::Paged { pages, cache } => match cache.get() {
                Some(rows) => Ok(rows.get(idx).cloned()),
                None => pages.row_at(idx),
            },
        }
    }

    /// Streams `(row position, value)` over one column without
    /// materializing rows; on a paged table this touches one page at a
    /// time, so index builds stay within the pool budget.
    pub fn for_each_in_column<F>(&self, column: &str, mut f: F) -> Result<(), StorageError>
    where
        F: FnMut(usize, &Value) -> Result<(), StorageError>,
    {
        let c = self.schema.resolve(column)?;
        match &self.repr {
            Repr::Resident(rows) => {
                for (pos, row) in rows.iter().enumerate() {
                    f(pos, &row[c])?;
                }
                Ok(())
            }
            Repr::Paged { pages, cache } => match cache.get() {
                Some(rows) => {
                    for (pos, row) in rows.iter().enumerate() {
                        f(pos, &row[c])?;
                    }
                    Ok(())
                }
                None => pages.for_each_in_column(c, f),
            },
        }
    }

    /// Ensures the table is resident, materializing pages if needed.
    fn make_resident(&mut self) -> Result<&mut Vec<Row>, StorageError> {
        if let Repr::Paged { pages, cache } = &mut self.repr {
            let rows = match cache.take() {
                Some(rows) => rows,
                None => pages.materialize()?,
            };
            self.repr = Repr::Resident(rows);
        }
        match &mut self.repr {
            Repr::Resident(rows) => Ok(rows),
            Repr::Paged { .. } => unreachable!("made resident above"),
        }
    }

    /// Appends a validated row. A paged table materializes back to
    /// resident first: mutation works on rows, and the next checkpoint
    /// re-pages the result. The rows change, so this value lets go of the
    /// derived state it shared with the table it was cloned from.
    pub fn push(&mut self, row: Row) -> Result<(), StorageError> {
        self.schema.check_row(&row)?;
        self.make_resident()?.push(row);
        match Arc::get_mut(&mut self.derived) {
            Some(own) => *own = Derived::default(),
            None => self.derived = Arc::default(),
        }
        Ok(())
    }

    /// Appends many validated rows.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<(), StorageError> {
        for row in rows {
            self.push(row)?;
        }
        Ok(())
    }

    /// Reads one cell by row index and column name.
    pub fn cell(&self, row: usize, column: &str) -> Result<&Value, StorageError> {
        let c = self.schema.resolve(column)?;
        self.rows()
            .get(row)
            .map(|r| &r[c])
            .ok_or_else(|| StorageError::Eval(format!("row {row} out of bounds")))
    }

    /// All values of one column.
    pub fn column_values(&self, column: &str) -> Result<Vec<&Value>, StorageError> {
        let c = self.schema.resolve(column)?;
        Ok(self.rows().iter().map(|r| &r[c]).collect())
    }

    /// The first `n` rows, as a new table (the "rows sampler" database
    /// utility owned by the plan verifier's tool user, §4). Reads only the
    /// pages those rows live on.
    pub fn sample(&self, n: usize) -> Result<Table, StorageError> {
        let rows = (0..n.min(self.len()))
            .filter_map(|i| self.row_at(i).transpose())
            .collect::<Result<Vec<Row>, _>>()?;
        Ok(Table {
            name: format!("{}_sample", self.name),
            schema: self.schema.clone(),
            repr: Repr::Resident(rows),
            derived: Arc::default(),
        })
    }

    /// The hash index over `column` of these rows, built on first use.
    pub fn hash_index(&self, column: &str) -> Result<Arc<HashIndex>, StorageError> {
        let build = || HashIndex::build(self, column);
        self.derived.hash.get_or_build(column, build)
    }

    /// The vector similarity index over `column` of these rows, built on
    /// first use (by the first `ORDER BY SIMILARITY(..) DESC LIMIT k` that
    /// reads this table value). Purely in-memory: after a crash the first
    /// similarity query builds it again from the recovered rows.
    pub fn vector_index(&self, column: &str) -> Result<Arc<VectorIndex>, StorageError> {
        let build = || VectorIndex::build(self, column);
        self.derived.vector.get_or_build(column, build)
    }

    /// The vector indexes built so far, by column.
    pub fn vector_indexes(&self) -> Vec<Arc<VectorIndex>> {
        self.derived.vector.built.read().values().cloned().collect()
    }

    /// Forgets the vector index over `column`; returns whether one had been
    /// built. The next similarity query builds it again.
    pub fn drop_vector_index(&self, column: &str) -> bool {
        self.derived.vector.built.write().remove(column).is_some()
    }

    /// Exact statistics of these rows, collected on first use.
    pub fn stats(&self) -> &TableStats {
        self.derived.stats.get_or_init(|| TableStats::collect(self))
    }

    /// Finds the first row index where `column == value`.
    pub fn find(&self, column: &str, value: &Value) -> Result<Option<usize>, StorageError> {
        let c = self.schema.resolve(column)?;
        Ok(self.rows().iter().position(|r| &r[c] == value))
    }

    /// Renders the table as an aligned ASCII grid, the way the paper's
    /// figures print result tables (Fig. 6).
    pub fn render(&self) -> String {
        let headers: Vec<String> = self.schema.names().iter().map(|s| s.to_string()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows()
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {:w$} |", h, w = w));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {:w$} |", cell, w = w));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{} rows]", self.name, self.schema, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    fn movies() -> Table {
        let schema = Schema::of(&[("title", DataType::Str), ("year", DataType::Int)]);
        Table::from_rows(
            "movies",
            schema,
            vec![
                vec!["Guilty by Suspicion".into(), Value::Int(1991)],
                vec!["Clean and Sober".into(), Value::Int(1988)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn push_validates_schema() {
        let mut t = movies();
        assert!(t.push(vec![Value::Int(5), Value::Int(2000)]).is_err());
        assert!(t.push(vec!["New".into(), Value::Int(2000)]).is_ok());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn cell_and_find() {
        let t = movies();
        assert_eq!(
            t.cell(0, "title").unwrap().as_str(),
            Some("Guilty by Suspicion")
        );
        assert_eq!(t.find("year", &Value::Int(1988)).unwrap(), Some(1));
        assert_eq!(t.find("year", &Value::Int(1900)).unwrap(), None);
        assert!(t.cell(0, "nope").is_err());
    }

    #[test]
    fn sample_truncates() {
        let t = movies();
        assert_eq!(t.sample(1).unwrap().len(), 1);
        assert_eq!(t.sample(10).unwrap().len(), 2);
    }

    /// 10 000 two-column rows paged behind a 2-page pool, with every page
    /// on disk so a read has to go through the I/O seam.
    fn big_paged(tag: &str) -> (Table, Arc<BufferPool>, crate::Io, std::path::PathBuf) {
        let schema = Schema::of(&[("id", DataType::Int), ("year", DataType::Int)]);
        let rows = (0..10_000i64).map(|i| vec![Value::Int(i), Value::Int(1900 + i % 100)]);
        let resident = Table::from_rows("big", schema, rows.collect()).unwrap();
        let io = crate::Io::real();
        let pool = Arc::new(BufferPool::with_budget_io(2, io.clone()));
        let paged = resident.to_paged(&pool, 1024).unwrap();
        let dir = std::env::temp_dir().join(format!("kathdb_table_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        paged.paged().unwrap().write_durable(&dir).unwrap();
        pool.reset_counters();
        (paged, pool, io, dir)
    }

    fn row_cache_is_empty(t: &Table) -> bool {
        matches!(&t.repr, Repr::Paged { cache, .. } if cache.get().is_none())
    }

    #[test]
    fn sampling_a_paged_table_reads_one_page_per_column() {
        let (paged, pool, _io, dir) = big_paged("sample");
        let sample = paged.sample(5).unwrap();
        assert!(!sample.is_paged());
        assert_eq!(sample.name(), "big_sample");
        let ids: Vec<i64> = sample
            .rows()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        // One decode per column (page 0 of each), not the 20 pages of the
        // table, and nothing pinned for the table's lifetime.
        assert_eq!(pool.status().misses, 2);
        assert!(row_cache_is_empty(&paged));
        assert_eq!(paged.sample(20_000).unwrap().len(), 10_000);
        assert!(row_cache_is_empty(&paged));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sampling_through_a_read_fault_is_a_typed_error() {
        use crate::{FaultKind, FaultPlan};
        let (paged, pool, io, dir) = big_paged("fault");
        // Push page 0 of both columns out of the 2-page pool.
        paged.row_at(9_999).unwrap();
        io.install_faults(FaultPlan::probabilistic(1, 1.0).with_kinds(&[FaultKind::Permanent]));
        assert!(matches!(paged.sample(5), Err(StorageError::Io(_))));
        io.clear_faults();
        assert_eq!(paged.sample(5).unwrap().len(), 5);
        assert!(pool.status().misses > 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn render_contains_all_cells() {
        let r = movies().render();
        assert!(r.contains("Guilty by Suspicion"));
        assert!(r.contains("1988"));
        assert!(r.contains("title"));
    }

    #[test]
    fn paged_table_is_logically_equal() {
        let t = movies();
        let pool = Arc::new(BufferPool::with_budget(8));
        let paged = t.to_paged(&pool, 1).unwrap();
        assert!(paged.is_paged());
        assert!(!t.is_paged());
        assert_eq!(paged, t);
        assert_eq!(t, paged);
        assert_eq!(paged.len(), 2);
        assert_eq!(paged.rows(), t.rows());
        assert_eq!(paged.row_at(1).unwrap().unwrap(), t.rows()[1]);
        assert_eq!(paged.row_at(2).unwrap(), None);
        assert_eq!(paged.render(), t.render());
    }

    #[test]
    fn push_on_paged_materializes() {
        let t = movies();
        let pool = Arc::new(BufferPool::with_budget(8));
        let mut paged = t.to_paged(&pool, 1).unwrap();
        paged.push(vec!["New".into(), Value::Int(2000)]).unwrap();
        assert!(!paged.is_paged());
        assert_eq!(paged.len(), 3);
        assert_eq!(paged.rows()[..2], t.rows()[..]);
    }

    #[test]
    fn for_each_in_column_streams_both_reprs() {
        let t = movies();
        let pool = Arc::new(BufferPool::with_budget(8));
        let paged = t.to_paged(&pool, 1).unwrap();
        for table in [&t, &paged] {
            let mut seen = Vec::new();
            table
                .for_each_in_column("year", |pos, v| {
                    seen.push((pos, v.clone()));
                    Ok(())
                })
                .unwrap();
            assert_eq!(
                seen,
                vec![(0, Value::Int(1991)), (1, Value::Int(1988))],
                "repr paged={}",
                table.is_paged()
            );
        }
        assert!(t.for_each_in_column("nope", |_, _| Ok(())).is_err());
    }
}

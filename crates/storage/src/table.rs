//! Tables: the materialization unit of KathDB.
//!
//! Every intermediate result in a KathDB pipeline is materialized as a table
//! so that lineage can reference it (§3) and the explainer can show it (§5).
//!
//! A table has one shape: an optional *sealed* part — `Arc`-shared
//! compressed column pages read through the buffer pool, zone maps and
//! content addressing included ([`PagedTable`]) — followed by a *tail* of
//! plain rows. A table nobody sealed is all tail (a `Vec<Row>`, the shape
//! every operator was written against). [`Table::seal`] moves the tail into
//! pages; it is what `Catalog::page_table`, a checkpoint and an INSERT that
//! fills a page of tail call, and recovery hands back tables that are all
//! sealed. [`Table::push`] appends to the tail and never decodes a page;
//! `clone` shares the sealed part and copies only the tail, so a one-row
//! INSERT costs the tail, not the table. The legacy `rows()`/`row()`
//! accessors stay infallible by lazily materializing a row cache when there
//! is a sealed part — hot paths (scans, index builds) use the page-aware
//! fallible accessors instead and never pay for that.
//!
//! A table registered in a catalog is never mutated again, so what is
//! derived from its rows — a vector index per searched column — is owned by
//! the table value itself ([`Table::vector_index`]): built at most once, on
//! first use, shared by every clone and every catalog version that holds
//! the same rows, and dropped with the last of them. It cannot be stale
//! because what it was computed from cannot change; a mutated clone starts
//! with none.

use crate::paged::PagedTable;
use crate::pool::BufferPool;
use crate::{Row, Schema, StorageError, Value, VectorIndex};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// What a table value owns besides its rows (see the module docs): column
/// → the vector index built from that column of these rows.
#[derive(Default)]
struct Derived {
    built: RwLock<BTreeMap<String, Arc<VectorIndex>>>,
}

impl fmt::Debug for Derived {
    /// Opaque: a table's debug form is its rows, not its indexes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Derived").finish_non_exhaustive()
    }
}

/// A named, schema-checked collection of rows: sealed pages, then a tail.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    // Rows `0..sealed.len()`, shared with every version made from this one.
    sealed: Option<Arc<PagedTable>>,
    // Rows `sealed.len()..len()`.
    tail: Vec<Row>,
    // Lazily materialized rows for the legacy `rows()` accessor; used only
    // when there is a sealed part (an all-tail table lends its tail).
    cache: OnceLock<Vec<Row>>,
    // Shared by clones and by the sealed form of the same rows; replaced by
    // an empty one when the rows change (`push`).
    derived: Arc<Derived>,
}

impl Clone for Table {
    /// Shares the sealed part and copies the tail. The row cache is
    /// per-clone so an un-materialized clone stays lightweight.
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            schema: self.schema.clone(),
            sealed: self.sealed.clone(),
            tail: self.tail.clone(),
            cache: OnceLock::new(),
            derived: Arc::clone(&self.derived),
        }
    }
}

impl PartialEq for Table {
    /// Logical equality: same name, schema, and row contents, wherever the
    /// seal boundary falls. Derived state is not part of it.
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
            sealed: None,
            tail: Vec::new(),
            cache: OnceLock::new(),
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

    /// Wraps existing sealed pages as a table with an empty tail.
    pub fn from_paged(name: impl Into<String>, pages: Arc<PagedTable>) -> Self {
        Self {
            sealed: Some(Arc::clone(&pages)),
            ..Table::new(name, pages.schema().clone())
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

    /// Rows in the sealed part: the position of the first tail row.
    pub(crate) fn sealed_len(&self) -> usize {
        self.sealed.as_ref().map_or(0, |pages| pages.len())
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.sealed_len() + self.tail.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the table has a sealed (page-backed) part.
    pub fn is_paged(&self) -> bool {
        self.sealed.is_some()
    }

    /// The sealed part: rows `0..paged.len()`, when anything sealed them.
    pub fn paged(&self) -> Option<&Arc<PagedTable>> {
        self.sealed.as_ref()
    }

    /// The rows after the sealed part, positions `len() - tail().len()..`:
    /// every row pushed since the table was last sealed (all of them for a
    /// table nobody sealed).
    pub fn tail(&self) -> &[Row] {
        &self.tail
    }

    /// The same rows with the tail moved into sealed pages — the one seal
    /// routine behind `Catalog::page_table`, checkpoints and the INSERT
    /// path's full-tail rule. Every full page already sealed is shared with
    /// `self`; only a short last page and the tail are encoded (so sealing
    /// an empty tail encodes nothing). `pool` and `page_rows` apply when
    /// this is the first sealing; afterwards the sealed part keeps its own.
    /// The rows are the same, so the result shares this table's derived
    /// state.
    pub fn seal(&self, pool: &Arc<BufferPool>, page_rows: usize) -> Result<Table, StorageError> {
        let sealed = match &self.sealed {
            Some(pages) if self.tail.is_empty() => Arc::clone(pages),
            Some(pages) => Arc::new(pages.extended(&self.tail)?),
            None => {
                let schema = self.schema.clone();
                let pool = Arc::clone(pool);
                Arc::new(PagedTable::from_rows(schema, &self.tail, pool, page_rows)?)
            }
        };
        Ok(Table {
            derived: Arc::clone(&self.derived),
            ..Table::from_paged(self.name.clone(), sealed)
        })
    }

    /// All rows. With a sealed part this materializes (and caches) every
    /// row on first use — hot paths should prefer [`Table::row_at`],
    /// [`Table::for_each_in_column`], or page-level access via
    /// [`Table::paged`] and [`Table::tail`]. An all-tail table lends its
    /// tail.
    ///
    /// # Panics
    /// Panics if a sealed page cannot be read (missing or corrupt page
    /// files). Fallible callers should use [`Table::row_at`].
    pub fn rows(&self) -> &[Row] {
        let Some(pages) = &self.sealed else {
            return &self.tail;
        };
        self.cache.get_or_init(|| {
            let mut rows = pages
                .materialize()
                .expect("paged table backing pages unreadable");
            rows.extend_from_slice(&self.tail);
            rows
        })
    }

    /// A row by position (legacy infallible accessor; see [`Table::rows`]).
    pub fn row(&self, idx: usize) -> Option<&Row> {
        self.rows().get(idx)
    }

    /// A row by position without forcing full materialization; reads a
    /// sealed row through the buffer pool.
    pub fn row_at(&self, idx: usize) -> Result<Option<Row>, StorageError> {
        let resident = match (&self.sealed, self.cache.get()) {
            (Some(pages), None) if idx < pages.len() => return pages.row_at(idx),
            (Some(_), Some(rows)) => rows.get(idx),
            _ => self.tail.get(idx - self.sealed_len()),
        };
        Ok(resident.cloned())
    }

    /// Streams `(row position, value)` over one column without
    /// materializing rows; the sealed part is touched one page at a time,
    /// so index builds stay within the pool budget.
    pub fn for_each_in_column<F>(&self, column: &str, mut f: F) -> Result<(), StorageError>
    where
        F: FnMut(usize, &Value) -> Result<(), StorageError>,
    {
        let c = self.schema.resolve(column)?;
        let (base, rest) = match (&self.sealed, self.cache.get()) {
            (Some(_), Some(rows)) => (0, rows.as_slice()),
            (Some(pages), None) => {
                pages.for_each_in_column(c, &mut f)?;
                (pages.len(), self.tail.as_slice())
            }
            (None, _) => (0, self.tail.as_slice()),
        };
        for (i, row) in rest.iter().enumerate() {
            f(base + i, &row[c])?;
        }
        Ok(())
    }

    /// Appends a validated row to the tail. The sealed part is neither read
    /// nor copied. The rows change, so this value lets go of the derived
    /// state it shared with the table it was cloned from.
    pub fn push(&mut self, row: Row) -> Result<(), StorageError> {
        self.schema.check_row(&row)?;
        self.tail.push(row);
        if self.sealed.is_some() {
            self.cache = OnceLock::new();
        }
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

    /// Reads one cell by row index and column name. Returns a borrow, so it
    /// goes through [`Table::rows`] (and its row cache when there is a
    /// sealed part); use [`Table::row_at`] to read sealed rows in place.
    pub fn cell(&self, row: usize, column: &str) -> Result<&Value, StorageError> {
        let c = self.schema.resolve(column)?;
        self.rows()
            .get(row)
            .map(|r| &r[c])
            .ok_or_else(|| StorageError::Eval(format!("row {row} out of bounds")))
    }

    /// All values of one column. Returns borrows, so it goes through
    /// [`Table::rows`]; [`Table::for_each_in_column`] streams instead.
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
            tail: rows,
            ..Table::new(format!("{}_sample", self.name), self.schema.clone())
        })
    }

    /// The vector similarity index over `column` of these rows, built on
    /// first use (by the first `ORDER BY SIMILARITY(..) DESC LIMIT k` that
    /// reads this table value). Purely in-memory: after a crash the first
    /// similarity query builds it again from the recovered rows. The build
    /// scans the table and so runs with no lock held; when two callers
    /// race, the first insert wins and both get that one.
    pub fn vector_index(&self, column: &str) -> Result<Arc<VectorIndex>, StorageError> {
        if let Some(found) = self.derived.built.read().get(column) {
            return Ok(Arc::clone(found));
        }
        let fresh = Arc::new(VectorIndex::build(self, column)?);
        let mut built = self.derived.built.write();
        Ok(Arc::clone(built.entry(column.to_string()).or_insert(fresh)))
    }

    /// The vector indexes built so far, by column.
    pub fn vector_indexes(&self) -> Vec<Arc<VectorIndex>> {
        self.derived.built.read().values().cloned().collect()
    }

    /// Forgets the vector index over `column`; returns whether one had been
    /// built. The next similarity query builds it again.
    pub fn drop_vector_index(&self, column: &str) -> bool {
        self.derived.built.write().remove(column).is_some()
    }

    /// Finds the first row index where `column == value`, streaming the
    /// column.
    pub fn find(&self, column: &str, value: &Value) -> Result<Option<usize>, StorageError> {
        let mut found = None;
        self.for_each_in_column(column, |pos, v| {
            if found.is_none() && v == value {
                found = Some(pos);
            }
            Ok(())
        })?;
        Ok(found)
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
        let paged = resident.seal(&pool, 1024).unwrap();
        let dir = std::env::temp_dir().join(format!("kathdb_table_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        paged.paged().unwrap().write_durable(&dir).unwrap();
        pool.reset_counters();
        (paged, pool, io, dir)
    }

    fn row_cache_is_empty(t: &Table) -> bool {
        t.is_paged() && t.cache.get().is_none()
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
        let paged = t.seal(&pool, 1).unwrap();
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
    fn push_on_paged_shares_the_sealed_part() {
        let t = movies();
        let pool = Arc::new(BufferPool::with_budget(8));
        let paged = t.seal(&pool, 1).unwrap();
        let mut pushed = paged.clone();
        pushed.push(vec!["New".into(), Value::Int(2000)]).unwrap();
        // The sealed part is the same object, untouched and undecoded; the
        // new row is the whole tail.
        assert!(Arc::ptr_eq(pushed.paged().unwrap(), paged.paged().unwrap()));
        assert_eq!(pool.status().misses, 0);
        assert_eq!(pushed.tail(), [vec!["New".into(), Value::Int(2000)]]);
        assert_eq!(pushed.len(), 3);
        assert_eq!(pushed.rows()[..2], t.rows()[..]);
        assert_eq!(pushed.row_at(2).unwrap().unwrap(), pushed.tail()[0]);
        assert_eq!(paged.len(), 2);
    }

    #[test]
    fn sealing_again_shares_full_pages_and_encodes_the_rest() {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let rows = |r: std::ops::Range<i64>| r.map(|i| vec![Value::Int(i)]).collect::<Vec<_>>();
        let pool = Arc::new(BufferPool::with_budget(8));
        let first = Table::from_rows("t", schema.clone(), rows(0..10))
            .unwrap()
            .seal(&pool, 4)
            .unwrap();
        let mut grown = first.clone();
        grown.extend(rows(10..13)).unwrap();
        // The page-size argument only matters for the first sealing.
        let second = grown.seal(&pool, 1000).unwrap();
        assert!(second.tail().is_empty());
        let (a, b) = (first.paged().unwrap(), second.paged().unwrap());
        assert_eq!((a.page_count(), b.page_count()), (3, 4));
        assert!(Arc::ptr_eq(a.slot(0, 0), b.slot(0, 0)));
        assert!(Arc::ptr_eq(a.slot(0, 1), b.slot(0, 1)));
        assert!(!Arc::ptr_eq(a.slot(0, 2), b.slot(0, 2)));
        // Same bytes as paging all thirteen rows from scratch.
        let scratch = Table::from_rows("t", schema, rows(0..13))
            .unwrap()
            .seal(&pool, 4)
            .unwrap();
        for p in 0..4 {
            let fresh = scratch.paged().unwrap().slot(0, p);
            assert_eq!(b.slot(0, p).file_name(), fresh.file_name());
        }
        assert_eq!(second, scratch);
        // Nothing to seal: the sealed part is shared whole.
        let again = second.seal(&pool, 4).unwrap();
        assert!(Arc::ptr_eq(again.paged().unwrap(), b));
    }

    #[test]
    fn find_streams_a_sealed_table() {
        use crate::{FaultKind, FaultPlan};
        let (paged, pool, io, dir) = big_paged("find");
        assert_eq!(paged.find("id", &Value::Int(9_000)).unwrap(), Some(9_000));
        assert_eq!(paged.find("year", &Value::Int(2000)).unwrap(), None);
        // Streamed through the 2-page pool; nothing pinned on the table.
        assert!(row_cache_is_empty(&paged));
        assert!(pool.status().resident_pages <= 2);
        // A grown clone streams its sealed part and then its tail; through
        // a read fault that is a typed error, and a later attempt succeeds.
        let mut grown = paged.clone();
        grown
            .push(vec![Value::Int(10_000), Value::Int(2000)])
            .unwrap();
        io.install_faults(FaultPlan::probabilistic(1, 1.0).with_kinds(&[FaultKind::Permanent]));
        assert!(matches!(
            grown.find("id", &Value::Int(3)),
            Err(StorageError::Io(_))
        ));
        io.clear_faults();
        assert_eq!(grown.find("year", &Value::Int(2000)).unwrap(), Some(10_000));
        assert!(row_cache_is_empty(&grown));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn for_each_in_column_streams_both_reprs() {
        let t = movies();
        let pool = Arc::new(BufferPool::with_budget(8));
        let paged = t.seal(&pool, 1).unwrap();
        // All tail, all sealed, and one sealed row followed by one tail row.
        let mut split = Table::from_rows("movies", t.schema().clone(), t.rows()[..1].to_vec())
            .unwrap()
            .seal(&pool, 1)
            .unwrap();
        split.push(t.rows()[1].clone()).unwrap();
        for table in [&t, &paged, &split] {
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
                "sealed={} tail={}",
                table.is_paged(),
                table.tail().len()
            );
        }
        assert!(t.for_each_in_column("nope", |_, _| Ok(())).is_err());
    }
}

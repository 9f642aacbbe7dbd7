//! Tables: the materialization unit of KathDB.
//!
//! Every intermediate result in a KathDB pipeline is materialized as a table
//! so that lineage can reference it (§3) and the explainer can show it (§5).
//!
//! A table has one shape: a list of row groups ([`RowGroup`]) of
//! [`Table::page_rows`] rows each, every one full except the last, with one
//! page per column — open (resident columns) or sealed (compressed pages
//! read through the buffer pool), each with zone maps whenever a hinted
//! scan asks. [`Table::push`] appends to the last group, reopening it (one
//! decode) when it is sealed and short; [`Table::seal`] encodes every open
//! group and shares every sealed one — what `Catalog::page_table` and a
//! checkpoint call — while an INSERT seals only the groups its rows filled
//! ([`Table::seal_groups`]). `clone` copies no group, and a push copies the
//! one it appends to only while another table value holds it, so a one-row
//! INSERT costs a group, not the table. The scan, `row_at`,
//! `to_batch` and [`Table::for_each_in_column`] walk the groups alike; the
//! lazy row cache of `rows()`/`row()` serves display, tests and benchmarks.
//!
//! A table registered in a catalog is never mutated again, so what is
//! derived from its rows — a vector index per searched column — is owned by
//! the table value itself ([`Table::vector_index`]): built at most once, on
//! first use, shared by every clone and every catalog version that holds
//! the same rows, and dropped with the last of them. It cannot be stale
//! because what it was computed from cannot change; a mutated clone starts
//! with none.
//! The same shared state is what the engine's and the optimizer's records
//! mean by "the same rows" ([`Table::same_rows`]): a clone, a seal and a
//! checkpoint keep it, a push gives the changed value a fresh one, and a
//! record holds the table it compares, so no other value can take it over.

use crate::paged::{OpenGroup, PageSlot, RowGroup};
use crate::pool::BufferPool;
use crate::{
    Column, ColumnData, ColumnVector, Row, RowBatch, Schema, StorageError, TableScan, Value,
    VectorIndex, DEFAULT_PAGE_ROWS,
};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// What a table value owns besides its rows (see the module docs): per
/// schema column, the vector index built from that column of these rows.
/// Each slot is written once, by a move of an index built with no lock held.
struct Derived(Box<[OnceLock<Arc<VectorIndex>>]>);

impl Derived {
    fn new(arity: usize) -> Arc<Self> {
        Arc::new(Self((0..arity).map(|_| OnceLock::new()).collect()))
    }
}

impl fmt::Debug for Derived {
    /// Opaque: a table's debug form is its rows, not its indexes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Derived").finish_non_exhaustive()
    }
}

/// Rows materialized for `rows()`, per table value: a clone starts without.
#[derive(Debug, Default)]
struct RowCache(OnceLock<Vec<Row>>);

impl Clone for RowCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// A named, schema-checked collection of rows, held as row groups. A clone
/// shares every group.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: usize,
    // Rows per group: every group but the last holds exactly this many.
    page_rows: usize,
    groups: Vec<RowGroup>,
    // The pool sealed pages are encoded into: set by the first seal, which
    // also fixes `page_rows`.
    pool: Option<Arc<BufferPool>>,
    cache: RowCache,
    // Shared by clones and by the sealed form of the same rows; replaced by
    // an empty one when the rows change (`push`).
    derived: Arc<Derived>,
}

impl PartialEq for Table {
    /// Logical equality: same name, schema, and row contents, however the
    /// rows are grouped and sealed. Derived state is not part of it.
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
            derived: Derived::new(schema.arity()),
            name: name.into(),
            schema,
            rows: 0,
            page_rows: DEFAULT_PAGE_ROWS,
            groups: Vec::new(),
            pool: None,
            cache: RowCache::default(),
        }
    }

    /// Builds a table from rows, validating each against the schema.
    pub fn from_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Row>,
    ) -> Result<Self, StorageError> {
        let mut t = Table::new(name, schema);
        t.extend(rows)?;
        Ok(t)
    }

    /// Rebuilds a sealed table from checkpoint metadata (`columns[c][g]`
    /// is page `g` of column `c`); pages stay on disk until first touch, so
    /// recovery is O(metadata), not O(data).
    pub(crate) fn from_recovered(
        name: String,
        schema: Schema,
        (rows, page_rows): (usize, usize),
        columns: Vec<Vec<Arc<PageSlot>>>,
        pool: &Arc<BufferPool>,
    ) -> Result<Self, StorageError> {
        let page_rows = page_rows.max(1);
        let groups = rows.div_ceil(page_rows);
        // Every page must hold the rows its group spans: row `i` is read
        // from page `i / page_rows`.
        let spans = |g: usize| page_rows.min(rows - g * page_rows);
        let fits = |c: &Vec<Arc<PageSlot>>| {
            c.len() == groups
                && c.iter()
                    .enumerate()
                    .all(|(g, p)| p.rows() as usize == spans(g))
        };
        if columns.len() != schema.arity() || !columns.iter().all(fits) {
            return Err(StorageError::Corrupt(
                "checkpoint page layout does not match table shape".into(),
            ));
        }
        let mut slots: Vec<Vec<Arc<PageSlot>>> = vec![Vec::new(); groups];
        for column in columns {
            slots
                .iter_mut()
                .zip(column)
                .for_each(|(group, page)| group.push(page));
        }
        let groups = slots.into_iter().map(|s| RowGroup::Sealed(s.into()));
        Ok(Self {
            rows,
            page_rows,
            groups: groups.collect(),
            pool: Some(Arc::clone(pool)),
            ..Table::new(name, schema)
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether `other` shares this table's derived state — is a clone or a
    /// sealed form of it (see the module docs). A pointer comparison: two
    /// tables built apart are never the same rows, whatever they hold.
    pub fn same_rows(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.derived, &other.derived)
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
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the table has been sealed (which fixed its `page_rows`).
    pub fn is_paged(&self) -> bool {
        self.pool.is_some()
    }

    /// Whether every row is in a page: sealed once, and no group is open.
    pub fn is_sealed(&self) -> bool {
        self.is_paged() && self.groups.iter().all(|g| !g.is_open())
    }

    /// Rows per group; every group but the last holds exactly this many.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// The row groups, in row order: group `g` holds rows
    /// `g * page_rows()..` up to the next group's first.
    pub fn groups(&self) -> &[RowGroup] {
        &self.groups
    }

    /// Rows `[start, end)` of group `g`.
    pub(crate) fn group_bounds(&self, g: usize) -> (usize, usize) {
        let start = g * self.page_rows;
        (start, (start + self.page_rows).min(self.rows))
    }

    /// The slots of every group, when all of them are sealed: what a
    /// checkpoint writes and describes.
    pub(crate) fn sealed_pages(&self) -> Result<Vec<&[Arc<PageSlot>]>, StorageError> {
        self.groups
            .iter()
            .map(|group| match group {
                RowGroup::Sealed(slots) => Ok(slots.as_ref()),
                RowGroup::Open(_) => Err(StorageError::Corrupt(
                    "checkpoint produced an unsealed table".to_string(),
                )),
            })
            .collect()
    }

    /// The same rows with every open group encoded straight from its
    /// columns and every sealed group shared (see the module docs). `pool`
    /// and `page_rows` apply to the first seal, which re-cuts the groups to
    /// `page_rows`; afterwards the table keeps its own. The rows are the
    /// same, so the result shares this table's derived state.
    pub fn seal(&self, pool: &Arc<BufferPool>, page_rows: usize) -> Result<Table, StorageError> {
        let (pool, page_rows) = match &self.pool {
            Some(own) => (own, self.page_rows),
            None => (pool, page_rows.max(1)),
        };
        let mut sealed = Table {
            pool: Some(Arc::clone(pool)),
            page_rows,
            derived: Arc::clone(&self.derived),
            ..Table::new(self.name.clone(), self.schema.clone())
        };
        if page_rows == self.page_rows {
            sealed.rows = self.rows;
            sealed.groups = self.groups.clone();
        } else {
            // Re-cut group by group, sealing each new group once it fills,
            // so at most one of them is resident at a time.
            for g in 0..self.groups.len() {
                sealed.append_columns(self.groups[g].reopened()?.columns)?;
                sealed.seal_groups(0..sealed.rows / page_rows, pool)?;
            }
        }
        sealed.seal_groups(0..sealed.groups.len(), pool)?;
        Ok(sealed)
    }

    /// Seals the open groups in `range` in place, into the table's pool —
    /// `pool` when it has none yet, which makes a non-empty range its first
    /// seal and fixes `page_rows`.
    pub(crate) fn seal_groups(
        &mut self,
        range: Range<usize>,
        pool: &Arc<BufferPool>,
    ) -> Result<(), StorageError> {
        for group in &mut self.groups[range] {
            let pool = self.pool.get_or_insert_with(|| Arc::clone(pool));
            if group.is_open() {
                *group = group.sealed(pool)?;
            }
        }
        Ok(())
    }

    /// All rows, materialized group by group and cached on first use — hot
    /// paths should prefer [`Table::row_at`], [`Table::for_each_in_column`]
    /// or a `TableScan`.
    ///
    /// # Panics
    /// Panics if a sealed page cannot be read (missing or corrupt page
    /// files). Fallible callers should use [`Table::to_rows`].
    pub fn rows(&self) -> &[Row] {
        self.cache.0.get_or_init(|| {
            self.to_rows()
                .expect("paged table backing pages unreadable")
        })
    }

    /// All rows, materialized group by group and not cached: the fallible
    /// form of [`Table::rows`], for a caller that keeps the rows itself.
    pub fn to_rows(&self) -> Result<Vec<Row>, StorageError> {
        let arity = self.schema.arity();
        let mut rows: Vec<Row> = (0..self.rows).map(|_| Vec::with_capacity(arity)).collect();
        for (g, group) in self.groups.iter().enumerate() {
            let (start, end) = self.group_bounds(g);
            for c in 0..arity {
                group.read_column(c, |column| {
                    let rows = rows[start..end].iter_mut().enumerate();
                    rows.for_each(|(i, row)| row.push(column.value(i)));
                })?;
            }
        }
        Ok(rows)
    }

    /// All rows as one batch, each column read group by group: the
    /// columnar form of [`Table::to_rows`].
    pub fn to_batch(&self) -> Result<RowBatch, StorageError> {
        let mut columns = vec![ColumnVector::from_values(Vec::new()); self.schema.arity()];
        for group in &self.groups {
            for (c, column) in columns.iter_mut().enumerate() {
                column.extend(group.read_column(c, ColumnVector::clone)?);
            }
        }
        RowBatch::from_columns(columns)
    }

    /// A row by position (infallible accessor; see [`Table::rows`]).
    pub fn row(&self, idx: usize) -> Option<&Row> {
        self.rows().get(idx)
    }

    /// A row by position without materializing the table: one page per
    /// column of the row's group, through the buffer pool when it is sealed.
    pub fn row_at(&self, idx: usize) -> Result<Option<Row>, StorageError> {
        if idx >= self.rows {
            return Ok(None);
        }
        let (g, i) = (idx / self.page_rows, idx % self.page_rows);
        (0..self.schema.arity())
            .map(|c| self.groups[g].read_column(c, |column| column.value(i)))
            .collect::<Result<Row, _>>()
            .map(Some)
    }

    /// Streams `(row position, value)` over one column without
    /// materializing rows, one group at a time, so index builds over
    /// sealed groups stay within the pool budget.
    pub fn for_each_in_column<F>(&self, column: &str, mut f: F) -> Result<(), StorageError>
    where
        F: FnMut(usize, &Value) -> Result<(), StorageError>,
    {
        let c = self.schema.resolve(column)?;
        for (g, group) in self.groups.iter().enumerate() {
            let (start, end) = self.group_bounds(g);
            group.read_column(c, |values| {
                (0..end - start).try_for_each(|i| f(start + i, &values.value(i)))
            })??;
        }
        Ok(())
    }

    /// Runs `f` over one column a group at a time: the group's column
    /// (a decoded page, or the open column in place) and how many of its
    /// slots are rows of this table.
    pub(crate) fn for_each_column_group<F>(
        &self,
        column: &str,
        mut f: F,
    ) -> Result<(), StorageError>
    where
        F: FnMut(&ColumnVector, usize),
    {
        let c = self.schema.resolve(column)?;
        for (g, group) in self.groups.iter().enumerate() {
            let (start, end) = self.group_bounds(g);
            group.read_column(c, |values| f(values, end - start))?;
        }
        Ok(())
    }

    /// The last group when it is open and has room, else a fresh open
    /// group after the full (or missing) last one: its columns and the rows
    /// they have room for. A short sealed last group must be reopened
    /// first ([`Table::reopen_last`]).
    fn open_last(&mut self) -> Result<(&mut OpenGroup, usize), StorageError> {
        if self.rows == self.groups.len() * self.page_rows {
            let empty = OpenGroup::empty(self.schema.arity());
            self.groups.push(RowGroup::Open(Arc::new(empty)));
        }
        let room = self.groups.len() * self.page_rows - self.rows;
        match self.groups.last_mut() {
            Some(RowGroup::Open(open)) => {
                if Arc::get_mut(open).is_none() {
                    *open = Arc::new(open.copy_for_push(self.page_rows));
                }
                Ok((Arc::make_mut(open), room))
            }
            _ => Err(StorageError::Eval(
                "the last row group is sealed and was not reopened".into(),
            )),
        }
    }

    /// The rows change: this value lets go of its row cache and of the
    /// derived state it shared with the table it was cloned from.
    fn rows_changed(&mut self) {
        self.cache = RowCache::default();
        match Arc::get_mut(&mut self.derived) {
            Some(own) => own.0.iter_mut().for_each(|slot| drop(slot.take())),
            None => self.derived = Derived::new(self.schema.arity()),
        }
    }

    /// Reopens a short sealed last group — its pages decoded once, through
    /// the pool — so rows can be appended to it.
    fn reopen_last(&mut self) -> Result<(), StorageError> {
        let short = !self.rows.is_multiple_of(self.page_rows);
        if let Some(last) = self.groups.last_mut().filter(|g| short && !g.is_open()) {
            *last = RowGroup::Open(Arc::new(last.reopened()?));
        }
        Ok(())
    }

    /// Appends a validated row to the last group, reopening it when it is
    /// sealed and short.
    pub fn push(&mut self, row: Row) -> Result<(), StorageError> {
        self.schema.check_row(&row)?;
        self.reopen_last()?;
        self.open_last()?.0.push_row(row);
        self.rows += 1;
        self.rows_changed();
        Ok(())
    }

    /// Appends many validated rows.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<(), StorageError> {
        rows.into_iter().try_for_each(|row| self.push(row))
    }

    /// Appends a batch's columns, checked against the schema once per
    /// column — the value rule [`Schema::check_row`] applies, read off a
    /// typed column's kind and value by value for a `Mixed` one.
    pub fn append_batch(&mut self, batch: RowBatch) -> Result<(), StorageError> {
        if batch.num_columns() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                got: batch.num_columns(),
            });
        }
        for (column, values) in self.schema.columns().iter().zip(batch.columns()) {
            if let Some(i) = first_misfit(column, values) {
                return Err(StorageError::TypeMismatch {
                    column: column.name.clone(),
                    expected: column.dtype,
                    got: values.value(i).data_type(),
                });
            }
        }
        self.reopen_last()?;
        self.append_columns(batch.into_columns())?;
        self.rows_changed();
        Ok(())
    }

    /// Appends `columns` (one per schema column, of one length, unchecked)
    /// group by group, moving them in; a part that spills past the last
    /// group's room is copied out first.
    fn append_columns(&mut self, mut columns: Vec<ColumnVector>) -> Result<(), StorageError> {
        let mut left = columns.first().map_or(0, ColumnVector::len);
        while left > 0 {
            let (open, room) = self.open_last()?;
            let n = room.min(left);
            let spill = (n < left).then(|| columns.iter().map(|c| c.slice(n, left)).collect());
            match n < left {
                true => open.append(columns.iter().map(|c| c.slice(0, n)).collect()),
                false => open.append(columns),
            }
            self.rows += n;
            left -= n;
            columns = spill.unwrap_or_default();
        }
        Ok(())
    }

    /// Reads one cell by row index and column name. Returns a borrow, so it
    /// goes through [`Table::rows`] and its row cache; use
    /// [`Table::row_at`] to read a row in place.
    pub fn cell(&self, row: usize, column: &str) -> Result<&Value, StorageError> {
        let c = self.schema.resolve(column)?;
        self.rows()
            .get(row)
            .map(|r| &r[c])
            .ok_or_else(|| StorageError::Eval(format!("row {row} out of bounds")))
    }

    /// The first `n` rows, as a new table (the "rows sampler" database
    /// utility owned by the plan verifier's tool user, §4). Reads only the
    /// groups those rows live in.
    pub fn sample(&self, n: usize) -> Result<Table, StorageError> {
        let scan = TableScan::new(Arc::new(self.clone())).with_range(0, n);
        crate::collect(&format!("{}_sample", self.name), Box::new(scan))
    }

    /// The vector similarity index over `column` of these rows, built on
    /// first use (by the first `ORDER BY SIMILARITY(..) DESC LIMIT k` that
    /// reads this table value). Purely in-memory: after a crash the first
    /// similarity query builds it again from the recovered rows. The build
    /// scans the table with no lock held; when two callers race, the first
    /// build to finish is installed and both get that one.
    pub fn vector_index(&self, column: &str) -> Result<Arc<VectorIndex>, StorageError> {
        let slot = &self.derived.0[self.schema.resolve(column)?];
        if let Some(built) = slot.get() {
            return Ok(Arc::clone(built));
        }
        let fresh = Arc::new(VectorIndex::build(self, column)?);
        Ok(Arc::clone(slot.get_or_init(|| fresh)))
    }

    /// The vector indexes built so far, in schema order.
    pub fn vector_indexes(&self) -> Vec<Arc<VectorIndex>> {
        self.derived
            .0
            .iter()
            .filter_map(OnceLock::get)
            .cloned()
            .collect()
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

/// A row position of `values` that `column` does not admit, by the rule
/// [`Schema::check_row`] applies per value: value by value for a `Mixed`
/// column; for a typed one, whose non-NULL slots share one kind, its first
/// non-NULL slot and its first NULL stand for the rest.
fn first_misfit(column: &Column, values: &ColumnVector) -> Option<usize> {
    let typed = !matches!(values.data(), ColumnData::Mixed(_));
    let mut seen = [false, false];
    (0..values.len()).position(|i| {
        let stood_for = std::mem::replace(&mut seen[usize::from(values.is_null(i))], true);
        !(typed && stood_for || column.admits(&values.value(i)))
    })
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
        let pages = paged.sealed_pages().unwrap();
        crate::paged::write_durable(&pages, &dir, &io).unwrap();
        pool.reset_counters();
        (paged, pool, io, dir)
    }

    fn row_cache_is_empty(t: &Table) -> bool {
        t.is_paged() && t.cache.0.get().is_none()
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

    /// The page slots of sealed group `g`.
    fn slots(t: &Table, g: usize) -> &[Arc<PageSlot>] {
        match &t.groups()[g] {
            RowGroup::Sealed(slots) => slots,
            RowGroup::Open(_) => panic!("group {g} is open"),
        }
    }

    #[test]
    fn push_on_paged_shares_the_sealed_part() {
        let t = movies();
        let pool = Arc::new(BufferPool::with_budget(8));
        let paged = t.seal(&pool, 1).unwrap();
        let mut pushed = paged.clone();
        pushed.push(vec!["New".into(), Value::Int(2000)]).unwrap();
        // Both sealed groups are full: they are the same slots, untouched
        // and undecoded, and the new row is a group of its own.
        for g in 0..2 {
            for (a, b) in slots(&pushed, g).iter().zip(slots(&paged, g)) {
                assert!(Arc::ptr_eq(a, b));
            }
        }
        assert_eq!(pool.status().misses, 0);
        assert_eq!(pushed.groups().len(), 3);
        assert!(pushed.groups()[2].is_open());
        assert_eq!(pushed.len(), 3);
        assert_eq!(pushed.rows()[..2], t.rows()[..]);
        assert_eq!(
            pushed.row_at(2).unwrap().unwrap(),
            vec!["New".into(), Value::Int(2000)]
        );
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
        // The short last page was reopened; the full ones are still sealed.
        let open: Vec<bool> = grown.groups().iter().map(RowGroup::is_open).collect();
        assert_eq!(
            (open, grown.is_sealed()),
            (vec![false, false, true, true], false)
        );
        // The page-size argument only matters for the first sealing.
        let second = grown.seal(&pool, 1000).unwrap();
        assert!(second.is_sealed());
        assert_eq!((first.groups().len(), second.groups().len()), (3, 4));
        assert!(Arc::ptr_eq(&slots(&first, 0)[0], &slots(&second, 0)[0]));
        assert!(Arc::ptr_eq(&slots(&first, 1)[0], &slots(&second, 1)[0]));
        assert!(!Arc::ptr_eq(&slots(&first, 2)[0], &slots(&second, 2)[0]));
        // Same bytes as paging all thirteen rows from scratch.
        let scratch = Table::from_rows("t", schema, rows(0..13))
            .unwrap()
            .seal(&pool, 4)
            .unwrap();
        for g in 0..4 {
            let fresh = &slots(&scratch, g)[0];
            assert_eq!(slots(&second, g)[0].file_name(), fresh.file_name());
        }
        assert_eq!(second, scratch);
        // Nothing to seal: every group is shared whole.
        let again = second.seal(&pool, 4).unwrap();
        for g in 0..4 {
            assert!(Arc::ptr_eq(&slots(&again, g)[0], &slots(&second, g)[0]));
        }
    }

    #[test]
    fn find_streams_a_sealed_table() {
        let (paged, pool, _io, dir) = big_paged("find");
        assert_eq!(paged.find("id", &Value::Int(9_000)).unwrap(), Some(9_000));
        assert_eq!(paged.find("year", &Value::Int(2000)).unwrap(), None);
        // Streamed through the 2-page pool; nothing pinned on the table.
        assert!(row_cache_is_empty(&paged));
        assert!(pool.status().resident_pages <= 2);
        // A grown clone streams its sealed groups and then the one it
        // reopened.
        let mut grown = paged.clone();
        grown
            .push(vec![Value::Int(10_000), Value::Int(2000)])
            .unwrap();
        assert_eq!(grown.find("year", &Value::Int(2000)).unwrap(), Some(10_000));
        assert!(row_cache_is_empty(&grown));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn for_each_in_column_streams_both_reprs() {
        let t = movies();
        let pool = Arc::new(BufferPool::with_budget(8));
        let paged = t.seal(&pool, 1).unwrap();
        // All open, all sealed, and one sealed row followed by one open row.
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
                "paged={} sealed={}",
                table.is_paged(),
                table.is_sealed()
            );
        }
        assert!(t.for_each_in_column("nope", |_, _| Ok(())).is_err());
    }
}

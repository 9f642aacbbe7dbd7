//! Relational operators.
//!
//! KathDB's FAO bodies compile down to pipelines of these operators; the
//! classical pull model gives the system the "clear query semantics and
//! high efficiency" of a traditional DBMS (§1) underneath the model-driven
//! layer. There is one protocol: an operator hands out columnar batches.

use crate::batch::{ColumnVector, RowBatch, DEFAULT_BATCH_SIZE};
use crate::guard::QueryGuard;
use crate::{BinOp, Expr, Row, Schema, StorageError, Table, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A pull-based relational operator, driven a batch at a time.
///
/// Pass-through operators ([`Filter`], [`Project`], [`HashJoin`],
/// [`Limit`], [`Distinct`]) delegate [`Operator::batch_capacity`] and
/// [`Operator::narrow`] to their input, so the source's batch size is the
/// one knob of a pipeline and a `LIMIT` reaches the operator that makes
/// the rows.
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Produces the next batch of at most [`Operator::batch_capacity`]
    /// rows, or `None` when exhausted. Returned batches are never empty.
    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError>;

    /// Target rows per batch. Source operators own the setting; pass-through
    /// operators delegate to their input so one knob drives the pipeline.
    fn batch_capacity(&self) -> usize {
        DEFAULT_BATCH_SIZE
    }

    /// Caps every later batch at `rows` rows (at least one); a cap only
    /// ever narrows. [`Limit`] calls it with the rows it still wants before
    /// each pull, so no operator beneath it evaluates a row past the limit:
    /// sources cut their batches to the cap and pass-through operators
    /// forward it. Every operator of this crate overrides it; the default
    /// ignores the cap, which leaves a `LIMIT` above such an operator eager.
    fn narrow(&mut self, _rows: usize) {}
}

/// Drains an operator into a materialized [`Table`].
pub fn collect(name: &str, op: Box<dyn Operator>) -> Result<Table, StorageError> {
    drain_guarded(name, op, &QueryGuard::unlimited()).map(|(table, _)| table)
}

/// Drains an operator into a materialized [`Table`] under a [`QueryGuard`],
/// returning the table and the number of batches produced. The guard is
/// checked before every `next_batch()` — so a 0 ms deadline aborts before
/// the first row — and charged for every produced batch.
pub fn drain_guarded(
    name: &str,
    mut op: Box<dyn Operator>,
    guard: &QueryGuard,
) -> Result<(Table, usize), StorageError> {
    let mut out = Table::new(name, op.schema().clone());
    let mut batches = 0;
    loop {
        guard.check()?;
        let Some(batch) = op.next_batch()? else {
            break;
        };
        guard.charge_batch(&batch)?;
        batches += 1;
        for row in batch.into_rows() {
            out.push(row)?;
        }
    }
    Ok((out, batches))
}

/// Full scan over a shared table (optionally restricted to a row range, the
/// unit a [`crate::MorselSource`] hands to parallel workers).
///
/// The sealed part of the table is walked page by page through the buffer
/// pool, and prune hints (sargable `column <op> literal` conjuncts from the
/// WHERE clause above) let the scan skip whole pages whose zone map proves
/// no row can match — before the page is ever decoded. The tail rows follow;
/// no batch spans a page boundary or the boundary between the sealed part
/// and the tail.
///
/// Batches are materialized late: the hints are evaluated first, on the
/// hint columns alone, and the selected columns are copied only at the
/// positions that survive — typed slices and gathers of the decoded pages,
/// a transposition of the surviving tail rows. A run of rows with no
/// survivor copies nothing and yields no batch. The hints are a superset
/// pre-filter: the plan's filter above still runs on what comes out.
pub struct TableScan {
    table: Arc<Table>,
    cursor: usize,
    end: usize,
    batch_size: usize,
    // (column ordinal, op, literal) conjuncts: zone-map pruning of pages
    // and row pruning inside batches. Ordinals stay full-table even under
    // a column restriction.
    prune: Vec<(usize, BinOp, Value)>,
    columns: Selected,
    guard: QueryGuard,
}

/// The columns a scan produces, as full-table ordinals in output order:
/// all of the table's, or the restriction `with_columns` asked for together
/// with the schema it projects.
struct Selected {
    ordinals: Vec<usize>,
    // `None`: every column, the table's own schema.
    schema: Option<Schema>,
}

impl Selected {
    fn all(table: &Table) -> Self {
        Self {
            ordinals: (0..table.schema().arity()).collect(),
            schema: None,
        }
    }

    fn only(table: &Table, ordinals: &[usize]) -> Self {
        Self {
            ordinals: ordinals.to_vec(),
            schema: Some(table.schema().project(ordinals)),
        }
    }

    fn schema<'a>(&'a self, table: &'a Table) -> &'a Schema {
        self.schema.as_ref().unwrap_or(table.schema())
    }
}

impl TableScan {
    /// Scans `table` from the first row.
    pub fn new(table: Arc<Table>) -> Self {
        Self {
            cursor: 0,
            end: table.len(),
            batch_size: DEFAULT_BATCH_SIZE,
            prune: Vec::new(),
            columns: Selected::all(&table),
            guard: QueryGuard::unlimited(),
            table,
        }
    }

    /// Attaches a [`QueryGuard`]: deadline/cancellation is checked once per
    /// batch-sized run of rows (whether or not the run yields a batch), so
    /// a long-running scan aborts mid-stream instead of at drain time.
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Sets the rows-per-batch capacity for batched execution (min 1).
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Restricts the scan to rows `[start, end)` (clamped to the table).
    pub fn with_range(mut self, start: usize, end: usize) -> Self {
        self.end = end.min(self.table.len());
        self.cursor = start.min(self.end);
        self
    }

    /// Attaches prune hints: `column <op> literal` conjuncts that the
    /// plan's filter will apply anyway. Pages a hint's zone map proves
    /// empty are skipped without decoding, and the rows of the remaining
    /// pages and of the tail that fail a hint are dropped before anything
    /// else of them is copied. Unknown columns are ignored (no hint).
    pub fn with_prune_hint(mut self, hints: &[(String, BinOp, Value)]) -> Self {
        let schema = self.table.schema();
        self.prune = hints
            .iter()
            .filter_map(|(col, op, lit)| schema.index_of(col).map(|c| (c, *op, lit.clone())))
            .collect();
        self
    }

    /// Restricts the scan to the given column ordinals (full-table
    /// ordinals, in output order): the scan's schema becomes the
    /// projection, and rows and batches carry only the selected columns —
    /// unselected columns' sealed pages are never even decoded (a hint
    /// column that is not selected is decoded for the hint alone).
    /// Prune hints keep addressing full-table ordinals and are unaffected.
    pub fn with_columns(mut self, ordinals: &[usize]) -> Self {
        self.columns = Selected::only(&self.table, ordinals);
        self
    }

    /// With the cursor inside the sealed part: moves it past every page the
    /// prune hints prove empty and returns `(page, first row of the page,
    /// end of the scan's rows within it)` for the page it lands in, or
    /// `None` once it has left the sealed part or the range.
    fn next_sealed_page(&mut self, pages: &crate::PagedTable) -> Option<(usize, usize, usize)> {
        let sealed_end = self.end.min(pages.len());
        while self.cursor < sealed_end {
            let p = self.cursor / pages.page_rows();
            let (pstart, pend) = pages.page_bounds(p);
            let upper = pend.min(sealed_end);
            let pruned = self
                .prune
                .iter()
                .any(|(c, op, lit)| !pages.zone(*c, p).may_match(*op, lit));
            if !pruned {
                return Some((p, pstart, upper));
            }
            pages.note_zone_skip();
            self.cursor = upper;
        }
        None
    }

    /// The scan's remaining tail rows, up to `limit` of them, once the
    /// cursor is past the sealed part, as a range of [`Table::tail`];
    /// advances the cursor over them.
    fn take_tail(&mut self, limit: usize) -> std::ops::Range<usize> {
        let base = self.table.sealed_len();
        let from = self.cursor.max(base);
        let to = (from + limit).min(self.end).max(from);
        self.cursor = to;
        from - base..to - base
    }

    /// The next batch-sized run of the rows `next_sealed_page` found, as
    /// the batch of its hint survivors (`None` when there are none). Hint
    /// columns are decoded first; the selected ones only if a row survives.
    fn sealed_batch(
        &mut self,
        pages: &crate::PagedTable,
        (p, pstart, upper): (usize, usize, usize),
    ) -> Result<Option<RowBatch>, StorageError> {
        // Batches never span pages, so a batch is cut from one decoded page
        // per column; positions are offsets into that page.
        let from = self.cursor - pstart;
        let to = (self.cursor + self.batch_size).min(upper) - pstart;
        self.cursor = pstart + to;
        let mut keep: Vec<usize> = (from..to).collect();
        for (c, op, lit) in &self.prune {
            let page = pages.column_page(*c, p)?;
            keep.retain(|&i| page.sql_cmp_at(i, lit).is_some_and(|ord| op.holds(ord)));
            if keep.is_empty() {
                return Ok(None);
            }
        }
        let mut columns = Vec::with_capacity(self.columns.ordinals.len());
        for &c in &self.columns.ordinals {
            let page = pages.column_page(c, p)?;
            columns.push(if keep.len() == to - from {
                page.slice(from, to)
            } else {
                page.gather(&keep)
            });
        }
        RowBatch::from_columns(columns).map(Some)
    }
}

impl Operator for TableScan {
    fn schema(&self) -> &Schema {
        self.columns.schema(&self.table)
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        // One iteration per batch-sized run of rows; a run no row of which
        // survives the hints yields nothing and the loop moves on.
        loop {
            self.guard.check()?;
            if let Some(pages) = self.table.paged().cloned() {
                if let Some(page) = self.next_sealed_page(&pages) {
                    match self.sealed_batch(&pages, page)? {
                        Some(batch) => return Ok(Some(batch)),
                        None => continue,
                    }
                }
            }
            let run = self.take_tail(self.batch_size);
            if run.is_empty() {
                return Ok(None);
            }
            // The hints are read in place: one `Value` clone per selected
            // cell of a surviving row, none for the rest.
            let rows: Vec<&Row> = self.table.tail()[run]
                .iter()
                .filter(|row| {
                    self.prune
                        .iter()
                        .all(|(c, op, lit)| row[*c].sql_cmp(lit).is_some_and(|ord| op.holds(ord)))
                })
                .collect();
            if rows.is_empty() {
                continue;
            }
            let columns = self
                .columns
                .ordinals
                .iter()
                .map(|&c| ColumnVector::from_values(rows.iter().map(|r| r[c].clone()).collect()))
                .collect();
            return RowBatch::from_columns(columns).map(Some);
        }
    }

    fn batch_capacity(&self) -> usize {
        self.batch_size
    }

    fn narrow(&mut self, rows: usize) {
        self.batch_size = self.batch_size.min(rows.max(1));
    }
}

/// Scan over an explicit list of row positions of a table, in the given
/// order — how the vector top-k fetches its k winners in rank order.
pub struct IndexScan {
    table: Arc<Table>,
    positions: Vec<usize>,
    cursor: usize,
    batch_size: usize,
}

impl IndexScan {
    /// Scans `table` at `positions`, in the given order.
    pub fn new(table: Arc<Table>, positions: Vec<usize>) -> Self {
        Self {
            table,
            positions,
            cursor: 0,
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }

    /// Sets the rows-per-batch capacity for batched execution (min 1).
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    fn fetch(&self, pos: usize) -> Result<Row, StorageError> {
        self.table
            .row_at(pos)?
            .ok_or_else(|| StorageError::Eval(format!("index position {pos} out of bounds")))
    }
}

impl Operator for IndexScan {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        if self.cursor >= self.positions.len() {
            return Ok(None);
        }
        let end = (self.cursor + self.batch_size).min(self.positions.len());
        let rows = self.positions[self.cursor..end]
            .iter()
            .map(|&pos| self.fetch(pos))
            .collect::<Result<Vec<Row>, _>>()?;
        self.cursor = end;
        Ok(Some(RowBatch::from_rows(self.schema().arity(), rows)))
    }

    fn batch_capacity(&self) -> usize {
        self.batch_size
    }

    fn narrow(&mut self, rows: usize) {
        self.batch_size = self.batch_size.min(rows.max(1));
    }
}

/// Filters rows by a predicate expression (NULL predicate drops the row,
/// SQL `WHERE` semantics).
pub struct Filter {
    input: Box<dyn Operator>,
    predicate: Expr,
}

impl Filter {
    /// Wraps `input`, keeping rows where `predicate` is truthy.
    pub fn new(input: Box<dyn Operator>, predicate: Expr) -> Self {
        Self { input, predicate }
    }
}

impl Operator for Filter {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        while let Some(batch) = self.input.next_batch()? {
            let keep = self
                .predicate
                .eval_batch(&batch, self.input.schema())?
                .truthy_mask();
            if let Some(kept) = keep_rows(batch, &keep) {
                return Ok(Some(kept));
            }
        }
        Ok(None)
    }

    fn batch_capacity(&self) -> usize {
        self.input.batch_capacity()
    }

    fn narrow(&mut self, rows: usize) {
        self.input.narrow(rows);
    }
}

/// The rows of `batch` that `keep` marks: the batch itself, untouched, when
/// it marks all of them; `None` when it marks none.
fn keep_rows(batch: RowBatch, keep: &[bool]) -> Option<RowBatch> {
    if keep.iter().all(|k| *k) {
        Some(batch)
    } else {
        keep.iter().any(|k| *k).then(|| batch.filter(keep))
    }
}

/// Projects (and computes) output columns from expressions.
pub struct Project {
    input: Box<dyn Operator>,
    exprs: Vec<Expr>,
    schema: Schema,
}

impl Project {
    /// Builds a projection of `(output name, expression)` pairs. Output
    /// types are inferred as `Any` unless the expression is a plain column
    /// reference, in which case the input type is preserved.
    pub fn new(
        input: Box<dyn Operator>,
        outputs: Vec<(String, Expr)>,
    ) -> Result<Self, StorageError> {
        let schema = Self::output_schema(input.schema(), &outputs)?;
        Ok(Self {
            input,
            exprs: outputs.into_iter().map(|(_, e)| e).collect(),
            schema,
        })
    }

    /// The schema a projection of `outputs` over `input` rows produces.
    /// Exposed so drivers that assemble results away from an operator tree
    /// (e.g. the parallel pipeline merge) infer the identical schema.
    pub fn output_schema(
        input: &Schema,
        outputs: &[(String, Expr)],
    ) -> Result<Schema, StorageError> {
        use crate::{Column, DataType};
        let mut cols = Vec::with_capacity(outputs.len());
        for (name, expr) in outputs {
            let dtype = match expr {
                Expr::Col(c) => {
                    let idx = input.resolve(c)?;
                    input.column(idx).dtype
                }
                Expr::Lit(v) if !v.is_null() => v.data_type(),
                _ => DataType::Any,
            };
            cols.push(Column::new(name.clone(), dtype));
        }
        Schema::new(cols)
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        if self.exprs.is_empty() {
            // Degenerate arity-0 projection: keep the row count.
            let rows = vec![Vec::new(); batch.num_rows()];
            return Ok(Some(RowBatch::from_rows(0, rows)));
        }
        let columns: Vec<_> = self
            .exprs
            .iter()
            .map(|e| e.eval_batch(&batch, self.input.schema()))
            .collect::<Result<_, _>>()?;
        RowBatch::from_columns(columns).map(Some)
    }

    fn batch_capacity(&self) -> usize {
        self.input.batch_capacity()
    }

    fn narrow(&mut self, rows: usize) {
        self.input.narrow(rows);
    }
}

/// Join kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join (unmatched left rows padded with NULLs).
    Left,
}

/// The materialized build side of a [`HashJoin`]: the build rows in
/// columnar form, the hash table from key to their positions, and the right
/// schema. Building it once and sharing it behind an `Arc` is what lets
/// parallel workers probe the same table from independent per-morsel
/// pipelines (the build is the pipeline breaker; the probe is streaming).
#[derive(Debug)]
pub struct JoinBuild {
    // Key -> positions in `rows` of the build rows holding it, build order.
    map: HashMap<Value, Vec<usize>>,
    // The build rows with a non-NULL key.
    rows: RowBatch,
    right_schema: Schema,
}

impl JoinBuild {
    /// Drains `right` into the hash table keyed on `right_col`. NULL keys
    /// are dropped (they never match in SQL equi-joins).
    pub fn build(mut right: Box<dyn Operator>, right_col: &str) -> Result<Self, StorageError> {
        let right_key = right.schema().resolve(right_col)?;
        let right_schema = right.schema().clone();
        let mut map: HashMap<Value, Vec<usize>> = HashMap::new();
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); right_schema.arity()];
        // Build side drains batch-wise; all operators support next_batch.
        while let Some(batch) = right.next_batch()? {
            for i in 0..batch.num_rows() {
                let key = batch.column(right_key).value(i);
                if key.is_null() {
                    continue;
                }
                map.entry(key).or_default().push(columns[right_key].len());
                for (kept, column) in columns.iter_mut().zip(batch.columns()) {
                    kept.push(column.value(i));
                }
            }
        }
        let columns = columns.into_iter().map(ColumnVector::from_values);
        Ok(Self {
            map,
            rows: RowBatch::from_columns(columns.collect())?,
            right_schema,
        })
    }

    /// The positions of the build rows matching `key`, in build order
    /// (NULL never matches).
    fn matches(&self, key: &Value) -> Option<&[usize]> {
        if key.is_null() {
            None
        } else {
            self.map.get(key).map(Vec::as_slice)
        }
    }

    /// Schema of the build (right) side.
    pub fn right_schema(&self) -> &Schema {
        &self.right_schema
    }

    /// The one probe routine, columnar: looks the keys of `left` rows up
    /// straight from column `key`, from the position `cursor` holds, pairs
    /// each left position with its matching build rows in forward match
    /// order (a left row without a match pairs once with a NULL pad under
    /// [`JoinKind::Left`], not at all under [`JoinKind::Inner`]; a NULL key
    /// never matches), and assembles the joined batch by typed gather —
    /// left columns at the left positions, then build columns at the
    /// matched ones.
    ///
    /// `cursor` is `(left row, matches of it already paired)`. The call
    /// stops at exactly `cap` pairs, in the middle of a match list if need
    /// be, and leaves `cursor` at the first pair not yet made. `None`: the
    /// rest of `left` produced no output.
    pub fn probe(
        &self,
        left: &RowBatch,
        key: usize,
        kind: JoinKind,
        cursor: &mut (usize, usize),
        cap: usize,
    ) -> Result<Option<RowBatch>, StorageError> {
        let keys = left.column(key);
        let mut left_at: Vec<usize> = Vec::new();
        let mut build_at: Vec<Option<usize>> = Vec::new();
        while cursor.0 < left.num_rows() && left_at.len() < cap {
            let (i, done) = *cursor;
            let hits = self.matches(&keys.value(i)).unwrap_or_default();
            let take = (hits.len() - done).min(cap - left_at.len());
            left_at.extend(std::iter::repeat_n(i, take));
            build_at.extend(hits[done..done + take].iter().copied().map(Some));
            if hits.is_empty() && kind == JoinKind::Left {
                left_at.push(i);
                build_at.push(None);
            }
            *cursor = if done + take < hits.len() {
                (i, done + take)
            } else {
                (i + 1, 0)
            };
        }
        if left_at.is_empty() {
            return Ok(None);
        }
        let left_columns = left.columns().iter().map(|c| c.gather(&left_at));
        let build_columns = self.rows.columns().iter();
        let build_columns = build_columns.map(|c| c.gather_padded(&build_at));
        RowBatch::from_columns(left_columns.chain(build_columns).collect()).map(Some)
    }
}

/// Hash join on column equality. Builds on the right input, probes the left.
pub struct HashJoin {
    left: Box<dyn Operator>,
    schema: Schema,
    left_key: usize,
    built: Arc<JoinBuild>,
    kind: JoinKind,
    // Probe state: the current left batch and the probe's cursor in it.
    lbatch: Option<RowBatch>,
    lcursor: (usize, usize),
}

impl HashJoin {
    /// Joins `left.left_col == right.right_col`. The right side is fully
    /// materialized into the hash table up front.
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_col: &str,
        right_col: &str,
        kind: JoinKind,
    ) -> Result<Self, StorageError> {
        let built = Arc::new(JoinBuild::build(right, right_col)?);
        Self::from_build(left, built, left_col, kind)
    }

    /// Probes an already-materialized (possibly shared) build side.
    pub fn from_build(
        left: Box<dyn Operator>,
        built: Arc<JoinBuild>,
        left_col: &str,
        kind: JoinKind,
    ) -> Result<Self, StorageError> {
        let left_key = left.schema().resolve(left_col)?;
        let schema = left.schema().join(built.right_schema(), "right");
        Ok(Self {
            left,
            schema,
            left_key,
            built,
            kind,
            lbatch: None,
            lcursor: (0, 0),
        })
    }

    /// Names the output columns as `schema` does (same arity, same order).
    /// A plan whose inputs were pruned out of a wider join passes the wide
    /// schema's projection: joining the pruned schemas afresh would prefix
    /// a right-side name only if its left-side namesake survived pruning.
    pub fn with_schema(mut self, schema: Schema) -> Self {
        debug_assert_eq!(schema.arity(), self.schema.arity());
        self.schema = schema;
        self
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        // An output batch is cut from one left batch, at most
        // `batch_capacity` pairs at a time, so it never exceeds the
        // capacity however far keys fan out.
        let cap = self.batch_capacity();
        loop {
            if let Some(left) = &self.lbatch {
                let probed =
                    self.built
                        .probe(left, self.left_key, self.kind, &mut self.lcursor, cap)?;
                if probed.is_some() {
                    return Ok(probed);
                }
            }
            self.lbatch = self.left.next_batch()?;
            self.lcursor = (0, 0);
            if self.lbatch.is_none() {
                return Ok(None);
            }
        }
    }

    fn batch_capacity(&self) -> usize {
        self.left.batch_capacity()
    }

    fn narrow(&mut self, rows: usize) {
        self.left.narrow(rows);
    }
}

/// Aggregate functions supported by [`HashAggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` (counts rows; NULLs included).
    CountStar,
    /// `COUNT(col)` (non-NULL values).
    Count,
    /// `SUM(col)`
    Sum,
    /// `AVG(col)`
    Avg,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
}

/// One aggregate output: function + input column + output name.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input column (ignored for `CountStar`).
    pub column: Option<String>,
    /// Output column name.
    pub output: String,
}

/// Hash aggregation with optional GROUP BY keys: a pipeline breaker that
/// consumes its input when built and hands the groups out in order, at most
/// `batch_size` at a time.
pub struct HashAggregate {
    schema: Schema,
    rows: std::vec::IntoIter<Row>,
    batch_size: usize,
}

#[derive(Clone)]
struct AggState {
    count: i64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(f) = v.as_f64() {
            self.sum += f;
        }
        self.extremes(v, v);
    }

    /// Takes `lo` as the minimum if it is strictly below the current one
    /// (the first of equal values stays), and `hi` as the maximum likewise.
    fn extremes(&mut self, lo: &Value, hi: &Value) {
        if self
            .min
            .as_ref()
            .is_none_or(|m| lo.total_cmp(m) == Ordering::Less)
        {
            self.min = Some(lo.clone());
        }
        if self
            .max
            .as_ref()
            .is_none_or(|m| hi.total_cmp(m) == Ordering::Greater)
        {
            self.max = Some(hi.clone());
        }
    }

    /// Folds a later partial's state into this one. `other` must cover rows
    /// that come *after* this state's rows in scan order (min/max are order-
    /// free; sums are added in scan order to keep float results stable
    /// across worker counts).
    fn absorb(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum += other.sum;
        if let (Some(lo), Some(hi)) = (&other.min, &other.max) {
            self.extremes(lo, hi);
        }
    }

    fn finish(&self, func: AggFunc, rows_in_group: i64) -> Value {
        match func {
            AggFunc::CountStar => Value::Int(rows_in_group),
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Thread-local partial state of a hash aggregation: group states keyed by
/// the group tuple, with first-appearance order tracked for deterministic
/// output. [`HashAggregate`] is one partial consumed serially; a parallel
/// aggregation builds one partial per morsel and [`PartialAggregate::merge`]s
/// them **in morsel order**, which reproduces the exact group order (and
/// float accumulation order) of a serial run.
pub struct PartialAggregate {
    key_idx: Vec<usize>,
    agg_idx: Vec<Option<usize>>,
    aggregates: Vec<Aggregate>,
    schema: Schema,
    global: bool,
    order: Vec<Vec<Value>>,
    groups: HashMap<Vec<Value>, (i64, Vec<AggState>)>,
}

impl PartialAggregate {
    /// An empty partial aggregating `in_schema` rows grouped by `group_by`.
    pub fn new(
        in_schema: &Schema,
        group_by: &[String],
        aggregates: Vec<Aggregate>,
    ) -> Result<Self, StorageError> {
        use crate::{Column, DataType};
        let key_idx: Vec<usize> = group_by
            .iter()
            .map(|g| in_schema.resolve(g))
            .collect::<Result<_, _>>()?;
        let agg_idx: Vec<Option<usize>> = aggregates
            .iter()
            .map(|a| match (&a.column, a.func) {
                (_, AggFunc::CountStar) => Ok(None),
                (Some(c), _) => in_schema.resolve(c).map(Some),
                (None, _) => Err(StorageError::Eval(format!(
                    "aggregate {} requires a column",
                    a.output
                ))),
            })
            .collect::<Result<_, _>>()?;

        let mut cols: Vec<Column> = key_idx
            .iter()
            .map(|&i| in_schema.column(i).clone())
            .collect();
        for a in &aggregates {
            let dtype = match a.func {
                AggFunc::CountStar | AggFunc::Count => DataType::Int,
                AggFunc::Sum | AggFunc::Avg => DataType::Float,
                AggFunc::Min | AggFunc::Max => DataType::Any,
            };
            cols.push(Column::new(a.output.clone(), dtype));
        }
        let schema = Schema::new(cols)?;
        Ok(Self {
            key_idx,
            agg_idx,
            aggregates,
            schema,
            global: group_by.is_empty(),
            order: Vec::new(),
            groups: HashMap::new(),
        })
    }

    /// Output schema: group keys followed by aggregate outputs.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Folds one batch into the partial. Group keys and aggregate inputs
    /// are read straight out of the batch columns; the key is filled into
    /// one scratch vector and looked up borrowed, and an owned key is made
    /// only the first time a group appears.
    pub fn absorb(&mut self, batch: &RowBatch) {
        let agg_idx = &self.agg_idx;
        let mut key: Vec<Value> = Vec::with_capacity(self.key_idx.len());
        for r in 0..batch.num_rows() {
            key.clear();
            key.extend(self.key_idx.iter().map(|&i| batch.column(i).value(r)));
            let fold = |(n, states): &mut (i64, Vec<AggState>)| {
                *n += 1;
                for (state, idx) in states.iter_mut().zip(agg_idx) {
                    if let Some(i) = idx {
                        state.update(&batch.column(*i).value(r));
                    }
                }
            };
            match self.groups.get_mut(key.as_slice()) {
                Some(group) => fold(group),
                None => {
                    self.order.push(key.clone());
                    let fresh = (0, vec![AggState::new(); self.aggregates.len()]);
                    fold(self.groups.entry(key.clone()).or_insert(fresh));
                }
            }
        }
    }

    /// Drains an operator into the partial, batch-at-a-time. Returns the
    /// number of batches consumed.
    pub fn consume(&mut self, op: &mut dyn Operator) -> Result<usize, StorageError> {
        let mut batches = 0;
        while let Some(batch) = op.next_batch()? {
            batches += 1;
            self.absorb(&batch);
        }
        Ok(batches)
    }

    /// Merges a partial covering *later* rows (in scan order) into this
    /// one. Groups first seen in `later` are appended in their order of
    /// appearance, exactly as a serial pass would have discovered them.
    pub fn merge(&mut self, later: PartialAggregate) {
        for key in later.order {
            let (n, states) = &later.groups[&key];
            let n_aggs = self.aggregates.len();
            let entry = self.groups.entry(key.clone()).or_insert_with(|| {
                self.order.push(key);
                (0, vec![AggState::new(); n_aggs])
            });
            entry.0 += *n;
            for (mine, theirs) in entry.1.iter_mut().zip(states) {
                mine.absorb(theirs);
            }
        }
    }

    /// Finalizes into result rows (group keys then aggregate values). With
    /// no group keys, emits a single global row even for empty input, as
    /// SQL does.
    pub fn finish(mut self) -> (Schema, Vec<Row>) {
        if self.global && self.groups.is_empty() {
            self.order.push(Vec::new());
            self.groups.insert(
                Vec::new(),
                (0, vec![AggState::new(); self.aggregates.len()]),
            );
        }
        let mut results = Vec::with_capacity(self.order.len());
        for key in &self.order {
            let (n, states) = &self.groups[key];
            let mut row = key.clone();
            for (state, agg) in states.iter().zip(&self.aggregates) {
                row.push(state.finish(agg.func, *n));
            }
            results.push(row);
        }
        (self.schema, results)
    }
}

impl HashAggregate {
    /// Aggregates `input` grouped by `group_by` columns. Output schema is
    /// group keys followed by aggregate outputs. With no group keys, emits a
    /// single global row (even for empty input, as SQL does).
    pub fn new(
        mut input: Box<dyn Operator>,
        group_by: Vec<String>,
        aggregates: Vec<Aggregate>,
    ) -> Result<Self, StorageError> {
        let mut partial = PartialAggregate::new(input.schema(), &group_by, aggregates)?;
        partial.consume(input.as_mut())?;
        let (schema, rows) = partial.finish();
        Ok(Self {
            schema,
            rows: rows.into_iter(),
            batch_size: input.batch_capacity(),
        })
    }

    /// The next group's row, advancing the stream `next_batch` reads. Kept
    /// for the repo benchmark's aggregation kernel (`benchmark/`) only,
    /// which drains groups one at a time.
    #[allow(clippy::should_implement_trait)] // fallible, unlike `Iterator::next`
    pub fn next(&mut self) -> Result<Option<Row>, StorageError> {
        Ok(self.rows.next())
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        let rows: Vec<Row> = self.rows.by_ref().take(self.batch_size).collect();
        Ok((!rows.is_empty()).then(|| RowBatch::from_rows(self.schema.arity(), rows)))
    }

    fn batch_capacity(&self) -> usize {
        self.batch_size
    }

    fn narrow(&mut self, rows: usize) {
        self.batch_size = self.batch_size.min(rows.max(1));
    }
}

/// Sort direction for one key.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Column to sort on.
    pub column: String,
    /// Descending if true.
    pub desc: bool,
}

/// Resolves sort keys into `(column index, descending)` pairs.
pub fn resolve_sort_keys(
    schema: &Schema,
    keys: &[SortKey],
) -> Result<Vec<(usize, bool)>, StorageError> {
    keys.iter()
        .map(|k| schema.resolve(&k.column).map(|i| (i, k.desc)))
        .collect()
}

/// Compares two rows under resolved sort keys (total value order).
pub fn cmp_rows(a: &Row, b: &Row, key_idx: &[(usize, bool)]) -> Ordering {
    for &(i, desc) in key_idx {
        let ord = a[i].total_cmp(&b[i]);
        let ord = if desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Stably sorts `rows` in place under resolved sort keys.
pub fn sort_rows(rows: &mut [Row], key_idx: &[(usize, bool)]) {
    rows.sort_by(|a, b| cmp_rows(a, b, key_idx));
}

/// K-way merge of stably-sorted runs into one stably-sorted stream. Runs
/// must be ordered by the position of their rows in the original input
/// (run 0 before run 1, …): ties then resolve to the earliest run, which
/// reproduces exactly the row order of a serial stable sort over the
/// concatenated input. This is the deterministic merge step of a parallel
/// sort (each worker sorts its morsel's run; the merge is serial).
pub fn merge_sorted_runs(mut runs: Vec<Vec<Row>>, key_idx: &[(usize, bool)]) -> Vec<Row> {
    let total: usize = runs.iter().map(Vec::len).sum();
    // `heads[r]`: the position of run `r`'s next row.
    let mut heads = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(total);
    loop {
        // Linear scan over run heads: strictly-less keeps the earliest run
        // on ties (stability). Run counts are small (morsel count), so the
        // scan beats heap bookkeeping for realistic inputs.
        let mut best: Option<(usize, &Row)> = None;
        for (r, run) in runs.iter().enumerate() {
            let Some(head) = run.get(heads[r]) else {
                continue;
            };
            if best.is_none_or(|(_, current)| cmp_rows(head, current, key_idx) == Ordering::Less) {
                best = Some((r, head));
            }
        }
        let Some((r, _)) = best else {
            return out;
        };
        out.push(std::mem::take(&mut runs[r][heads[r]]));
        heads[r] += 1;
    }
}

/// LIMIT n. Before each pull it narrows its input to the rows it still
/// wants, so nothing beneath it evaluates a row past the limit — unless a
/// breaker (sort, aggregate) beneath it consumed its whole input anyway.
pub struct Limit {
    input: Box<dyn Operator>,
    remaining: usize,
}

impl Limit {
    /// Yields at most `n` rows from `input`.
    pub fn new(input: Box<dyn Operator>, n: usize) -> Self {
        Self {
            input,
            remaining: n,
        }
    }
}

impl Operator for Limit {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.input.narrow(self.remaining);
        let batch = self.input.next_batch()?;
        let rows = batch.as_ref().map_or(0, RowBatch::num_rows);
        self.remaining = self.remaining.saturating_sub(rows);
        Ok(batch)
    }

    fn batch_capacity(&self) -> usize {
        self.input.batch_capacity()
    }

    fn narrow(&mut self, rows: usize) {
        self.input.narrow(rows);
    }
}

/// DISTINCT over whole rows.
pub struct Distinct {
    input: Box<dyn Operator>,
    seen: std::collections::HashSet<Row>,
}

impl Distinct {
    /// De-duplicates rows of `input`.
    pub fn new(input: Box<dyn Operator>) -> Self {
        Self {
            input,
            seen: std::collections::HashSet::new(),
        }
    }
}

impl Operator for Distinct {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        while let Some(batch) = self.input.next_batch()? {
            let fresh: Vec<bool> = (0..batch.num_rows())
                .map(|i| self.seen.insert(batch.row(i)))
                .collect();
            if let Some(kept) = keep_rows(batch, &fresh) {
                return Ok(Some(kept));
            }
        }
        Ok(None)
    }

    fn batch_capacity(&self) -> usize {
        self.input.batch_capacity()
    }

    fn narrow(&mut self, rows: usize) {
        self.input.narrow(rows);
    }
}

/// Convenience: builds a comparison predicate `col op lit`.
pub fn col_cmp(col: &str, op: BinOp, v: impl Into<Value>) -> Expr {
    Expr::col(col).bin(op, Expr::lit(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    /// Drains `op` unguarded: the table and the batches it took.
    fn drain(op: Box<dyn Operator>) -> (Table, usize) {
        drain_guarded("out", op, &QueryGuard::unlimited()).unwrap()
    }

    fn table(columns: &[(&str, DataType)], rows: Vec<Row>) -> Arc<Table> {
        Arc::new(Table::from_rows("t", Schema::of(columns), rows).unwrap())
    }

    fn scan(t: &Arc<Table>, batch_size: usize) -> Box<dyn Operator> {
        Box::new(TableScan::new(Arc::clone(t)).with_batch_size(batch_size))
    }

    fn join(
        left: Box<dyn Operator>,
        right: &Arc<Table>,
        on: (&str, &str),
        kind: JoinKind,
    ) -> Box<dyn Operator> {
        let right = Box::new(TableScan::new(Arc::clone(right)));
        Box::new(HashJoin::new(left, right, on.0, on.1, kind).unwrap())
    }

    fn agg(func: AggFunc, column: Option<&str>, output: &str) -> Aggregate {
        let column = column.map(str::to_string);
        Aggregate {
            func,
            column,
            output: output.into(),
        }
    }

    /// `t`'s rows stably sorted on `column`, as a table of their own.
    fn sorted(t: &Arc<Table>, column: &str, desc: bool) -> Arc<Table> {
        let key = SortKey {
            column: column.into(),
            desc,
        };
        let mut rows = t.rows().to_vec();
        sort_rows(&mut rows, &resolve_sort_keys(t.schema(), &[key]).unwrap());
        Arc::new(Table::from_rows("sorted", t.schema().clone(), rows).unwrap())
    }

    /// `input` projected to `q = 10 / column`.
    fn divide_ten_by(input: Box<dyn Operator>, column: &str) -> Box<dyn Operator> {
        let q = Expr::lit(10i64).bin(BinOp::Div, Expr::col(column));
        Box::new(Project::new(input, vec![("q".into(), q)]).unwrap())
    }

    fn films() -> Arc<Table> {
        let film = |id: i64, title: &str, year: i64| vec![id.into(), title.into(), year.into()];
        table(
            &[
                ("id", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
            ],
            vec![
                film(1, "Guilty by Suspicion", 1991),
                film(2, "Clean and Sober", 1988),
                film(3, "Quiet Days", 1975),
                film(4, "Night Chase", 1991),
            ],
        )
    }

    fn posters() -> Arc<Table> {
        let poster = |id: i64, boring: bool| vec![id.into(), boring.into()];
        let columns = [("film_id", DataType::Int), ("boring", DataType::Bool)];
        table(
            &columns,
            vec![poster(1, true), poster(2, true), poster(4, false)],
        )
    }

    #[test]
    fn scan_filter_project() {
        let filt = Box::new(Filter::new(
            scan(&films(), 1024),
            col_cmp("year", BinOp::Ge, 1988i64),
        ));
        let proj = Project::new(filt, vec![("title".into(), Expr::col("title"))]).unwrap();
        let t = collect("recent", Box::new(proj)).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema().names(), vec!["title"]);
    }

    #[test]
    fn filter_is_subset_of_scan() {
        let filt = Filter::new(scan(&films(), 1024), col_cmp("year", BinOp::Eq, 1991i64));
        let (t, _) = drain(Box::new(filt));
        assert_eq!(t.len(), 2);
        assert!(t.rows().iter().all(|r| r[2] == Value::Int(1991)));
    }

    #[test]
    fn hash_join_inner_and_left() {
        let on = ("id", "film_id");
        let (t, _) = drain(join(scan(&films(), 1024), &posters(), on, JoinKind::Inner));
        assert_eq!(t.len(), 3); // film 3 has no poster
        let (t, _) = drain(join(scan(&films(), 1024), &posters(), on, JoinKind::Left));
        assert_eq!(t.len(), 4);
        let unmatched = t.rows().iter().find(|r| r[0] == Value::Int(3)).unwrap();
        assert!(unmatched[3].is_null());
    }

    #[test]
    fn hash_join_skips_null_keys() {
        let keys = table(
            &[("k", DataType::Int)],
            vec![vec![Value::Null], vec![1i64.into()]],
        );
        let (t, _) = drain(join(scan(&keys, 1024), &keys, ("k", "k"), JoinKind::Inner));
        assert_eq!(t.len(), 1); // NULL never equals NULL
    }

    #[test]
    fn aggregate_group_by() {
        let aggs = vec![
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Min, Some("title"), "first"),
        ];
        let g = HashAggregate::new(scan(&films(), 1024), vec!["year".into()], aggs).unwrap();
        let (t, _) = drain(Box::new(g));
        assert_eq!(t.len(), 3);
        let idx = t.find("year", &Value::Int(1991)).unwrap().unwrap();
        assert_eq!(t.cell(idx, "n").unwrap(), &Value::Int(2));
    }

    #[test]
    fn aggregate_global_on_empty_input_emits_one_row() {
        let empty = table(&[("x", DataType::Int)], Vec::new());
        let aggs = vec![
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Sum, Some("x"), "s"),
        ];
        let (t, _) = drain(Box::new(
            HashAggregate::new(scan(&empty, 1024), vec![], aggs).unwrap(),
        ));
        assert_eq!(t.rows(), [vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn aggregate_avg_ignores_nulls() {
        let rows = vec![vec![2i64.into()], vec![Value::Null], vec![4i64.into()]];
        let t = table(&[("x", DataType::Int)], rows);
        let aggs = vec![agg(AggFunc::Avg, Some("x"), "a")];
        let (t, _) = drain(Box::new(
            HashAggregate::new(scan(&t, 1024), vec![], aggs).unwrap(),
        ));
        assert_eq!(t.cell(0, "a").unwrap(), &Value::Float(3.0));
    }

    #[test]
    fn sort_desc_then_limit() {
        let top = Limit::new(scan(&sorted(&films(), "year", true), 1024), 2);
        let (t, _) = drain(Box::new(top));
        assert_eq!(t.len(), 2);
        assert!(t.rows().iter().all(|r| r[2] == Value::Int(1991)));
    }

    #[test]
    fn sort_is_stable() {
        let t = sorted(&films(), "year", true);
        // ids 1 and 4 both have year 1991; input order 1 then 4 preserved.
        assert_eq!(t.cell(0, "id").unwrap(), &Value::Int(1));
        assert_eq!(t.cell(1, "id").unwrap(), &Value::Int(4));
    }

    /// `films()` followed by `films()` again: every row twice.
    fn films_twice() -> Arc<Table> {
        let twice = [films().rows(), films().rows()].concat();
        Arc::new(Table::from_rows("ff", films().schema().clone(), twice).unwrap())
    }

    #[test]
    fn distinct_and_union() {
        let (t, _) = drain(Box::new(Distinct::new(scan(&films_twice(), 1024))));
        assert_eq!(t.len(), 4);
    }

    /// The scan→filter→project pipeline with a given scan batch size.
    fn pipeline(batch_size: usize) -> Box<dyn Operator> {
        let filt = Box::new(Filter::new(
            scan(&films(), batch_size),
            col_cmp("year", BinOp::Ge, 1988i64),
        ));
        let age = Expr::lit(2026i64).bin(BinOp::Sub, Expr::col("year"));
        Box::new(
            Project::new(
                filt,
                vec![("title".into(), Expr::col("title")), ("age".into(), age)],
            )
            .unwrap(),
        )
    }

    #[test]
    fn batched_pipeline_matches_row_pipeline_at_any_batch_size() {
        // Batch size 1 drives the pipeline one row at a time.
        let (one_at_a_time, batches) = drain(pipeline(1));
        assert_eq!(batches, 3);
        let first = vec![Value::Str("Guilty by Suspicion".into()), Value::Int(35)];
        assert_eq!(one_at_a_time.rows()[0], first);
        for bs in [2usize, 3, 1024] {
            assert_eq!(drain(pipeline(bs)).0, one_at_a_time, "batch size {bs}");
        }
    }

    #[test]
    fn batched_join_and_aggregate_match_row_path() {
        // Each plan at batch size 1 (one row at a time) against the same
        // plan cutting several rows per batch.
        let on = ("id", "film_id");
        let mk_join = |bs: usize| join(scan(&films(), bs), &posters(), on, JoinKind::Left);
        let (row, _) = drain(mk_join(1));
        assert_eq!(row.len(), 4);
        assert_eq!(drain(mk_join(2)).0, row);
        let mk_agg = |bs: usize| {
            let count = vec![agg(AggFunc::CountStar, None, "n")];
            Box::new(HashAggregate::new(scan(&films(), bs), vec!["year".into()], count).unwrap())
        };
        let (row, _) = drain(mk_agg(1));
        assert_eq!(row.len(), 3);
        assert_eq!(drain(mk_agg(3)).0, row);
    }

    #[test]
    fn batched_join_bounds_output_batches_under_fanout() {
        // 40 left rows × 25 matches each = 1000 join rows; with capacity 8
        // the probe must emit 125 batches of exactly 8, cutting match lists
        // in the middle, not one giant batch.
        let ones = |n: usize| table(&[("k", DataType::Int)], vec![vec![1i64.into()]; n]);
        let (left, right) = (ones(40), ones(25));
        let mk = |bs: usize| join(scan(&left, bs), &right, ("k", "k"), JoinKind::Inner);
        let (whole, _) = drain(mk(1024));
        assert_eq!(whole.len(), 1000);
        let mut join = mk(8);
        let mut rows = Vec::new();
        while let Some(b) = join.next_batch().unwrap() {
            assert_eq!(b.num_rows(), 8);
            rows.extend(b.into_rows());
        }
        assert_eq!(rows, whole.rows());
    }

    /// A build side over `k` = 1, 1, NULL, 2 (tagged a–d) and a left batch
    /// with keys 1, NULL, 3, 2.
    fn probe_fixture() -> (JoinBuild, RowBatch) {
        let tagged = |k: Value, tag: &str| vec![k, tag.into()];
        let rows = vec![
            tagged(1i64.into(), "a"),
            tagged(1i64.into(), "b"),
            tagged(Value::Null, "c"),
            tagged(2i64.into(), "d"),
        ];
        let right = table(&[("k", DataType::Int), ("tag", DataType::Str)], rows);
        let build = JoinBuild::build(scan(&right, 1024), "k").unwrap();
        let keys = [1i64.into(), Value::Null, 3i64.into(), 2i64.into()];
        let rows = ["w", "x", "y", "z"]
            .iter()
            .zip(keys)
            .map(|(l, k)| vec![(*l).into(), k]);
        (build, RowBatch::from_rows(2, rows.collect()))
    }

    #[test]
    fn probe_pairs_left_rows_with_build_rows_in_match_order() {
        let (build, left) = probe_fixture();
        let row = |l: &str, k: Value, r: Option<(i64, &str)>| -> Row {
            let (rk, tag) = r.map_or((Value::Null, Value::Null), |(k, t)| (k.into(), t.into()));
            vec![l.into(), k, rk, tag]
        };
        // INNER: forward match order; neither a NULL key nor the build
        // side's NULL-keyed row ever matches.
        let mut cursor = (0, 0);
        let inner = build.probe(&left, 1, JoinKind::Inner, &mut cursor, usize::MAX);
        assert_eq!(cursor, (4, 0));
        let (w_a, w_b) = (
            row("w", 1i64.into(), Some((1, "a"))),
            row("w", 1i64.into(), Some((1, "b"))),
        );
        let z_d = row("z", 2i64.into(), Some((2, "d")));
        let want = vec![w_a.clone(), w_b.clone(), z_d.clone()];
        assert_eq!(inner.unwrap().unwrap().to_rows(), want);
        // LEFT: an unmatched row pads the build side's arity with NULLs.
        let left_join = build.probe(&left, 1, JoinKind::Left, &mut (0, 0), usize::MAX);
        let left_join = left_join.unwrap().unwrap();
        assert_eq!(left_join.num_columns(), 4);
        let pads = [row("x", Value::Null, None), row("y", 3i64.into(), None)];
        assert_eq!(
            left_join.to_rows(),
            [vec![w_a, w_b], pads.to_vec(), vec![z_d]].concat()
        );
    }

    #[test]
    fn probe_stops_at_the_cap_and_resumes_from_the_cursor() {
        let (build, left) = probe_fixture();
        let probe = |kind, cursor: &mut (usize, usize), cap| {
            build.probe(&left, 1, kind, cursor, cap).unwrap()
        };
        // Cap 1: the first left row's two matches come one call each (a
        // match list is cut where the cap falls), then the cursor carries
        // on past the pads.
        let mut cursor = (0, 0);
        let (mut sizes, mut rows) = (Vec::new(), Vec::new());
        while let Some(b) = probe(JoinKind::Left, &mut cursor, 1) {
            sizes.push((b.num_rows(), cursor));
            rows.extend(b.to_rows());
        }
        assert_eq!(
            sizes,
            [
                (1, (0, 1)),
                (1, (1, 0)),
                (1, (2, 0)),
                (1, (3, 0)),
                (1, (4, 0))
            ]
        );
        let whole = probe(JoinKind::Left, &mut (0, 0), usize::MAX)
            .unwrap()
            .to_rows();
        assert_eq!(rows, whole);
        // INNER from row 1 on: rows 1 and 2 match nothing, so the call runs
        // on to row 3; past the end there is nothing left.
        let mut cursor = (1, 0);
        let b = probe(JoinKind::Inner, &mut cursor, 1).unwrap();
        assert_eq!((b.num_rows(), cursor), (1, (4, 0)));
        assert!(probe(JoinKind::Inner, &mut cursor, 1).is_none());
        // Resuming in the middle of a match list: row 0's second match.
        let mut cursor = (0, 1);
        let b = probe(JoinKind::Inner, &mut cursor, 2).unwrap();
        assert_eq!(b.to_rows(), [&whole[1..2], &whole[4..]].concat());
        assert_eq!(cursor, (4, 0));
    }

    /// 10 rows `(k, v)`: `k` = 0..10, `v` NULL on every third row, else
    /// `k * 10` — the first 6 sealed three to a page, the last 4 in the tail.
    fn sealed_then_tail() -> Arc<Table> {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let v = |k: i64| {
            if k % 3 == 0 {
                Value::Null
            } else {
                Value::Int(k * 10)
            }
        };
        let row = |k: i64| -> Row { vec![Value::Int(k), v(k)] };
        let head = Table::from_rows("t", schema, (0..6).map(row).collect()).unwrap();
        let pool = Arc::new(crate::BufferPool::with_budget(64));
        let mut t = head.seal(&pool, 3).unwrap();
        t.extend((6..10).map(row)).unwrap();
        Arc::new(t)
    }

    fn batches_of(mut scan: TableScan) -> Vec<Vec<Row>> {
        let mut out = Vec::new();
        while let Some(b) = scan.next_batch().unwrap() {
            assert!(b.num_rows() > 0, "batches are never empty");
            out.push(b.to_rows());
        }
        out
    }

    #[test]
    fn prune_hints_drop_rows_inside_pages_and_the_tail() {
        let t = sealed_then_tail();
        let hint = |col: &str, op, lit: i64| vec![(col.to_string(), op, Value::Int(lit))];
        for bs in [1usize, 2, 1024] {
            let scan = || TableScan::new(Arc::clone(&t)).with_batch_size(bs);
            // A hint on a column with NULLs: NULL fails it, as it fails the
            // filter above. The survivors straddle the seal boundary.
            let got = batches_of(scan().with_prune_hint(&hint("v", BinOp::Ge, 40)));
            let at_least_40 = |r: &&Row| r[1].as_int().is_some_and(|v| v >= 40);
            let want: Vec<Row> = t.rows().iter().filter(at_least_40).cloned().collect();
            assert_eq!(got.concat(), want, "batch size {bs}");
            // The hint column need not be selected to be read.
            let only_k = scan().with_columns(&[0]);
            let got = batches_of(only_k.with_prune_hint(&hint("v", BinOp::Lt, 50)));
            let want: Vec<Row> = [1i64, 2, 4].iter().map(|&k| vec![Value::Int(k)]).collect();
            assert_eq!(got.concat(), want, "batch size {bs}");
            // Two hints: both must hold.
            let mut both = hint("k", BinOp::Gt, 4);
            both.extend(hint("v", BinOp::Ne, 70));
            let got = batches_of(scan().with_prune_hint(&both));
            let ks: Vec<Value> = got.concat().into_iter().map(|r| r[0].clone()).collect();
            assert_eq!(ks, vec![Value::Int(5), Value::Int(8)], "batch size {bs}");
            // No survivor anywhere: every run is skipped, none yields an
            // empty batch, and the scan ends. Page 1's zone map admits the
            // hint (40 ≤ 45 ≤ 50) and the tail has none, so dropping their
            // rows is the row hints' doing.
            let none = batches_of(scan().with_prune_hint(&hint("v", BinOp::Eq, 45)));
            assert!(none.is_empty(), "batch size {bs}");
        }
    }

    #[test]
    fn a_pruned_run_decodes_no_selected_page() {
        // `v = 45` fails page 0's zone map (max 20) and passes page 1's
        // (40 ≤ 45 ≤ 50), where no row holds it: of page 1 the hint
        // column is decoded and the selected column `k` is not.
        let t = sealed_then_tail();
        let pool = Arc::clone(t.paged().unwrap().pool());
        let misses = || pool.status().misses;
        let before = misses();
        let hint = vec![("v".to_string(), BinOp::Eq, Value::Int(45))];
        let scan = TableScan::new(Arc::clone(&t))
            .with_columns(&[0])
            .with_prune_hint(&hint);
        assert!(batches_of(scan).is_empty());
        assert_eq!(misses() - before, 1, "only page 1 of `v` is decoded");
    }

    #[test]
    fn batched_limit_stays_lazy_past_the_limit() {
        // Row 3 divides by zero; LIMIT 2 must never evaluate it, at any
        // batch size.
        let rows = [1i64, 2, 0, 4]
            .iter()
            .map(|&x| vec![Value::Int(x)])
            .collect();
        let t = table(&[("x", DataType::Int)], rows);
        for bs in [1usize, 2, 1024] {
            let (out, _) = drain(Box::new(Limit::new(divide_ten_by(scan(&t, bs), "x"), 2)));
            assert_eq!(
                out.rows(),
                [vec![Value::Int(10)], vec![Value::Int(5)]],
                "batch size {bs}"
            );
        }
        // Without the limit, the error is hit.
        assert!(collect("out", divide_ten_by(scan(&t, 1024), "x")).is_err());
    }

    #[test]
    fn limit_over_a_fanned_out_join_evaluates_no_pair_past_the_limit() {
        // One left row matches 30 build rows; only the last has `v = 0`, so
        // a projection of `10 / v` raises on the 30th pair and on no other.
        let left = table(&[("k", DataType::Int)], vec![vec![1i64.into()]]);
        let rows = (0..30i64)
            .map(|i| vec![1i64.into(), (29 - i).into()])
            .collect();
        let right = table(&[("rk", DataType::Int), ("v", DataType::Int)], rows);
        let mk = |bs: usize, n: usize| {
            let pairs = join(scan(&left, bs), &right, ("k", "rk"), JoinKind::Inner);
            Box::new(Limit::new(divide_ten_by(pairs, "v"), n))
        };
        for bs in [1usize, 3, 29, 1024] {
            for n in [0usize, 1, 3, 29] {
                let want: Vec<Row> = (0..n as i64)
                    .map(|i| vec![Value::Int(10 / (29 - i))])
                    .collect();
                assert_eq!(
                    drain(mk(bs, n)).0.rows(),
                    want,
                    "batch size {bs}, limit {n}"
                );
            }
            assert!(collect("out", mk(bs, 30)).is_err(), "batch size {bs}");
        }
        // A LEFT join under a limit returns a prefix of its unlimited rows.
        let mk = |n: usize| {
            let pairs = join(
                scan(&films(), 2),
                &posters(),
                ("id", "film_id"),
                JoinKind::Left,
            );
            Box::new(Limit::new(pairs, n))
        };
        let (whole, _) = drain(mk(10));
        assert_eq!(whole.len(), 4);
        for n in [0usize, 1, 2, 3, 4] {
            assert_eq!(drain(mk(n)).0.rows(), &whole.rows()[..n], "limit {n}");
        }
    }

    #[test]
    fn batched_distinct_dedupes_across_batches() {
        let mk = |bs: usize| Box::new(Distinct::new(scan(&films_twice(), bs)));
        let (bat, batches) = drain(mk(3));
        assert_eq!(bat, drain(mk(1024)).0);
        assert_eq!(bat.len(), 4);
        assert!(batches >= 2); // second pass is all duplicates, skipped
    }

    #[test]
    fn batch_count_tracks_scan_batch_size() {
        assert_eq!(drain(scan(&films(), 2)).1, 2); // 4 rows / 2 per batch
        assert_eq!(drain(scan(&films(), 1024)).1, 1);
    }

    #[test]
    fn index_scan_yields_positions_in_order() {
        let t = films();
        let (got, _) = drain(Box::new(IndexScan::new(Arc::clone(&t), vec![0, 3])));
        let ids: Vec<&Value> = got.rows().iter().map(|r| &r[0]).collect();
        assert_eq!(ids, [&Value::Int(1), &Value::Int(4)]);
        // One position per batch produces the same table.
        let (bat, batches) = drain(Box::new(IndexScan::new(t, vec![0, 3]).with_batch_size(1)));
        assert_eq!((bat, batches), (got, 2));
    }

    #[test]
    fn batched_filter_skips_empty_batches() {
        // With batch size 1, three of four batches fail the predicate; the
        // batched filter must keep pulling rather than report exhaustion.
        let filt = Filter::new(scan(&films(), 1), col_cmp("year", BinOp::Eq, 1975i64));
        let (t, batches) = drain(Box::new(filt));
        assert_eq!((t.len(), batches), (1, 1));
    }

    #[test]
    fn aggregate_hands_out_its_rows_a_batch_at_a_time() {
        // The breaker cuts its groups by the input's batch size, and
        // narrows to a limit's cap.
        let groups = |batch_size| {
            let count = vec![agg(AggFunc::CountStar, None, "n")];
            HashAggregate::new(scan(&films(), batch_size), vec!["year".into()], count).unwrap()
        };
        let (t, batches) = drain(Box::new(groups(2)));
        assert_eq!((t.len(), batches), (3, 2));
        let mut narrowed = groups(1024);
        narrowed.narrow(1);
        assert_eq!(narrowed.next_batch().unwrap().unwrap().num_rows(), 1);
        let top = Limit::new(Box::new(groups(1024)), 2);
        assert_eq!(drain(Box::new(top)).1, 1);
        // Row by row, the inherent `next` reads the same stream.
        let (mut one_by_one, mut rows) = (groups(2), Vec::new());
        while let Some(row) = one_by_one.next().unwrap() {
            rows.push(row);
        }
        assert_eq!(rows, t.rows());
    }
}

//! Relational operators.
//!
//! KathDB's FAO bodies compile down to pipelines of these operators; the
//! classical pull model gives the system the "clear query semantics and
//! high efficiency" of a traditional DBMS (§1) underneath the model-driven
//! layer. There is one protocol: an operator hands out columnar batches.

use crate::batch::{ColumnVector, RowBatch, DEFAULT_BATCH_SIZE};
use crate::exact_sum::ExactSum;
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
        out.append_batch(batch)?;
    }
    Ok((out, batches))
}

/// A WHERE conjunct a [`TableScan`] applies in the filter's stead:
/// `(column, op, literal)`, `column` an ordinal of the scanned table. A row
/// passes when `value <op> literal` is TRUE under [`Value::sql_cmp`].
pub type ScanHint = (usize, BinOp, Value);

/// Full scan over a shared table (optionally restricted to a row range, the
/// unit a [`crate::MorselSource`] hands to parallel workers).
///
/// The table is walked one row group at a time. Its hints are `column <op>
/// literal` conjuncts of the WHERE clause above, which the scan applies in
/// the plan's stead — the plan's filter keeps only the rest. A group whose
/// zone maps prove no row can satisfy a hint is skipped whole, a sealed
/// one before its pages are ever decoded. No batch spans a group boundary.
///
/// Batches are materialized late: the hints are evaluated first, on the
/// hint columns alone, by the one literal-compare kernel expressions use
/// ([`ColumnVector::retain_cmp`]), and the selected columns are copied
/// only at the positions that survive — typed slices and gathers of the
/// group's columns, decoded pages or open columns alike. A run of rows
/// with no survivor copies nothing and yields no batch.
pub struct TableScan {
    table: Arc<Table>,
    cursor: usize,
    end: usize,
    batch_size: usize,
    // (column ordinal, op, literal) conjuncts: zone-map pruning of pages
    // and the rows the scan keeps. Ordinals stay full-table even under a
    // column restriction.
    hints: Vec<ScanHint>,
    // The positions of the current run that pass every hint; reused from
    // run to run.
    keep: Vec<usize>,
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
            hints: Vec::new(),
            keep: Vec::new(),
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

    /// Attaches hints: `(column, op, literal)` conjuncts, `column` a
    /// full-table ordinal, that the scan applies — it yields exactly the
    /// rows for which every `value <op> literal` is TRUE. Groups a hint's
    /// zone map proves empty are skipped (a sealed one without decoding),
    /// and the rows of the remaining groups that fail a hint are dropped
    /// before anything else of them is copied. An ordinal past the table's
    /// columns is an error, never a hint left out.
    pub fn with_hints(mut self, hints: &[ScanHint]) -> Result<Self, StorageError> {
        let arity = self.table.schema().arity();
        if let Some((c, ..)) = hints.iter().find(|(c, ..)| *c >= arity) {
            return Err(StorageError::UnknownColumn(format!("#{c}")));
        }
        self.hints = hints.to_vec();
        Ok(self)
    }

    /// Restricts the scan to the given column ordinals (full-table
    /// ordinals, in output order): the scan's schema becomes the
    /// projection, and rows and batches carry only the selected columns —
    /// unselected columns' sealed pages are never even decoded (a hint
    /// column that is not selected is decoded for the hint alone).
    /// Hints keep addressing full-table ordinals and are unaffected.
    pub fn with_columns(mut self, ordinals: &[usize]) -> Self {
        self.columns = Selected::only(&self.table, ordinals);
        self
    }

    /// The batch of hint survivors among the next batch-sized run of rows
    /// of the group the cursor is in (`None` when there are none); advances
    /// the cursor past the run, or past the whole group when its zone maps
    /// prove it empty. Hint columns are read first; the selected ones only
    /// if a row survives.
    fn group_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        let table = Arc::clone(&self.table);
        let g = self.cursor / table.page_rows();
        let group = &table.groups()[g];
        let (start, end) = table.group_bounds(g);
        let upper = end.min(self.end);
        if group.prunes(&self.hints) {
            self.cursor = upper;
            return Ok(None);
        }
        // Positions are offsets into the group's columns.
        let from = self.cursor - start;
        let to = (self.cursor + self.batch_size).min(upper) - start;
        self.cursor = start + to;
        let keep = &mut self.keep;
        keep.clear();
        keep.extend(from..to);
        for (c, op, lit) in &self.hints {
            group.read_column(*c, |column| column.retain_cmp(*op, lit, keep))?;
            if keep.is_empty() {
                return Ok(None);
            }
        }
        let whole = keep.len() == to - from;
        let columns = (self.columns.ordinals.iter())
            .map(|&c| {
                group.read_column(c, |column| match whole {
                    true => column.slice(from, to),
                    false => column.gather(keep),
                })
            })
            .collect::<Result<_, _>>()?;
        RowBatch::from_columns(columns).map(Some)
    }
}

impl Operator for TableScan {
    fn schema(&self) -> &Schema {
        self.columns.schema(&self.table)
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        // One iteration per batch-sized run of rows (or skipped group); a
        // run no row of which survives the hints yields nothing and the
        // loop moves on.
        loop {
            self.guard.check()?;
            if self.cursor >= self.end {
                return Ok(None);
            }
            if let Some(batch) = self.group_batch()? {
                return Ok(Some(batch));
            }
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
                .eval_ref(&batch, self.input.schema())?
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
        // Computed outputs are evaluated over the batch, in order; a bare
        // column reference then moves its column out of the batch (its last
        // reference does; an earlier one copies it).
        let schema = self.input.schema();
        let mut outputs = Vec::with_capacity(self.exprs.len());
        let mut uses = vec![0usize; batch.num_columns()];
        for e in &self.exprs {
            outputs.push(match e {
                Expr::Col(name) => {
                    let c = schema.resolve(name)?;
                    uses[c] += 1;
                    Err(c)
                }
                e => Ok(e.eval_batch(&batch, schema)?),
            });
        }
        let mut source = batch.into_columns();
        let columns = (outputs.into_iter())
            .map(|out| {
                out.unwrap_or_else(|c| {
                    uses[c] -= 1;
                    match uses[c] {
                        0 => {
                            std::mem::replace(&mut source[c], ColumnVector::from_values(Vec::new()))
                        }
                        _ => source[c].clone(),
                    }
                })
            })
            .collect();
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
/// columnar form, their distinct keys numbered by a [`KeyIndex`], each
/// key's build positions, and the right schema. Building it once and
/// sharing it behind an `Arc` is what lets parallel workers probe the same
/// table from independent per-morsel pipelines (the build is the pipeline
/// breaker; the probe is streaming).
#[derive(Debug)]
pub struct JoinBuild {
    // The distinct keys, in order of first appearance.
    index: KeyIndex,
    // Key `k`'s build positions, in build order, are
    // `positions[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<usize>,
    positions: Vec<usize>,
    // The build rows, and the key's column in them.
    rows: RowBatch,
    key: usize,
    right_schema: Schema,
}

impl JoinBuild {
    /// Drains `right` into the hash table keyed on `right_col`. The rows
    /// with a NULL key are kept but never matched (the probe looks no NULL
    /// up, as SQL equi-joins match no NULL).
    pub fn build(mut right: Box<dyn Operator>, right_col: &str) -> Result<Self, StorageError> {
        let key = right.schema().resolve(right_col)?;
        let right_schema = right.schema().clone();
        let empty = || ColumnVector::from_values(Vec::new());
        let mut columns: Vec<ColumnVector> = (0..right_schema.arity()).map(|_| empty()).collect();
        while let Some(batch) = right.next_batch()? {
            for (column, more) in columns.iter_mut().zip(batch.into_columns()) {
                column.extend(more);
            }
        }
        let rows = RowBatch::from_columns(columns)?;
        // Each row's key number, a new key confirmed against no earlier
        // key's first row; then each key's rows laid out contiguously.
        let keys = rows.column(key);
        let mut hashes = vec![0u64; rows.num_rows()];
        keys.hash_into(&mut hashes);
        let (mut index, mut first) = (KeyIndex::default(), Vec::new());
        let numbered: Vec<usize> = (hashes.iter().enumerate())
            .map(|(i, &hash)| {
                let same = |k: usize| keys.eq_at(i, keys, first[k]);
                index.find(hash, same).unwrap_or_else(|| {
                    first.push(i);
                    index.insert(hash)
                })
            })
            .collect();
        let mut offsets = vec![0; first.len() + 1];
        numbered.iter().for_each(|&k| offsets[k + 1] += 1);
        (1..offsets.len()).for_each(|k| offsets[k] += offsets[k - 1]);
        let (mut next, mut positions) = (offsets.clone(), vec![0; numbered.len()]);
        for (i, &k) in numbered.iter().enumerate() {
            positions[next[k]] = i;
            next[k] += 1;
        }
        Ok(Self {
            index,
            offsets,
            positions,
            rows,
            key,
            right_schema,
        })
    }

    /// The key number of each slot of `keys`, a probe side's key column:
    /// the column hashed once, each candidate confirmed against its key's
    /// first build row in place (NULL never matches).
    pub(crate) fn key_numbers(&self, keys: &ColumnVector) -> Vec<Option<usize>> {
        let mut hashes = vec![0u64; keys.len()];
        keys.hash_into(&mut hashes);
        let build = self.rows.column(self.key);
        (hashes.iter().enumerate())
            .map(|(i, &hash)| {
                let same = |k: usize| keys.eq_at(i, build, self.positions[self.offsets[k]]);
                (!keys.is_null(i)).then(|| self.index.find(hash, same))?
            })
            .collect()
    }

    /// Schema of the build (right) side.
    pub fn right_schema(&self) -> &Schema {
        &self.right_schema
    }

    /// The one probe routine, columnar: takes each `left` row's key number
    /// from `keys` ([`JoinBuild::key_numbers`] of its key column), from the
    /// position `cursor` holds, pairs each left position with its matching
    /// build rows in forward match order (a left row without a match pairs
    /// once with a NULL pad under [`JoinKind::Left`], not at all under
    /// [`JoinKind::Inner`]), and assembles the joined batch by typed gather
    /// — left columns at the left positions, then build columns at the
    /// matched ones.
    ///
    /// `cursor` is `(left row, matches of it already paired)`. The call
    /// stops at exactly `cap` pairs, in the middle of a match list if need
    /// be, and leaves `cursor` at the first pair not yet made. `None`: the
    /// rest of `left` produced no output.
    pub(crate) fn probe(
        &self,
        left: &RowBatch,
        keys: &[Option<usize>],
        kind: JoinKind,
        cursor: &mut (usize, usize),
        cap: usize,
    ) -> Result<Option<RowBatch>, StorageError> {
        // Room for a full output batch up front; a cap far past one batch
        // (no cap at all) grows as pairs come.
        let room = cap.min(left.num_rows().max(DEFAULT_BATCH_SIZE));
        let mut left_at: Vec<usize> = Vec::with_capacity(room);
        let mut build_at: Vec<Option<usize>> = Vec::with_capacity(room);
        while cursor.0 < left.num_rows() && left_at.len() < cap {
            let (i, done) = *cursor;
            let hits = keys[i].map_or(&[][..], |k| {
                &self.positions[self.offsets[k]..self.offsets[k + 1]]
            });
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
    // Probe state: the current left batch, its rows' key numbers and the
    // probe's cursor in it.
    lbatch: Option<(RowBatch, Vec<Option<usize>>)>,
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
            if let Some((left, keys)) = &self.lbatch {
                let probed = self
                    .built
                    .probe(left, keys, self.kind, &mut self.lcursor, cap)?;
                if probed.is_some() {
                    return Ok(probed);
                }
            }
            let Some(left) = self.left.next_batch()? else {
                self.lbatch = None;
                return Ok(None);
            };
            let keys = self.built.key_numbers(left.column(self.left_key));
            self.lbatch = Some((left, keys));
            self.lcursor = (0, 0);
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
///
/// The engine does not use it: a SELECT folds one [`PartialAggregate`] per
/// morsel. It stays exported only because the repo benchmark's aggregation
/// kernel (`benchmark/src/kernels.rs`) and the storage parity references
/// call it; ROADMAP item 3(a) deletes it.
pub struct HashAggregate {
    schema: Schema,
    groups: RowBatch,
    // The first group not yet handed out.
    next: usize,
    batch_size: usize,
}

#[derive(Clone, Default)]
struct AggState {
    count: i64,
    sum: ExactSum,
    // The minimum and the maximum, each the first of equal values.
    extremes: [Option<Value>; 2],
}

/// What a value must compare as to replace `extremes[0]` and `extremes[1]`.
const WINS: [Ordering; 2] = [Ordering::Less, Ordering::Greater];

impl AggState {
    /// Folds a later partial's state into this one. `other` must cover rows
    /// that come *after* this state's rows in scan order: of equal extremes
    /// the first stays. Counts and exact sums merge in any order.
    fn absorb(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum.absorb(&other.sum);
        for ((mine, theirs), wins) in self.extremes.iter_mut().zip(&other.extremes).zip(WINS) {
            if let Some(v) = theirs {
                if mine.as_ref().is_none_or(|m| v.total_cmp(m) == wins) {
                    *mine = Some(v.clone());
                }
            }
        }
    }

    fn finish(&self, func: AggFunc, rows_in_group: i64) -> Value {
        let [min, max] = &self.extremes;
        match func {
            AggFunc::CountStar => Value::Int(rows_in_group),
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum | AggFunc::Avg if self.count == 0 => Value::Null,
            AggFunc::Sum => Value::Float(self.sum.rounded()),
            AggFunc::Avg => Value::Float(self.sum.rounded() / self.count as f64),
            AggFunc::Min => min.clone().unwrap_or(Value::Null),
            AggFunc::Max => max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Folds one aggregate's input column into its per-group states along
/// `groups` (row `i` belongs to group `groups[i]`), matched once on the
/// column's kind: COUNT, SUM and AVG count each non-NULL slot and add the
/// numeric ones to the group's [`ExactSum`], and MIN and MAX compare in
/// place and copy a value out only when the extreme changes. A `Mixed`
/// column reads its values one at a time in the same loop.
fn fold_column(func: AggFunc, states: &mut [AggState], groups: &[usize], c: &ColumnVector) {
    fn add(
        states: &mut [AggState],
        groups: &[usize],
        c: &ColumnVector,
        x: impl Fn(usize) -> Option<f64>,
    ) {
        for (i, &g) in groups.iter().enumerate().filter(|&(i, _)| !c.is_null(i)) {
            states[g].count += 1;
            if let Some(x) = x(i) {
                states[g].sum.add(x);
            }
        }
    }
    use crate::ColumnData;
    match (func, c.data()) {
        (AggFunc::CountStar, _) => {}
        (AggFunc::Min | AggFunc::Max, _) => {
            let e = (func == AggFunc::Max) as usize;
            for (i, &g) in groups.iter().enumerate().filter(|&(i, _)| !c.is_null(i)) {
                let extreme = &mut states[g].extremes[e];
                if extreme.as_ref().is_none_or(|m| c.cmp_at(i, m) == WINS[e]) {
                    *extreme = Some(c.value(i));
                }
            }
        }
        (_, ColumnData::Int(v)) => add(states, groups, c, |i| Some(v[i] as f64)),
        (_, ColumnData::Float(v)) => add(states, groups, c, |i| Some(v[i])),
        (_, ColumnData::Mixed(v)) => add(states, groups, c, |i| v[i].as_f64()),
        _ => add(states, groups, c, |_| None),
    }
}

/// Distinct keys numbered in order of first appearance, found by hash: the
/// newest key with each hash, and for each key the one before it with the
/// same hash. The caller holds the keys and confirms a candidate.
#[derive(Debug, Default)]
pub(crate) struct KeyIndex {
    newest: HashMap<u64, usize, std::hash::BuildHasherDefault<Prehashed>>,
    chain: Vec<Option<usize>>,
    hashes: Vec<u64>,
}

impl KeyIndex {
    /// The newest key hashed `hash` that `same` accepts.
    pub(crate) fn find(&self, hash: u64, same: impl Fn(usize) -> bool) -> Option<usize> {
        let newest = self.newest.get(&hash).copied();
        std::iter::successors(newest, |&k| self.chain[k]).find(|&k| same(k))
    }

    /// Keys numbered so far.
    pub(crate) fn len(&self) -> usize {
        self.chain.len()
    }

    /// Numbers a new key hashed `hash`.
    pub(crate) fn insert(&mut self, hash: u64) -> usize {
        let k = self.chain.len();
        self.chain.push(self.newest.insert(hash, k));
        self.hashes.push(hash);
        k
    }
}

/// The distinct non-NULL keys of a column read in parts (a table's groups),
/// numbered in order of first appearance by typed hash ([`KeyIndex`], the
/// hash join's numbering): each new key's slot is copied out once, so a
/// later part confirms its candidates against it in place.
#[derive(Debug)]
pub(crate) struct DistinctKeys {
    index: KeyIndex,
    keys: ColumnVector,
}

impl Default for DistinctKeys {
    fn default() -> Self {
        Self {
            index: KeyIndex::default(),
            keys: ColumnVector::from_values(Vec::new()),
        }
    }
}

impl DistinctKeys {
    /// Keys numbered so far.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The key number of each of the first `rows` slots of `column`
    /// (`None` for NULL), numbering the keys not seen before.
    pub(crate) fn number(&mut self, column: &ColumnVector, rows: usize) -> Vec<Option<usize>> {
        let hashes = Self::hashes(column);
        let (known, mut fresh) = (self.index.len(), Vec::new());
        let numbers = (0..rows)
            .map(|i| {
                if column.is_null(i) {
                    return None;
                }
                let same = |k: usize| match k.checked_sub(known) {
                    None => column.eq_at(i, &self.keys, k),
                    Some(new) => column.eq_at(i, column, fresh[new]),
                };
                let found = self.index.find(hashes[i], same);
                Some(found.unwrap_or_else(|| {
                    fresh.push(i);
                    self.index.insert(hashes[i])
                }))
            })
            .collect();
        self.keys.extend(column.gather(&fresh));
        numbers
    }

    /// The key number of each of the first `rows` slots of `column`, or
    /// `None` for NULL and for a key not numbered.
    pub(crate) fn find(&self, column: &ColumnVector, rows: usize) -> Vec<Option<usize>> {
        let hashes = Self::hashes(column);
        (0..rows)
            .map(|i| {
                let same = |k: usize| column.eq_at(i, &self.keys, k);
                (!column.is_null(i)).then(|| self.index.find(hashes[i], same))?
            })
            .collect()
    }

    fn hashes(column: &ColumnVector) -> Vec<u64> {
        let mut hashes = vec![0u64; column.len()];
        column.hash_into(&mut hashes);
        hashes
    }
}

/// Hashes a `u64` that is already a hash as itself.
#[derive(Default)]
struct Prehashed(u64);

impl std::hash::Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes
            .iter()
            .fold(self.0, |h, &b| h.rotate_left(8) ^ b as u64);
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Thread-local partial state of a hash aggregation. Groups are numbered in
/// order of first appearance, which is the output order; each group keeps
/// its key, its row count and one state per aggregate (`states[a][g]`).
/// [`HashAggregate`] is one partial consumed serially; a parallel
/// aggregation builds one partial per morsel and [`PartialAggregate::merge`]s
/// them **in morsel order**, which reproduces the exact group order of a
/// serial run; sums are exact, so their bits never depend on the split.
///
/// A batch is absorbed column by column: the key columns hash every row
/// into a group id ([`ColumnVector::hash_into`]; a candidate group is
/// confirmed by comparing each key slot in place with the group's stored
/// key, and only a group's first row copies its key out), then each
/// aggregate folds its input column along the group ids by type.
pub struct PartialAggregate {
    key_idx: Vec<usize>,
    agg_idx: Vec<Option<usize>>,
    aggregates: Vec<Aggregate>,
    schema: Schema,
    global: bool,
    // Group ids by hash, and each group's key.
    index: KeyIndex,
    keys: Vec<Vec<Value>>,
    rows: Vec<i64>,
    states: Vec<Vec<AggState>>,
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
            states: vec![Vec::new(); aggregates.len()],
            aggregates,
            schema,
            global: group_by.is_empty(),
            index: KeyIndex::default(),
            keys: Vec::new(),
            rows: Vec::new(),
        })
    }

    /// Output schema: group keys followed by aggregate outputs.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The group whose hash is `hash` and whose key `same` accepts; a new
    /// one keyed `key()` when there is none.
    fn group(
        &mut self,
        hash: u64,
        same: impl Fn(&[Value]) -> bool,
        key: impl FnOnce() -> Vec<Value>,
    ) -> usize {
        if let Some(g) = self.index.find(hash, |g| same(&self.keys[g])) {
            return g;
        }
        let g = self.index.insert(hash);
        self.keys.push(key());
        self.rows.push(0);
        for states in &mut self.states {
            states.push(AggState::default());
        }
        g
    }

    /// Folds one batch into the partial: each row's group id from the key
    /// columns, then every aggregate's input column along those ids.
    pub fn absorb(&mut self, batch: &RowBatch) {
        let n = batch.num_rows();
        let keys: Vec<&ColumnVector> = self.key_idx.iter().map(|&c| batch.column(c)).collect();
        let mut hashes = vec![0u64; n];
        for column in &keys {
            column.hash_into(&mut hashes);
        }
        let groups: Vec<usize> = (hashes.iter().enumerate())
            .map(|(i, &hash)| {
                let same =
                    |key: &[Value]| key.iter().zip(&keys).all(|(v, c)| c.cmp_at(i, v).is_eq());
                self.group(hash, same, || keys.iter().map(|c| c.value(i)).collect())
            })
            .collect();
        for &g in &groups {
            self.rows[g] += 1;
        }
        for ((agg, idx), states) in self
            .aggregates
            .iter()
            .zip(&self.agg_idx)
            .zip(&mut self.states)
        {
            if let Some(c) = idx {
                fold_column(agg.func, states, &groups, batch.column(*c));
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
        for (g, key) in later.keys.into_iter().enumerate() {
            let hash = later.index.hashes[g];
            let mine = self.group(hash, |k| k == key.as_slice(), || key.clone());
            self.rows[mine] += later.rows[g];
            for (states, theirs) in self.states.iter_mut().zip(&later.states) {
                states[mine].absorb(&theirs[g]);
            }
        }
    }

    /// Finalizes into the groups as columns, in group order: the group
    /// keys, then one column per aggregate. With no group keys, emits a
    /// single global row even for empty input, as SQL does.
    pub fn finish(mut self) -> Result<(Schema, RowBatch), StorageError> {
        if self.global && self.keys.is_empty() {
            self.group(0, |_| true, Vec::new);
        }
        let groups = self.keys.len();
        let mut keys: Vec<Vec<Value>> = (0..self.key_idx.len())
            .map(|_| Vec::with_capacity(groups))
            .collect();
        for key in self.keys {
            keys.iter_mut()
                .zip(key)
                .for_each(|(column, v)| column.push(v));
        }
        let aggregates = self
            .states
            .iter()
            .zip(&self.aggregates)
            .map(|(states, agg)| {
                let values = states.iter().zip(&self.rows);
                values
                    .map(|(state, &rows)| state.finish(agg.func, rows))
                    .collect()
            });
        let columns: Vec<ColumnVector> = (keys.into_iter().chain(aggregates))
            .map(ColumnVector::from_values)
            .collect();
        let batch = match columns.is_empty() {
            true => RowBatch::from_rows(0, vec![Vec::new(); groups]),
            false => RowBatch::from_columns(columns)?,
        };
        Ok((self.schema, batch))
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
        let (schema, groups) = partial.finish()?;
        Ok(Self {
            schema,
            groups,
            next: 0,
            batch_size: input.batch_capacity(),
        })
    }

    /// The next group's row, advancing the stream `next_batch` reads. Kept
    /// for the repo benchmark's aggregation kernel (`benchmark/`) only,
    /// which drains groups one at a time.
    #[allow(clippy::should_implement_trait)] // fallible, unlike `Iterator::next`
    pub fn next(&mut self) -> Result<Option<Row>, StorageError> {
        let row = (self.next < self.groups.num_rows()).then(|| self.groups.row(self.next));
        self.next += row.is_some() as usize;
        Ok(row)
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        let end = (self.next + self.batch_size).min(self.groups.num_rows());
        let taken: Vec<usize> = (self.next..end).collect();
        self.next = end;
        Ok((!taken.is_empty()).then(|| self.groups.gather(&taken)))
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

/// A morsel's sorted run, kept as columns: the morsel's batches as they
/// came, its sort keys' columns laid end to end, and the positions of its
/// rows in key order — a permutation, ties in input order, so the run is
/// stable. Under a `LIMIT k` it holds only the first `k` positions. No
/// row is copied until a [`RunMerge`] gathers it.
pub struct SortedRun {
    batches: Vec<RowBatch>,
    // Row `p` of the run is row `p - starts[b]` of batch `b`, the last
    // batch with `starts[b] <= p`.
    starts: Vec<usize>,
    keys: Vec<ColumnVector>,
    order: Vec<usize>,
}

impl SortedRun {
    /// Sorts the rows of `batches` under resolved sort keys: one
    /// permutation, compared slot by slot on each key column's typed
    /// payload ([`ColumnVector::slot_order`]), with the input position as
    /// the last key. With `limit` `Some(k)` below the row count, the `k`
    /// least positions are selected first (`select_nth_unstable_by`, O(n))
    /// and only they are sorted.
    pub fn sort(batches: Vec<RowBatch>, key_idx: &[(usize, bool)], limit: Option<usize>) -> Self {
        let mut starts = Vec::with_capacity(batches.len());
        let mut rows = 0;
        for batch in &batches {
            starts.push(rows);
            rows += batch.num_rows();
        }
        let keys: Vec<ColumnVector> = (key_idx.iter())
            .map(|&(c, _)| ColumnVector::concat_all(batches.iter().map(|b| b.column(c))))
            .collect();
        let mut order: Vec<usize> = (0..rows).collect();
        {
            let orders: Vec<_> = (keys.iter().zip(key_idx))
                .map(|(column, &(_, desc))| column.slot_order(desc))
                .collect();
            let cmp = |a: &usize, b: &usize| {
                (orders.iter())
                    .map(|o| o.cmp(*a, *b))
                    .find(|ord| ord.is_ne())
                    .unwrap_or_else(|| a.cmp(b))
            };
            match limit {
                Some(0) => order.clear(),
                Some(k) if k < rows => {
                    order.select_nth_unstable_by(k - 1, cmp);
                    order.truncate(k);
                }
                _ => {}
            }
            order.sort_unstable_by(cmp);
        }
        Self {
            batches,
            starts,
            keys,
            order,
        }
    }

    /// Rows the run hands to the merge.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the run hands the merge no row.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The `(batch, row)` of the run's row `p`.
    fn locate(&self, p: usize) -> (usize, usize) {
        let b = self.starts.partition_point(|&s| s <= p) - 1;
        (b, p - self.starts[b])
    }
}

/// The k-way merge of sorted runs by index: a binary heap of the runs with
/// rows left, least head first, keyed by `(key slots, run)` — so ties go to
/// the earlier run, which reproduces exactly the row order of one stable
/// sort over the runs' rows laid end to end when the runs come in input
/// order (run 0 before run 1, …). Rows leave as batches gathered column by
/// column from the runs' batches, as many as the caller asks for each
/// time, so a consumer that stops after k rows gathers k.
pub struct RunMerge {
    runs: Vec<SortedRun>,
    desc: Vec<bool>,
    // `next[r]`: how many of run `r`'s rows have left.
    next: Vec<usize>,
    // Runs with rows left, a binary min-heap under `Self::before`.
    heap: Vec<usize>,
    // Run `r`'s batch `b` is `sources[first[r] + b]`.
    first: Vec<usize>,
}

impl RunMerge {
    /// Merges `runs` (each sorted under `key_idx`) in run order.
    pub fn new(runs: Vec<SortedRun>, key_idx: &[(usize, bool)]) -> Self {
        let mut first = Vec::with_capacity(runs.len());
        let mut sources = 0;
        for run in &runs {
            first.push(sources);
            sources += run.batches.len();
        }
        let mut merge = Self {
            heap: (0..runs.len()).filter(|&r| !runs[r].is_empty()).collect(),
            next: vec![0; runs.len()],
            desc: key_idx.iter().map(|&(_, desc)| desc).collect(),
            runs,
            first,
        };
        for at in (0..merge.heap.len() / 2).rev() {
            merge.sift_down(at);
        }
        merge
    }

    /// Rows not yet handed out.
    fn remaining(&self) -> usize {
        (self.runs.iter().zip(&self.next))
            .map(|(run, next)| run.len() - next)
            .sum()
    }

    /// Whether run `a`'s head comes before run `b`'s.
    fn before(&self, a: usize, b: usize) -> bool {
        let (ra, rb) = (&self.runs[a], &self.runs[b]);
        let (pa, pb) = (ra.order[self.next[a]], rb.order[self.next[b]]);
        let keys = ra.keys.iter().zip(&rb.keys).zip(&self.desc);
        let ord = keys
            .map(|((ka, kb), &desc)| match desc {
                true => kb.total_cmp_at(pb, ka, pa),
                false => ka.total_cmp_at(pa, kb, pb),
            })
            .find(|ord| ord.is_ne())
            .unwrap_or_else(|| a.cmp(&b));
        ord.is_lt()
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut least = at;
            for child in [l, r] {
                if child < self.heap.len() && self.before(self.heap[child], self.heap[least]) {
                    least = child;
                }
            }
            if least == at {
                return;
            }
            self.heap.swap(at, least);
            at = least;
        }
    }

    /// The next at most `cap` rows (at least one) in merge order, gathered
    /// into one batch; `None` once every run is spent.
    pub fn next_batch(&mut self, cap: usize) -> Result<Option<RowBatch>, StorageError> {
        let mut at: Vec<(usize, usize)> = Vec::with_capacity(cap.min(self.remaining()));
        while at.len() < cap.max(1) {
            let Some(&r) = self.heap.first() else {
                break;
            };
            let run = &self.runs[r];
            let (b, row) = run.locate(run.order[self.next[r]]);
            at.push((self.first[r] + b, row));
            self.next[r] += 1;
            if self.next[r] == run.len() {
                self.heap.swap_remove(0);
            }
            self.sift_down(0);
        }
        if at.is_empty() {
            return Ok(None);
        }
        let sources: Vec<&RowBatch> = self.runs.iter().flat_map(|run| &run.batches).collect();
        match sources.first().map_or(0, |b| b.num_columns()) {
            0 => Ok(Some(RowBatch::from_rows(0, vec![Vec::new(); at.len()]))),
            arity => {
                let columns = (0..arity).map(|c| {
                    let column: Vec<&ColumnVector> = sources.iter().map(|s| s.column(c)).collect();
                    ColumnVector::gather_from(&column, &at)
                });
                RowBatch::from_columns(columns.collect()).map(Some)
            }
        }
    }
}

/// Compares two rows under resolved sort keys (total value order).
///
/// The engine does not use it: a SELECT sorts a [`SortedRun`]'s
/// permutation. It stays exported only because the repo benchmark's sort
/// kernel (`benchmark/src/kernels.rs`) and the storage parity references
/// call the row helpers; ROADMAP item 3(a) deletes them.
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
///
/// Not on the engine path (a SELECT sorts a [`SortedRun`]); exported only
/// for the repo benchmark's sort kernel and the storage parity references,
/// until ROADMAP item 3(a) deletes it.
pub fn sort_rows(rows: &mut [Row], key_idx: &[(usize, bool)]) {
    rows.sort_by(|a, b| cmp_rows(a, b, key_idx));
}

/// K-way merge of stably-sorted runs into one stably-sorted stream: a
/// [`SortedMerge`] collected.
///
/// Not on the engine path (a SELECT merges with [`RunMerge`]); exported
/// only for the repo benchmark's merge kernel and the storage parity
/// references, until ROADMAP item 3(a) deletes it.
pub fn merge_sorted_runs(runs: Vec<Vec<Row>>, key_idx: &[(usize, bool)]) -> Vec<Row> {
    SortedMerge::new(runs, key_idx).collect()
}

/// The lazy k-way merge of stably-sorted row runs: each `next` hands out
/// the least run head. Runs must be ordered by the position of their rows
/// in the original input (run 0 before run 1, …): ties then resolve to the
/// earliest run, which reproduces exactly the row order of a serial stable
/// sort over the concatenated input.
///
/// Not on the engine path (a SELECT merges [`SortedRun`]s with
/// [`RunMerge`]); it backs [`merge_sorted_runs`], which the repo benchmark
/// and the storage parity references call, until ROADMAP item 3(a)
/// deletes both.
pub struct SortedMerge {
    runs: Vec<std::vec::IntoIter<Row>>,
    // `heads[r]`: run `r`'s next row, `None` once it is spent.
    heads: Vec<Option<Row>>,
    key_idx: Vec<(usize, bool)>,
    left: usize,
}

impl SortedMerge {
    /// Merges `runs` under resolved sort keys.
    pub fn new(runs: Vec<Vec<Row>>, key_idx: &[(usize, bool)]) -> Self {
        let left = runs.iter().map(Vec::len).sum();
        let mut runs: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
        let heads = runs.iter_mut().map(Iterator::next).collect();
        Self {
            runs,
            heads,
            key_idx: key_idx.to_vec(),
            left,
        }
    }
}

impl Iterator for SortedMerge {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        // Linear scan over run heads: strictly-less keeps the earliest run
        // on ties (stability). Run counts are small (morsel count), so the
        // scan beats heap bookkeeping for realistic inputs.
        let mut best: Option<(usize, &Row)> = None;
        for (r, head) in self.heads.iter().enumerate() {
            let Some(head) = head else {
                continue;
            };
            if best.is_none_or(|(_, current)| cmp_rows(head, current, &self.key_idx).is_lt()) {
                best = Some((r, head));
            }
        }
        let (r, _) = best?;
        self.left -= 1;
        std::mem::replace(&mut self.heads[r], self.runs[r].next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
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

/// DISTINCT over whole rows: each row hashed over its typed columns
/// ([`ColumnVector::hash_into`]) and numbered by a [`KeyIndex`], a
/// candidate confirmed slot by slot in place ([`ColumnVector::eq_at`],
/// `Value`'s equality). The first occurrence of each row is kept, in input
/// order; the rows kept so far are held as columns, to confirm against.
pub struct Distinct {
    input: Box<dyn Operator>,
    index: KeyIndex,
    // Distinct row `k`, for `k` below the rows kept before the current
    // batch, is slot `k` of these columns.
    kept: Vec<ColumnVector>,
}

impl Distinct {
    /// De-duplicates rows of `input`.
    pub fn new(input: Box<dyn Operator>) -> Self {
        let arity = input.schema().arity();
        Self {
            input,
            index: KeyIndex::default(),
            kept: (0..arity)
                .map(|_| ColumnVector::from_values(Vec::new()))
                .collect(),
        }
    }

    /// The positions of `batch`'s rows that no earlier row equals.
    fn fresh(&mut self, batch: &RowBatch) -> Vec<usize> {
        let mut hashes = vec![0u64; batch.num_rows()];
        for column in batch.columns() {
            column.hash_into(&mut hashes);
        }
        let (before, mut fresh) = (self.index.len(), Vec::new());
        for (i, &hash) in hashes.iter().enumerate() {
            let same = |k: usize| match k.checked_sub(before) {
                None => {
                    (batch.columns().iter().zip(&self.kept)).all(|(c, kept)| c.eq_at(i, kept, k))
                }
                Some(f) => batch.columns().iter().all(|c| c.eq_at(i, c, fresh[f])),
            };
            if self.index.find(hash, same).is_none() {
                self.index.insert(hash);
                fresh.push(i);
            }
        }
        fresh
    }
}

impl Operator for Distinct {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        while let Some(batch) = self.input.next_batch()? {
            let fresh = self.fresh(&batch);
            if fresh.is_empty() {
                continue;
            }
            let kept = match fresh.len() == batch.num_rows() {
                true => batch,
                false => batch.gather(&fresh),
            };
            for (column, more) in self.kept.iter_mut().zip(kept.columns()) {
                column.extend(more.clone());
            }
            return Ok(Some(kept));
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

    /// A group-by over column 0 of `rows` as a row loop computes it:
    /// COUNT(*), then COUNT, SUM, AVG, MIN and MAX of each later column,
    /// each sum one [`ExactSum`] over the group's rows.
    fn aggregated_by_hand(rows: &[Row]) -> Vec<Row> {
        type Acc = (i64, ExactSum, Option<Value>, Option<Value>);
        let inputs = rows[0].len() - 1;
        let mut groups: Vec<(Value, i64, Vec<Acc>)> = Vec::new();
        for row in rows {
            let g = match groups.iter().position(|(k, ..)| *k == row[0]) {
                Some(g) => g,
                None => {
                    groups.push((row[0].clone(), 0, vec![Default::default(); inputs]));
                    groups.len() - 1
                }
            };
            groups[g].1 += 1;
            for (a, v) in row[1..].iter().enumerate().filter(|(_, v)| !v.is_null()) {
                let (count, sum, lo, hi) = &mut groups[g].2[a];
                *count += 1;
                if let Some(x) = v.as_f64() {
                    sum.add(x);
                }
                if lo.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                    *lo = Some(v.clone());
                }
                if hi.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                    *hi = Some(v.clone());
                }
            }
        }
        let finish = |(key, n, accs): (Value, i64, Vec<Acc>)| {
            let mut row = vec![key, Value::Int(n)];
            for (count, sum, lo, hi) in accs {
                let some = count > 0;
                let sum = some.then(|| sum.rounded());
                let avg = sum.map(|s| s / count as f64);
                row.extend([Value::Int(count), sum.into(), avg.into()]);
                row.extend([lo.into(), hi.into()]);
            }
            row
        };
        groups.into_iter().map(finish).collect()
    }

    #[test]
    fn partials_fed_any_batching_and_merged_in_morsel_order_match_a_row_loop() {
        let two53 = 1i64 << 53;
        // Keys equal as values are one group: 1 and 1.0, -0.0 and 0, 2^53
        // and 2^53 as a float (but not 2^53 + 1), NaN and itself, NULL.
        let keys = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(f64::NAN),
            Value::Null,
            Value::Int(two53 + 1),
            Value::Float(two53 as f64),
            Value::Int(two53),
            Value::Str("1".into()),
        ];
        let rows: Vec<Row> = (0..60usize)
            .map(|i| {
                let x = match i % 7 {
                    3 => Value::Null,
                    _ => Value::Float(0.1 * i as f64 + 1.0 / (i as f64 + 3.0)),
                };
                let s = match i % 5 {
                    2 => Value::Null,
                    _ => Value::Str(format!("s{}", (i * 7) % 11)),
                };
                let m = match i % 4 {
                    0 => Value::Int(i as i64 - 20),
                    1 => Value::Float(i as f64 / 3.0),
                    2 => Value::Str(format!("m{}", i % 6)),
                    _ => Value::Null,
                };
                vec![keys[(i * 3) % keys.len()].clone(), x, s, m]
            })
            .collect();
        let schema = Schema::of(&[
            ("k", DataType::Any),
            ("x", DataType::Float),
            ("s", DataType::Str),
            ("m", DataType::Any),
        ]);
        let partial = || {
            let mut aggs = vec![agg(AggFunc::CountStar, None, "n")];
            for c in ["x", "s", "m"] {
                for func in [
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Avg,
                    AggFunc::Min,
                    AggFunc::Max,
                ] {
                    aggs.push(agg(func, Some(c), &format!("{func:?}_{c}")));
                }
            }
            PartialAggregate::new(&schema, &["k".into()], aggs).unwrap()
        };
        // Floats compared bit for bit.
        let exact = |rows: Vec<Row>| -> Vec<Vec<String>> {
            let cell = |v: &Value| match v {
                Value::Float(f) => format!("Float({:x})", f.to_bits()),
                v => format!("{v:?}"),
            };
            rows.iter().map(|r| r.iter().map(cell).collect()).collect()
        };
        let one_pass = exact(aggregated_by_hand(&rows));
        assert_eq!(one_pass.len(), 7, "ten keys, seven groups");
        for b in [1usize, 3, 1024] {
            let batches: Vec<RowBatch> = (rows.chunks(b))
                .map(|c| RowBatch::from_rows(4, c.to_vec()))
                .collect();
            let mut one = partial();
            let mut merged = partial();
            for batch in &batches {
                one.absorb(batch);
                let mut morsel = partial();
                morsel.absorb(batch);
                merged.merge(morsel);
            }
            assert_eq!(
                exact(one.finish().unwrap().1.to_rows()),
                one_pass,
                "one pass, batch {b}"
            );
            assert_eq!(
                exact(merged.finish().unwrap().1.to_rows()),
                one_pass,
                "merged, batch {b}"
            );
        }
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
            rows.extend(b.to_rows());
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
        let keys = build.key_numbers(left.column(1));
        let inner = build.probe(&left, &keys, JoinKind::Inner, &mut cursor, usize::MAX);
        assert_eq!(cursor, (4, 0));
        let (w_a, w_b) = (
            row("w", 1i64.into(), Some((1, "a"))),
            row("w", 1i64.into(), Some((1, "b"))),
        );
        let z_d = row("z", 2i64.into(), Some((2, "d")));
        let want = vec![w_a.clone(), w_b.clone(), z_d.clone()];
        assert_eq!(inner.unwrap().unwrap().to_rows(), want);
        // LEFT: an unmatched row pads the build side's arity with NULLs.
        let left_join = build.probe(&left, &keys, JoinKind::Left, &mut (0, 0), usize::MAX);
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
        let keys = build.key_numbers(left.column(1));
        let probe = |kind, cursor: &mut (usize, usize), cap| {
            build.probe(&left, &keys, kind, cursor, cap).unwrap()
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
    /// `k * 10` — the first 6 in two sealed groups of three rows, the last
    /// 4 in two open ones (3 + 1 rows).
    fn sealed_then_open(pool: &Arc<crate::BufferPool>) -> Arc<Table> {
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
        let mut t = head.seal(pool, 3).unwrap();
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
        let t = sealed_then_open(&Arc::new(crate::BufferPool::with_budget(64)));
        // Ordinals: `k` is 0, `v` is 1.
        let hint = |col: usize, op, lit: i64| vec![(col, op, Value::Int(lit))];
        for bs in [1usize, 2, 1024] {
            let scan = || TableScan::new(Arc::clone(&t)).with_batch_size(bs);
            // A hint on a column with NULLs: NULL fails it, as it fails the
            // filter above. The survivors straddle the seal boundary.
            let got = batches_of(scan().with_hints(&hint(1, BinOp::Ge, 40)).unwrap());
            let at_least_40 = |r: &&Row| r[1].as_int().is_some_and(|v| v >= 40);
            let want: Vec<Row> = t.rows().iter().filter(at_least_40).cloned().collect();
            assert_eq!(got.concat(), want, "batch size {bs}");
            // The hint column need not be selected to be read.
            let only_k = scan().with_columns(&[0]);
            let got = batches_of(only_k.with_hints(&hint(1, BinOp::Lt, 50)).unwrap());
            let want: Vec<Row> = [1i64, 2, 4].iter().map(|&k| vec![Value::Int(k)]).collect();
            assert_eq!(got.concat(), want, "batch size {bs}");
            // Two hints: both must hold.
            let mut both = hint(0, BinOp::Gt, 4);
            both.extend(hint(1, BinOp::Ne, 70));
            let got = batches_of(scan().with_hints(&both).unwrap());
            let ks: Vec<Value> = got.concat().into_iter().map(|r| r[0].clone()).collect();
            assert_eq!(ks, vec![Value::Int(5), Value::Int(8)], "batch size {bs}");
            // No survivor anywhere: every run is skipped, none yields an
            // empty batch, and the scan ends. Page 1's zone map admits the
            // hint (40 ≤ 45 ≤ 50) and the open groups have none, so
            // dropping their rows is the row hints' doing.
            let none = batches_of(scan().with_hints(&hint(1, BinOp::Eq, 45)).unwrap());
            assert!(none.is_empty(), "batch size {bs}");
            // A hint past the table's columns is refused, not left out.
            assert!(matches!(
                scan().with_hints(&hint(2, BinOp::Eq, 45)),
                Err(StorageError::UnknownColumn(_))
            ));
        }
    }

    #[test]
    fn a_pruned_run_decodes_no_selected_page() {
        // `v = 45` fails page 0's zone map (max 20) and passes page 1's
        // (40 ≤ 45 ≤ 50), where no row holds it: of page 1 the hint
        // column is decoded and the selected column `k` is not.
        let pool = Arc::new(crate::BufferPool::with_budget(64));
        let t = sealed_then_open(&pool);
        let misses = || pool.status().misses;
        let before = misses();
        let hint = [(1, BinOp::Eq, Value::Int(45))];
        let scan = TableScan::new(Arc::clone(&t))
            .with_columns(&[0])
            .with_hints(&hint)
            .unwrap();
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

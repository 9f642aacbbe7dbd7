//! Planning and execution of parsed SQL against a [`Catalog`].
//!
//! This is the interpreter behind FAO bodies of kind `Sql` (§4: "a function
//! can contain a SQL query over a table").
//!
//! A SELECT is lowered exactly once, by `plan_select`, into a flat
//! `SelectPlan`; [`run_select_auto_guarded`] runs it on the one drive:
//! morsels of its source through a per-morsel pipeline, one merge, one
//! operator tail (docs/execution.md, "One plan, one drive").

use crate::ast::*;
use crate::parser::{parse_statement, SqlParseError};
use kath_storage::{
    drain_guarded, merge_top_k, preferred_vector_strategy, resolve_sort_keys, run_morsels_guarded,
    top_k_entries, AggFunc, Aggregate, BinOp, Catalog, Column, CompileMode, DataType, Distinct,
    ExecMode, Expr, Filter, HashJoin, IndexScan, JoinBuild, JoinKind, Limit, Morsel, MorselSource,
    Operator, PartialAggregate, Project, QueryGuard, RowBatch, RunMerge, Schema, SortKey,
    SortedRun, StorageError, Table, TableScan, Value, VectorMode, VectorStrategy, WalRecord,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Errors from SQL execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Parsing failed.
    Parse(SqlParseError),
    /// The storage layer rejected the plan or data.
    Storage(StorageError),
    /// The query uses a feature outside the KathDB subset.
    Unsupported(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::Storage(e) => write!(f, "{e}"),
            SqlError::Unsupported(m) => write!(f, "unsupported sql: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<SqlParseError> for SqlError {
    fn from(e: SqlParseError) -> Self {
        SqlError::Parse(e)
    }
}

impl From<StorageError> for SqlError {
    fn from(e: StorageError) -> Self {
        SqlError::Storage(e)
    }
}

/// Executes one SQL statement against the catalog. SELECT returns the result
/// table (named `output_name`); CREATE/INSERT mutate the catalog and return
/// an empty/affected summary table. SELECTs run on one worker with the
/// default batch size; callers that choose a strategy or need a guard
/// parse the statement themselves and call [`run_select_auto_guarded`].
pub fn execute(catalog: &mut Catalog, sql: &str, output_name: &str) -> Result<Table, SqlError> {
    match parse_statement(sql)? {
        Statement::Select(select) => run_select_auto_guarded(
            catalog,
            &select,
            output_name,
            ExecMode::default(),
            1,
            VectorMode::Auto,
            CompileMode::Off,
            &QueryGuard::unlimited(),
        )
        .map(|(table, _stats)| table),
        stmt => {
            let record = plan_mutation(catalog, &stmt)?;
            apply_mutation(catalog, &record, output_name)
        }
    }
}

/// Validates a mutating statement against the catalog and lowers it to the
/// logical redo record the durability layer logs — **without applying
/// it**. INSERT row expressions are evaluated here, so the record replays
/// deterministically; all catalog preconditions (table exists / name free,
/// rows type-check) are verified so that a record, once logged, can always
/// be applied. Returns an error for SELECT (not a mutation).
pub fn plan_mutation(catalog: &Catalog, stmt: &Statement) -> Result<WalRecord, SqlError> {
    match stmt {
        Statement::Select(_) => Err(SqlError::Unsupported(
            "SELECT is not a mutation".to_string(),
        )),
        Statement::CreateTable { name, columns } => {
            if catalog.contains(name) {
                return Err(SqlError::Storage(StorageError::TableExists(name.clone())));
            }
            let cols = columns
                .iter()
                .map(|(c, ty)| Ok(Column::new(c.clone(), parse_type(ty)?)))
                .collect::<Result<Vec<_>, SqlError>>()?;
            let schema = Schema::new(cols).map_err(SqlError::Storage)?;
            Ok(WalRecord::CreateTable {
                name: name.clone(),
                schema,
            })
        }
        Statement::Insert { table, rows } => {
            let existing = catalog.get(table)?;
            // A value names no column: it is evaluated over one row of none.
            let empty_schema = Schema::of(&[]);
            let one_row = RowBatch::from_rows(0, vec![Vec::new()]);
            let value = |e: &SqlExpr| -> Result<Value, SqlError> {
                Ok(to_expr(e, &empty_schema)?
                    .eval_batch(&one_row, &empty_schema)?
                    .value(0))
            };
            let mut values_rows = Vec::with_capacity(rows.len());
            for row in rows {
                let values: Vec<Value> = row.iter().map(value).collect::<Result<_, _>>()?;
                // The same arity/type validation `Table::push` applies, so
                // a logged record can never fail to apply — without
                // cloning the table just to type-check.
                existing.schema().check_row(&values)?;
                values_rows.push(values);
            }
            Ok(WalRecord::Insert {
                table: table.clone(),
                rows: values_rows,
            })
        }
        Statement::DropTable { name } => {
            if !catalog.contains(name) {
                return Err(SqlError::Storage(StorageError::UnknownTable(name.clone())));
            }
            Ok(WalRecord::DropTable(name.clone()))
        }
    }
}

/// Applies one statement's redo record to the catalog through
/// [`Catalog::apply`], returning the summary table `execute` reports: the
/// rows an INSERT added, or an empty table. Function-registry records and
/// transaction markers are no statement's effect and are refused.
pub fn apply_mutation(
    catalog: &mut Catalog,
    record: &WalRecord,
    output_name: &str,
) -> Result<Table, SqlError> {
    if let WalRecord::Functions(_)
    | WalRecord::Begin(_)
    | WalRecord::Commit(_)
    | WalRecord::Abort(_) = record
    {
        return Err(SqlError::Unsupported(
            "function-registry records and transaction markers are not statements".to_string(),
        ));
    }
    catalog.apply(record)?;
    let WalRecord::Insert { rows, .. } = record else {
        return Ok(Table::new(output_name, Schema::of(&[])));
    };
    let mut summary = Table::new(output_name, Schema::of(&[("rows_inserted", DataType::Int)]));
    summary.push(vec![Value::Int(rows.len() as i64)])?;
    Ok(summary)
}

/// Execution statistics of one SELECT.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectStats {
    /// Batches the per-morsel pipelines produced; for the vector top-k,
    /// whose morsels score index entries, the batches its index scan
    /// fetched.
    pub batches: usize,
    /// Workers that ran the morsels (1 when the calling thread ran them
    /// alone).
    pub workers: usize,
    /// Wall-clock milliseconds each worker spent in its morsel loop (empty
    /// when one worker ran).
    pub worker_ms: Vec<f64>,
    /// Milliseconds the merge and the tail took: partial-aggregate merge,
    /// sorted-run merge, then projection, DISTINCT and LIMIT.
    pub merge_ms: f64,
    /// Always `false`: there is no compiled drive. Kept for the repo
    /// benchmark, which reads it.
    pub compiled: bool,
    /// Always `0.0`: nothing is compiled. Kept for the repo benchmark.
    pub compile_ms: f64,
}

impl SelectStats {
    /// Stats of a run whose pipelines produced `batches` batches, with one
    /// `worker_ms` entry per worker when more than one ran.
    fn new(batches: usize, worker_ms: Vec<f64>, merge_ms: f64) -> Self {
        let workers = worker_ms.len().max(1);
        Self {
            batches,
            workers,
            worker_ms: if workers > 1 { worker_ms } else { Vec::new() },
            merge_ms,
            ..Self::default()
        }
    }
}

/// One step of the join chain, oriented: `left_col` belongs to the rows
/// accumulated so far, `right_col` to the table this step builds on.
struct JoinStep {
    right: Arc<Table>,
    /// The needed columns of `right` (its own ordinals): what the build
    /// side scans and keeps.
    right_columns: Vec<usize>,
    left_col: String,
    right_col: String,
    kind: JoinKind,
    /// Schema of the step's output: the needed columns of the full joined
    /// schema up to and including `right`'s.
    schema: Schema,
}

/// What becomes of the joined, filtered rows.
enum Shape {
    /// GROUP BY / aggregate calls: the one breaker whose output the plain
    /// sort keys then order.
    Aggregate(AggSpec),
    /// Plain rows, sorted on the plan's sort keys. The sort runs before the
    /// projection when a key names an input column the projection drops
    /// (standard SQL behaviour) or is a computed expression, after it
    /// otherwise. Each computed key is a `hidden` column the joined rows
    /// are extended by; the sort reads it and the projection drops it.
    Rows {
        sort_before: bool,
        hidden: Vec<(String, Expr)>,
    },
}

/// The top-k vector access path: `SELECT ... FROM t ORDER BY
/// SIMILARITY(column, 'query') DESC LIMIT k` with no joins, WHERE,
/// grouping, aggregation, or DISTINCT, served from the table's derived
/// vector index instead of scoring and fully sorting every row.
struct VectorTopk {
    /// The embedding (BLOB) or text (STR) column being searched.
    column: String,
    /// The query text (embedded through the canonical shared embedder).
    query: String,
    k: usize,
    /// Exact (Flat) or approximate (IVF): forced by the [`VectorMode`], or
    /// the cost model's choice from the table's cardinality (§4).
    strategy: VectorStrategy,
}

/// A SELECT lowered against one catalog snapshot: everything the drive
/// needs and nothing materialized. Join build sides and vector-index
/// handles are made when the drive runs.
///
/// The subset has no subqueries, so a statement is exactly one scan, a
/// join chain, an optional filter, one optional breaker, DISTINCT and
/// LIMIT — a flat struct holds it; there is no operator tree to walk.
struct SelectPlan {
    table: Arc<Table>,
    /// How the FROM scan reads less than every row: the sargable WHERE
    /// conjuncts over FROM-table columns ([`prune_conjuncts`]), with which
    /// it skips sealed pages by zone map and drops failing rows before it
    /// materializes them. A superset pre-filter — the full `filter` still
    /// runs above, after the joins. A hint is a shortcut past rows the
    /// WHERE clause would drop anyway, so there are hints only when no
    /// conjunct of the clause can raise ([`Expr::cannot_raise`]): skipping
    /// a row whose evaluation would have failed turns an error into an
    /// answer.
    prune_hints: Vec<(String, BinOp, Value)>,
    joins: Vec<JoinStep>,
    /// The columns the statement reads — filter, join keys, outputs, group
    /// keys, aggregate inputs, sort keys; all of them for `SELECT *` — as
    /// ascending ordinals of the full joined schema (FROM table's columns,
    /// then each joined table's). No scan produces another column, and no
    /// operator carries one.
    needed: Vec<usize>,
    /// Schema of the rows after the join chain: the `needed` columns of
    /// the full joined schema, under the names they have there. `filter`,
    /// `outputs` and the aggregate spec resolve against it by name.
    joined: Schema,
    filter: Option<Expr>,
    shape: Shape,
    /// The SELECT list as projection outputs; `None` for a bare `SELECT *`
    /// (every input column passed through when a computed key sorts it)
    /// and for aggregates (whose output is group keys then aggregates).
    outputs: Option<Vec<(String, Expr)>>,
    /// ORDER BY as plain column keys, over whichever schema `shape` sorts
    /// (hidden column names for computed keys); empty = no sort.
    sort_keys: Vec<SortKey>,
    /// Schema of the result rows.
    out_schema: Schema,
    distinct: bool,
    limit: Option<usize>,
    /// Set when the statement matches the vector pattern and the mode
    /// permits the vector path; `shape` then holds the classical plan the
    /// drive does not run.
    vector: Option<VectorTopk>,
}

/// Lowers `select` against `catalog`. Every planning error a SELECT can
/// raise is raised here, once, in the order a pipeline would meet it —
/// FROM table, joins left to right, WHERE, then the shape — so a statement
/// fails the same way however it would have been scheduled.
fn plan_select(
    catalog: &Catalog,
    select: &Select,
    vector: VectorMode,
) -> Result<SelectPlan, SqlError> {
    let table = catalog.get(&select.from)?;
    let from_arity = table.schema().arity();

    // The statement resolves against the full joined schema; what the plan
    // keeps of it is its projection onto the needed columns, decided last.
    let mut full = table.schema().clone();
    let mut joins = Vec::with_capacity(select.joins.len());
    let mut join_keys = Vec::with_capacity(2 * select.joins.len());
    for j in &select.joins {
        let right = catalog.get(&j.table)?;
        // The ON pair may be written either way round; figure out which
        // side belongs to the accumulated left rows.
        let (left_col, right_col) = orient_on(&full, right.schema(), &j.on_left, &j.on_right)?;
        join_keys.push(full.resolve(&left_col)?);
        join_keys.push(full.arity() + right.schema().resolve(&right_col)?);
        full = full.join(right.schema(), "right");
        joins.push(JoinStep {
            right,
            right_columns: Vec::new(),
            left_col,
            right_col,
            kind: if j.left_outer {
                JoinKind::Left
            } else {
                JoinKind::Inner
            },
            schema: full.clone(),
        });
    }
    let filter = select
        .where_clause
        .as_ref()
        .map(|w| to_expr(w, &full))
        .transpose()?;

    let grouped = select_has_agg(select) || !select.group_by.is_empty();
    let (shape, outputs, sort_keys, out_schema) = match plain_sort_keys(select) {
        None if grouped => {
            return Err(SqlError::Unsupported(
                "expression ORDER BY keys with aggregation".into(),
            ))
        }
        Some(sort_keys) if grouped => {
            let spec = aggregate_spec(select, &full)?;
            let out_schema =
                PartialAggregate::new(&full, &spec.group_names, spec.aggregates.clone())?
                    .schema()
                    .clone();
            resolve_sort_keys(&out_schema, &sort_keys)?;
            (Shape::Aggregate(spec), None, sort_keys, out_schema)
        }
        Some(sort_keys) => {
            let outputs = projection_outputs(select, &full)?;
            let sort_before = outputs
                .as_ref()
                .is_some_and(|outs| sort_before_project(&sort_keys, outs));
            if sort_before {
                resolve_sort_keys(&full, &sort_keys)?;
            }
            let out_schema = match &outputs {
                Some(outs) => Project::output_schema(&full, outs)?,
                None => full.clone(),
            };
            if !sort_before {
                resolve_sort_keys(&out_schema, &sort_keys)?;
            }
            let shape = Shape::Rows {
                sort_before,
                hidden: Vec::new(),
            };
            (shape, outputs, sort_keys, out_schema)
        }
        None => {
            let outputs = projection_outputs(select, &full)?;
            let (hidden, back, sort_keys, out_schema) =
                plan_expression_sort(select, &full, outputs.as_deref())?;
            let shape = Shape::Rows {
                sort_before: true,
                hidden,
            };
            (shape, Some(back), sort_keys, out_schema)
        }
    };

    let prune_hints = match &filter {
        Some(pred) if pred.cannot_raise() => prune_conjuncts(pred, &full, from_arity),
        _ => Vec::new(),
    };

    // Narrow the plan to the columns the statement reads. Every schema
    // below is a projection of `full`, never a join of pruned schemas:
    // `Schema::join` prefixes a right-side name only when the left side
    // still holds its namesake, so re-joining would rebind `right.x` to `x`
    // wherever the left `x` was pruned.
    let needed = needed_columns(
        &full,
        from_arity,
        join_keys,
        filter.as_ref(),
        &shape,
        outputs.as_deref(),
        &sort_keys,
    );
    let kept_below = |ordinal: usize| needed.partition_point(|&c| c < ordinal);
    for step in &mut joins {
        // `step.schema` is still the full schema through this step, so the
        // right table's columns are its last ones.
        let end = step.schema.arity();
        let base = end - step.right.schema().arity();
        let right = &needed[kept_below(base)..kept_below(end)];
        step.right_columns = right.iter().map(|c| c - base).collect();
        step.schema = full.project(&needed[..kept_below(end)]);
    }

    let vector = vector_choice(select, &table, vector);
    Ok(SelectPlan {
        table,
        prune_hints,
        joins,
        joined: full.project(&needed),
        needed,
        filter,
        shape,
        outputs,
        sort_keys,
        out_schema,
        distinct: select.distinct,
        limit: select.limit,
        vector,
    })
}

/// The ordinals of `full` the statement reads, ascending: the join keys and
/// every column the filter, the outputs, the shape or a sort key names.
/// `SELECT *` reads them all. A name that is not a column of `full` — an
/// output alias or a hidden sort column among the sort keys — names no
/// input and is skipped; an alias that happens to equal a column's name
/// keeps that column, which costs a copy and changes nothing.
fn needed_columns(
    full: &Schema,
    from_arity: usize,
    join_keys: Vec<usize>,
    filter: Option<&Expr>,
    shape: &Shape,
    outputs: Option<&[(String, Expr)]>,
    sort_keys: &[SortKey],
) -> Vec<usize> {
    let mut names: Vec<String> = sort_keys.iter().map(|k| k.column.clone()).collect();
    let mut exprs: Vec<&Expr> = filter.into_iter().collect();
    match (shape, outputs) {
        (Shape::Aggregate(spec), _) => {
            names.extend(spec.group_names.iter().cloned());
            names.extend(spec.aggregates.iter().filter_map(|a| a.column.clone()));
        }
        (_, None) => return (0..full.arity()).collect(),
        (Shape::Rows { hidden, .. }, Some(outputs)) => {
            exprs.extend(outputs.iter().chain(hidden).map(|(_, e)| e));
        }
    }
    names.extend(exprs.into_iter().flat_map(Expr::referenced_columns));
    let mut needed = join_keys;
    needed.extend(names.iter().filter_map(|n| full.index_of(n)));
    // A batch's row count is the length of its columns, so a scan that
    // feeds `COUNT(*)` alone still has to produce one.
    if from_arity > 0 && !needed.iter().any(|&c| c < from_arity) {
        needed.push(0);
    }
    needed.sort_unstable();
    needed.dedup();
    needed
}

impl SelectPlan {
    /// Whether the plan is a lazy `LIMIT`: one with no aggregate or sort
    /// beneath it, which must not evaluate rows past the limit (an
    /// erroring expression beyond it stays unreached). It runs as one
    /// morsel whose pipeline carries DISTINCT and LIMIT, so the pipeline
    /// stops at the limit.
    fn lazy_limit(&self) -> bool {
        matches!(self.shape, Shape::Rows { .. })
            && self.limit.is_some()
            && self.sort_keys.is_empty()
    }

    /// How many rows a sorted run keeps: under `LIMIT k` and no DISTINCT
    /// its first k, since every row of the result is among the first k of
    /// its own run (the rows ahead of it there are ahead of it in the merge
    /// too) and ties still go to the earlier run; every row otherwise.
    /// DISTINCT could drop rows the cut kept and need ones it dropped.
    fn cut(&self) -> Option<usize> {
        self.limit.filter(|_| !self.distinct)
    }

    /// The FROM table's rows as the drive's morsels: batch-sized ones at
    /// more than one worker, on a plan that may read every row — aligned
    /// to page boundaries on a sealed table, so no two workers decode the
    /// same column page — and one morsel over the whole table otherwise.
    fn morsel_source(&self, batch: usize, threads: usize) -> MorselSource {
        let align = if self.table.is_paged() {
            self.table.page_rows()
        } else {
            1
        };
        morsels(
            self.table.len(),
            batch,
            align,
            threads > 1 && !self.lazy_limit(),
        )
    }

    /// Materializes every join's build side (the hash table over the
    /// needed columns of its right table): the pipeline breaker the drive
    /// pays before it streams.
    fn build_joins(&self) -> Result<Vec<Arc<JoinBuild>>, StorageError> {
        self.joins
            .iter()
            .map(|j| {
                let right = TableScan::new(Arc::clone(&j.right)).with_columns(&j.right_columns);
                Ok(Arc::new(JoinBuild::build(Box::new(right), &j.right_col)?))
            })
            .collect()
    }

    /// The needed columns of the FROM table: what its scan produces.
    fn scan_columns(&self) -> &[usize] {
        let from_arity = self.table.schema().arity();
        &self.needed[..self.needed.partition_point(|&c| c < from_arity)]
    }

    /// The streaming phase over FROM-table rows `[start, end)`: scan
    /// (restricted to the needed columns, pruned by the hints, checking
    /// `guard`'s deadline and cancel token as it reads) → join probes
    /// against `builds` → filter. `batch` is the mode's batch size, which
    /// pass-through operators inherit.
    fn stream(
        &self,
        (start, end): (usize, usize),
        batch: usize,
        builds: &[Arc<JoinBuild>],
        guard: QueryGuard,
    ) -> Result<Box<dyn Operator>, StorageError> {
        let scan = TableScan::new(Arc::clone(&self.table))
            .with_range(start, end)
            .with_columns(self.scan_columns())
            .with_prune_hint(&self.prune_hints)
            .with_batch_size(batch)
            .with_guard(guard);
        let mut op: Box<dyn Operator> = Box::new(scan);
        for (j, build) in self.joins.iter().zip(builds) {
            let join = HashJoin::from_build(op, Arc::clone(build), &j.left_col, j.kind)?;
            op = Box::new(join.with_schema(j.schema.clone()));
        }
        if let Some(pred) = &self.filter {
            op = Box::new(Filter::new(op, pred.clone()));
        }
        Ok(op)
    }

    /// `op` under the SELECT list's projection (untouched for `SELECT *`).
    fn project(&self, op: Box<dyn Operator>) -> Result<Box<dyn Operator>, StorageError> {
        Ok(match &self.outputs {
            Some(outs) => Box::new(Project::new(op, outs.clone())?),
            None => op,
        })
    }

    /// `op` under DISTINCT and LIMIT, where the statement has them.
    fn distinct_limit(&self, mut op: Box<dyn Operator>) -> Box<dyn Operator> {
        if self.distinct {
            op = Box::new(Distinct::new(op));
        }
        if let Some(n) = self.limit {
            op = Box::new(Limit::new(op, n));
        }
        op
    }

    /// The tail every plan ends in: the merged rows `op` under the SELECT
    /// list's projection when the sort ran before it (`project`), then
    /// DISTINCT, LIMIT, and the guarded drain into the result table, which
    /// charges `guard` for the rows left after DISTINCT and LIMIT — never
    /// for the ones they drop. A `LIMIT` narrows what it pulls, so the
    /// projection runs only for the rows it keeps. Returns the batches the
    /// drain pulled.
    fn finish(
        &self,
        op: Box<dyn Operator>,
        project: bool,
        output_name: &str,
        guard: &QueryGuard,
    ) -> Result<(Table, usize), StorageError> {
        let op = if project { self.project(op)? } else { op };
        drain_guarded(output_name, self.distinct_limit(op), guard)
    }
}

/// `rows` source rows as morsels: `batch`-sized runs rounded up to a
/// multiple of `align` when more than one worker may claim them (`split`),
/// else one morsel over them all, which the calling thread runs.
fn morsels(rows: usize, batch: usize, align: usize, split: bool) -> MorselSource {
    if split {
        MorselSource::with_batch_size_aligned(rows, batch, align)
    } else {
        MorselSource::new(rows, rows)
    }
}

/// The merge's output as the tail's source: the morsels' batches in morsel
/// order, then the rows of the sorted runs in merge order ([`RunMerge`]),
/// gathered into batches of at most `cap` rows. A `LIMIT` narrows the cap,
/// so no row past it is merged, gathered, projected or drained.
struct Merged {
    schema: Schema,
    batches: VecDeque<RowBatch>,
    runs: RunMerge,
    cap: usize,
}

impl Merged {
    fn new(schema: Schema, batches: VecDeque<RowBatch>, runs: RunMerge, cap: usize) -> Box<Self> {
        Box::new(Self {
            schema,
            batches,
            runs,
            cap,
        })
    }
}

impl Operator for Merged {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        if let Some(batch) = self.batches.pop_front() {
            if batch.num_rows() <= self.cap {
                return Ok(Some(batch));
            }
            let all: Vec<usize> = (0..batch.num_rows()).collect();
            let (head, rest) = all.split_at(self.cap);
            self.batches.push_front(batch.gather(rest));
            return Ok(Some(batch.gather(head)));
        }
        self.runs.next_batch(self.cap)
    }

    fn batch_capacity(&self) -> usize {
        self.cap
    }

    fn narrow(&mut self, rows: usize) {
        self.cap = self.cap.min(rows.max(1));
    }
}

/// Runs a SELECT under the engine's physical strategy — the `(mode, dop)`
/// pair — and under a [`QueryGuard`]. This is the one way to run a SELECT:
/// the facade, sessions and the SQL nodes of an NL plan all come through
/// here. `_compile` is ignored: there is no compiled drive; the parameter
/// stays for the repo benchmark, which passes it.
///
/// The statement is planned once and run on the one drive ([`drive`]):
/// `mode` sets the batch size its pipelines cut and `threads` how many
/// workers claim its morsels. One worker runs the whole source as one
/// morsel on the calling thread; more split it into batch-sized morsels.
/// Every value, and the row order, is the same at every `(mode, threads)`:
/// a float `SUM` is the `f64` nearest the exact sum of its inputs (ties to
/// even, an exact zero `+0.0`; a NaN, or both infinities, give NaN, one
/// infinity gives itself; only the final sum can overflow) and `AVG`
/// divides it by the count, however the morsels cut. The top-k vector pattern (`ORDER BY SIMILARITY(col,
/// 'q') DESC LIMIT k`) is an access path of the drive; `VectorMode::Off`
/// keeps the classical full-sort plan, which returns identical rows for
/// the exact (Flat) strategy.
///
/// Planning errors come from the plan, so they are the same at every
/// `(mode, threads)`; a tripped guard surfaces the identical typed error
/// ([`StorageError::Cancelled`] / [`StorageError::Budget`]) everywhere:
/// every morsel's scan checks deadline and cancellation as rows stream,
/// workers re-check between morsels (the earliest morsel's error wins, see
/// [`kath_storage::run_morsels_guarded`]), and the statement's result rows
/// — what is left after DISTINCT and LIMIT — are charged against the
/// row/byte budgets, so a budget trips or not whatever the worker count.
/// `stats` reports how many workers ran.
#[allow(clippy::too_many_arguments)]
pub fn run_select_auto_guarded(
    catalog: &Catalog,
    select: &Select,
    output_name: &str,
    mode: ExecMode,
    threads: usize,
    vector: VectorMode,
    _compile: CompileMode,
    guard: &QueryGuard,
) -> Result<(Table, SelectStats), SqlError> {
    let plan = plan_select(catalog, select, vector)?;
    Ok(drive(
        &plan,
        output_name,
        mode.batch_size(),
        threads,
        guard,
    )?)
}

/// The drive every SELECT runs on: the plan's source in morsels, each
/// through its own pipeline, one merge in morsel order, one operator tail.
///
/// The **source** is the FROM table's rows ([`SelectPlan::morsel_source`]),
/// or, for the vector pattern, the scored entries of the column's vector
/// index. Hash-join **build** sides are materialized once and shared
/// (`Arc<JoinBuild>`). Each morsel's **pipeline** — scan → join probes →
/// filter → hidden sort columns → projection — ends in its breaker: one
/// [`PartialAggregate`] per morsel (typed columns folded along per-row
/// group ids), merged in morsel order (which reproduces the row-order group
/// order), then its groups sorted as one run; or a [`SortedRun`] per
/// morsel — the morsel's batches kept as columns and a permutation of
/// their rows sorted on typed key columns, ties in input order, only the k
/// least selected and sorted under `LIMIT k` without DISTINCT — merged by
/// index ([`RunMerge`]: a heap of run heads keyed by key slots, then run,
/// so ties resolve to the earliest run), which gathers rows into batches
/// only as far as the tail's `LIMIT` asks. The vector pattern keeps a top-k
/// list per morsel instead, merged by (score descending, row position) and
/// padded with unscored rows in row order — every global winner survives
/// its own morsel's local top-k — and fetches the winners with an
/// [`IndexScan`]; an IVF probe, already sublinear, is one morsel. The
/// merged rows leave through the **tail** ([`SelectPlan::finish`]).
///
/// Every merge consumes per-morsel outputs in scan order, so the result is
/// independent of worker count and scheduling.
fn drive(
    plan: &SelectPlan,
    output_name: &str,
    batch: usize,
    threads: usize,
    guard: &QueryGuard,
) -> Result<(Table, SelectStats), StorageError> {
    let (tail, worker_ms, merge_ms) = if let Some(v) = &plan.vector {
        let index = plan.table.vector_index(&v.column)?;
        let query = kath_vector::embed_query(&v.query);
        let fetch = |positions: Vec<usize>| {
            let scan = IndexScan::new(Arc::clone(&plan.table), positions).with_batch_size(batch);
            plan.finish(Box::new(scan), true, output_name, guard)
        };
        match v.strategy {
            VectorStrategy::Flat => {
                let entries = index.entries();
                let source = morsels(entries.len(), batch, 1, threads > 1);
                let run = run_morsels_guarded(&source, threads, guard, |m| {
                    Ok(top_k_entries(&entries[m.start..m.end], &query, v.k))
                })?;
                run.merge(|lists| {
                    let candidates = lists.into_iter().flatten().collect();
                    let mut positions: Vec<usize> = merge_top_k(candidates, v.k)
                        .into_iter()
                        .map(|(pos, _)| pos)
                        .collect();
                    // Pad with unscored rows in row order, exactly like the
                    // full-sort plan's NULL-score tail.
                    let missing = v.k - positions.len();
                    positions.extend(index.unscored().iter().copied().take(missing));
                    fetch(positions)
                })
            }
            VectorStrategy::Ivf => {
                let one = MorselSource::new(1, 1);
                let run = run_morsels_guarded(&one, 1, guard, |_| {
                    Ok(index.search(&query, v.k, VectorStrategy::Ivf))
                })?;
                run.merge(|positions| fetch(positions.into_iter().flatten().collect()))
            }
        }
    } else {
        let source = plan.morsel_source(batch, threads);
        let builds = plan.build_joins()?;
        let stream = |m: Morsel| plan.stream((m.start, m.end), batch, &builds, guard.clone());
        match &plan.shape {
            Shape::Aggregate(spec) => {
                let partial = || {
                    PartialAggregate::new(&plan.joined, &spec.group_names, spec.aggregates.clone())
                };
                let run = run_morsels_guarded(&source, threads, guard, |m| {
                    let mut partial = partial()?;
                    let batches = partial.consume(stream(m)?.as_mut())?;
                    Ok((partial, batches))
                })?;
                run.merge(|partials| -> Result<_, StorageError> {
                    let (mut acc, mut batches) = (partial()?, 0);
                    for (later, b) in partials {
                        acc.merge(later);
                        batches += b;
                    }
                    let (schema, groups) = acc.finish()?;
                    let key_idx = resolve_sort_keys(&schema, &plan.sort_keys)?;
                    let (groups, runs) = match key_idx.is_empty() {
                        true => (VecDeque::from([groups]), Vec::new()),
                        false => {
                            let run = SortedRun::sort(vec![groups], &key_idx, plan.cut());
                            (VecDeque::new(), vec![run])
                        }
                    };
                    let merged = Merged::new(schema, groups, RunMerge::new(runs, &key_idx), batch);
                    let (out, _) = plan.finish(merged, false, output_name, guard)?;
                    Ok((out, batches))
                })
            }
            Shape::Rows {
                sort_before,
                hidden,
            } => {
                // A morsel's run holds what the sort reads: the joined rows
                // (extended by the hidden sort columns) when the sort comes
                // first, the projected rows otherwise.
                let extend = (!hidden.is_empty()).then(|| extended(&plan.joined, hidden));
                let run_schema = match (&extend, sort_before) {
                    (_, false) => plan.out_schema.clone(),
                    (None, true) => plan.joined.clone(),
                    (Some(ext), true) => Project::output_schema(&plan.joined, ext)?,
                };
                let key_idx = resolve_sort_keys(&run_schema, &plan.sort_keys)?;
                // Every row a morsel emits is a result row when it is
                // projected and no DISTINCT or LIMIT is still to come (or
                // the one morsel of a lazy LIMIT carries both): the morsels
                // then charge the guard per batch, so an over-budget scan
                // aborts midway, and the tail charges nothing again.
                let lazy = plan.lazy_limit();
                let charged = !sort_before && (lazy || (!plan.distinct && plan.limit.is_none()));
                let run = run_morsels_guarded(&source, threads, guard, |m| {
                    let mut op = stream(m)?;
                    if let Some(ext) = &extend {
                        op = Box::new(Project::new(op, ext.clone())?);
                    }
                    if !sort_before {
                        op = plan.project(op)?;
                    }
                    if lazy {
                        op = plan.distinct_limit(op);
                    }
                    let mut batches = Vec::new();
                    while let Some(b) = op.next_batch()? {
                        if charged {
                            guard.charge_batch(&b)?;
                        }
                        batches.push(b);
                    }
                    let produced = batches.len();
                    if key_idx.is_empty() {
                        return Ok((batches, None, produced));
                    }
                    let run = SortedRun::sort(batches, &key_idx, plan.cut());
                    Ok((Vec::new(), Some(run), produced))
                })?;
                run.merge(|outputs| -> Result<_, StorageError> {
                    // Unsorted morsels hand over their batches, sorted ones
                    // their runs: concatenated, or merged by index, in morsel
                    // order either way; the tail pulls from the merge only
                    // the rows it keeps.
                    let (mut batches, mut runs, mut produced) = (VecDeque::new(), Vec::new(), 0);
                    for (b, run, n) in outputs {
                        batches.extend(b);
                        runs.extend(run);
                        produced += n;
                    }
                    let runs = RunMerge::new(runs, &key_idx);
                    let merged = Merged::new(run_schema, batches, runs, batch);
                    let unlimited = QueryGuard::unlimited();
                    let tail_guard = if charged { &unlimited } else { guard };
                    let (out, _) = plan.finish(merged, *sort_before, output_name, tail_guard)?;
                    Ok((out, produced))
                })
            }
        }
    };
    let (out, batches) = tail?;
    Ok((out, SelectStats::new(batches, worker_ms, merge_ms)))
}

/// Whether any SELECT item carries an aggregate call.
fn select_has_agg(select: &Select) -> bool {
    select.items.iter().any(|i| match i {
        SelectItem::Expr(e, _) => contains_agg(e),
        SelectItem::Wildcard => false,
    })
}

/// The ORDER BY keys lowered to storage [`SortKey`]s when every key is a
/// bare column; `None` when any key is a computed expression (those plans
/// sort on hidden computed columns — see [`plan_expression_sort`] — or
/// take the vector top-k path).
fn plain_sort_keys(select: &Select) -> Option<Vec<SortKey>> {
    select
        .order_by
        .iter()
        .map(|k| {
            k.as_column().map(|c| SortKey {
                column: c.to_string(),
                desc: k.desc,
            })
        })
        .collect()
}

/// A hidden sort-column name that cannot collide with the input schema.
fn hidden_sort_name(schema: &Schema, i: usize) -> String {
    let mut name = format!("__sort_{i}");
    while schema.index_of(&name).is_some() {
        name.push('_');
    }
    name
}

/// Every column of `schema` passed through under its own name.
fn passthrough(schema: &Schema) -> Vec<(String, Expr)> {
    schema
        .names()
        .iter()
        .map(|n| (n.to_string(), Expr::col(*n)))
        .collect()
}

/// The projection an expression sort runs on: every column of `schema`
/// passed through, then the hidden sort columns.
fn extended(schema: &Schema, hidden: &[(String, Expr)]) -> Vec<(String, Expr)> {
    let mut ext = passthrough(schema);
    ext.extend_from_slice(hidden);
    ext
}

/// Plans ORDER BY with computed (non-column) keys: returns the hidden
/// sort columns, the projection `back` to the result after the sort, the
/// sort keys over the extended schema and the result schema. `outputs` is
/// the SELECT list (`None` for `SELECT *`, which projects the input
/// columns back out after the sort).
#[allow(clippy::type_complexity)]
fn plan_expression_sort(
    select: &Select,
    base: &Schema,
    outputs: Option<&[(String, Expr)]>,
) -> Result<
    (
        Vec<(String, Expr)>,
        Vec<(String, Expr)>,
        Vec<SortKey>,
        Schema,
    ),
    SqlError,
> {
    let back = match outputs {
        Some(outs) => outs.to_vec(),
        None => passthrough(base),
    };
    let mut hidden = Vec::new();
    let mut sort_keys = Vec::with_capacity(select.order_by.len());
    let mut hide = |expr: Expr, i: usize, desc: bool, sort_keys: &mut Vec<SortKey>| {
        let name = hidden_sort_name(base, i);
        hidden.push((name.clone(), expr));
        sort_keys.push(SortKey { column: name, desc });
    };
    for (i, key) in select.order_by.iter().enumerate() {
        match key.as_column() {
            // A bare column may be a SELECT-list alias — which wins, as on
            // the plain sort-after-project path (for a pass-through column
            // the aliased expression computes the identical value) — or an
            // input column the projection drops.
            Some(c) => match back.iter().find(|(n, _)| n == c) {
                Some((_, aliased)) => hide(aliased.clone(), i, key.desc, &mut sort_keys),
                None => sort_keys.push(SortKey {
                    column: c.to_string(),
                    desc: key.desc,
                }),
            },
            None => hide(to_expr(&key.expr, base)?, i, key.desc, &mut sort_keys),
        }
    }
    let ext_schema = Project::output_schema(base, &extended(base, &hidden))?;
    resolve_sort_keys(&ext_schema, &sort_keys)?;
    let out_schema = Project::output_schema(&ext_schema, &back)?;
    Ok((hidden, back, sort_keys, out_schema))
}

/// The vector access path for this SELECT, if it matches the top-k pattern
/// (see [`VectorTopk`]), names a column of the FROM table, and `vector`
/// permits it. Queries outside the pattern (extra sort keys, ASC order,
/// WHERE clauses, joins, DISTINCT) keep the classical plan — the
/// similarity expression still evaluates there via the scalar/batched
/// kernels.
fn vector_choice(select: &Select, table: &Table, vector: VectorMode) -> Option<VectorTopk> {
    let strategy = match vector {
        VectorMode::Off => return None,
        VectorMode::Flat => VectorStrategy::Flat,
        VectorMode::Ivf => VectorStrategy::Ivf,
        VectorMode::Auto => preferred_vector_strategy(table.len()),
    };
    if !select.joins.is_empty()
        || select.where_clause.is_some()
        || !select.group_by.is_empty()
        || select.distinct
        || select_has_agg(select)
    {
        return None;
    }
    let k = select.limit?;
    let [key] = &select.order_by[..] else {
        return None;
    };
    if !key.desc {
        return None;
    }
    let SqlExpr::Call(name, args) = &key.expr else {
        return None;
    };
    if name != "similarity" || args.len() != 2 {
        return None;
    }
    let SqlExpr::Column(qualifier, column) = &args[0] else {
        return None;
    };
    if qualifier.as_deref().is_some_and(|q| q != select.from) {
        return None;
    }
    let SqlExpr::Str(query) = &args[1] else {
        return None;
    };
    table.schema().index_of(column)?;
    Some(VectorTopk {
        column: column.clone(),
        query: query.clone(),
        k,
        strategy,
    })
}

/// The non-aggregate projection list of a SELECT resolved against the
/// post-join schema, or `None` for a bare `SELECT *` (no projection node).
fn projection_outputs(
    select: &Select,
    schema: &Schema,
) -> Result<Option<Vec<(String, Expr)>>, SqlError> {
    if select.items.len() == 1 && select.items[0] == SelectItem::Wildcard {
        return Ok(None);
    }
    let mut outputs = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for name in schema.names() {
                    outputs.push((name.to_string(), Expr::col(name)));
                }
            }
            SelectItem::Expr(e, alias) => {
                let name = alias.clone().unwrap_or_else(|| default_name(e));
                outputs.push((name, to_expr(e, schema)?));
            }
        }
    }
    Ok(Some(outputs))
}

/// Whether the sort must run before the projection (ORDER BY references a
/// column the projection drops).
fn sort_before_project(sort_keys: &[SortKey], outputs: &[(String, Expr)]) -> bool {
    !sort_keys.is_empty()
        && sort_keys
            .iter()
            .any(|k| !outputs.iter().any(|(n, _)| *n == k.column))
}

/// Collects the sargable `column <op> literal` conjuncts of the lowered
/// WHERE clause whose column is one of the FROM table's — an ordinal of
/// `full` below `from_arity`, under the name the filter itself resolved —
/// as prune hints for the FROM scan.
///
/// WHERE runs after the joins, and a FROM-side row that fails such a
/// conjunct fails it in every joined row it contributes — matched, or
/// NULL-padded by a LEFT join — so dropping it before the probe changes no
/// result, for INNER and LEFT alike.
fn prune_conjuncts(
    predicate: &Expr,
    full: &Schema,
    from_arity: usize,
) -> Vec<(String, BinOp, Value)> {
    let Expr::Bin(op, l, r) = predicate else {
        return Vec::new();
    };
    if *op == BinOp::And {
        let mut hints = prune_conjuncts(l, full, from_arity);
        hints.extend(prune_conjuncts(r, full, from_arity));
        return hints;
    }
    // `lit <op> col` reads as `col <flipped-op> lit`.
    let flipped = match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => *other,
    };
    let hint = match (l.as_ref(), r.as_ref()) {
        (Expr::Col(column), Expr::Lit(lit)) => (column, *op, lit),
        (Expr::Lit(lit), Expr::Col(column)) => (column, flipped, lit),
        _ => return Vec::new(),
    };
    let (column, op, lit) = hint;
    let from_side = full.index_of(column).is_some_and(|c| c < from_arity);
    if op.is_comparison() && from_side && !lit.is_null() {
        vec![(column.clone(), op, lit.clone())]
    } else {
        Vec::new()
    }
}

/// The validated aggregation shape of a SELECT: GROUP BY keys and
/// aggregate outputs, from which the drive builds one
/// [`PartialAggregate`] per morsel.
struct AggSpec {
    group_names: Vec<String>,
    aggregates: Vec<Aggregate>,
}

fn aggregate_spec(select: &Select, schema: &Schema) -> Result<AggSpec, SqlError> {
    let mut aggregates = Vec::new();
    // A key written twice groups once, wherever the repeat stands (the
    // output schema is the keys then the aggregates, and a schema holds
    // each name once).
    let mut group_names: Vec<String> = Vec::with_capacity(select.group_by.len());
    for key in &select.group_by {
        if !group_names.contains(key) {
            group_names.push(key.clone());
        }
    }

    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                return Err(SqlError::Unsupported(
                    "SELECT * cannot be combined with aggregation".into(),
                ))
            }
            SelectItem::Expr(SqlExpr::Agg(agg, arg), alias) => {
                let column = match arg.as_deref() {
                    None => None,
                    Some(SqlExpr::Column(q, c)) => {
                        Some(resolve_name(schema, &(q.clone(), c.clone()))?)
                    }
                    Some(other) => {
                        return Err(SqlError::Unsupported(format!(
                            "aggregate over expression '{other}' (use a plain column)"
                        )))
                    }
                };
                let output = alias.clone().unwrap_or_else(|| {
                    format!(
                        "{}_{}",
                        agg.name().to_ascii_lowercase(),
                        column.clone().unwrap_or_else(|| "all".into())
                    )
                });
                let func = match (agg, column.is_some()) {
                    (AggCall::Count, false) => AggFunc::CountStar,
                    (AggCall::Count, true) => AggFunc::Count,
                    (AggCall::Sum, _) => AggFunc::Sum,
                    (AggCall::Avg, _) => AggFunc::Avg,
                    (AggCall::Min, _) => AggFunc::Min,
                    (AggCall::Max, _) => AggFunc::Max,
                };
                aggregates.push(Aggregate {
                    func,
                    column,
                    output,
                });
            }
            SelectItem::Expr(SqlExpr::Column(_, c), _alias) => {
                if !group_names.contains(c) {
                    // Implicit grouping column (common in generated SQL).
                    if select.group_by.is_empty() {
                        return Err(SqlError::Unsupported(format!(
                            "column '{c}' must appear in GROUP BY"
                        )));
                    }
                    return Err(SqlError::Unsupported(format!(
                        "column '{c}' is not in GROUP BY"
                    )));
                }
                // The output schema is group keys then aggregates; bare
                // group columns in the SELECT list are validated only.
            }
            SelectItem::Expr(e, _) => {
                return Err(SqlError::Unsupported(format!(
                    "non-column expression '{e}' in aggregate query"
                )))
            }
        }
    }

    // GROUP BY columns not in the SELECT list are still legal keys.
    Ok(AggSpec {
        group_names,
        aggregates,
    })
}

fn orient_on(
    left: &Schema,
    right: &Schema,
    a: &(Option<String>, String),
    b: &(Option<String>, String),
) -> Result<(String, String), SqlError> {
    let in_left = |c: &(Option<String>, String)| resolve_name(left, c).ok();
    let in_right =
        |c: &(Option<String>, String)| right.index_of(&c.1).map(|i| right.column(i).name.clone());
    if let (Some(l), Some(r)) = (in_left(a), in_right(b)) {
        return Ok((l, r));
    }
    if let (Some(l), Some(r)) = (in_left(b), in_right(a)) {
        return Ok((l, r));
    }
    Err(SqlError::Unsupported(format!(
        "cannot orient join condition {}.{} = {}.{}",
        a.0.as_deref().unwrap_or(""),
        a.1,
        b.0.as_deref().unwrap_or(""),
        b.1
    )))
}

fn resolve_name(schema: &Schema, col: &(Option<String>, String)) -> Result<String, SqlError> {
    // Resolution order: exact qualified name, bare name, right-prefixed name.
    if let Some(q) = &col.0 {
        let qualified = format!("{q}.{}", col.1);
        if schema.index_of(&qualified).is_some() {
            return Ok(qualified);
        }
    }
    if schema.index_of(&col.1).is_some() {
        return Ok(col.1.clone());
    }
    let prefixed = format!("right.{}", col.1);
    if schema.index_of(&prefixed).is_some() {
        return Ok(prefixed);
    }
    Err(SqlError::Storage(StorageError::UnknownColumn(
        col.1.clone(),
    )))
}

fn contains_agg(e: &SqlExpr) -> bool {
    match e {
        SqlExpr::Agg(..) => true,
        SqlExpr::Binary(_, l, r) => contains_agg(l) || contains_agg(r),
        SqlExpr::Not(x) | SqlExpr::Neg(x) | SqlExpr::IsNull(x, _) => contains_agg(x),
        SqlExpr::Call(_, args) => args.iter().any(contains_agg),
        _ => false,
    }
}

fn default_name(e: &SqlExpr) -> String {
    match e {
        SqlExpr::Column(_, c) => c.clone(),
        other => other.to_string(),
    }
}

/// Lowers a [`SqlExpr`] into a storage [`Expr`] resolved against `schema`.
pub fn to_expr(e: &SqlExpr, schema: &Schema) -> Result<Expr, SqlError> {
    Ok(match e {
        SqlExpr::Column(q, c) => Expr::Col(resolve_name(schema, &(q.clone(), c.clone()))?),
        SqlExpr::Int(i) => Expr::Lit(Value::Int(*i)),
        SqlExpr::Float(x) => Expr::Lit(Value::Float(*x)),
        SqlExpr::Str(s) => Expr::Lit(Value::Str(s.clone())),
        SqlExpr::Bool(b) => Expr::Lit(Value::Bool(*b)),
        SqlExpr::Null => Expr::Lit(Value::Null),
        SqlExpr::Binary(op, l, r) => Expr::Bin(
            lower_op(*op),
            Box::new(to_expr(l, schema)?),
            Box::new(to_expr(r, schema)?),
        ),
        SqlExpr::Not(x) => Expr::Not(Box::new(to_expr(x, schema)?)),
        SqlExpr::Neg(x) => Expr::Neg(Box::new(to_expr(x, schema)?)),
        SqlExpr::IsNull(x, negated) => {
            let inner = Expr::IsNull(Box::new(to_expr(x, schema)?));
            if *negated {
                Expr::Not(Box::new(inner))
            } else {
                inner
            }
        }
        SqlExpr::Call(name, args) => Expr::Call(
            name.clone(),
            args.iter()
                .map(|a| to_expr(a, schema))
                .collect::<Result<_, _>>()?,
        ),
        SqlExpr::Agg(..) => {
            return Err(SqlError::Unsupported("aggregate in scalar position".into()))
        }
    })
}

fn lower_op(op: SqlBinOp) -> BinOp {
    match op {
        SqlBinOp::Add => BinOp::Add,
        SqlBinOp::Sub => BinOp::Sub,
        SqlBinOp::Mul => BinOp::Mul,
        SqlBinOp::Div => BinOp::Div,
        SqlBinOp::Mod => BinOp::Mod,
        SqlBinOp::Eq => BinOp::Eq,
        SqlBinOp::Ne => BinOp::Ne,
        SqlBinOp::Lt => BinOp::Lt,
        SqlBinOp::Le => BinOp::Le,
        SqlBinOp::Gt => BinOp::Gt,
        SqlBinOp::Ge => BinOp::Ge,
        SqlBinOp::And => BinOp::And,
        SqlBinOp::Or => BinOp::Or,
    }
}

fn parse_type(ty: &str) -> Result<DataType, SqlError> {
    Ok(match ty.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" | "BIGINT" => DataType::Int,
        "FLOAT" | "REAL" | "DOUBLE" => DataType::Float,
        "STR" | "TEXT" | "VARCHAR" | "STRING" => DataType::Str,
        "BOOL" | "BOOLEAN" => DataType::Bool,
        "BLOB" | "BYTES" => DataType::Blob,
        "ANY" => DataType::Any,
        other => {
            return Err(SqlError::Unsupported(format!(
                "unknown column type '{other}'"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `select` the way production does — through the one entry point,
    /// the drive picked by `(mode, threads)` — unguarded.
    fn run(
        c: &Catalog,
        select: &Select,
        mode: ExecMode,
        threads: usize,
        vector: VectorMode,
    ) -> Result<(Table, SelectStats), SqlError> {
        let guard = QueryGuard::unlimited();
        run_select_auto_guarded(
            c,
            select,
            "out",
            mode,
            threads,
            vector,
            CompileMode::Off,
            &guard,
        )
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        execute(
            &mut c,
            "CREATE TABLE films (id INT, title STR, year INT)",
            "x",
        )
        .unwrap();
        execute(
            &mut c,
            "INSERT INTO films VALUES \
             (1, 'Guilty by Suspicion', 1991), \
             (2, 'Clean and Sober', 1988), \
             (3, 'Quiet Days', 1975), \
             (4, 'Night Chase', 1991)",
            "x",
        )
        .unwrap();
        execute(
            &mut c,
            "CREATE TABLE posters (film_id INT, boring BOOL)",
            "x",
        )
        .unwrap();
        execute(
            &mut c,
            "INSERT INTO posters VALUES (1, TRUE), (2, TRUE), (4, FALSE)",
            "x",
        )
        .unwrap();
        c
    }

    #[test]
    fn drop_table_removes_and_validates() {
        let mut c = catalog();
        assert!(c.contains("posters"));
        execute(&mut c, "DROP TABLE posters", "x").unwrap();
        assert!(!c.contains("posters"));
        assert!(matches!(
            execute(&mut c, "DROP TABLE posters", "x"),
            Err(SqlError::Storage(StorageError::UnknownTable(_)))
        ));
    }

    #[test]
    fn plan_mutation_validates_without_applying() {
        let c = catalog();
        // Planning an INSERT leaves the catalog untouched.
        let stmt = parse_statement("INSERT INTO films VALUES (9, 'New', 2001)").unwrap();
        let record = plan_mutation(&c, &stmt).unwrap();
        assert_eq!(c.get("films").unwrap().len(), 4);
        assert!(matches!(
            &record,
            WalRecord::Insert { table, rows } if table == "films" && rows.len() == 1
        ));
        // Bad mutations fail at planning time, before anything is logged.
        let dup = parse_statement("CREATE TABLE films (id INT)").unwrap();
        assert!(matches!(
            plan_mutation(&c, &dup),
            Err(SqlError::Storage(StorageError::TableExists(_)))
        ));
        let missing = parse_statement("INSERT INTO nope VALUES (1)").unwrap();
        assert!(plan_mutation(&c, &missing).is_err());
        let bad_type = parse_statement("INSERT INTO films VALUES ('x', 2, 3)").unwrap();
        assert!(plan_mutation(&c, &bad_type).is_err());
        // Applying the planned record matches direct execution.
        let mut c2 = catalog();
        let summary = apply_mutation(&mut c2, &record, "out").unwrap();
        assert_eq!(summary.cell(0, "rows_inserted").unwrap().as_int(), Some(1));
        assert_eq!(c2.get("films").unwrap().len(), 5);
    }

    #[test]
    fn end_to_end_select() {
        let mut c = catalog();
        let t = execute(
            &mut c,
            "SELECT title FROM films WHERE year >= 1988 ORDER BY year DESC, title ASC LIMIT 2",
            "out",
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.cell(0, "title").unwrap().as_str(),
            Some("Guilty by Suspicion")
        );
        assert_eq!(t.cell(1, "title").unwrap().as_str(), Some("Night Chase"));
    }

    #[test]
    fn join_with_qualified_on() {
        let mut c = catalog();
        let t = execute(
            &mut c,
            "SELECT title, boring FROM films JOIN posters ON films.id = posters.film_id \
             WHERE boring = TRUE",
            "out",
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn join_on_reversed_condition() {
        let mut c = catalog();
        let t = execute(
            &mut c,
            "SELECT title FROM films JOIN posters ON posters.film_id = films.id",
            "out",
        )
        .unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut c = catalog();
        let t = execute(
            &mut c,
            "SELECT title, boring FROM films LEFT JOIN posters ON films.id = posters.film_id \
             ORDER BY title",
            "out",
        )
        .unwrap();
        assert_eq!(t.len(), 4);
        let quiet = t
            .find("title", &Value::Str("Quiet Days".into()))
            .unwrap()
            .unwrap();
        assert!(t.cell(quiet, "boring").unwrap().is_null());
    }

    #[test]
    fn group_by_count_avg() {
        let mut c = catalog();
        let t = execute(
            &mut c,
            "SELECT year, COUNT(*) AS n FROM films GROUP BY year ORDER BY year",
            "out",
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.cell(2, "n").unwrap(), &Value::Int(2));
    }

    #[test]
    fn global_aggregate() {
        let mut c = catalog();
        let t = execute(
            &mut c,
            "SELECT COUNT(*) AS n, MAX(year) AS y FROM films",
            "out",
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.cell(0, "n").unwrap(), &Value::Int(4));
        assert_eq!(t.cell(0, "y").unwrap(), &Value::Int(1991));
    }

    #[test]
    fn computed_projection_with_alias() {
        let mut c = catalog();
        let t = execute(
            &mut c,
            "SELECT title, 2026 - year AS age FROM films WHERE id = 1",
            "out",
        )
        .unwrap();
        assert_eq!(t.cell(0, "age").unwrap(), &Value::Int(35));
    }

    #[test]
    fn distinct_years() {
        let mut c = catalog();
        let t = execute(&mut c, "SELECT DISTINCT year FROM films", "out").unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn insert_returns_count_and_persists() {
        let mut c = catalog();
        let t = execute(&mut c, "INSERT INTO films VALUES (5, 'New', 2025)", "out").unwrap();
        assert_eq!(t.cell(0, "rows_inserted").unwrap(), &Value::Int(1));
        let all = execute(&mut c, "SELECT COUNT(*) AS n FROM films", "out").unwrap();
        assert_eq!(all.cell(0, "n").unwrap(), &Value::Int(5));
    }

    #[test]
    fn errors_are_reported() {
        let mut c = catalog();
        assert!(matches!(
            execute(&mut c, "SELECT * FROM missing", "out"),
            Err(SqlError::Storage(StorageError::UnknownTable(_)))
        ));
        assert!(matches!(
            execute(&mut c, "SELECT nope FROM films", "out"),
            Err(SqlError::Storage(StorageError::UnknownColumn(_)))
        ));
        assert!(matches!(
            execute(&mut c, "SELECT title, COUNT(*) FROM films", "out"),
            Err(SqlError::Unsupported(_))
        ));
    }

    #[test]
    fn batch_sizes_agree() {
        let c = catalog();
        for sql in [
            "SELECT * FROM films",
            "SELECT title, year FROM films WHERE year >= 1988 ORDER BY year DESC, title ASC",
            "SELECT title, boring FROM films LEFT JOIN posters ON films.id = posters.film_id \
             ORDER BY title",
            "SELECT year, COUNT(*) AS n FROM films GROUP BY year ORDER BY year",
            "SELECT DISTINCT year FROM films ORDER BY year LIMIT 2",
        ] {
            let select = crate::parser::parse_select(sql).unwrap();
            let (one, _) = run(&c, &select, ExecMode::Batched(1), 1, VectorMode::Auto).unwrap();
            for bs in [2usize, 1024] {
                let (batched, _) =
                    run(&c, &select, ExecMode::Batched(bs), 1, VectorMode::Auto).unwrap();
                assert_eq!(batched, one, "{sql} (batch {bs})");
            }
        }
    }

    #[test]
    fn serial_run_reports_batches() {
        let c = catalog();
        let select = crate::parser::parse_select("SELECT title FROM films").unwrap();
        let (t, stats) = run(&c, &select, ExecMode::Batched(2), 1, VectorMode::Auto).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!((stats.batches, stats.workers), (2, 1));
    }

    /// A catalog big enough that parallel runs split into several morsels
    /// even at small batch sizes.
    fn wide_catalog() -> Catalog {
        let mut c = catalog();
        let mut inserts = String::from("INSERT INTO films VALUES ");
        for i in 5..400i64 {
            if i > 5 {
                inserts.push_str(", ");
            }
            inserts.push_str(&format!("({i}, 'film {}', {})", i % 7, 1950 + i % 60));
        }
        execute(&mut c, &inserts, "x").unwrap();
        c
    }

    #[test]
    fn parallel_select_matches_serial_for_every_plan_shape() {
        let c = wide_catalog();
        let queries = [
            "SELECT * FROM films",
            "SELECT title, year FROM films WHERE year >= 1988",
            "SELECT title, 2030 - year AS age FROM films WHERE year > 1960 ORDER BY age, title",
            // ORDER BY a column the projection drops (sort-before-project).
            "SELECT title FROM films WHERE year > 1960 ORDER BY year DESC, id ASC",
            "SELECT title, boring FROM films JOIN posters ON films.id = posters.film_id",
            "SELECT title, boring FROM films LEFT JOIN posters ON films.id = posters.film_id \
             ORDER BY title",
            "SELECT year, COUNT(*) AS n, AVG(id) AS a FROM films GROUP BY year ORDER BY year",
            "SELECT COUNT(*) AS n, MIN(title) AS t, MAX(year) AS y FROM films",
            "SELECT DISTINCT year FROM films",
            "SELECT DISTINCT year FROM films ORDER BY year DESC LIMIT 5",
            "SELECT year, COUNT(*) AS n FROM films WHERE id % 2 = 0 GROUP BY year \
             ORDER BY n DESC, year LIMIT 3",
        ];
        for sql in queries {
            let select = crate::parser::parse_select(sql).unwrap();
            for batch in [32usize, 1024] {
                let mode = ExecMode::Batched(batch);
                let (serial, _) = run(&c, &select, mode, 1, VectorMode::Auto).unwrap();
                for threads in [1usize, 2, 3, 8] {
                    let (parallel, stats) =
                        run(&c, &select, mode, threads, VectorMode::Auto).unwrap();
                    assert_eq!(parallel, serial, "{sql} (batch {batch}, threads {threads})");
                    if threads > 1 && batch == 32 {
                        assert!(stats.workers > 1, "{sql}: expected parallel run");
                        assert_eq!(stats.worker_ms.len(), stats.workers);
                    }
                }
            }
        }
    }

    #[test]
    fn equality_with_range_prunes_on_every_drive() {
        // Sealed pages of 32 rows, then the short last one reopened by a
        // one-row INSERT.
        let mut c = wide_catalog();
        c.page_table("films", 32).unwrap();
        let late = "INSERT INTO films VALUES (400, 'Late Entry', 1991)";
        execute(&mut c, late, "x").unwrap();
        let films = c.get("films").unwrap();
        assert!(films.is_paged());
        assert!(films.groups().last().is_some_and(|g| g.is_open()));

        let select =
            crate::parser::parse_select("SELECT title FROM films WHERE year = 1991 AND id > 1")
                .unwrap();
        let (want, _) = run(&c, &select, ExecMode::Batched(1), 1, VectorMode::Auto).unwrap();
        // Film 4, the six generated ones (id % 60 = 41) and the late row;
        // film 1 fails `id > 1`.
        assert_eq!(want.len(), 8, "{}", want.render());
        for (mode, threads) in [
            (ExecMode::Batched(1), 1),
            (ExecMode::Batched(8), 1),
            (ExecMode::Batched(8), 4),
        ] {
            let before = c.pool().status().zone_skips;
            let (got, stats) = run(&c, &select, mode, threads, VectorMode::Auto).unwrap();
            assert_eq!(got, want, "{mode:?}, {threads} threads");
            assert_eq!(
                stats.workers > 1,
                threads > 1,
                "{mode:?}, {threads} threads"
            );
            assert!(
                c.pool().status().zone_skips > before,
                "{mode:?}, {threads} threads: no page skipped"
            );
        }
    }

    #[test]
    fn parallel_select_falls_back_for_lazy_limit() {
        let c = wide_catalog();
        // LIMIT without a blocking operator keeps lazy semantics: rows past
        // the limit are never evaluated, so this division by zero (id = 0
        // never occurs; year - 1950 = 0 does) must stay unreached.
        let select = crate::parser::parse_select(
            "SELECT 100 / (year - 1950) AS q FROM films WHERE year = 1950 LIMIT 0",
        )
        .unwrap();
        let (t, stats) = run(&c, &select, ExecMode::Batched(16), 8, VectorMode::Auto).unwrap();
        assert_eq!(t.len(), 0);
        assert_eq!(stats.workers, 1, "lazy LIMIT must stay serial");
    }

    #[test]
    fn parallel_sort_before_project_keeps_limit_lazy() {
        // ORDER BY references a dropped column (sort-before-project) and
        // LIMIT 5 covers only safe rows: the projection divides by zero for
        // year = 1950 rows, which sort after the safe ones. Serial
        // execution never evaluates them (Limit's lazy tail behind the
        // blocking sort) — parallel execution must not either.
        let c = wide_catalog();
        let select = crate::parser::parse_select(
            "SELECT 100 / (year - 1950) AS q FROM films ORDER BY year DESC LIMIT 5",
        )
        .unwrap();
        let mode = ExecMode::Batched(32);
        let (serial, _) = run(&c, &select, mode, 1, VectorMode::Auto).unwrap();
        for threads in [2usize, 4] {
            let (parallel, _) = run(&c, &select, mode, threads, VectorMode::Auto).unwrap();
            assert_eq!(parallel, serial, "threads {threads}");
        }
        // And with DISTINCT stacked on top (still the serial operator tail).
        let select = crate::parser::parse_select(
            "SELECT DISTINCT 100 / (year - 1950) AS q FROM films ORDER BY year DESC LIMIT 3",
        )
        .unwrap();
        let (serial, _) = run(&c, &select, mode, 1, VectorMode::Auto).unwrap();
        let (parallel, _) = run(&c, &select, mode, 4, VectorMode::Auto).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn parallel_select_errors_match_serial() {
        let c = wide_catalog();
        let select =
            crate::parser::parse_select("SELECT MAX(id) AS m FROM films ORDER BY m").unwrap();
        let serial_ok = run(&c, &select, ExecMode::Batched(16), 1, VectorMode::Auto).is_ok();
        let parallel_ok = run(&c, &select, ExecMode::Batched(16), 4, VectorMode::Auto).is_ok();
        assert_eq!(serial_ok, parallel_ok);

        let bad = crate::parser::parse_select(
            "SELECT title FROM films WHERE 1 / (year - 1950) > 0 ORDER BY title",
        )
        .unwrap();
        let serial = run(&c, &bad, ExecMode::Batched(16), 1, VectorMode::Auto);
        let parallel = run(&c, &bad, ExecMode::Batched(16), 4, VectorMode::Auto);
        assert!(serial.is_err());
        assert!(parallel.is_err(), "parallel must fail when serial fails");
    }

    /// A catalog with an embedded-documents table: `body` is raw text,
    /// `emb` its canonical embedding blob.
    fn vector_catalog(n: usize) -> Catalog {
        use kath_storage::encode_embedding;
        let mut c = Catalog::new();
        execute(
            &mut c,
            "CREATE TABLE docs (id INT, body STR, emb BLOB)",
            "x",
        )
        .unwrap();
        let phrases = [
            "gun fight at the warehouse",
            "a calm walk in the garden",
            "murder on the night train",
            "tea and quiet routine",
            "explosion during the chase",
            "a peaceful ordinary day",
        ];
        let mut table = (*c.get("docs").unwrap()).clone();
        for i in 0..n {
            let body = phrases[i % phrases.len()];
            table
                .push(vec![
                    Value::Int(i as i64),
                    Value::Str(body.to_string()),
                    Value::Blob(encode_embedding(&kath_vector::embed_query(body))),
                ])
                .unwrap();
        }
        c.register_or_replace(table);
        c
    }

    const VECTOR_SQL: &str =
        "SELECT id, body FROM docs ORDER BY SIMILARITY(emb, 'shootout weapon') DESC LIMIT 4";

    #[test]
    fn vector_pattern_detection_and_gates() {
        let c = vector_catalog(12);
        let docs = c.get("docs").unwrap();
        let matches = |sql: &str| {
            let select = crate::parser::parse_select(sql).unwrap();
            vector_choice(&select, &docs, VectorMode::Auto).is_some()
        };
        assert!(matches(VECTOR_SQL));
        assert!(matches(
            "SELECT * FROM docs ORDER BY similarity(body, 'gun') DESC LIMIT 1"
        ));
        assert!(matches(
            "SELECT * FROM docs ORDER BY SIMILARITY(docs.emb, 'gun') DESC LIMIT 2"
        ));
        // Shapes outside the pattern keep the classical plan.
        for sql in [
            "SELECT * FROM docs ORDER BY SIMILARITY(emb, 'gun') DESC", // no LIMIT
            "SELECT * FROM docs ORDER BY SIMILARITY(emb, 'gun') ASC LIMIT 2", // ascending
            "SELECT * FROM docs ORDER BY SIMILARITY(emb, 'gun') DESC, id LIMIT 2", // extra key
            "SELECT * FROM docs WHERE id > 1 ORDER BY SIMILARITY(emb, 'gun') DESC LIMIT 2",
            "SELECT DISTINCT body FROM docs ORDER BY SIMILARITY(emb, 'gun') DESC LIMIT 2",
            "SELECT * FROM docs ORDER BY SIMILARITY(emb, body) DESC LIMIT 2", // non-literal query
            "SELECT * FROM docs ORDER BY SIMILARITY(nope, 'gun') DESC LIMIT 2", // unknown column
        ] {
            assert!(!matches(sql), "must not take the vector path: {sql}");
        }
    }

    #[test]
    fn vector_choice_follows_cardinality_and_mode() {
        let choice = |c: &Catalog, vector| {
            let select = crate::parser::parse_select(VECTOR_SQL).unwrap();
            let plan = plan_select(c, &select, vector).unwrap();
            assert_eq!(plan.table.name(), "docs");
            plan.vector.map(|v| {
                assert_eq!(v.column, "emb");
                assert_eq!(v.k, 4);
                v.strategy
            })
        };
        let small = vector_catalog(12);
        assert_eq!(choice(&small, VectorMode::Auto), Some(VectorStrategy::Flat));
        assert_eq!(choice(&small, VectorMode::Ivf), Some(VectorStrategy::Ivf));
        assert_eq!(choice(&small, VectorMode::Off), None);
        let large = vector_catalog(5000);
        assert_eq!(
            choice(&large, VectorMode::Auto),
            Some(VectorStrategy::Ivf),
            "the cost model must pick IVF above the crossover"
        );
    }

    #[test]
    fn vector_topk_matches_full_sort_fallback() {
        let c = vector_catalog(60);
        let select = crate::parser::parse_select(VECTOR_SQL).unwrap();
        for mode in [
            ExecMode::Batched(1),
            ExecMode::Batched(7),
            ExecMode::Batched(1024),
        ] {
            let (fallback, _) = run(&c, &select, mode, 1, VectorMode::Off).unwrap();
            assert_eq!(fallback.len(), 4);
            for vector in [VectorMode::Auto, VectorMode::Flat] {
                let (fast, _) = run(&c, &select, mode, 1, vector).unwrap();
                assert_eq!(fast, fallback, "{mode:?} {vector:?}");
            }
        }
        // The winners are actually the violent documents.
        let (t, _) = run(&c, &select, ExecMode::default(), 1, VectorMode::Auto).unwrap();
        for row in t.rows() {
            let body = row[1].as_str().unwrap();
            assert!(
                !body.contains("calm") && !body.contains("peaceful") && !body.contains("tea"),
                "calm doc ranked in the violent top-k: {body}"
            );
        }
    }

    #[test]
    fn vector_topk_pads_unscored_rows_like_the_fallback() {
        let mut c = vector_catalog(3);
        // A NULL and a corrupt embedding: no-matches that still appear
        // (ranked last, in row order) when k exceeds the scored rows.
        execute(
            &mut c,
            "INSERT INTO docs VALUES (100, 'null emb', NULL)",
            "x",
        )
        .unwrap();
        let select = crate::parser::parse_select(
            "SELECT id FROM docs ORDER BY SIMILARITY(emb, 'gun') DESC LIMIT 10",
        )
        .unwrap();
        let mode = ExecMode::default();
        let (fallback, _) = run(&c, &select, mode, 1, VectorMode::Off).unwrap();
        let (fast, _) = run(&c, &select, mode, 1, VectorMode::Flat).unwrap();
        assert_eq!(fast, fallback);
        assert_eq!(fast.len(), 4);
        assert_eq!(fast.cell(3, "id").unwrap(), &Value::Int(100));
    }

    #[test]
    fn vector_topk_parallel_matches_serial() {
        let c = vector_catalog(300);
        let select = crate::parser::parse_select(VECTOR_SQL).unwrap();
        let mode = ExecMode::Batched(32);
        let (serial, _) = run(&c, &select, mode, 1, VectorMode::Flat).unwrap();
        for threads in [2usize, 4, 8] {
            let (parallel, stats) = run(&c, &select, mode, threads, VectorMode::Flat).unwrap();
            assert_eq!(parallel, serial, "threads {threads}");
            assert!(stats.workers > 1, "expected a parallel run");
            assert_eq!(stats.worker_ms.len(), stats.workers);
        }
        // An IVF probe is one morsel.
        let (_, stats) = run(&c, &select, mode, 4, VectorMode::Ivf).unwrap();
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn expression_order_by_outside_the_pattern_still_works() {
        let c = vector_catalog(10);
        // WHERE breaks the pattern; the hidden-sort-column fallback must
        // still rank by similarity under the filter.
        let select = crate::parser::parse_select(
            "SELECT id FROM docs WHERE id < 4 ORDER BY SIMILARITY(emb, 'gun fight') DESC LIMIT 2",
        )
        .unwrap();
        let (t, _) = run(&c, &select, ExecMode::default(), 1, VectorMode::Auto).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, "id").unwrap(), &Value::Int(0)); // the gun-fight doc
        assert!(!t.schema().names().iter().any(|n| n.starts_with("__sort")));
        // Arithmetic expression keys work too.
        let select =
            crate::parser::parse_select("SELECT id FROM docs ORDER BY 0 - id ASC LIMIT 3").unwrap();
        let (t, _) = run(&c, &select, ExecMode::default(), 1, VectorMode::Auto).unwrap();
        assert_eq!(t.cell(0, "id").unwrap(), &Value::Int(9));
        // A SELECT-list alias mixed with an expression key resolves to the
        // aliased expression (as it would on the plain sort path alone).
        let select = crate::parser::parse_select(
            "SELECT id + 1 AS d FROM docs ORDER BY d ASC, 0 - id DESC LIMIT 3",
        )
        .unwrap();
        let (t, _) = run(&c, &select, ExecMode::default(), 1, VectorMode::Auto).unwrap();
        assert_eq!(t.cell(0, "d").unwrap(), &Value::Int(1));
        assert_eq!(t.schema().names(), vec!["d"]);
        // And aggregation rejects expression keys loudly.
        let select = crate::parser::parse_select(
            "SELECT COUNT(*) AS n FROM docs GROUP BY body ORDER BY SIMILARITY(body, 'x') DESC",
        )
        .unwrap();
        assert!(matches!(
            run(&c, &select, ExecMode::default(), 1, VectorMode::Auto),
            Err(SqlError::Unsupported(_))
        ));
    }

    #[test]
    fn create_rejects_bad_type_and_duplicate() {
        let mut c = Catalog::new();
        assert!(execute(&mut c, "CREATE TABLE t (x WIBBLE)", "o").is_err());
        execute(&mut c, "CREATE TABLE t (x INT)", "o").unwrap();
        assert!(execute(&mut c, "CREATE TABLE t (y INT)", "o").is_err());
    }
}

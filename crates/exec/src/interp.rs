//! The function-body interpreter.
//!
//! Executes a [`FunctionBody`] against the [`ExecContext`], materializes the
//! output table, and records lineage at the granularity the body's
//! dependency pattern allows (§3): narrow bodies stamp every output tuple
//! with a fresh `lid` whose parent is the input tuple's `lid`; wide bodies
//! record table-level edges only.
//!
//! Every body that works item by item — the narrow transforms and both
//! view populations — runs in three phases (docs/execution.md, "Semantic
//! nodes"): **prepare** what is constant for the node once (keyword
//! embeddings, the vision model, the lowered expression, column ordinals),
//! **compute** the items in morsels on `ctx.threads` workers under the
//! context's guard ([`compute_in_morsels`]; pure but for the commutative
//! token meter), then **stamp** serially in input order: lids, lineage
//! edges, failed rows, then the output as one column gather. Nothing a
//! caller can observe depends on the worker count or the morsel size.

use crate::{id_from_uri, ExecContext, ExecError, Published};
use kath_fao::{FunctionBody, VisionImpl};
use kath_lineage::{DataKind, LineageError, LineageRun};
use kath_media::{Document, Image, MediaError, MediaFormat};
use kath_model::{SimLlm, SimOcr, SimVlm, VlmCascade};
use kath_multimodal::{
    emit_document, emit_frame, extract_document, SceneGraphViews, TextGraphViews,
};
use kath_storage::{
    run_morsels_guarded, Column, ColumnVector, DataType, Expr, MorselSource, RowBatch, Schema,
    Table, Value, DEFAULT_BATCH_SIZE, MORSEL_BATCHES,
};
use std::sync::Arc;
use std::time::Instant;

/// The result of executing one function body.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The materialized output, as the catalog holds it.
    pub table: Arc<Table>,
    /// Table-level lid of the output.
    pub output_lid: i64,
    /// Tables the body published besides its output (a view population's
    /// views; empty for every other body).
    pub side_outputs: Vec<Published>,
    /// Per-row failures: `(row description, error)`. Unaffected tuples have
    /// already flowed into `table` (§5: "tuples unaffected by the error
    /// continue through the old function definition").
    pub failed_rows: Vec<(String, String)>,
    /// Input rows consumed.
    pub rows_in: usize,
    /// Batches the body's operator pipeline produced (0 when the body is
    /// not relational).
    pub batches_out: usize,
    /// Workers that drove the body's streaming phase — a SQL body's
    /// morsel pipelines, a semantic body's compute phase (1 when serial).
    pub workers: usize,
    /// Per-worker busy milliseconds (empty when serial).
    pub worker_ms: Vec<f64>,
    /// Milliseconds of the single-threaded step after the workers: a SQL
    /// body's deterministic merge (0.0 when serial), a semantic body's
    /// in-order stamp phase.
    pub merge_ms: f64,
    /// Whether the body did not run: the monitor served the output an
    /// earlier question materialized (see [`crate::ExecContext::reusable`]).
    pub reused: bool,
}

impl ExecOutcome {
    /// The outcome of a body that drove no relational pipeline (or did not
    /// run at all): no failed rows, no side outputs, no batch statistics.
    pub(crate) fn serial(table: Arc<Table>, output_lid: i64, rows_in: usize) -> Self {
        Self {
            table,
            output_lid,
            side_outputs: Vec::new(),
            failed_rows: Vec::new(),
            rows_in,
            batches_out: 0,
            workers: 1,
            worker_ms: Vec::new(),
            merge_ms: 0.0,
            reused: false,
        }
    }
}

/// Executes `body` as function `func_id` version `ver_id`, materializing
/// `output_name` in the context's catalog.
pub fn execute_body(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    body: &FunctionBody,
    output_name: &str,
) -> Result<ExecOutcome, ExecError> {
    match body {
        FunctionBody::Sql { query, dedup_key } => exec_sql(
            ctx,
            func_id,
            ver_id,
            query,
            dedup_key.as_deref(),
            output_name,
        ),
        FunctionBody::MapExpr {
            input,
            expr,
            output_column,
        } => {
            let parsed = kath_sql::parse_expr(expr).map_err(|e| ExecError::Expr(e.to_string()))?;
            let table = ctx.catalog.get(input)?;
            let schema = table.schema();
            let lowered = kath_sql::to_expr(&parsed, schema).map_err(|e| e.to_string());
            narrow_transform(
                ctx,
                func_id,
                ver_id,
                &table,
                output_name,
                &[(output_column.as_str(), DataType::Any)],
                EXPR_MORSEL_ROWS,
                |morsel| eval_morsel(&lowered, schema, morsel, |v| Some(vec![v])),
            )
        }
        FunctionBody::FilterExpr { input, predicate } => {
            let parsed =
                kath_sql::parse_expr(predicate).map_err(|e| ExecError::Expr(e.to_string()))?;
            let table = ctx.catalog.get(input)?;
            let schema = table.schema();
            let lowered = kath_sql::to_expr(&parsed, schema).map_err(|e| e.to_string());
            narrow_transform(
                ctx,
                func_id,
                ver_id,
                &table,
                output_name,
                &[],
                EXPR_MORSEL_ROWS,
                |morsel| eval_morsel(&lowered, schema, morsel, |v| v.is_truthy().then(Vec::new)),
            )
        }
        FunctionBody::ConceptScore {
            input,
            text_column,
            keywords,
            output_column,
        } => {
            let table = ctx.catalog.get(input)?;
            let llm = ctx.llm.clone();
            let scorer = llm.concept_scorer(keywords);
            narrow_transform(
                ctx,
                func_id,
                ver_id,
                &table,
                output_name,
                &[(output_column.as_str(), DataType::Float)],
                SEMANTIC_MORSEL_ROWS,
                each_value(table.schema(), text_column, |text| {
                    let score = text.as_str().map_or(0.0, |text| scorer.score(text));
                    Ok(Some(vec![Value::Float(score)]))
                }),
            )
        }
        FunctionBody::VisualClassify {
            input,
            uri_column,
            output_column,
            implementation,
            threshold,
            convert_unsupported,
        } => {
            let table = ctx.catalog.get(input)?;
            let media = ctx.media.clone();
            let interest = VisualInterest::new(*implementation, &ctx.llm);
            narrow_transform(
                ctx,
                func_id,
                ver_id,
                &table,
                output_name,
                &[(output_column.as_str(), DataType::Bool)],
                SEMANTIC_MORSEL_ROWS,
                each_value(table.schema(), uri_column, |uri| {
                    let uri = uri
                        .as_str()
                        .ok_or_else(|| format!("NULL media uri in '{uri_column}'"))?;
                    let image = media.image(uri).map_err(|e| e.to_string())?;
                    let decoded: Image;
                    let image = if !image.format.is_supported() && *convert_unsupported {
                        decoded = image.convert_to(MediaFormat::Png);
                        &decoded
                    } else {
                        image
                    };
                    let interest = interest.of(image).map_err(|e| e.to_string())?;
                    Ok(Some(vec![Value::Bool(interest <= *threshold)]))
                }),
            )
        }
        FunctionBody::ViewPopulate {
            modality,
            implementation,
            convert_unsupported,
        } => exec_view_populate(
            ctx,
            func_id,
            ver_id,
            modality,
            *implementation,
            *convert_unsupported,
            output_name,
        ),
    }
}

/// One morsel of an expression body (`MapExpr`, `FilterExpr`): `expr`
/// evaluated once over the morsel's columns, each value turned into its
/// row's outcome by `keep`. Only a morsel whose batch raises is evaluated
/// again as one-row batches, so each failing row keeps its own message and
/// the others their values. An expression that did not lower fails every
/// row with the lowering's message.
fn eval_morsel(
    expr: &Result<Expr, String>,
    schema: &Schema,
    morsel: &RowBatch,
    keep: impl Fn(Value) -> Option<Vec<Value>>,
) -> Vec<Computed> {
    let rows = morsel.num_rows();
    let expr = match expr {
        Ok(expr) => expr,
        Err(msg) => return vec![Err(msg.clone()); rows],
    };
    match expr.eval_batch(morsel, schema) {
        Ok(values) => (0..rows).map(|i| Ok(keep(values.value(i)))).collect(),
        Err(_) => (0..rows)
            .map(|i| {
                let value = expr.eval_batch(&morsel.gather(&[i]), schema);
                Ok(keep(value.map_err(|e| e.to_string())?.value(0)))
            })
            .collect(),
    }
}

/// The "visual interest" measure behind `classify_boring`: vivid colors,
/// object count, and action (saliency), exactly the features the paper's
/// sketch step names ("lacks vivid colors, few objects, little action").
/// Different physical implementations see different evidence. The one-shot
/// form of what a `VisualClassify` node prepares once for all its images.
pub fn visual_interest(
    image: &Image,
    implementation: VisionImpl,
    llm: &SimLlm,
) -> Result<f64, MediaError> {
    VisualInterest::new(implementation, llm).of(image)
}

/// One implementation choice of [`visual_interest`], with everything that
/// does not depend on the image built once: the vision model (and its meter
/// handle) and the knowledge base's exciting object classes.
struct VisualInterest {
    eye: Eye,
    exciting_classes: Vec<String>,
}

/// The model a [`VisionImpl`] looks through.
enum Eye {
    Vlm(SimVlm),
    Cascade(VlmCascade),
    Ocr(SimOcr),
}

impl VisualInterest {
    fn new(implementation: VisionImpl, llm: &SimLlm) -> Self {
        let meter = llm.meter().clone();
        let seed = llm.seed();
        Self {
            eye: match implementation {
                VisionImpl::VlmAccurate => Eye::Vlm(SimVlm::accurate(seed, meter)),
                VisionImpl::VlmCheap => Eye::Vlm(SimVlm::cheap(seed, meter)),
                VisionImpl::Cascade => Eye::Cascade(VlmCascade::new(seed, meter, 0.8)),
                VisionImpl::Ocr => Eye::Ocr(SimOcr::new(meter)),
            },
            exciting_classes: llm.knowledge().exciting_object_classes(),
        }
    }

    fn of(&self, image: &Image) -> Result<f64, MediaError> {
        let dets = match &self.eye {
            Eye::Vlm(vlm) => vlm.detect(image)?,
            Eye::Cascade(cascade) => cascade.detect(image)?.0,
            Eye::Ocr(ocr) => {
                // OCR sees only legible text: a crude proxy (titles on busy
                // posters tend to be loud), deliberately less accurate.
                let texts = ocr.read_text(image)?;
                let text_len: usize = texts.iter().map(String::len).sum();
                let interest = 0.15 + 0.05 * texts.len() as f64 + 0.002 * text_len as f64;
                return Ok(interest.clamp(0.0, 1.0));
            }
        };
        let count_term = (dets.len() as f64 / 4.0).min(1.0);
        let action_term = if dets.is_empty() {
            0.0
        } else {
            dets.iter().map(|d| d.confidence).sum::<f64>() / dets.len() as f64
        };
        let exciting = dets
            .iter()
            .any(|d| self.exciting_classes.contains(&d.class));
        let exciting_bonus = if exciting { 0.25 } else { 0.0 };
        Ok(
            (0.40 * image.colorfulness() + 0.25 * count_term + 0.20 * action_term + exciting_bonus)
                .clamp(0.0, 1.0),
        )
    }
}

fn exec_sql(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    query: &str,
    dedup_key: Option<&str>,
    output_name: &str,
) -> Result<ExecOutcome, ExecError> {
    let select = kath_sql::parse_select(query).map_err(|e| ExecError::Sql(e.to_string()))?;
    let inputs: Vec<&str> = select.tables().collect();
    // One frozen snapshot for the whole statement: cardinality estimates
    // and the scan itself read the same catalog version even while
    // concurrent sessions commit.
    let snapshot = ctx.catalog.snapshot();
    let rows_in: usize = inputs
        .iter()
        .map(|t| snapshot.get(t).map(|t| t.len()).unwrap_or(0))
        .sum();
    // The one entry point picks the drive from the context's knobs: the
    // morsel drive when the context asks for threads, the serial operator
    // tree otherwise. Results are identical on both.
    let guard = ctx.limits.guard();
    let (mut table, stats) = kath_sql::run_select_auto_guarded(
        &snapshot,
        &select,
        output_name,
        ctx.exec_mode,
        ctx.threads,
        ctx.vector_mode,
        ctx.compile,
        &guard,
    )?;

    if let Some(key) = dedup_key {
        table = dedup_by_key(&table, key)?;
    }

    // Wide dependency: table-level lineage with one edge per input parent.
    let output_lid = ctx.lineage.alloc_lid();
    let mut recorded = false;
    for input in &inputs {
        if let Some(parent) = ctx.table_lid(input) {
            ctx.lineage.record(
                output_lid,
                Some(parent),
                None,
                func_id,
                ver_id,
                DataKind::Table,
            )?;
            recorded = true;
        }
    }
    if !recorded {
        ctx.lineage
            .record(output_lid, None, None, func_id, ver_id, DataKind::Table)?;
    }
    Ok(ExecOutcome {
        table: ctx.materialize(table, output_lid),
        output_lid,
        side_outputs: Vec::new(),
        failed_rows: Vec::new(),
        rows_in,
        batches_out: stats.batches,
        workers: stats.workers.max(1),
        worker_ms: stats.worker_ms,
        merge_ms: stats.merge_ms,
        reused: false,
    })
}

/// Keeps the first row per key value (the monitor's one-poster-one-movie
/// patch, §5): the first position of each key, then one gather.
fn dedup_by_key(table: &Table, key: &str) -> Result<Table, ExecError> {
    let mut seen = std::collections::HashSet::new();
    let mut firsts = Vec::new();
    table.for_each_in_column(key, |pos, v| {
        if seen.insert(v.clone()) {
            firsts.push(pos);
        }
        Ok(())
    })?;
    let mut out = Table::new(table.name(), table.schema().clone());
    out.append_batch(table.to_batch()?.gather(&firsts))?;
    Ok(out)
}

/// Items per morsel of a semantic node's compute phase: a 1 000-row node
/// splits into 16 claims, enough to balance two to eight workers, while a
/// claim (one atomic add, one guard check) stays noise against 64 model
/// calls. A constant, not a setting: the stamp phase walks the input in
/// order whatever the morsels were, so nothing observable depends on it.
const SEMANTIC_MORSEL_ROWS: usize = 64;

/// Rows per morsel of an expression body (`MapExpr`, `FilterExpr`): the
/// relational morsel at the default batch size. A row costs such a body
/// what it costs a SQL projection — a fraction of a microsecond, not a
/// model call — so it splits where a SELECT over the same table would: a
/// 1 000-row node declines to fan out by itself, exactly as the SQL nodes
/// beside it do (spawning for it measured +0.1 ms on a 0.7 ms node).
const EXPR_MORSEL_ROWS: usize = MORSEL_BATCHES * DEFAULT_BATCH_SIZE;

/// The compute of a narrow transform that reads one column: `f` on each of
/// the morsel's values in it. Every row of a node that names a missing
/// column fails with the same message (the repair path reads it).
fn each_value(
    schema: &Schema,
    column: &str,
    f: impl Fn(Value) -> Computed + Sync,
) -> impl Fn(&RowBatch) -> Vec<Computed> + Sync {
    let c = (schema.index_of(column)).ok_or_else(|| format!("unknown column '{column}'"));
    let cell = move |morsel: &RowBatch, i| f(morsel.column(*c.as_ref()?).value(i));
    move |morsel| (0..morsel.num_rows()).map(|i| cell(morsel, i)).collect()
}

/// A finished compute phase: one output per item, in input order.
struct ComputeRun<T> {
    computed: Vec<T>,
    /// Busy milliseconds per worker.
    worker_ms: Vec<f64>,
}

/// The compute phase of every item-by-item body: `compute` over `items` in
/// morsels of `morsel_rows`, claimed by `ctx.threads` workers (one worker is
/// the calling thread and spawns nothing) under a guard minted from
/// `ctx.limits`, which is checked before each morsel — a passed deadline or
/// a fired cancel token aborts the node with [`ExecError::Guard`] before
/// anything is stamped or published. `compute` takes one morsel and returns
/// one output per item of it, in order: a model loop maps its items, an
/// expression body evaluates them as one batch. It must be pure but for the
/// token meter, whose totals are sums and so independent of the order the
/// workers charge it in.
fn compute_in_morsels<I: Sync, T: Send>(
    ctx: &ExecContext,
    items: &[I],
    morsel_rows: usize,
    compute: impl Fn(&[I]) -> Vec<T> + Sync,
) -> Result<ComputeRun<T>, ExecError> {
    let source = MorselSource::new(items.len(), morsel_rows);
    let run = run_morsels_guarded(&source, ctx.threads, &ctx.limits.guard(), |m| {
        Ok(compute(&items[m.start..m.end]))
    })?;
    Ok(ComputeRun {
        computed: run.outputs.into_iter().flatten().collect(),
        worker_ms: run.worker_ms,
    })
}

impl ExecOutcome {
    /// The outcome of a semantic body: `outcome` with the compute phase's
    /// workers and the stamp phase that began at `stamp_started`.
    fn fanned_out(self, worker_ms: Vec<f64>, stamp_started: Instant) -> Self {
        let workers = worker_ms.len().max(1);
        Self {
            workers,
            worker_ms: if workers > 1 { worker_ms } else { Vec::new() },
            merge_ms: stamp_started.elapsed().as_secs_f64() * 1000.0,
            ..self
        }
    }
}

/// What a narrow transform computes for one input row: the values it
/// appends (`Some`), nothing because the row is dropped (`None`), or the
/// row's failure message.
type Computed = Result<Option<Vec<Value>>, String>;

/// Shared implementation of narrow (row-level) transforms: `compute` runs
/// over the input's columns in morsels of `morsel_rows` rows, one
/// [`Computed`] per row; the stamp phase then gives every row it kept a
/// fresh lid whose parent is the input row's, in input order.
#[allow(clippy::too_many_arguments)]
fn narrow_transform(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    input: &Table,
    output_name: &str,
    new_columns: &[(&str, DataType)],
    morsel_rows: usize,
    compute: impl Fn(&RowBatch) -> Vec<Computed> + Sync,
) -> Result<ExecOutcome, ExecError> {
    // Read once; a morsel is a list of positions, its columns their gather.
    let columns = input.to_batch()?;
    let positions: Vec<usize> = (0..columns.num_rows()).collect();
    let morsel = |positions: &[usize]| compute(&columns.gather(positions));
    let run = compute_in_morsels(ctx, &positions, morsel_rows, morsel)?;

    let stamp_started = Instant::now(); // lint: nondet-ok — stamp-phase timing telemetry in the run report; results never depend on it
    let lid_idx = input.schema().index_of("lid");
    let mut out_schema = input.schema().clone();
    if lid_idx.is_none() {
        out_schema = out_schema.with_column(Column::new("lid", DataType::Int));
    }
    for (name, dtype) in new_columns {
        out_schema = out_schema.with_column(Column::new(*name, *dtype));
    }
    let parent_table_lid = ctx.table_lid(input.name());

    let (mut kept, mut lids, mut failed_rows) = (Vec::new(), Vec::new(), Vec::new());
    let mut computed = vec![Vec::new(); new_columns.len()];
    let mut stamp = ctx.lineage.run(func_id, ver_id, DataKind::Row);
    for (i, outcome) in run.computed.into_iter().enumerate() {
        match outcome {
            Err(msg) => {
                let desc = columns.row(i).iter().map(Value::render).collect::<Vec<_>>();
                failed_rows.push((desc.join(", "), msg));
            }
            Ok(None) => {}
            Ok(Some(values)) => {
                let parent = lid_idx.and_then(|c| columns.column(c).value(i).as_int());
                lids.push(Value::Int(stamp.record(parent.or(parent_table_lid))?));
                kept.push(i);
                computed.iter_mut().zip(values).for_each(|(c, v)| c.push(v));
            }
        }
    }
    // One append: the input's columns at the kept positions, the lid
    // column replaced or appended, then the computed columns.
    let mut out: Vec<_> = columns.columns().iter().map(|c| c.gather(&kept)).collect();
    let lids = ColumnVector::from_values(lids);
    match lid_idx {
        Some(c) => out[c] = lids,
        None => out.push(lids),
    }
    out.extend(computed.into_iter().map(ColumnVector::from_values));
    let mut table = Table::new(output_name, out_schema);
    table.append_batch(RowBatch::from_columns(out)?)?;

    // Also record the table-level artifact so downstream wide operators have
    // a parent to point at.
    let output_lid = ctx.lineage.alloc_lid();
    ctx.lineage.record(
        output_lid,
        parent_table_lid,
        None,
        func_id,
        ver_id,
        DataKind::Table,
    )?;
    let table = ctx.materialize(table, output_lid);
    Ok(ExecOutcome {
        failed_rows,
        ..ExecOutcome::serial(table, output_lid, input.len())
    }
    .fanned_out(run.worker_ms, stamp_started))
}

/// One modality's views, populated and stamped but not yet published.
struct PopulatedViews {
    /// Lineage root of the media collection.
    root: i64,
    views: Vec<Table>,
    rows_in: usize,
    failed_rows: Vec<(String, String)>,
    worker_ms: Vec<f64>,
    stamp_started: Instant,
}

fn exec_view_populate(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    modality: &str,
    implementation: VisionImpl,
    convert_unsupported: bool,
    output_name: &str,
) -> Result<ExecOutcome, ExecError> {
    let populated = match modality {
        "text" => populate_text_views(ctx, func_id, ver_id)?,
        "scene" => populate_scene_views(ctx, func_id, ver_id, implementation, convert_unsupported)?,
        other => {
            return Err(ExecError::Media(format!(
                "unknown view modality '{other}' (expected 'text' or 'scene')"
            )))
        }
    };

    let mut summary = Table::new(
        output_name,
        Schema::of(&[("view", DataType::Str), ("rows", DataType::Int)]),
    );
    let mut views_out = Vec::new();
    for table in populated.views {
        let lid = ctx.lineage.alloc_lid();
        ctx.lineage.record(
            lid,
            Some(populated.root),
            None,
            func_id,
            ver_id,
            DataKind::Table,
        )?;
        summary.push(vec![
            Value::Str(table.name().to_string()),
            Value::Int(table.len() as i64),
        ])?;
        views_out.push(Published {
            table: ctx.materialize(table, lid),
            lid,
        });
    }
    let output_lid = ctx.lineage.alloc_lid();
    ctx.lineage
        .record(output_lid, None, None, func_id, ver_id, DataKind::Table)?;
    let summary = ctx.materialize(summary, output_lid);
    Ok(ExecOutcome {
        side_outputs: views_out,
        failed_rows: populated.failed_rows,
        ..ExecOutcome::serial(summary, output_lid, populated.rows_in)
    }
    .fanned_out(populated.worker_ms, populated.stamp_started))
}

/// A view population's lid allocator: every view row is a child of the
/// media collection's root, stamped through the node's one lineage run. The
/// emitters' allocator cannot fail, so the first lineage error is parked in
/// `failed` and the population returns it once the walk is over.
fn row_lids<'a, 's>(
    stamp: &'a mut LineageRun<'s>,
    root: i64,
    failed: &'a mut Option<LineageError>,
) -> impl FnMut() -> i64 + use<'a, 's> {
    move || {
        stamp.record(Some(root)).unwrap_or_else(|e| {
            failed.get_or_insert(e);
            root
        })
    }
}

/// The text half: documents are extracted in morsels, then emitted in
/// document order.
fn populate_text_views(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
) -> Result<PopulatedViews, ExecError> {
    let media = ctx.media.clone();
    let docs = media.documents();
    let extract = |docs: &[&Document]| docs.iter().map(|d| extract_document(d, &ctx.llm)).collect();
    let run = compute_in_morsels(ctx, &docs, SEMANTIC_MORSEL_ROWS, extract)?;

    let stamp_started = Instant::now(); // lint: nondet-ok — stamp-phase timing telemetry in the run report; results never depend on it
    let root = ctx.ingest_media_root("collection://documents")?;
    let mut views = TextGraphViews::empty();
    let mut failed_rows = Vec::new();
    let mut stamp = ctx.lineage.run(func_id, ver_id, DataKind::Row);
    let mut stamp_failed = None;
    let mut next_lid = row_lids(&mut stamp, root, &mut stamp_failed);
    for (i, (doc, extraction)) in docs.iter().zip(&run.computed).enumerate() {
        let did = id_from_uri(&doc.uri).unwrap_or(i as i64);
        if let Err(e) = emit_document(&mut views, did, doc, extraction, &mut next_lid) {
            failed_rows.push((doc.uri.clone(), e.to_string()));
        }
    }
    drop(next_lid);
    stamp_failed.map_or(Ok(()), Err)?;
    Ok(PopulatedViews {
        root,
        views: vec![
            views.entities,
            views.mentions,
            views.relationships,
            views.attributes,
            views.texts,
        ],
        rows_in: docs.len(),
        failed_rows,
        worker_ms: run.worker_ms,
        stamp_started,
    })
}

/// The scene half: images are converted (when the body says so) and run
/// through the vision model in morsels; the stamp phase, in image order,
/// swaps each converted image into `ctx.media` and emits its detections.
fn populate_scene_views(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    implementation: VisionImpl,
    convert_unsupported: bool,
) -> Result<PopulatedViews, ExecError> {
    let meter = ctx.llm.meter().clone();
    let seed = ctx.llm.seed();
    let vlm = match implementation {
        VisionImpl::VlmCheap => SimVlm::cheap(seed, meter),
        // OCR/cascade don't apply to full scene extraction; the
        // accurate VLM is the reference implementation.
        _ => SimVlm::accurate(seed, meter),
    };
    // The collection as it is now (shared, not copied): the stamp phase
    // replaces images in `ctx.media` while it walks this one.
    let media = ctx.media.clone();
    let images = media.images();
    let detect = |image: &&Image| {
        let converted = (!image.format.is_supported() && convert_unsupported)
            .then(|| image.convert_to(MediaFormat::Png));
        vlm.detect(converted.as_ref().unwrap_or(image))
            .map(|detections| (converted, detections))
    };
    let detect_all = |images: &[&Image]| images.iter().map(detect).collect();
    let run = compute_in_morsels(ctx, &images, SEMANTIC_MORSEL_ROWS, detect_all)?;

    let stamp_started = Instant::now(); // lint: nondet-ok — stamp-phase timing telemetry in the run report; results never depend on it
    let root = ctx.ingest_media_root("collection://images")?;
    let mut views = SceneGraphViews::empty();
    let mut failed_rows = Vec::new();
    let mut stamp = ctx.lineage.run(func_id, ver_id, DataKind::Row);
    let mut stamp_failed = None;
    let mut next_lid = row_lids(&mut stamp, root, &mut stamp_failed);
    for (i, (image, computed)) in images.iter().zip(run.computed).enumerate() {
        let vid = id_from_uri(&image.uri).unwrap_or(i as i64);
        let emitted = match computed {
            Err(e) => Err(e.to_string()),
            Ok((converted, detections)) => {
                let decodable = converted.as_ref().unwrap_or(image);
                let emitted = emit_frame(&mut views, vid, 0, decodable, &detections, &mut next_lid);
                if let Some(converted) = converted {
                    // The conversion step replaces the undecodable file with
                    // a decodable copy; later operators resolve the new URI
                    // and re-runs do not see the original twice.
                    ctx.media.remove_image(&image.uri);
                    ctx.media.add_image(converted);
                }
                emitted.map_err(|e| e.to_string())
            }
        };
        if let Err(msg) = emitted {
            failed_rows.push((image.uri.clone(), msg));
        }
    }
    drop(next_lid);
    stamp_failed.map_or(Ok(()), Err)?;
    Ok(PopulatedViews {
        root,
        views: vec![
            views.objects,
            views.relationships,
            views.attributes,
            views.frames,
        ],
        rows_in: images.len(),
        failed_rows,
        worker_ms: run.worker_ms,
        stamp_started,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_media::{BBox, Color, ImageObject};
    use kath_model::TokenMeter;
    use kath_storage::{Row, StorageError};

    fn ctx() -> ExecContext {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        let films = Table::from_rows(
            "films",
            Schema::of(&[
                ("id", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
            ]),
            vec![
                vec![1i64.into(), "Guilty by Suspicion".into(), 1991i64.into()],
                vec![2i64.into(), "Clean and Sober".into(), 1988i64.into()],
                vec![3i64.into(), "Quiet Days".into(), 1975i64.into()],
            ],
        )
        .unwrap();
        ctx.ingest_table(films, "file://data/films").unwrap();
        ctx
    }

    fn exciting_poster(uri: &str, format: MediaFormat) -> Image {
        Image::new(uri, format)
            .with_color(Color::rgb(230, 20, 20))
            .with_color(Color::rgb(20, 20, 230))
            .with_object(ImageObject::new("person", BBox::new(0.1, 0.1, 0.5, 0.9)))
            .with_object(ImageObject::new("gun", BBox::new(0.4, 0.4, 0.6, 0.6)))
            .with_object(ImageObject::new(
                "motorcycle",
                BBox::new(0.5, 0.6, 0.9, 0.95),
            ))
            .with_object(ImageObject::new(
                "explosion",
                BBox::new(0.6, 0.1, 0.95, 0.4),
            ))
    }

    fn boring_poster(uri: &str) -> Image {
        Image::new(uri, MediaFormat::Png)
            .with_color(Color::rgb(120, 120, 120))
            .with_object(
                ImageObject::new("portrait", BBox::new(0.3, 0.2, 0.7, 0.8)).with_saliency(0.3),
            )
    }

    #[test]
    fn sql_body_records_table_lineage() {
        let mut c = ctx();
        let body = FunctionBody::Sql {
            query: "SELECT title, year FROM films WHERE year >= 1988".into(),
            dedup_key: None,
        };
        let out = execute_body(&mut c, "select_recent", 1, &body, "recent").unwrap();
        assert_eq!(out.table.len(), 2);
        assert!(c.catalog.contains("recent"));
        let edges = c.lineage.edges_of(out.output_lid);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].data_type, DataKind::Table);
        assert_eq!(edges[0].parent_lid, c.table_lid("films"));
    }

    #[test]
    fn parallel_sql_body_matches_serial_and_reports_workers() {
        let mk = || {
            let mut c = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
            let mut films = Table::new(
                "films",
                Schema::of(&[("id", DataType::Int), ("year", DataType::Int)]),
            );
            for i in 0..20_000i64 {
                films.push(vec![i.into(), (1950 + i % 70).into()]).unwrap();
            }
            c.ingest_table(films, "bench://films").unwrap();
            c
        };
        let body = FunctionBody::Sql {
            query: "SELECT year, COUNT(*) AS n FROM films WHERE year >= 1990 \
                    GROUP BY year ORDER BY year"
                .into(),
            dedup_key: None,
        };
        let mut serial_ctx = mk();
        let serial = execute_body(&mut serial_ctx, "agg", 1, &body, "out").unwrap();
        assert_eq!(serial.workers, 1);
        let mut par_ctx = mk();
        par_ctx.threads = 4;
        let parallel = execute_body(&mut par_ctx, "agg", 1, &body, "out").unwrap();
        assert_eq!(parallel.table, serial.table, "parallel must match serial");
        assert!(parallel.workers > 1, "expected a parallel run");
        assert_eq!(parallel.worker_ms.len(), parallel.workers);
    }

    #[test]
    fn map_expr_stamps_fresh_row_lids() {
        let mut c = ctx();
        let body = FunctionBody::MapExpr {
            input: "films".into(),
            expr: "clamp01((year - 1970) / 25.0)".into(),
            output_column: "recency_score".into(),
        };
        let out = execute_body(&mut c, "gen_recency_score", 1, &body, "scored").unwrap();
        assert_eq!(out.table.len(), 3);
        let lid_col = out.table.schema().index_of("lid").unwrap();
        let mut lids: Vec<i64> = out
            .table
            .rows()
            .iter()
            .map(|r| r[lid_col].as_int().unwrap())
            .collect();
        let distinct: std::collections::HashSet<i64> = lids.drain(..).collect();
        assert_eq!(distinct.len(), 3, "each tuple needs its own lid");
        // Row-level lineage recorded with the films table as parent.
        for l in distinct {
            let e = &c.lineage.edges_of(l)[0];
            assert_eq!(e.data_type, DataKind::Row);
            assert_eq!(e.func_id, "gen_recency_score");
        }
        // Newer year → higher score.
        let s91 = out
            .table
            .cell(0, "recency_score")
            .unwrap()
            .as_f64()
            .unwrap();
        let s75 = out
            .table
            .cell(2, "recency_score")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(s91 > s75);
    }

    #[test]
    fn chained_narrow_ops_link_row_lineage() {
        let mut c = ctx();
        execute_body(
            &mut c,
            "gen_recency_score",
            1,
            &FunctionBody::MapExpr {
                input: "films".into(),
                expr: "clamp01((year - 1970) / 25.0)".into(),
                output_column: "recency_score".into(),
            },
            "scored",
        )
        .unwrap();
        let out = execute_body(
            &mut c,
            "combine_score",
            1,
            &FunctionBody::MapExpr {
                input: "scored".into(),
                expr: "recency_score * 1.0".into(),
                output_column: "final_score".into(),
            },
            "combined",
        )
        .unwrap();
        let lid_col = out.table.schema().index_of("lid").unwrap();
        let lid = out.table.rows()[0][lid_col].as_int().unwrap();
        let trace = c.lineage.trace(lid).unwrap();
        // Tuple -> scored tuple -> films table root.
        assert!(trace.depth() >= 3);
        let funcs: Vec<String> = trace.functions().into_iter().map(|(f, _)| f).collect();
        assert_eq!(funcs[0], "combine_score");
        assert!(funcs.contains(&"gen_recency_score".to_string()));
        assert!(funcs.contains(&"ingest".to_string()));
    }

    #[test]
    fn filter_keeps_subset_with_lineage() {
        let mut c = ctx();
        let out = execute_body(
            &mut c,
            "filter_recent",
            1,
            &FunctionBody::FilterExpr {
                input: "films".into(),
                predicate: "year >= 1988".into(),
            },
            "recent",
        )
        .unwrap();
        assert_eq!(out.table.len(), 2);
        assert!(out.table.schema().index_of("lid").is_some());
    }

    #[test]
    fn concept_score_separates_plots() {
        let mut c = ctx();
        let plots = Table::from_rows(
            "plots",
            Schema::of(&[("id", DataType::Int), ("chars", DataType::Str)]),
            vec![
                vec![1i64.into(), "A gun fight and a murder on a plane.".into()],
                vec![2i64.into(), "Tea in a quiet garden all afternoon.".into()],
            ],
        )
        .unwrap();
        c.ingest_table(plots, "d").unwrap();
        let out = execute_body(
            &mut c,
            "gen_excitement_score",
            1,
            &FunctionBody::ConceptScore {
                input: "plots".into(),
                text_column: "chars".into(),
                keywords: vec!["gun".into(), "murder".into(), "attack".into()],
                output_column: "excitement_score".into(),
            },
            "scored",
        )
        .unwrap();
        let s1 = out
            .table
            .cell(0, "excitement_score")
            .unwrap()
            .as_f64()
            .unwrap();
        let s2 = out
            .table
            .cell(1, "excitement_score")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(s1 > s2 + 0.2, "exciting={s1} calm={s2}");
    }

    #[test]
    fn visual_classify_flags_boring_and_fails_on_heic() {
        let mut c = ctx();
        c.media
            .add_image(exciting_poster("file://posters/1.png", MediaFormat::Png));
        c.media.add_image(boring_poster("file://posters/2.png"));
        c.media
            .add_image(exciting_poster("file://posters/3.heic", MediaFormat::Heic));
        let posters = Table::from_rows(
            "posters",
            Schema::of(&[("id", DataType::Int), ("poster_uri", DataType::Str)]),
            vec![
                vec![1i64.into(), "file://posters/1.png".into()],
                vec![2i64.into(), "file://posters/2.png".into()],
                vec![3i64.into(), "file://posters/3.heic".into()],
            ],
        )
        .unwrap();
        c.ingest_table(posters, "p").unwrap();
        let body = FunctionBody::VisualClassify {
            input: "posters".into(),
            uri_column: "poster_uri".into(),
            output_column: "boring".into(),
            implementation: VisionImpl::VlmAccurate,
            threshold: 0.4,
            convert_unsupported: false,
        };
        let out = execute_body(&mut c, "classify_boring", 1, &body, "flagged").unwrap();
        // The HEIC row failed; the two PNG rows continued (§5).
        assert_eq!(out.table.len(), 2);
        assert_eq!(out.failed_rows.len(), 1);
        assert!(out.failed_rows[0].1.contains("unsupported"));
        assert_eq!(out.table.cell(0, "boring").unwrap(), &Value::Bool(false));
        assert_eq!(out.table.cell(1, "boring").unwrap(), &Value::Bool(true));

        // The repaired version (conversion enabled) processes all rows.
        let patched = FunctionBody::VisualClassify {
            input: "posters".into(),
            uri_column: "poster_uri".into(),
            output_column: "boring".into(),
            implementation: VisionImpl::VlmAccurate,
            threshold: 0.4,
            convert_unsupported: true,
        };
        let out2 = execute_body(&mut c, "classify_boring", 2, &patched, "flagged").unwrap();
        assert_eq!(out2.table.len(), 3);
        assert!(out2.failed_rows.is_empty());
    }

    #[test]
    fn sql_dedup_key_keeps_first_per_key() {
        use kath_storage::BufferPool;
        let (int, float) = (Value::Int, Value::Float);
        // (case, key type, keys, positions kept): the first row of each key
        // under `Value`'s equality.
        let cases: Vec<(&str, DataType, Vec<Value>, Vec<i64>)> = vec![
            (
                "ints",
                DataType::Int,
                vec![int(1), int(1), int(2)],
                vec![0, 2],
            ),
            (
                "NULL keys",
                DataType::Int,
                vec![Value::Null, int(1), Value::Null, int(1)],
                vec![0, 1],
            ),
            (
                "1 and 1.0 under ANY",
                DataType::Any,
                vec![int(1), float(1.0), float(1.5), int(2), float(2.0)],
                vec![0, 2, 3],
            ),
            (
                "NaN",
                DataType::Float,
                vec![float(f64::NAN), float(1.0), float(f64::NAN)],
                vec![0, 1],
            ),
            (
                "-0.0 and 0.0",
                DataType::Float,
                vec![float(-0.0), float(0.0), float(1.0), float(-0.0)],
                vec![0, 2],
            ),
            (
                "many groups",
                DataType::Str,
                (0..40).map(|i| Value::Str(format!("k{}", i % 7))).collect(),
                (0..7).collect(),
            ),
        ];
        let pool = Arc::new(BufferPool::with_budget(4));
        for (case, dtype, keys, kept) in cases {
            let schema = Schema::of(&[("k", dtype), ("pos", DataType::Int)]);
            let rows = keys.iter().enumerate();
            let rows = rows.map(|(i, k)| vec![k.clone(), int(i as i64)]).collect();
            let resident = Table::from_rows("dup", schema, rows).unwrap();
            // Sealed two rows a group, with the last row in an open tail.
            let n = resident.len();
            let mut sealed = Table::new("dup", resident.schema().clone());
            sealed
                .extend(resident.to_rows().unwrap()[..n - 1].to_vec())
                .unwrap();
            let mut sealed = sealed.seal(&pool, 2).unwrap();
            sealed
                .push(resident.to_rows().unwrap()[n - 1].clone())
                .unwrap();
            assert!(sealed.groups().len() > 1 && sealed.groups().last().unwrap().is_open());
            let positions = |t: &Table| -> Vec<i64> {
                let rows = t.to_rows().unwrap();
                rows.iter().map(|r| r[1].as_int().unwrap()).collect()
            };
            for input in [&resident, &sealed] {
                let out = dedup_by_key(input, "k").unwrap();
                assert_eq!(positions(&out), kept, "{case}, paged {}", input.is_paged());
                assert_eq!((out.name(), out.schema()), (input.name(), input.schema()));
                let all = resident.to_rows().unwrap();
                let want: Vec<Row> = kept.iter().map(|&p| all[p as usize].clone()).collect();
                assert_eq!(out.to_rows().unwrap(), want, "{case}");
            }
            let mut c = ctx();
            c.ingest_table(sealed, "d").unwrap();
            let body = FunctionBody::Sql {
                query: "SELECT * FROM dup".into(),
                dedup_key: Some("k".into()),
            };
            let out = execute_body(&mut c, "dedup", 1, &body, "o").unwrap();
            assert_eq!(positions(&out.table), kept, "{case} through SQL");
        }
        assert!(dedup_by_key(&ctx().catalog.get("films").unwrap(), "nope").is_err());
    }

    #[test]
    fn view_populate_text_and_scene() {
        let mut c = ctx();
        c.media.add_document(Document::new(
            "doc://plot/1",
            "Irwin Winkler directed it. A gun fight erupts.",
        ));
        c.media
            .add_document(Document::new("doc://plot/2", "Tea in the garden."));
        c.media
            .add_image(exciting_poster("file://posters/1.png", MediaFormat::Png));
        c.media.add_image(boring_poster("file://posters/2.png"));

        let t = execute_body(
            &mut c,
            "populate_views",
            1,
            &FunctionBody::ViewPopulate {
                modality: "text".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: false,
            },
            "text_views",
        )
        .unwrap();
        assert!(t.failed_rows.is_empty());
        assert!(c.catalog.contains("text_texts"));
        assert_eq!(c.catalog.get("text_texts").unwrap().len(), 2);
        // did comes from the URI convention.
        let texts = c.catalog.get("text_texts").unwrap();
        assert_eq!(texts.cell(0, "did").unwrap(), &Value::Int(1));

        let s = execute_body(
            &mut c,
            "populate_views",
            1,
            &FunctionBody::ViewPopulate {
                modality: "scene".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: false,
            },
            "scene_views",
        )
        .unwrap();
        assert!(s.failed_rows.is_empty());
        assert!(c.catalog.contains("scene_objects"));
        assert!(c.catalog.get("scene_objects").unwrap().len() >= 4);
    }

    #[test]
    fn view_populate_collects_heic_failures_until_patched() {
        let mut c = ctx();
        c.media
            .add_image(exciting_poster("file://posters/9.heic", MediaFormat::Heic));
        let v1 = execute_body(
            &mut c,
            "populate_views",
            1,
            &FunctionBody::ViewPopulate {
                modality: "scene".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: false,
            },
            "sv",
        )
        .unwrap();
        assert_eq!(v1.failed_rows.len(), 1);
        let v2 = execute_body(
            &mut c,
            "populate_views",
            2,
            &FunctionBody::ViewPopulate {
                modality: "scene".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: true,
            },
            "sv",
        )
        .unwrap();
        assert!(v2.failed_rows.is_empty());
    }

    #[test]
    fn a_stamp_phase_returns_the_lineage_error_and_publishes_nothing() {
        // A lid recorded ahead of the allocator puts whatever a node stamps
        // next out of allocation order.
        let planted = |c: &mut ExecContext| {
            c.lineage
                .record(1_000, None, None, "planted", 1, DataKind::Table)
                .unwrap();
        };
        for modality in ["text", "scene"] {
            let mut c = ctx();
            c.media.add_document(Document::new("doc://plot/1", "Tea."));
            c.media.add_image(boring_poster("file://posters/1.png"));
            planted(&mut c);
            let body = FunctionBody::ViewPopulate {
                modality: modality.into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: false,
            };
            let err = execute_body(&mut c, "populate_views", 1, &body, "views").unwrap_err();
            assert!(matches!(err, ExecError::Lineage(_)), "{modality}: {err}");
            assert!(!c.catalog.contains("views"));
            assert!(!c.catalog.contains(&format!("{modality}_texts")));
            assert!(!c.catalog.contains(&format!("{modality}_objects")));
        }

        // The row allocator of a population parks the store's refusal for
        // the population to return: once the root is in, this is the only
        // place a view row's edge can be refused.
        let mut store = kath_lineage::LineageStore::new();
        let root = store.alloc_lid();
        store
            .record(root, None, None, "ingest_media", 1, DataKind::Table)
            .unwrap();
        store
            .record(50, None, None, "planted", 1, DataKind::Table)
            .unwrap();
        let mut stamp = store.run("populate_views", 1, DataKind::Row);
        let mut failed = None;
        let mut next_lid = row_lids(&mut stamp, root, &mut failed);
        next_lid();
        next_lid();
        drop(next_lid);
        assert_eq!(failed, Some(LineageError::OutOfOrder { lid: 2, last: 50 }));
        assert_eq!(store.len(), 2);

        // A narrow transform propagates the same refusal.
        let mut c = ctx();
        planted(&mut c);
        let body = FunctionBody::FilterExpr {
            input: "films".into(),
            predicate: "year >= 1988".into(),
        };
        let err = execute_body(&mut c, "filter_recent", 1, &body, "recent").unwrap_err();
        assert!(matches!(err, ExecError::Lineage(_)), "{err}");
        assert!(!c.catalog.contains("recent"));
    }

    #[test]
    fn unknown_modality_is_fatal() {
        let mut c = ctx();
        let err = execute_body(
            &mut c,
            "populate_views",
            1,
            &FunctionBody::ViewPopulate {
                modality: "audio".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: false,
            },
            "o",
        );
        assert!(matches!(err, Err(ExecError::Media(_))));
    }

    #[test]
    fn ocr_impl_is_less_accurate_than_vlm() {
        let llm = SimLlm::new(42, TokenMeter::new());
        let boring = boring_poster("b.png");
        let exciting = exciting_poster("e.png", MediaFormat::Png);
        let vlm_b = visual_interest(&boring, VisionImpl::VlmAccurate, &llm).unwrap();
        let vlm_e = visual_interest(&exciting, VisionImpl::VlmAccurate, &llm).unwrap();
        assert!(vlm_e > vlm_b + 0.2, "vlm: exciting={vlm_e} boring={vlm_b}");
        // OCR cannot see colors/objects: both posters look alike to it.
        let ocr_b = visual_interest(&boring, VisionImpl::Ocr, &llm).unwrap();
        let ocr_e = visual_interest(&exciting, VisionImpl::Ocr, &llm).unwrap();
        assert!((ocr_e - ocr_b).abs() < 0.15);
    }

    /// `rows` plots, every third one exciting.
    fn plots_ctx(rows: i64) -> ExecContext {
        let mut c = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        let mut plots = Table::new(
            "plots",
            Schema::of(&[("id", DataType::Int), ("chars", DataType::Str)]),
        );
        for i in 0..rows {
            let text = if i % 3 == 0 {
                format!("A gun fight and a murder on plane {i}.")
            } else {
                format!("Tea in quiet garden {i}. A calm walk home.")
            };
            plots.push(vec![i.into(), text.into()]).unwrap();
        }
        c.ingest_table(plots, "d").unwrap();
        c
    }

    fn excitement_body() -> FunctionBody {
        FunctionBody::ConceptScore {
            input: "plots".into(),
            text_column: "chars".into(),
            keywords: vec!["gun".into(), "murder".into(), "attack".into()],
            output_column: "excitement_score".into(),
        }
    }

    #[test]
    fn a_semantic_node_answers_to_the_deadline_and_publishes_nothing() {
        let mut c = plots_ctx(1000);
        c.limits.timeout = Some(std::time::Duration::ZERO);
        let lineage_rows = c.lineage.len();
        for threads in [1usize, 4] {
            c.threads = threads;
            let err = execute_body(
                &mut c,
                "gen_excitement_score",
                1,
                &excitement_body(),
                "scored",
            )
            .unwrap_err();
            assert!(
                matches!(&err, ExecError::Guard(StorageError::Cancelled(m)) if m == "deadline exceeded"),
                "{err:?}"
            );
            assert!(!c.catalog.contains("scored"));
            assert_eq!(c.table_lid("scored"), None);
            assert_eq!(c.lineage.len(), lineage_rows);
            // The guard is checked before the first morsel: no model call.
            assert_eq!(c.llm.meter().usage().calls, 0);
        }
        // The view populations stand behind the same guard.
        c.media
            .add_document(Document::new("doc://plot/1", "A gun fight erupts."));
        c.media.add_image(boring_poster("file://posters/1.png"));
        for modality in ["text", "scene"] {
            let body = FunctionBody::ViewPopulate {
                modality: modality.into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: false,
            };
            let err = execute_body(&mut c, "populate_views", 1, &body, "views").unwrap_err();
            assert!(matches!(err, ExecError::Guard(StorageError::Cancelled(_))));
            assert_eq!(
                c.lineage.len(),
                lineage_rows,
                "no media root for {modality}"
            );
        }
        c.limits.timeout = None;
        let out = execute_body(
            &mut c,
            "gen_excitement_score",
            1,
            &excitement_body(),
            "scored",
        )
        .unwrap();
        assert_eq!(out.table.len(), 1000);
    }

    #[test]
    fn a_cancel_fired_from_another_thread_aborts_the_node_mid_run() {
        use std::sync::mpsc::channel;
        let mut c = plots_ctx(200);
        let table = c.catalog.get("plots").unwrap();
        let token = c.limits.cancel.clone();
        // Row 0 tells the canceller the node is running and waits until the
        // token has fired, so the cancel lands strictly inside the run:
        // after the first morsel was claimed, before the second is.
        let (running_tx, running_rx) = channel::<()>();
        let (fired_tx, fired_rx) = channel::<()>();
        let (running_tx, fired_rx) = (
            std::sync::Mutex::new(running_tx),
            std::sync::Mutex::new(fired_rx),
        );
        let scored = std::sync::atomic::AtomicUsize::new(0);
        let result = std::thread::scope(|scope| {
            scope.spawn(move || {
                running_rx.recv().unwrap();
                token.cancel();
                fired_tx.send(()).unwrap();
            });
            narrow_transform(
                &mut c,
                "gen_excitement_score",
                1,
                &table,
                "scored",
                &[("excitement_score", DataType::Float)],
                SEMANTIC_MORSEL_ROWS,
                each_value(table.schema(), "id", |id| {
                    if id == Value::Int(0) {
                        running_tx.lock().unwrap().send(()).unwrap();
                        fired_rx.lock().unwrap().recv().unwrap();
                    }
                    scored.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    Ok(Some(vec![Value::Float(0.5)]))
                }),
            )
        });
        let err = result.unwrap_err();
        assert!(
            matches!(&err, ExecError::Guard(StorageError::Cancelled(m)) if m == "cancel token fired"),
            "{err:?}"
        );
        // Exactly the first morsel ran; nothing was stamped or published.
        assert_eq!(scored.into_inner(), SEMANTIC_MORSEL_ROWS);
        assert!(!c.catalog.contains("scored"));
    }

    #[test]
    fn semantic_nodes_report_their_workers_and_stamp_time() {
        let mut serial_ctx = plots_ctx(300);
        let serial = execute_body(
            &mut serial_ctx,
            "gen_excitement_score",
            1,
            &excitement_body(),
            "scored",
        )
        .unwrap();
        assert_eq!((serial.workers, serial.worker_ms.len()), (1, 0));
        let mut par_ctx = plots_ctx(300);
        par_ctx.threads = 3;
        let parallel = execute_body(
            &mut par_ctx,
            "gen_excitement_score",
            1,
            &excitement_body(),
            "scored",
        )
        .unwrap();
        assert_eq!((parallel.workers, parallel.worker_ms.len()), (3, 3));
        assert!(parallel.merge_ms > 0.0);
        assert_eq!(parallel.table, serial.table);
        assert_eq!(
            par_ctx.llm.meter().usage(),
            serial_ctx.llm.meter().usage(),
            "token totals are sums: the order workers charge in cannot show"
        );
        // One morsel's worth of rows never spawns, whatever `threads` says.
        let mut small = plots_ctx(SEMANTIC_MORSEL_ROWS as i64);
        small.threads = 8;
        let out = execute_body(
            &mut small,
            "gen_excitement_score",
            1,
            &excitement_body(),
            "scored",
        )
        .unwrap();
        assert_eq!(out.workers, 1);
    }

    #[test]
    fn an_unknown_column_still_fails_every_row() {
        let mut c = plots_ctx(3);
        let body = FunctionBody::ConceptScore {
            input: "plots".into(),
            text_column: "plot".into(),
            keywords: vec!["gun".into()],
            output_column: "s".into(),
        };
        let out = execute_body(&mut c, "score", 1, &body, "o").unwrap();
        assert!(out.table.is_empty());
        assert_eq!(out.failed_rows.len(), 3);
        assert!(out
            .failed_rows
            .iter()
            .all(|(_, e)| e == "unknown column 'plot'"));
        let body = FunctionBody::MapExpr {
            input: "plots".into(),
            expr: "no_such_column + 1".into(),
            output_column: "y".into(),
        };
        let out = execute_body(&mut c, "map", 1, &body, "o2").unwrap();
        assert_eq!(out.failed_rows.len(), 3);
        assert!(
            out.failed_rows[0].1.contains("no_such_column"),
            "{:?}",
            out.failed_rows[0]
        );
    }

    #[test]
    fn a_map_expr_that_raises_on_some_rows_fails_only_those_rows() {
        for threads in [1usize, 2, 8] {
            let mut c = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
            c.threads = threads;
            let xs: Vec<Value> = vec![
                0i64.into(),
                1i64.into(),
                2i64.into(),
                3i64.into(),
                "four".into(),
                Value::Null,
                6i64.into(),
                3i64.into(),
            ];
            let rows = xs.into_iter().enumerate();
            let t = Table::from_rows(
                "xs",
                Schema::of(&[("id", DataType::Int), ("x", DataType::Any)]),
                rows.map(|(i, x)| vec![(i as i64).into(), x]).collect(),
            )
            .unwrap();
            c.ingest_table(t, "file://xs").unwrap();
            let body = FunctionBody::MapExpr {
                input: "xs".into(),
                expr: "10 / (x - 3)".into(),
                output_column: "y".into(),
            };
            let out = execute_body(&mut c, "inverse", 1, &body, "ys").unwrap();
            // Recorded when expression bodies ran one row at a time.
            let failed =
                |desc: &str, msg: &str| (desc.to_string(), format!("expression error: {msg}"));
            assert_eq!(
                out.failed_rows,
                vec![
                    failed("3, 3", "division by zero"),
                    failed("4, four", "cannot apply - to Str(\"four\") and Int(3)"),
                    failed("7, 3", "division by zero"),
                ],
                "threads {threads}"
            );
            let int = |v: i64| Value::Int(v);
            assert_eq!(
                out.table.to_rows().unwrap(),
                vec![
                    vec![int(0), int(0), int(2), int(-3)],
                    vec![int(1), int(1), int(3), int(-5)],
                    vec![int(2), int(2), int(4), int(-10)],
                    vec![int(5), Value::Null, int(5), Value::Null],
                    vec![int(6), int(6), int(6), int(3)],
                ],
                "threads {threads}"
            );
            assert_eq!(out.output_lid, 7);
            for lid in 2..=6 {
                assert_eq!(c.lineage.edges_of(lid)[0].parent_lid, Some(1));
            }
        }
    }

    mod stamp_order {
        use super::*;
        use proptest::prelude::*;

        /// What a run of the routine left behind, `ts` aside.
        #[derive(Debug, PartialEq)]
        struct Observed {
            rows: Vec<Row>,
            failed_rows: Vec<(String, String)>,
            output_lid: i64,
            /// `(lid, parent_lid, func_id, ver_id, kind)` of every edge the run recorded.
            edges: Vec<(i64, Option<i64>, String, u32, DataKind)>,
        }

        /// Input rows `(id, lid?, m, tag)`, `m` the row's mask byte: with
        /// `with_lids` every row carries its own lid, so parents are
        /// row-level. With `sealed` all rows but the last two are sealed
        /// into five-row groups and those two pushed into an open tail, so
        /// the columns are read across pages and group boundaries.
        fn input_ctx(mask: &[u8], with_lids: bool, sealed: bool) -> ExecContext {
            let mut c = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
            let mut columns = vec![
                ("id", DataType::Int),
                ("m", DataType::Int),
                ("tag", DataType::Str),
            ];
            if with_lids {
                columns.insert(1, ("lid", DataType::Int));
            }
            let mut t = Table::new("t", Schema::of(&columns));
            let tail = mask.len().saturating_sub(2);
            for (i, m) in mask.iter().enumerate() {
                if sealed && i == tail {
                    let pool = Arc::new(kath_storage::BufferPool::with_budget(4));
                    t = t.seal(&pool, 5).unwrap();
                }
                let mut row: Row = vec![
                    (i as i64).into(),
                    (*m as i64).into(),
                    format!("tag{m}").into(),
                ];
                if with_lids {
                    let lid = c.lineage.alloc_lid();
                    row.insert(1, lid.into());
                }
                t.push(row).unwrap();
            }
            c.ingest_table(t, "u").unwrap();
            c
        }

        /// The bodies the routine runs: a closure that keeps, drops or
        /// fails a row by its mask byte, and two expression bodies whose
        /// division raises on every row with `m % 3 = 1`.
        #[derive(Debug, Clone, Copy)]
        enum Body {
            Mask,
            Map,
            Filter,
        }

        impl Body {
            fn new_columns(self) -> Vec<(&'static str, DataType)> {
                match self {
                    Body::Mask => vec![("x", DataType::Int)],
                    Body::Map => vec![("x", DataType::Any)],
                    Body::Filter => vec![],
                }
            }

            /// The body's expression, lowered against `schema`.
            fn lowered(self, schema: &Schema) -> Result<Expr, String> {
                let text = match self {
                    Body::Filter => "100 / (m % 3 - 1) > 0",
                    _ => "100 / (m % 3 - 1)",
                };
                let parsed = kath_sql::parse_expr(text).map_err(|e| e.to_string())?;
                kath_sql::to_expr(&parsed, schema).map_err(|e| e.to_string())
            }

            /// What the body computes for one row, written out by hand.
            fn expected(self, mask: &[u8], row: &Row) -> Computed {
                let i = row[0].as_int().unwrap() as usize;
                let m = mask[i];
                let zero = || Err("expression error: division by zero".to_string());
                match (self, m % 3) {
                    (Body::Mask, 0) => Ok(Some(vec![Value::Int(m as i64 * 7)])),
                    (Body::Mask, 1) => Ok(None),
                    (Body::Mask, _) => Err(format!("row {i} failed with {m}")),
                    (_, 1) => zero(),
                    (Body::Map, r) => Ok(Some(vec![Value::Int(100 / (r as i64 - 1))])),
                    (_, 0) => Ok(None),
                    (_, _) => Ok(Some(Vec::new())),
                }
            }

            /// The body's compute phase over one morsel.
            fn compute<'a>(
                self,
                mask: &'a [u8],
                schema: &'a Schema,
            ) -> impl Fn(&RowBatch) -> Vec<Computed> + Sync + 'a {
                let lowered = self.lowered(schema);
                move |morsel| match self {
                    Body::Mask => (morsel.to_rows().iter())
                        .map(|r| self.expected(mask, r))
                        .collect(),
                    Body::Map => eval_morsel(&lowered, schema, morsel, |v| Some(vec![v])),
                    Body::Filter => {
                        eval_morsel(&lowered, schema, morsel, |v| v.is_truthy().then(Vec::new))
                    }
                }
            }
        }

        fn observe(c: &ExecContext, before: usize, out: ExecOutcome) -> Observed {
            Observed {
                rows: out.table.rows().to_vec(),
                failed_rows: out.failed_rows,
                output_lid: out.output_lid,
                edges: (c.lineage.entries().skip(before))
                    .map(|e| (e.lid, e.parent_lid, e.func_id, e.ver_id, e.data_type))
                    .collect(),
            }
        }

        /// The routine as one plain loop: what every worker count and morsel
        /// size must reproduce.
        fn serial_loop(mask: &[u8], with_lids: bool, body: Body) -> Observed {
            let mut c = input_ctx(mask, with_lids, false);
            let before = c.lineage.len();
            let input = c.catalog.get("t").unwrap();
            let table_lid = c.table_lid("t");
            let lid_idx = input.schema().index_of("lid");
            let (mut rows, mut failed_rows, mut edges) = (Vec::new(), Vec::new(), Vec::new());
            for row in input.to_rows().unwrap() {
                match body.expected(mask, &row) {
                    Err(msg) => {
                        let desc = row.iter().map(Value::render).collect::<Vec<_>>().join(", ");
                        failed_rows.push((desc, msg));
                    }
                    Ok(None) => {}
                    Ok(Some(extra)) => {
                        let lid = c.lineage.alloc_lid();
                        let parent = lid_idx.and_then(|i| row[i].as_int()).or(table_lid);
                        edges.push((lid, parent, "f".to_string(), 3, DataKind::Row));
                        let mut out = row.clone();
                        match lid_idx {
                            Some(i) => out[i] = Value::Int(lid),
                            None => out.push(Value::Int(lid)),
                        }
                        out.extend(extra);
                        rows.push(out);
                    }
                }
            }
            let output_lid = c.lineage.alloc_lid();
            edges.push((output_lid, table_lid, "f".to_string(), 3, DataKind::Table));
            assert_eq!(c.lineage.len(), before, "the oracle records nothing itself");
            Observed {
                rows,
                failed_rows,
                output_lid,
                edges,
            }
        }

        proptest! {
            #[test]
            fn every_worker_count_and_morsel_size_stamps_like_one_serial_loop(
                mask in prop::collection::vec(any::<u8>(), 0..300),
                with_lids in any::<bool>(),
                sealed in any::<bool>(),
            ) {
                for body in [Body::Mask, Body::Map, Body::Filter] {
                    let expected = serial_loop(&mask, with_lids, body);
                    for morsel_rows in [1usize, 7, 4096] {
                        for workers in [1usize, 2, 8] {
                            let mut c = input_ctx(&mask, with_lids, sealed);
                            c.threads = workers;
                            let before = c.lineage.len();
                            let input = c.catalog.get("t").unwrap();
                            let out = narrow_transform(
                                &mut c,
                                "f",
                                3,
                                &input,
                                "o",
                                &body.new_columns(),
                                morsel_rows,
                                body.compute(&mask, input.schema()),
                            )
                            .unwrap();
                            prop_assert_eq!(out.rows_in, mask.len());
                            prop_assert_eq!(
                                out.workers,
                                workers.min(mask.len().div_ceil(morsel_rows)).max(1)
                            );
                            let observed = observe(&c, before, out);
                            prop_assert_eq!(
                                &observed,
                                &expected,
                                "{:?}, morsel_rows {} workers {}",
                                body,
                                morsel_rows,
                                workers
                            );
                        }
                    }
                }
            }
        }
    }
}

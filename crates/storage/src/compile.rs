//! Closure-compiled expressions and fused filter→project pipelines — the
//! engine's third execution strategy, after Volcano and batched.
//!
//! Following Neumann's observation that interpretation overhead dominates
//! once data is columnar and in-cache, [`CompiledExpr::compile`] lowers a
//! schema-resolved [`Expr`] **once per query** into a tree of specialized
//! `Fn(&RowBatch) -> ColumnVector` kernels: column ordinals are resolved at
//! compile time (no per-batch name lookup), operator/type dispatch happens
//! at compile time (no per-batch `match` over the expression tree), and the
//! hot `int-column <cmp> int-literal` shape gets a dedicated tight loop.
//! [`CompiledPipeline`] then fuses the filter and projection of a pipeline
//! into a single per-batch call with no per-operator `next_batch` dispatch.
//!
//! Compilation is **total or not at all** per expression: any node the
//! compiler does not support (model-backed functions like `similarity` /
//! `embed`, unknown columns) makes [`CompiledExpr::compile`] return `None`
//! and the caller falls back to the interpreted operators. Kernels reuse
//! the exact batch-evaluator building blocks ([`Expr::eval_batch`]'s
//! kernels are shared, not reimplemented), so compiled results are
//! byte-identical to interpreted ones — including SQL three-valued logic,
//! `AND`/`OR` short-circuit error masking, and division-by-zero errors.

use crate::batch::{ColumnData, ColumnVector, NullBitmap, RowBatch};
use crate::expr::{
    call_kernel, combine_logical, eval_bin_batch, is_null_kernel, neg_kernel, not_kernel,
};
use crate::{BinOp, Expr, Schema, StorageError, Value};
use std::fmt;
use std::sync::Arc;

/// Environment variable overriding the default compile mode
/// (`off`/`0`/`false`, `on`/`1`/`true`, anything else = `auto`).
pub const COMPILE_ENV: &str = "KATHDB_COMPILE";

/// Rows below which compiling a query costs more than it saves: the
/// one-time closure build (and its cost-model setup term) must amortize
/// over enough per-value savings to pay for itself. Shared by the optimizer
/// ([`compile_pays_off`] is the single decision rule) so the cost model and
/// the runtime's auto mode can never disagree.
pub const COMPILE_BREAK_EVEN_ROWS: usize = 5000;

/// Whether compiling a pipeline over `rows` input rows is predicted to win
/// over interpreted batched execution. This is the *one* decision rule both
/// the optimizer's `(mode, dop, compiled)` strategy choice and the SQL
/// driver's `auto` mode consult.
pub fn compile_pays_off(rows: usize) -> bool {
    rows > COMPILE_BREAK_EVEN_ROWS
}

/// How the engine chooses between interpreted and compiled pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompileMode {
    /// Never compile; always run the interpreted operators.
    Off,
    /// Compile every eligible pipeline (unsupported expressions still fall
    /// back per-pipeline to interpreted execution).
    On,
    /// Cost-based: compile only when [`compile_pays_off`] predicts a win
    /// for the query's input cardinality.
    #[default]
    Auto,
}

impl CompileMode {
    /// Reads the default mode from [`COMPILE_ENV`]; absent or unrecognized
    /// values mean [`CompileMode::Auto`].
    pub fn from_env() -> CompileMode {
        Self::parse(std::env::var(COMPILE_ENV).ok().as_deref())
    }

    fn parse(raw: Option<&str>) -> CompileMode {
        match raw.map(|s| s.trim().to_ascii_lowercase()).as_deref() {
            Some("off") | Some("0") | Some("false") => CompileMode::Off,
            Some("on") | Some("1") | Some("true") => CompileMode::On,
            _ => CompileMode::Auto,
        }
    }
}

impl fmt::Display for CompileMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompileMode::Off => "off",
            CompileMode::On => "on",
            CompileMode::Auto => "auto",
        })
    }
}

/// One compiled kernel: batch in, column out.
type Kernel = Arc<dyn Fn(&RowBatch) -> Result<ColumnVector, StorageError> + Send + Sync>;

/// An expression lowered to a closure tree, specialized against one schema.
///
/// Cheap to clone (kernels are shared behind `Arc`) and `Send + Sync`, so
/// one compilation serves every morsel worker of a parallel query.
#[derive(Clone)]
pub struct CompiledExpr {
    kernel: Kernel,
}

impl fmt::Debug for CompiledExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CompiledExpr")
    }
}

impl CompiledExpr {
    /// Compiles `expr` against `schema`, or `None` when any node is outside
    /// the compilable subset (model-backed calls like `similarity`/`embed`,
    /// unknown functions or columns). A `None` is not an error: the caller
    /// runs the interpreted path, which reports the canonical error if the
    /// expression is genuinely invalid.
    pub fn compile(expr: &Expr, schema: &Schema) -> Option<CompiledExpr> {
        compile_kernel(expr, schema).map(|kernel| CompiledExpr { kernel })
    }

    /// Evaluates the compiled kernel over a batch: one value per row.
    pub fn eval(&self, batch: &RowBatch) -> Result<ColumnVector, StorageError> {
        (self.kernel)(batch)
    }
}

/// Scalar functions with value-level semantics the compiler may inline.
/// `similarity` and `embed` are deliberately absent: they are model-backed
/// (FAO) calls that the pipeline must fall back to interpreted operators
/// for, per the execution contract.
const COMPILABLE_CALLS: &[&str] = &[
    "lower", "upper", "length", "abs", "round", "contains", "coalesce", "min2", "max2", "clamp01",
];

fn compile_kernel(expr: &Expr, schema: &Schema) -> Option<Kernel> {
    match expr {
        Expr::Col(name) => {
            let idx = schema.resolve(name).ok()?;
            Some(Arc::new(move |b: &RowBatch| Ok(b.column(idx).clone())))
        }
        Expr::Lit(v) => {
            let v = v.clone();
            Some(Arc::new(move |b: &RowBatch| {
                Ok(ColumnVector::repeat(&v, b.num_rows()))
            }))
        }
        Expr::Bin(op @ (BinOp::And | BinOp::Or), l, r) => {
            let lk = compile_kernel(l, schema)?;
            let rk = compile_kernel(r, schema)?;
            let op = *op;
            // The row path may short-circuit past erroring rows of the
            // right operand; keep the uncompiled expression around for the
            // same row-wise re-run the batch evaluator does.
            let fallback = expr.clone();
            let fallback_schema = schema.clone();
            Some(Arc::new(move |b: &RowBatch| {
                let lv = lk(b)?;
                match rk(b) {
                    Ok(rv) => Ok(combine_logical(op, &lv, &rv)),
                    Err(_) => fallback.eval_rows(b, &fallback_schema),
                }
            }))
        }
        Expr::Bin(op, l, r) => {
            // The hot filter shape — `int_column <cmp> int_literal` — gets a
            // dedicated kernel: no right-hand column materialization at all.
            // The payload check happens per batch (a column declared Int can
            // still arrive as a mixed `Any` payload); mismatches take the
            // general kernel with an identical result.
            if op.is_comparison() {
                if let (Expr::Col(name), Expr::Lit(Value::Int(k))) = (l.as_ref(), r.as_ref()) {
                    let idx = schema.resolve(name).ok()?;
                    let (op, k) = (*op, *k);
                    return Some(Arc::new(move |b: &RowBatch| {
                        let col = b.column(idx);
                        let n = col.len();
                        if let Some(xs) = col.as_ints() {
                            let mut nulls = NullBitmap::new();
                            let mut out = Vec::with_capacity(n);
                            for (i, x) in xs.iter().enumerate() {
                                let null = col.is_null(i);
                                nulls.push(null);
                                out.push(!null && op.holds(x.cmp(&k)));
                            }
                            return Ok(ColumnVector::from_parts(ColumnData::Bool(out), nulls));
                        }
                        eval_bin_batch(op, col, &ColumnVector::repeat(&Value::Int(k), n))
                    }));
                }
            }
            let lk = compile_kernel(l, schema)?;
            let rk = compile_kernel(r, schema)?;
            let op = *op;
            Some(Arc::new(move |b: &RowBatch| {
                eval_bin_batch(op, &lk(b)?, &rk(b)?)
            }))
        }
        Expr::Not(e) => {
            let k = compile_kernel(e, schema)?;
            Some(Arc::new(move |b: &RowBatch| Ok(not_kernel(&k(b)?))))
        }
        Expr::Neg(e) => {
            let k = compile_kernel(e, schema)?;
            Some(Arc::new(move |b: &RowBatch| neg_kernel(&k(b)?)))
        }
        Expr::IsNull(e) => {
            let k = compile_kernel(e, schema)?;
            Some(Arc::new(move |b: &RowBatch| Ok(is_null_kernel(&k(b)?))))
        }
        Expr::Call(name, args) => {
            if !COMPILABLE_CALLS.contains(&name.as_str()) {
                return None;
            }
            let kernels: Vec<Kernel> = args
                .iter()
                .map(|a| compile_kernel(a, schema))
                .collect::<Option<_>>()?;
            let name = name.clone();
            Some(Arc::new(move |b: &RowBatch| {
                let cols: Vec<ColumnVector> =
                    kernels.iter().map(|k| k(b)).collect::<Result<_, _>>()?;
                call_kernel(&name, &cols, b.num_rows())
            }))
        }
    }
}

/// One projection output of a compiled pipeline.
#[derive(Debug, Clone)]
enum Output {
    /// A bare column reference: copy the input column through.
    Passthrough(usize),
    /// A computed expression.
    Computed(CompiledExpr),
}

/// A fused filter→project pipeline compiled against one input schema.
///
/// Where the interpreted engine stacks `Filter` and `Project` operators
/// (one virtual `next_batch` dispatch each per batch), the compiled
/// pipeline is a single [`CompiledPipeline::process`] call per batch:
/// evaluate the filter kernel, apply the mask, evaluate each output kernel.
/// Filter and projection semantics mirror the interpreted operators
/// exactly — all-pass batches pass through untouched, fully-filtered
/// batches yield `None`, `outputs == None` means bare `SELECT *`.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    filter: Option<CompiledExpr>,
    outputs: Option<Vec<Output>>,
}

impl CompiledPipeline {
    /// Compiles a pipeline with an optional filter predicate and an
    /// optional projection list (`None` = no projection node, pass rows
    /// through). Returns `None` when any expression is uncompilable.
    pub fn compile(
        schema: &Schema,
        filter: Option<&Expr>,
        outputs: Option<&[(String, Expr)]>,
    ) -> Option<CompiledPipeline> {
        let filter = match filter {
            Some(f) => Some(CompiledExpr::compile(f, schema)?),
            None => None,
        };
        let outputs = match outputs {
            None => None,
            Some(items) => Some(
                items
                    .iter()
                    .map(|(_, e)| match e {
                        Expr::Col(name) => schema.resolve(name).ok().map(Output::Passthrough),
                        other => CompiledExpr::compile(other, schema).map(Output::Computed),
                    })
                    .collect::<Option<Vec<_>>>()?,
            ),
        };
        Some(CompiledPipeline { filter, outputs })
    }

    /// Pushes one batch through the fused pipeline. `Ok(None)` means the
    /// filter dropped every row (the caller keeps pulling, exactly like the
    /// interpreted `Filter` loop).
    pub fn process(&self, batch: RowBatch) -> Result<Option<RowBatch>, StorageError> {
        let b = match &self.filter {
            None => batch,
            Some(f) => {
                let keep = f.eval(&batch)?.truthy_mask();
                if keep.iter().all(|k| *k) {
                    batch
                } else if keep.iter().any(|k| *k) {
                    batch.filter(&keep)
                } else {
                    return Ok(None);
                }
            }
        };
        let Some(outputs) = &self.outputs else {
            return Ok(Some(b));
        };
        if outputs.is_empty() {
            return Ok(Some(RowBatch::from_rows(0, vec![Vec::new(); b.num_rows()])));
        }
        let mut columns = Vec::with_capacity(outputs.len());
        for out in outputs {
            columns.push(match out {
                Output::Passthrough(idx) => b.column(*idx).clone(),
                Output::Computed(e) => e.eval(&b)?,
            });
        }
        Ok(Some(
            RowBatch::from_columns(columns).expect("output kernels share the batch row count"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Row};

    fn schema() -> Schema {
        Schema::of(&[
            ("year", DataType::Int),
            ("score", DataType::Float),
            ("title", DataType::Str),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1991), Value::Float(0.7), "Guilty".into()],
            vec![Value::Null, Value::Float(0.2), "Calm".into()],
            vec![Value::Int(1975), Value::Null, Value::Null],
            vec![Value::Int(2003), Value::Float(-1.5), "Null Island".into()],
        ]
    }

    fn batch() -> RowBatch {
        RowBatch::from_rows(3, rows())
    }

    /// Compiled evaluation must agree with the interpreted batch evaluator
    /// cell by cell (which itself is pinned to the row path).
    fn assert_compiled_parity(e: &Expr) {
        let s = schema();
        let b = batch();
        let compiled = CompiledExpr::compile(e, &s).unwrap_or_else(|| panic!("{e} must compile"));
        let want = e.eval_batch(&b, &s).unwrap();
        let got = compiled.eval(&b).unwrap();
        for i in 0..b.num_rows() {
            assert_eq!(got.value(i), want.value(i), "row {i}: {e}");
            assert_eq!(got.is_null(i), want.is_null(i), "row {i} nullness: {e}");
        }
    }

    #[test]
    fn compiled_kernels_match_interpreted_batch_eval() {
        let exprs = vec![
            Expr::col("year").bin(BinOp::Ge, Expr::lit(1988i64)),
            Expr::col("year").bin(BinOp::Add, Expr::lit(9i64)),
            Expr::col("score").bin(BinOp::Mul, Expr::lit(10.0)),
            Expr::col("year").bin(BinOp::Gt, Expr::col("score")),
            Expr::col("title").eq(Expr::lit("Guilty")),
            Expr::col("title").bin(BinOp::Add, Expr::lit("!")),
            Expr::Not(Box::new(Expr::col("year").eq(Expr::lit(1991i64)))),
            Expr::Neg(Box::new(Expr::col("score"))),
            Expr::Neg(Box::new(Expr::col("year"))),
            Expr::IsNull(Box::new(Expr::col("title"))),
            Expr::Call("lower".into(), vec![Expr::col("title")]),
            Expr::Call("coalesce".into(), vec![Expr::col("score"), Expr::lit(0.0)]),
            Expr::col("year")
                .eq(Expr::lit(1991i64))
                .and(Expr::col("score").bin(BinOp::Gt, Expr::lit(0.5))),
            Expr::col("year")
                .bin(BinOp::Lt, Expr::lit(1980i64))
                .bin(BinOp::Or, Expr::col("score").bin(BinOp::Gt, Expr::lit(0.5))),
            Expr::lit(Value::Null).and(Expr::col("year").eq(Expr::lit(1991i64))),
        ];
        for e in &exprs {
            assert_compiled_parity(e);
        }
    }

    #[test]
    fn int_literal_comparison_fast_path_matches() {
        for op in [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ] {
            assert_compiled_parity(&Expr::col("year").bin(op, Expr::lit(1991i64)));
        }
    }

    #[test]
    fn short_circuit_error_masking_survives_compilation() {
        // x = 0 rows are short-circuited past the division on the row path;
        // the compiled AND must fall back row-wise rather than error.
        let s = Schema::of(&[("x", DataType::Int)]);
        let b = RowBatch::from_rows(1, vec![vec![Value::Int(0)], vec![Value::Int(2)]]);
        let e = Expr::col("x").bin(BinOp::Gt, Expr::lit(0i64)).and(
            Expr::lit(10i64)
                .bin(BinOp::Div, Expr::col("x"))
                .bin(BinOp::Gt, Expr::lit(1i64)),
        );
        let compiled = CompiledExpr::compile(&e, &s).unwrap();
        let want = e.eval_batch(&b, &s).unwrap();
        let got = compiled.eval(&b).unwrap();
        assert_eq!(got.value(0), want.value(0));
        assert_eq!(got.value(1), want.value(1));
        // An unconditional division by zero still errors.
        let e = Expr::lit(1i64).bin(BinOp::Div, Expr::col("x"));
        let compiled = CompiledExpr::compile(&e, &s).unwrap();
        assert!(compiled.eval(&b).is_err());
    }

    #[test]
    fn model_backed_calls_do_not_compile() {
        let s = schema();
        for e in [
            Expr::Call(
                "similarity".into(),
                vec![Expr::col("title"), Expr::lit("x")],
            ),
            Expr::Call("embed".into(), vec![Expr::col("title")]),
            Expr::Call("nope".into(), vec![]),
            Expr::col("missing"),
            // An uncompilable node anywhere poisons the whole expression.
            Expr::col("year").and(Expr::Call("embed".into(), vec![Expr::col("title")])),
        ] {
            assert!(
                CompiledExpr::compile(&e, &s).is_none(),
                "{e} must not compile"
            );
        }
    }

    #[test]
    fn pipeline_filters_and_projects_like_the_operators() {
        let s = schema();
        let filter = Expr::col("year").bin(BinOp::Ge, Expr::lit(1980i64));
        let outputs = vec![
            ("year".to_string(), Expr::col("year")),
            (
                "next".to_string(),
                Expr::col("year").bin(BinOp::Add, Expr::lit(1i64)),
            ),
        ];
        let p = CompiledPipeline::compile(&s, Some(&filter), Some(&outputs)).unwrap();
        let out = p.process(batch()).unwrap().unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.row(0), vec![Value::Int(1991), Value::Int(1992)]);
        assert_eq!(out.row(1), vec![Value::Int(2003), Value::Int(2004)]);
        // A fully-filtered batch yields None, like the interpreted loop.
        let none = Expr::col("year").bin(BinOp::Gt, Expr::lit(9999i64));
        let p = CompiledPipeline::compile(&s, Some(&none), None).unwrap();
        assert!(p.process(batch()).unwrap().is_none());
        // No filter, no projection: the batch passes through untouched.
        let p = CompiledPipeline::compile(&s, None, None).unwrap();
        assert_eq!(p.process(batch()).unwrap().unwrap().num_rows(), 4);
        // An uncompilable projection poisons the pipeline.
        let fao = vec![(
            "sim".to_string(),
            Expr::Call(
                "similarity".into(),
                vec![Expr::col("title"), Expr::lit("x")],
            ),
        )];
        assert!(CompiledPipeline::compile(&s, None, Some(&fao)).is_none());
    }

    #[test]
    fn mode_parses_env_values() {
        assert_eq!(CompileMode::parse(None), CompileMode::Auto);
        assert_eq!(CompileMode::parse(Some("off")), CompileMode::Off);
        assert_eq!(CompileMode::parse(Some("0")), CompileMode::Off);
        assert_eq!(CompileMode::parse(Some("FALSE")), CompileMode::Off);
        assert_eq!(CompileMode::parse(Some("on")), CompileMode::On);
        assert_eq!(CompileMode::parse(Some("1")), CompileMode::On);
        assert_eq!(CompileMode::parse(Some(" True ")), CompileMode::On);
        assert_eq!(CompileMode::parse(Some("auto")), CompileMode::Auto);
        assert_eq!(CompileMode::parse(Some("garbage")), CompileMode::Auto);
        assert_eq!(CompileMode::default(), CompileMode::Auto);
        assert_eq!(CompileMode::On.to_string(), "on");
    }

    #[test]
    fn break_even_rule_is_strict() {
        assert!(!compile_pays_off(0));
        assert!(!compile_pays_off(COMPILE_BREAK_EVEN_ROWS));
        assert!(compile_pays_off(COMPILE_BREAK_EVEN_ROWS + 1));
    }
}

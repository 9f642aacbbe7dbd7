//! Scalar expressions evaluated a batch at a time.
//!
//! Generated function bodies that are "a SQL query over a table" (§4) bottom
//! out here: filters, projections, and computed columns are all [`Expr`]s.
//! There is one evaluator, [`Expr::eval_batch`]: a SELECT, an expression
//! body (`MapExpr`, `FilterExpr`) and an INSERT's values all run it, and
//! the naive SQL evaluator of the SQL crate's tests judges it.

use crate::batch::{ColumnData, ColumnVector, NullBitmap, RowBatch};
use crate::{Schema, StorageError, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Whether this is one of the six comparison operators.
    pub fn is_comparison(self) -> bool {
        use BinOp::*;
        matches!(self, Eq | Ne | Lt | Le | Gt | Ge)
    }

    /// Whether the comparison holds between operands ordered `ord`; `false`
    /// for an operator that is not a comparison.
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            BinOp::Eq => ord.is_eq(),
            BinOp::Ne => ord.is_ne(),
            BinOp::Lt => ord.is_lt(),
            BinOp::Le => ord.is_le(),
            BinOp::Gt => ord.is_gt(),
            BinOp::Ge => ord.is_ge(),
            _ => false,
        }
    }

    /// The operator that holds for `b op' a` exactly when `self` holds for
    /// `a op b`: `<` and `>`, `<=` and `>=` swap; every other is its own.
    pub fn flipped(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by name (resolved against the input schema at eval).
    Col(String),
    /// A literal value.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS NULL`
    IsNull(Box<Expr>),
    /// Named scalar function call (`lower`, `upper`, `length`, `abs`,
    /// `contains`, `coalesce`, `round`, `min2`, `max2`, `clamp01`).
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Column reference helper.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self op other` helper.
    pub fn bin(self, op: BinOp, other: Expr) -> Expr {
        Expr::Bin(op, Box::new(self), Box::new(other))
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.bin(BinOp::Eq, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.bin(BinOp::And, other)
    }

    /// Evaluates against a whole [`RowBatch`] at once, returning one value
    /// per row as a [`ColumnVector`].
    ///
    /// SQL three-valued logic throughout. `AND` and `OR` short-circuit per
    /// row: a right operand is evaluated only on the rows its left operand
    /// leaves undecided, so one that raises only on decided rows does not
    /// raise. Column references resolve once per batch, and Int/Float/Str
    /// columns run typed kernels.
    pub fn eval_batch(
        &self,
        batch: &RowBatch,
        schema: &Schema,
    ) -> Result<ColumnVector, StorageError> {
        self.eval_ref(batch, schema).map(Cow::into_owned)
    }

    /// [`Expr::eval_batch`] with a column reference read in place: a bare
    /// column comes back borrowed from `batch`, so an operand or a filter
    /// predicate that names a column copies nothing.
    pub(crate) fn eval_ref<'a>(
        &self,
        batch: &'a RowBatch,
        schema: &Schema,
    ) -> Result<Cow<'a, ColumnVector>, StorageError> {
        let n = batch.num_rows();
        let owned = match self {
            Expr::Col(name) => {
                let idx = schema.resolve(name)?;
                return Ok(Cow::Borrowed(batch.column(idx)));
            }
            Expr::Lit(v) => ColumnVector::repeat(v, n),
            Expr::Bin(op @ (BinOp::And | BinOp::Or), l, r) => {
                let and = *op == BinOp::And;
                let lv = l.eval_ref(batch, schema)?;
                let rv = match r.eval_ref(batch, schema) {
                    Ok(rv) => rv,
                    // Maybe it raised only on rows the left operand decides
                    // (FALSE for AND, TRUE for OR): evaluate it again on the
                    // others, NULL standing in on the decided ones.
                    Err(e) => {
                        let truthy = lv.truthy_mask();
                        let open = |&i: &usize| match and {
                            true => truthy[i] || lv.is_null(i),
                            false => !truthy[i],
                        };
                        let undecided: Vec<usize> = (0..n).filter(open).collect();
                        if undecided.len() == n {
                            return Err(e);
                        }
                        Cow::Owned(if undecided.is_empty() {
                            ColumnVector::repeat(&Value::Null, n)
                        } else {
                            let rest = r.eval_batch(&batch.gather(&undecided), schema)?;
                            let mut at = vec![None; n];
                            for (k, &i) in undecided.iter().enumerate() {
                                at[i] = Some(k);
                            }
                            rest.gather_padded(&at)
                        })
                    }
                };
                combine_logical(and, &lv, &rv)
            }
            // A comparison with a literal reads the other operand's payload
            // against the literal itself — the kernel a scan hint runs —
            // and never broadcasts the literal into a column.
            Expr::Bin(op, l, r) => match (&**l, &**r) {
                (_, Expr::Lit(lit)) if op.is_comparison() => {
                    l.eval_ref(batch, schema)?.compare_lit(*op, lit)
                }
                (Expr::Lit(lit), _) if op.is_comparison() => {
                    r.eval_ref(batch, schema)?.compare_lit(op.flipped(), lit)
                }
                _ => {
                    let lv = l.eval_ref(batch, schema)?;
                    let rv = r.eval_ref(batch, schema)?;
                    eval_bin_batch(*op, &lv, &rv)?
                }
            },
            Expr::Not(e) => not_kernel(&*e.eval_ref(batch, schema)?),
            Expr::Neg(e) => neg_kernel(&*e.eval_ref(batch, schema)?)?,
            Expr::IsNull(e) => is_null_kernel(&*e.eval_ref(batch, schema)?),
            Expr::Call(name, args) if name == "similarity" && args.len() == 2 => {
                // Batched similarity kernel: the query side is typically a
                // literal — decode/embed it once per batch, not once per row.
                enum Query<'a> {
                    Literal(Option<Vec<f32>>),
                    Column(Cow<'a, ColumnVector>),
                }
                let a = args[0].eval_ref(batch, schema)?;
                let query = match &args[1] {
                    Expr::Lit(v) => Query::Literal(similarity_arg(v)?),
                    other => Query::Column(other.eval_ref(batch, schema)?),
                };
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let Some(x) = similarity_arg(&a.value(i))? else {
                        out.push(Value::Null);
                        continue;
                    };
                    let decoded;
                    let y = match &query {
                        Query::Literal(q) => q.as_ref(),
                        Query::Column(col) => {
                            decoded = similarity_arg(&col.value(i))?;
                            decoded.as_ref()
                        }
                    };
                    out.push(y.map_or(Value::Null, |y| similarity_score(&x, y)));
                }
                ColumnVector::from_values(out)
            }
            Expr::Call(name, args) => {
                let cols: Vec<Cow<'_, ColumnVector>> = args
                    .iter()
                    .map(|a| a.eval_ref(batch, schema))
                    .collect::<Result<_, _>>()?;
                call_kernel(name, &cols, n)?
            }
        };
        Ok(Cow::Owned(owned))
    }

    /// The set of column names this expression reads (used by the optimizer
    /// for predicate pushdown and column pruning).
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Whether evaluation can never raise, whatever the row: the expression
    /// is built only from columns, literals (a negated number is one),
    /// comparisons, `AND`/`OR`/`NOT` and `IS NULL` (a mismatched or NULL
    /// comparison is NULL, not an error). Arithmetic, negation and calls
    /// can raise — division by zero, a mistyped operand — so skipping a row
    /// they would have seen can turn an error into an answer.
    pub fn cannot_raise(&self) -> bool {
        match self {
            Expr::Col(_) | Expr::Lit(_) => true,
            Expr::Bin(op, l, r) => {
                (op.is_comparison() || matches!(op, BinOp::And | BinOp::Or))
                    && l.cannot_raise()
                    && r.cannot_raise()
            }
            Expr::Not(e) | Expr::IsNull(e) => e.cannot_raise(),
            Expr::Neg(e) => matches!(e.as_ref(), Expr::Lit(Value::Int(_) | Value::Float(_))),
            Expr::Call(..) => false,
        }
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Col(n) => out.push(n.clone()),
            Expr::Lit(_) => {}
            Expr::Bin(_, l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }
}

/// `NOT` over an evaluated operand column: three-valued negation (NULL
/// stays NULL).
fn not_kernel(v: &ColumnVector) -> ColumnVector {
    let truthy = v.truthy_mask();
    let mut nulls = NullBitmap::with_capacity(truthy.len());
    let mut out = Vec::with_capacity(truthy.len());
    for (i, t) in truthy.iter().enumerate() {
        let is_null = v.is_null(i);
        nulls.push(is_null);
        out.push(!is_null && !t);
    }
    ColumnVector::from_parts(ColumnData::Bool(out), nulls)
}

/// Arithmetic negation over an evaluated operand column, with Int/Float
/// fast paths and a per-value fallback for mixed columns.
fn neg_kernel(v: &ColumnVector) -> Result<ColumnVector, StorageError> {
    match v.data() {
        ColumnData::Int(xs) => Ok(ColumnVector::from_parts(
            ColumnData::Int(xs.iter().map(|x| x.wrapping_neg()).collect()),
            v.nulls().clone(),
        )),
        ColumnData::Float(xs) => Ok(ColumnVector::from_parts(
            ColumnData::Float(xs.iter().map(|x| -x).collect()),
            v.nulls().clone(),
        )),
        _ => {
            let n = v.len();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(match v.value(i) {
                    Value::Int(x) => Value::Int(x.wrapping_neg()),
                    Value::Float(x) => Value::Float(-x),
                    Value::Null => Value::Null,
                    other => return Err(StorageError::Eval(format!("cannot negate {other:?}"))),
                });
            }
            Ok(ColumnVector::from_values(out))
        }
    }
}

/// `IS NULL` over an evaluated operand column: always-valid booleans.
fn is_null_kernel(v: &ColumnVector) -> ColumnVector {
    let n = v.len();
    let out: Vec<bool> = (0..n).map(|i| v.is_null(i)).collect();
    ColumnVector::from_parts(ColumnData::Bool(out), NullBitmap::all_valid(n))
}

/// A scalar function applied row-wise over already-evaluated argument
/// columns (the general `Call` path).
fn call_kernel(
    name: &str,
    cols: &[Cow<'_, ColumnVector>],
    n: usize,
) -> Result<ColumnVector, StorageError> {
    let mut out = Vec::with_capacity(n);
    let mut vals: Vec<Value> = Vec::with_capacity(cols.len());
    for i in 0..n {
        vals.clear();
        vals.extend(cols.iter().map(|c| c.value(i)));
        out.push(eval_call(name, &vals)?);
    }
    Ok(ColumnVector::from_values(out))
}

/// Element-wise three-valued `AND` (`and`) or `OR` (`!and`) over two
/// evaluated operand columns: `FALSE AND x` and `x AND FALSE` are FALSE,
/// `TRUE OR x` and `x OR TRUE` are TRUE, and any other NULL operand makes
/// the cell NULL.
fn combine_logical(and: bool, l: &ColumnVector, r: &ColumnVector) -> ColumnVector {
    let n = l.len();
    let lt = l.truthy_mask();
    let rt = r.truthy_mask();
    let mut out = Vec::with_capacity(n);
    let mut nulls = NullBitmap::with_capacity(n);
    for i in 0..n {
        let (ln, rn) = (l.is_null(i), r.is_null(i));
        let (cell, is_null) = if and {
            if (!ln && !lt[i]) || (!rn && !rt[i]) {
                (false, false)
            } else if ln || rn {
                (false, true)
            } else {
                (lt[i] && rt[i], false)
            }
        } else if lt[i] {
            (true, false)
        } else if ln || rn {
            if rt[i] {
                (true, false)
            } else {
                (false, true)
            }
        } else {
            (lt[i] || rt[i], false)
        };
        out.push(cell);
        nulls.push(is_null);
    }
    ColumnVector::from_parts(ColumnData::Bool(out), nulls)
}

/// Integer arithmetic, shared by the typed kernel and the per-value
/// fallback: `+ - *` wrap; `/` and `%` raise on a zero divisor and on the one quotient that
/// does not fit (`i64::MIN / -1`).
#[inline]
fn int_arith(op: BinOp, a: i64, b: i64) -> Result<i64, StorageError> {
    let overflow = || StorageError::Eval("integer overflow".into());
    match op {
        BinOp::Add => Ok(a.wrapping_add(b)),
        BinOp::Sub => Ok(a.wrapping_sub(b)),
        BinOp::Mul => Ok(a.wrapping_mul(b)),
        BinOp::Div if b == 0 => Err(StorageError::Eval("division by zero".into())),
        BinOp::Mod if b == 0 => Err(StorageError::Eval("modulo by zero".into())),
        BinOp::Div => a.checked_div(b).ok_or_else(overflow),
        BinOp::Mod => a.checked_rem(b).ok_or_else(overflow),
        _ => Err(not_arithmetic(op)),
    }
}

#[cold]
fn not_arithmetic(op: BinOp) -> StorageError {
    StorageError::Eval(format!("{op} is not arithmetic"))
}

/// Float arithmetic, shared the same way: only a zero divisor raises.
#[inline]
fn float_arith(op: BinOp, a: f64, b: f64) -> Result<f64, StorageError> {
    match op {
        BinOp::Add => Ok(a + b),
        BinOp::Sub => Ok(a - b),
        BinOp::Mul => Ok(a * b),
        BinOp::Div if b == 0.0 => Err(StorageError::Eval("division by zero".into())),
        BinOp::Div => Ok(a / b),
        BinOp::Mod => Ok(a % b),
        _ => Err(not_arithmetic(op)),
    }
}

/// Whether a column is purely numeric (Int or Float payload).
fn is_numeric(c: &ColumnVector) -> bool {
    matches!(c.data(), ColumnData::Int(_) | ColumnData::Float(_))
}

/// Comparison `op` of two payloads of one kind under its total order (the
/// one `sql_cmp` uses for that kind), `cmp(i)` ordering slot `i`; a NULL
/// operand gives NULL.
fn cmp_kernel(
    op: BinOp,
    l: &ColumnVector,
    r: &ColumnVector,
    cmp: impl Fn(usize) -> Ordering,
) -> ColumnVector {
    let mut nulls = NullBitmap::with_capacity(l.len());
    let mut out = Vec::with_capacity(l.len());
    for i in 0..l.len() {
        let null = l.is_null(i) || r.is_null(i);
        nulls.push(null);
        out.push(!null && op.holds(cmp(i)));
    }
    ColumnVector::from_parts(ColumnData::Bool(out), nulls)
}

/// Element-wise binary operation over two operand columns, with typed fast
/// paths for Int/Int, numeric, Str/Str and Bool/Bool operands; everything
/// else falls back to [`eval_bin`] per element (identical semantics either
/// way).
fn eval_bin_batch(
    op: BinOp,
    l: &ColumnVector,
    r: &ColumnVector,
) -> Result<ColumnVector, StorageError> {
    use BinOp::*;
    let n = l.len();
    debug_assert_eq!(n, r.len());

    let is_cmp = op.is_comparison();

    // Same-kind comparisons: Int, Str and Bool (false < true) each have a
    // total order.
    if is_cmp {
        match (l.data(), r.data()) {
            (ColumnData::Int(a), ColumnData::Int(b)) => {
                return Ok(cmp_kernel(op, l, r, |i| a[i].cmp(&b[i])))
            }
            (ColumnData::StrBuf(a), ColumnData::StrBuf(b)) => {
                return Ok(cmp_kernel(op, l, r, |i| a.get(i).cmp(b.get(i))))
            }
            (ColumnData::Bool(a), ColumnData::Bool(b)) => {
                return Ok(cmp_kernel(op, l, r, |i| a[i].cmp(&b[i])))
            }
            _ => {}
        }
    }

    // Int ⊗ Int arithmetic.
    if let (Some(a), Some(b)) = (l.as_ints(), r.as_ints()) {
        let mut nulls = NullBitmap::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let null = l.is_null(i) || r.is_null(i);
            nulls.push(null);
            if null {
                out.push(0);
                continue;
            }
            // The three that cannot raise stay in the loop; what can goes
            // through the rule the per-value fallback shares.
            out.push(match op {
                Add => a[i].wrapping_add(b[i]),
                Sub => a[i].wrapping_sub(b[i]),
                Mul => a[i].wrapping_mul(b[i]),
                _ => int_arith(op, a[i], b[i])?,
            });
        }
        return Ok(ColumnVector::from_parts(ColumnData::Int(out), nulls));
    }

    // Int ⊗ Float comparisons: the exact integer-aware compare, element by
    // element — widening ints through `numeric_at` would collapse values
    // above 2^53 and disagree with the per-value fallback's `sql_cmp`.
    if is_cmp {
        let int_float: Option<Vec<Option<Ordering>>> =
            if let (Some(a), Some(b)) = (l.as_ints(), r.as_floats()) {
                Some((0..n).map(|i| crate::cmp_int_f64(a[i], b[i])).collect())
            } else if let (Some(a), Some(b)) = (l.as_floats(), r.as_ints()) {
                Some(
                    (0..n)
                        .map(|i| crate::cmp_int_f64(b[i], a[i]).map(Ordering::reverse))
                        .collect(),
                )
            } else {
                None
            };
        if let Some(ords) = int_float {
            let mut nulls = NullBitmap::with_capacity(n);
            let mut out = Vec::with_capacity(n);
            for (i, ord) in ords.into_iter().enumerate() {
                match ord.filter(|_| !l.is_null(i) && !r.is_null(i)) {
                    Some(o) => {
                        nulls.push(false);
                        out.push(op.holds(o));
                    }
                    None => {
                        nulls.push(true);
                        out.push(false);
                    }
                }
            }
            return Ok(ColumnVector::from_parts(ColumnData::Bool(out), nulls));
        }
    }

    // Numeric ⊗ numeric with at least one Float side: f64 kernels.
    if is_numeric(l) && is_numeric(r) {
        let mut nulls = NullBitmap::with_capacity(n);
        if is_cmp {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                match (l.numeric_at(i), r.numeric_at(i)) {
                    (Some(a), Some(b)) => {
                        // NaN comparisons are NULL, as in `sql_cmp`.
                        match a.partial_cmp(&b) {
                            Some(ord) => {
                                nulls.push(false);
                                out.push(op.holds(ord));
                            }
                            None => {
                                nulls.push(true);
                                out.push(false);
                            }
                        }
                    }
                    _ => {
                        nulls.push(true);
                        out.push(false);
                    }
                }
            }
            return Ok(ColumnVector::from_parts(ColumnData::Bool(out), nulls));
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match (l.numeric_at(i), r.numeric_at(i)) {
                (Some(a), Some(b)) => {
                    nulls.push(false);
                    out.push(match op {
                        Add => a + b,
                        Sub => a - b,
                        Mul => a * b,
                        _ => float_arith(op, a, b)?,
                    });
                }
                _ => {
                    nulls.push(true);
                    out.push(0.0);
                }
            }
        }
        return Ok(ColumnVector::from_parts(ColumnData::Float(out), nulls));
    }

    // Str ⊗ Str: `+` concatenation.
    if op == Add {
        if let Some(out) = l.concat(r) {
            return Ok(out);
        }
    }

    // General fallback: `eval_bin` per element.
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(eval_bin(op, &l.value(i), &r.value(i))?);
    }
    Ok(ColumnVector::from_values(out))
}

fn eval_bin(op: BinOp, l: &Value, r: &Value) -> Result<Value, StorageError> {
    use BinOp::*;
    // Comparisons: SQL semantics — NULL operand yields NULL.
    if op.is_comparison() {
        return Ok(match l.sql_cmp(r) {
            None => Value::Null,
            Some(ord) => Value::Bool(op.holds(ord)),
        });
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // String concatenation via `+`.
    if op == Add {
        if let (Value::Str(a), Value::Str(b)) = (l, r) {
            return Ok(Value::Str(format!("{a}{b}")));
        }
    }
    // Integer arithmetic stays integral when both sides are ints.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return int_arith(op, *a, *b).map(Value::Int);
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => float_arith(op, a, b).map(Value::Float),
        _ => Err(StorageError::Eval(format!(
            "cannot apply {op} to {l:?} and {r:?}"
        ))),
    }
}

fn eval_call(name: &str, args: &[Value]) -> Result<Value, StorageError> {
    let need = |n: usize| {
        if args.len() != n {
            Err(StorageError::Eval(format!(
                "function {name} expects {n} argument(s), got {}",
                args.len()
            )))
        } else {
            Ok(())
        }
    };
    match name {
        "lower" => {
            need(1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
                Value::Null => Ok(Value::Null),
                v => Err(StorageError::Eval(format!("lower expects STR, got {v:?}"))),
            }
        }
        "upper" => {
            need(1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
                Value::Null => Ok(Value::Null),
                v => Err(StorageError::Eval(format!("upper expects STR, got {v:?}"))),
            }
        }
        "length" => {
            need(1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                Value::Blob(b) => Ok(Value::Int(b.len() as i64)),
                Value::Null => Ok(Value::Null),
                v => Err(StorageError::Eval(format!("length expects STR, got {v:?}"))),
            }
        }
        "abs" => {
            need(1)?;
            match &args[0] {
                // Wraps at `i64::MIN`, as negation does.
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                Value::Null => Ok(Value::Null),
                v => Err(StorageError::Eval(format!("abs expects number, got {v:?}"))),
            }
        }
        "round" => {
            need(2)?;
            let v = args[0]
                .as_f64()
                .ok_or_else(|| StorageError::Eval("round expects number".into()))?;
            let d = args[1]
                .as_int()
                .ok_or_else(|| StorageError::Eval("round expects int digits".into()))?;
            let m = 10f64.powi(d as i32);
            Ok(Value::Float((v * m).round() / m))
        }
        "contains" => {
            need(2)?;
            match (&args[0], &args[1]) {
                (Value::Str(h), Value::Str(n)) => {
                    Ok(Value::Bool(h.to_lowercase().contains(&n.to_lowercase())))
                }
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                _ => Err(StorageError::Eval("contains expects (STR, STR)".into())),
            }
        }
        "coalesce" => {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        }
        "min2" | "max2" => {
            need(2)?;
            if args[0].is_null() {
                return Ok(args[1].clone());
            }
            if args[1].is_null() {
                return Ok(args[0].clone());
            }
            let ord = args[0]
                .sql_cmp(&args[1])
                .ok_or_else(|| StorageError::Eval("incomparable arguments".into()))?;
            let pick_first = if name == "min2" {
                ord.is_le()
            } else {
                ord.is_ge()
            };
            Ok(if pick_first {
                args[0].clone()
            } else {
                args[1].clone()
            })
        }
        "clamp01" => {
            need(1)?;
            match args[0].as_f64() {
                Some(f) => Ok(Value::Float(f.clamp(0.0, 1.0))),
                None if args[0].is_null() => Ok(Value::Null),
                None => Err(StorageError::Eval("clamp01 expects number".into())),
            }
        }
        "similarity" => {
            need(2)?;
            match (similarity_arg(&args[0])?, similarity_arg(&args[1])?) {
                (Some(a), Some(b)) => Ok(similarity_score(&a, &b)),
                _ => Ok(Value::Null),
            }
        }
        "embed" => {
            need(1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Blob(crate::vecindex::encode_embedding(
                    &kath_vector::embed_query(s),
                ))),
                Value::Null => Ok(Value::Null),
                v => Err(StorageError::Eval(format!("embed expects STR, got {v:?}"))),
            }
        }
        other => Err(StorageError::Eval(format!("unknown function '{other}'"))),
    }
}

/// Resolves one `similarity` argument to an embedding: BLOB cells decode
/// (corrupt ones to `None` = no match, never an error — one bad cell must
/// not kill the query), STR cells embed through the canonical shared
/// embedder, NULL is unknown. Anything else is a type error.
fn similarity_arg(v: &Value) -> Result<Option<Vec<f32>>, StorageError> {
    match v {
        Value::Null => Ok(None),
        Value::Blob(b) => Ok(crate::vecindex::decode_embedding(b)),
        Value::Str(s) => Ok(Some(kath_vector::embed_query(s))),
        v => Err(StorageError::Eval(format!(
            "similarity expects BLOB or STR, got {v:?}"
        ))),
    }
}

/// Cosine similarity as a SQL value: mismatched dimensionalities and
/// non-finite scores (corrupt embeddings) are NULL — no match, never a
/// truncated-dot garbage score — so they rank last under `ORDER BY ...
/// DESC`, exactly where the vector index's top-k padding puts them.
fn similarity_score(a: &[f32], b: &[f32]) -> Value {
    if a.len() != b.len() {
        return Value::Null;
    }
    let c = kath_vector::cosine(a, b);
    if c.is_finite() {
        Value::Float(c as f64)
    } else {
        Value::Null
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(n) => f.write_str(n),
            Expr::Lit(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Bin(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
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

    fn row() -> Row {
        vec![Value::Int(1991), Value::Float(0.7), "Guilty".into()]
    }

    /// `e` over one row.
    fn eval_row(e: &Expr, row: Row, schema: &Schema) -> Result<Value, StorageError> {
        let batch = RowBatch::from_rows(schema.arity(), vec![row]);
        Ok(e.eval_batch(&batch, schema)?.value(0))
    }

    /// Asserts `e` over `rows` as one batch yields `want`.
    fn assert_column(e: &Expr, rows: Vec<Row>, schema: &Schema, want: Vec<Value>) {
        let batch = RowBatch::from_rows(schema.arity(), rows);
        let col = e.eval_batch(&batch, schema).unwrap();
        assert_eq!(col.to_values(), want, "{e}");
    }

    #[test]
    fn arithmetic_and_comparison() {
        let s = schema();
        let e = Expr::col("year").bin(BinOp::Add, Expr::lit(9i64));
        assert_eq!(eval_row(&e, row(), &s).unwrap(), Value::Int(2000));
        let e = Expr::col("score").bin(BinOp::Mul, Expr::lit(10.0));
        assert_eq!(eval_row(&e, row(), &s).unwrap(), Value::Float(7.0));
        let e = Expr::col("year").bin(BinOp::Ge, Expr::lit(1990i64));
        assert_eq!(eval_row(&e, row(), &s).unwrap(), Value::Bool(true));
        // `abs` wraps at `i64::MIN` as negation does.
        let e = Expr::Call("abs".into(), vec![Expr::lit(i64::MIN)]);
        assert_eq!(eval_row(&e, row(), &s).unwrap(), Value::Int(i64::MIN));
        let e = Expr::Neg(Box::new(Expr::lit(i64::MIN)));
        assert_eq!(eval_row(&e, row(), &s).unwrap(), Value::Int(i64::MIN));
    }

    #[test]
    fn null_propagation() {
        let s = Schema::of(&[("x", DataType::Int)]);
        let r = || vec![Value::Null];
        let e = Expr::col("x").bin(BinOp::Add, Expr::lit(1i64));
        assert_eq!(eval_row(&e, r(), &s).unwrap(), Value::Null);
        let e = Expr::col("x").eq(Expr::lit(1i64));
        assert_eq!(eval_row(&e, r(), &s).unwrap(), Value::Null);
        let e = Expr::IsNull(Box::new(Expr::col("x")));
        assert_eq!(eval_row(&e, r(), &s).unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_and_or() {
        let s = Schema::of(&[("x", DataType::Int)]);
        // AND with false left never evaluates the erroring right side.
        let bad = Expr::col("x").bin(BinOp::Div, Expr::lit(0i64));
        let e = Expr::col("x").and(bad.clone());
        assert_eq!(
            eval_row(&e, vec![Value::Int(0)], &s).unwrap(),
            Value::Bool(false)
        );
        // OR with true left likewise.
        let e = Expr::lit(true).bin(BinOp::Or, bad);
        assert_eq!(
            eval_row(&e, vec![Value::Int(0)], &s).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let s = schema();
        let e = Expr::lit(1i64).bin(BinOp::Div, Expr::lit(0i64));
        assert!(eval_row(&e, row(), &s).is_err());
    }

    #[test]
    fn string_functions() {
        let s = schema();
        let e = Expr::Call("lower".into(), vec![Expr::col("title")]);
        assert_eq!(
            eval_row(&e, row(), &s).unwrap(),
            Value::Str("guilty".into())
        );
        let e = Expr::Call(
            "contains".into(),
            vec![Expr::col("title"), Expr::lit("GUIL")],
        );
        assert_eq!(eval_row(&e, row(), &s).unwrap(), Value::Bool(true));
        let e = Expr::Call("length".into(), vec![Expr::col("title")]);
        assert_eq!(eval_row(&e, row(), &s).unwrap(), Value::Int(6));
    }

    #[test]
    fn weighted_sum_matches_paper_fig5() {
        // final_score = 0.7 * excitement + 0.3 * recency (Fig. 5).
        let s = Schema::of(&[("exc", DataType::Float), ("rec", DataType::Float)]);
        let r = vec![Value::Float(0.99999988), Value::Float(1.0)];
        let e = Expr::col("exc")
            .bin(BinOp::Mul, Expr::lit(0.7))
            .bin(BinOp::Add, Expr::col("rec").bin(BinOp::Mul, Expr::lit(0.3)));
        let v = eval_row(&e, r, &s).unwrap().as_f64().unwrap();
        assert!((v - 0.99999992).abs() < 1e-8);
    }

    #[test]
    fn referenced_columns_dedups() {
        let e = Expr::col("a")
            .bin(BinOp::Add, Expr::col("b"))
            .bin(BinOp::Mul, Expr::col("a"));
        assert_eq!(
            e.referenced_columns(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn unknown_function_and_column_error() {
        let s = schema();
        assert!(eval_row(&Expr::Call("nope".into(), vec![]), row(), &s).is_err());
        assert!(eval_row(&Expr::col("missing"), row(), &s).is_err());
    }

    #[test]
    fn display_round_trips_visually() {
        let e = Expr::col("year").bin(BinOp::Ge, Expr::lit(1990i64));
        assert_eq!(e.to_string(), "(year >= 1990)");
    }

    #[test]
    fn batch_eval_matches_expected_values() {
        use Value::Null;
        let s = schema();
        let rows = vec![
            vec![Value::Int(1991), Value::Float(0.7), "Guilty".into()],
            vec![Null, Value::Float(0.2), "Calm".into()],
            vec![Value::Int(1975), Null, Null],
        ];
        let (t, f) = (Value::Bool(true), Value::Bool(false));
        let int = Value::Int;
        let float = Value::Float;
        let str = |s: &str| Value::Str(s.into());
        let cases = vec![
            (
                Expr::col("year").bin(BinOp::Ge, Expr::lit(1988i64)),
                vec![t.clone(), Null, f.clone()],
            ),
            (
                Expr::col("year").bin(BinOp::Add, Expr::lit(9i64)),
                vec![int(2000), Null, int(1984)],
            ),
            (
                Expr::col("score").bin(BinOp::Mul, Expr::lit(10.0)),
                vec![float(7.0), float(2.0), Null],
            ),
            (
                Expr::col("year").bin(BinOp::Gt, Expr::col("score")),
                vec![t.clone(), Null, Null],
            ),
            (
                Expr::col("title").eq(Expr::lit("Guilty")),
                vec![t.clone(), f.clone(), Null],
            ),
            (
                Expr::col("title").bin(BinOp::Add, Expr::lit("!")),
                vec![str("Guilty!"), str("Calm!"), Null],
            ),
            (
                Expr::Not(Box::new(Expr::col("year").eq(Expr::lit(1991i64)))),
                vec![f.clone(), Null, t.clone()],
            ),
            (
                Expr::Neg(Box::new(Expr::col("score"))),
                vec![float(-0.7), float(-0.2), Null],
            ),
            (
                Expr::Neg(Box::new(Expr::col("year"))),
                vec![int(-1991), Null, int(-1975)],
            ),
            (
                Expr::IsNull(Box::new(Expr::col("title"))),
                vec![f.clone(), f.clone(), t.clone()],
            ),
            (
                Expr::Call("lower".into(), vec![Expr::col("title")]),
                vec![str("guilty"), str("calm"), Null],
            ),
            (
                Expr::Call("coalesce".into(), vec![Expr::col("score"), Expr::lit(0.0)]),
                vec![float(0.7), float(0.2), float(0.0)],
            ),
            // TRUE AND TRUE, NULL AND FALSE, FALSE AND NULL.
            (
                Expr::col("year")
                    .eq(Expr::lit(1991i64))
                    .and(Expr::col("score").bin(BinOp::Gt, Expr::lit(0.5))),
                vec![t.clone(), f.clone(), f.clone()],
            ),
            // FALSE OR TRUE, NULL OR FALSE, TRUE OR NULL.
            (
                Expr::col("year")
                    .bin(BinOp::Lt, Expr::lit(1980i64))
                    .bin(BinOp::Or, Expr::col("score").bin(BinOp::Gt, Expr::lit(0.5))),
                vec![t.clone(), Null, t.clone()],
            ),
            // NULL AND TRUE, NULL AND NULL, NULL AND FALSE.
            (
                Expr::lit(Null).and(Expr::col("year").eq(Expr::lit(1991i64))),
                vec![Null, Null, f.clone()],
            ),
        ];
        for (e, want) in cases {
            assert_column(&e, rows.clone(), &s, want);
        }
    }

    #[test]
    fn batch_short_circuit_protects_erroring_right_side() {
        // x = 0 rows are decided before the division; it must not raise on
        // them, and it must on an undecided one.
        let s = Schema::of(&[("x", DataType::Int)]);
        let rows = || vec![vec![Value::Int(0)], vec![Value::Int(2)], vec![Value::Null]];
        let (t, f) = (Value::Bool(true), Value::Bool(false));
        let positive = Expr::col("x").bin(BinOp::Gt, Expr::lit(0i64));
        let inverse = Expr::lit(10i64).bin(BinOp::Div, Expr::col("x"));
        let e = positive
            .clone()
            .and(inverse.clone().bin(BinOp::Gt, Expr::lit(1i64)));
        assert_column(&e, rows(), &s, vec![f.clone(), t.clone(), Value::Null]);
        let zero = Expr::col("x").eq(Expr::lit(0i64));
        let e = zero
            .clone()
            .bin(BinOp::Or, inverse.clone().bin(BinOp::Lt, Expr::lit(1i64)));
        assert_column(&e, rows(), &s, vec![t.clone(), f.clone(), Value::Null]);
        // Nested: the inner AND is evaluated only on the rows the outer one
        // leaves open, and masks again inside them.
        let e = Expr::IsNull(Box::new(Expr::col("x"))).bin(
            BinOp::Or,
            positive.clone().and(inverse.clone().eq(Expr::lit(5i64))),
        );
        assert_column(&e, rows(), &s, vec![f.clone(), t.clone(), t.clone()]);
        // Every row decided: the right operand is not evaluated at all.
        let e = Expr::lit(false).and(Expr::col("missing"));
        assert_column(&e, rows(), &s, vec![f.clone(), f.clone(), f.clone()]);
        // An undecided row raises, also one a NULL left operand left open.
        let e = Expr::col("x")
            .bin(BinOp::Ge, Expr::lit(0i64))
            .and(inverse.clone());
        let batch = RowBatch::from_rows(1, rows());
        assert!(e.eval_batch(&batch, &s).is_err());
        let s = Schema::of(&[("x", DataType::Int), ("y", DataType::Bool)]);
        let rows = vec![
            vec![Value::Int(0), Value::Null],
            vec![Value::Int(2), Value::Bool(false)],
        ];
        let batch = RowBatch::from_rows(2, rows);
        assert!(Expr::col("y")
            .and(inverse.clone())
            .eval_batch(&batch, &s)
            .is_err());
        let e = Expr::Not(Box::new(Expr::col("y"))).bin(BinOp::Or, inverse);
        assert!(e.eval_batch(&batch, &s).is_err());
    }

    #[test]
    fn batch_division_by_zero_still_errors() {
        let s = Schema::of(&[("x", DataType::Int)]);
        let e = Expr::lit(1i64).bin(BinOp::Div, Expr::col("x"));
        assert!(eval_row(&e, vec![Value::Int(0)], &s).is_err());
        // But NULL divisor propagates NULL before the zero check.
        assert_eq!(eval_row(&e, vec![Value::Null], &s).unwrap(), Value::Null);
    }

    #[test]
    fn batch_eval_on_mixed_type_column_falls_back() {
        let s = Schema::of(&[("v", DataType::Any)]);
        let rows = vec![
            vec![Value::Int(3)],
            vec![Value::Float(1.5)],
            vec![Value::Null],
        ];
        assert_column(
            &Expr::col("v").bin(BinOp::Gt, Expr::lit(2i64)),
            rows.clone(),
            &s,
            vec![Value::Bool(true), Value::Bool(false), Value::Null],
        );
        assert_column(
            &Expr::col("v").bin(BinOp::Add, Expr::lit(1i64)),
            rows,
            &s,
            vec![Value::Int(4), Value::Float(2.5), Value::Null],
        );
    }

    #[test]
    fn similarity_and_embed_functions() {
        use crate::encode_embedding;
        let s = Schema::of(&[("emb", DataType::Blob), ("body", DataType::Str)]);
        let gun = encode_embedding(&kath_vector::embed_query("gun"));
        let row = || -> Row { vec![Value::Blob(gun.clone()), "murder weapon".into()] };
        // Blob vs query text: related concepts score high.
        let e = Expr::Call(
            "similarity".into(),
            vec![Expr::col("emb"), Expr::lit("weapon")],
        );
        let v = eval_row(&e, row(), &s).unwrap().as_f64().unwrap();
        assert!(v > 0.5, "related terms must be similar, got {v}");
        // Str column embeds on the fly.
        let e = Expr::Call(
            "similarity".into(),
            vec![Expr::col("body"), Expr::lit("gun")],
        );
        assert!(eval_row(&e, row(), &s).unwrap().as_f64().unwrap() > 0.3);
        // EMBED('text') produces exactly the canonical encoding.
        let e = Expr::Call("embed".into(), vec![Expr::lit("weapon")]);
        let Value::Blob(b) = eval_row(&e, row(), &s).unwrap() else {
            panic!("embed must return a blob")
        };
        assert_eq!(b, encode_embedding(&kath_vector::embed_query("weapon")));
        // NULL and corrupt blobs are no-matches (NULL), not errors.
        let e = Expr::Call(
            "similarity".into(),
            vec![Expr::lit(Value::Null), Expr::lit("x")],
        );
        assert_eq!(eval_row(&e, row(), &s).unwrap(), Value::Null);
        let e = Expr::Call(
            "similarity".into(),
            vec![Expr::lit(Value::Blob(vec![1, 2, 3])), Expr::lit("x")],
        );
        assert_eq!(eval_row(&e, row(), &s).unwrap(), Value::Null);
        // Non-embedding operands are type errors.
        let e = Expr::Call("similarity".into(), vec![Expr::lit(1i64), Expr::lit("x")]);
        assert!(eval_row(&e, row(), &s).is_err());
        let e = Expr::Call("embed".into(), vec![Expr::lit(1i64)]);
        assert!(eval_row(&e, row(), &s).is_err());
    }

    #[test]
    fn batch_similarity_kernel_matches_direct_cosine() {
        use crate::encode_embedding;
        use kath_vector::{cosine, embed_query};
        let s = Schema::of(&[("emb", DataType::Blob), ("body", DataType::Str)]);
        let rows: Vec<Row> = vec![
            vec![
                Value::Blob(encode_embedding(&embed_query("gun"))),
                "murder".into(),
            ],
            vec![Value::Null, "tea".into()],
            vec![Value::Blob(vec![9]), "garden walk".into()], // corrupt blob
            vec![
                Value::Blob(encode_embedding(&embed_query("tea"))),
                Value::Null,
            ],
        ];
        let cos = |a: &str, b: &str| Value::Float(cosine(&embed_query(a), &embed_query(b)) as f64);
        let blob = |a: &str| Value::Blob(encode_embedding(&embed_query(a)));
        let null = Value::Null;
        let cases = vec![
            (
                Expr::Call(
                    "similarity".into(),
                    vec![Expr::col("emb"), Expr::lit("weapon")],
                ),
                vec![
                    cos("gun", "weapon"),
                    null.clone(),
                    null.clone(),
                    cos("tea", "weapon"),
                ],
            ),
            (
                Expr::Call(
                    "similarity".into(),
                    vec![Expr::col("body"), Expr::lit("calm")],
                ),
                vec![
                    cos("murder", "calm"),
                    cos("tea", "calm"),
                    cos("garden walk", "calm"),
                    null.clone(),
                ],
            ),
            (
                Expr::Call(
                    "similarity".into(),
                    vec![Expr::col("emb"), Expr::col("body")],
                ),
                vec![
                    cos("gun", "murder"),
                    null.clone(),
                    null.clone(),
                    null.clone(),
                ],
            ),
            (
                Expr::Call("embed".into(), vec![Expr::col("body")]),
                vec![
                    blob("murder"),
                    blob("tea"),
                    blob("garden walk"),
                    null.clone(),
                ],
            ),
        ];
        for (e, want) in cases {
            assert_column(&e, rows.clone(), &s, want);
        }
    }

    #[test]
    fn batch_int_float_comparison_is_exact() {
        // The typed Int×Float kernel compares exactly above 2^53.
        let s = Schema::of(&[("i", DataType::Int), ("f", DataType::Float)]);
        let big = (1i64 << 53) + 1;
        let rows: Vec<Row> = vec![
            vec![Value::Int(big), Value::Float((1i64 << 53) as f64)],
            vec![Value::Int(3), Value::Float(3.0)],
            vec![Value::Int(1), Value::Float(1.5)],
            vec![Value::Null, Value::Float(0.0)],
            vec![Value::Int(0), Value::Float(f64::NAN)],
        ];
        // `i op f` and `f op i` per row: T(rue), F(alse), N(ULL).
        let cases = [
            (BinOp::Eq, "FTFNN", "FTFNN"),
            (BinOp::Ne, "TFTNN", "TFTNN"),
            (BinOp::Lt, "FFTNN", "TFFNN"),
            (BinOp::Le, "FTTNN", "TTFNN"),
            (BinOp::Gt, "TFFNN", "FFTNN"),
            (BinOp::Ge, "TTFNN", "FTTNN"),
        ];
        let cells = |s: &str| -> Vec<Value> {
            s.chars()
                .map(|c| match c {
                    'T' => Value::Bool(true),
                    'F' => Value::Bool(false),
                    _ => Value::Null,
                })
                .collect()
        };
        for (op, i_f, f_i) in cases {
            let e = Expr::col("i").bin(op, Expr::col("f"));
            assert_column(&e, rows.clone(), &s, cells(i_f));
            let e = Expr::col("f").bin(op, Expr::col("i"));
            assert_column(&e, rows.clone(), &s, cells(f_i));
        }
    }

    #[test]
    fn batch_bool_comparison_truth_table() {
        // Both operands are typed Bool columns: false < true, and a NULL
        // operand gives NULL.
        let s = Schema::of(&[("a", DataType::Bool), ("b", DataType::Bool)]);
        let (t, f, n) = (Value::Bool(true), Value::Bool(false), Value::Null);
        let rows: Vec<Row> = vec![
            vec![f.clone(), f.clone()],
            vec![f.clone(), t.clone()],
            vec![t.clone(), f.clone()],
            vec![t.clone(), t.clone()],
            vec![n.clone(), t.clone()],
            vec![f.clone(), n.clone()],
        ];
        let batch = RowBatch::from_rows(2, rows.clone());
        assert!(matches!(batch.column(0).data(), ColumnData::Bool(_)));
        assert!(matches!(batch.column(1).data(), ColumnData::Bool(_)));
        let cases = [
            (BinOp::Eq, [&t, &f, &f, &t, &n, &n]),
            (BinOp::Ne, [&f, &t, &t, &f, &n, &n]),
            (BinOp::Lt, [&f, &t, &f, &f, &n, &n]),
            (BinOp::Le, [&t, &t, &f, &t, &n, &n]),
            (BinOp::Gt, [&f, &f, &t, &f, &n, &n]),
            (BinOp::Ge, [&t, &f, &t, &t, &n, &n]),
        ];
        for (op, want) in cases {
            let e = Expr::col("a").bin(op, Expr::col("b"));
            assert_column(&e, rows.clone(), &s, want.map(Value::clone).to_vec());
        }
        // Against a literal, as `boring = TRUE` is.
        let e = Expr::col("a").eq(Expr::lit(true));
        assert_column(&e, rows, &s, vec![f.clone(), f.clone(), t.clone(), t, n, f]);
    }

    #[test]
    fn batch_unknown_column_errors() {
        let s = Schema::of(&[("x", DataType::Int)]);
        assert!(eval_row(&Expr::col("missing"), vec![Value::Int(1)], &s).is_err());
    }
}

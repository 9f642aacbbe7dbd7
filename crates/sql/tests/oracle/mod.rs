//! A deliberately naive SQL evaluator: the reference the SQL parity suites
//! judge every drive, backing, batch size and worker count against.
//!
//! It evaluates a parsed `kath_sql` [`Select`] over the catalog's rows as
//! `Vec<Row>`: nested-loop joins, one row at a time, no batches, indexes or
//! hints. It shares no code with what it judges — it never calls the
//! engine to compare, order, hash or evaluate a value (not even through
//! `Value`'s `==`); every rule below is written here, from
//! docs/execution.md:
//!
//! - three-valued logic: a comparison with NULL, with NaN or across types
//!   that do not compare is NULL; `AND`/`OR` follow SQL's truth tables
//!   and short-circuit, so a right operand is not evaluated — and cannot
//!   raise — once the left one decides; `WHERE` keeps a row only when its
//!   predicate is true (a non-zero number counts as true, a string as
//!   false);
//! - arithmetic: NULL in, NULL out — checked before a zero divisor, so
//!   `NULL / 0` is NULL; `+ - *` and unary minus wrap on integers; `/` and
//!   `%` raise `division by zero` / `modulo by zero` on a zero divisor and
//!   `integer overflow` on the one quotient that does not fit; a float
//!   operand makes the operation float (only a float division by zero
//!   raises); `+` concatenates strings;
//! - an integer and a float compare exactly, also above 2^53;
//! - one value order for ORDER BY, MIN/MAX, and the key equality of joins,
//!   GROUP BY and DISTINCT: NULL first, then booleans, numbers, strings,
//!   blobs; `1` equals `1.0`; NULL groups with NULL but never joins;
//! - row order: scan order; a join emits each left row's matches in build
//!   order and pads an unmatched LEFT row with NULLs; sorts are stable;
//!   groups come out in order of first appearance; DISTINCT keeps the
//!   first of equal rows;
//! - lazy `LIMIT`: no row past the limit is evaluated unless a sort or an
//!   aggregate sits beneath it. ORDER BY sorts after the projection when
//!   every key is a plain output column; a key naming a dropped input
//!   column sorts before it, and computed keys are evaluated into the sort
//!   while the SELECT list is evaluated after it.
//!
//! `SUM`/`AVG` add the numeric inputs as floats in row order (a non-NULL
//! non-number counts but adds nothing) and are NULL over no input.
//!
//! One scalar function is inside it, `SIMILARITY(a, b)`, by the rules of
//! docs/vector-search.md: a BLOB argument is a little-endian `f32` vector
//! (NULL when its length is not a multiple of 4), a STR argument is
//! embedded with `kath_vector::embed_query`, and anything else but NULL
//! raises. The score is the cosine of the two vectors computed here in
//! `f32` — 0 against a zero vector — as a float; NULL in, a wrong
//! dimension or a non-finite score is NULL. Under `ORDER BY … DESC` the
//! stable sort therefore ranks NULL scores last, in row order. Other
//! scalar functions are outside the oracle; statements that call them keep
//! an engine run as their reference.

#![allow(dead_code)]

use kath_sql::{AggCall, Select, SelectItem, SqlBinOp, SqlExpr};
use kath_storage::{Catalog, Row, Table, Value};
use std::cmp::Ordering;

/// What a statement returns: column names, rows in order, and which
/// columns are float `SUM`/`AVG` outputs — a morsel run may add those in a
/// different grouping and differ by a relative 1e-9.
#[derive(Debug, Clone)]
pub struct Answer {
    pub names: Vec<String>,
    pub rows: Vec<Row>,
    pub approx: Vec<bool>,
}

/// An expression bound to the ordinals of the rows it reads.
#[derive(Clone)]
enum E {
    Col(usize),
    Lit(Value),
    Bin(SqlBinOp, Box<E>, Box<E>),
    Not(Box<E>),
    Neg(Box<E>),
    IsNull(Box<E>, bool),
    Similarity(Box<E>, Box<E>),
}

/// Rows under names.
struct Rel {
    names: Vec<String>,
    rows: Vec<Row>,
}

/// Evaluates `select` over `catalog`. `Err` carries the message of the
/// first error in evaluation order.
pub fn run(catalog: &Catalog, select: &Select) -> Result<Answer, String> {
    let mut rel = scan(catalog, &select.from)?;
    for j in &select.joins {
        let right = scan(catalog, &j.table)?;
        rel = join(rel, right, &j.on_left, &j.on_right, j.left_outer)?;
    }
    let filter = match &select.where_clause {
        Some(w) => Some(bind(w, &rel.names)?),
        None => None,
    };
    let keep = |row: &Row| -> Result<bool, String> {
        match &filter {
            Some(p) => Ok(truth(&eval(p, row)?) == Some(true)),
            None => Ok(true),
        }
    };
    let grouped = !select.group_by.is_empty() || select.items.iter().any(has_agg);
    if grouped {
        return aggregate(select, rel, keep);
    }

    // The SELECT list as (name, expression); `*` passes every column.
    let star = select.items == [SelectItem::Wildcard];
    let mut outputs: Vec<(String, E)> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => outputs.extend(
                rel.names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.clone(), E::Col(i))),
            ),
            SelectItem::Expr(e, alias) => {
                let name = alias.clone().unwrap_or_else(|| match e {
                    SqlExpr::Column(_, c) => c.clone(),
                    other => other.to_string(),
                });
                outputs.push((name, bind(e, &rel.names)?));
            }
        }
    }
    let names: Vec<String> = outputs.iter().map(|(n, _)| n.clone()).collect();
    unique(&names)?;
    let project =
        |row: &Row| -> Result<Row, String> { outputs.iter().map(|(_, e)| eval(e, row)).collect() };

    // ORDER BY: what each key reads, and whether it sorts the joined rows
    // (before the projection) or the projected ones.
    let plain: Option<Vec<&str>> = select.order_by.iter().map(|k| k.as_column()).collect();
    let desc: Vec<bool> = select.order_by.iter().map(|k| k.desc).collect();
    let every = |_: &Row| Ok(true);
    match plain {
        // No sort: everything is lazy.
        Some(keys) if keys.is_empty() => lazy_tail(&rel.rows, keep, project, select, names),
        // Plain keys sort after the projection when they all name outputs,
        // else the joined rows before it, and the projection stays lazy.
        Some(keys) => {
            let before = !star && !keys.iter().all(|k| names.iter().any(|n| n == k));
            let sorted = if before { &rel.names } else { &names };
            let at: Vec<usize> = keys
                .iter()
                .map(|k| position(sorted, k))
                .collect::<Result<_, _>>()?;
            let mut rows = Vec::new();
            for row in &rel.rows {
                if keep(row)? {
                    rows.push(if before { row.clone() } else { project(row)? });
                }
            }
            sort(&mut rows, |r| pick(r, &at), &desc);
            match before {
                true => lazy_tail(&rows, every, project, select, names),
                false => lazy_tail(&rows, every, |r| Ok(r.clone()), select, names),
            }
        }
        // Computed keys: evaluate them into the sort; the SELECT list
        // (which a plain key naming an output stands for) comes after.
        None => {
            let mut keys: Vec<E> = Vec::new();
            for k in &select.order_by {
                keys.push(match k.as_column() {
                    Some(c) => match outputs.iter().find(|(n, _)| n == c) {
                        Some((_, output)) => output.clone(),
                        None => E::Col(position(&rel.names, c)?),
                    },
                    None => bind(&k.expr, &rel.names)?,
                });
            }
            let mut rows: Vec<(Row, Row)> = Vec::new();
            for row in &rel.rows {
                if keep(row)? {
                    let key = keys
                        .iter()
                        .map(|k| eval(k, row))
                        .collect::<Result<_, _>>()?;
                    rows.push((key, row.clone()));
                }
            }
            sort(&mut rows, |(key, _)| key.clone(), &desc);
            let rows: Vec<Row> = rows.into_iter().map(|(_, row)| row).collect();
            lazy_tail(&rows, every, project, select, names)
        }
    }
}

/// Filters and projects `rows` one at a time, DISTINCT, until the limit:
/// no row past it is evaluated.
fn lazy_tail(
    rows: &[Row],
    keep: impl Fn(&Row) -> Result<bool, String>,
    project: impl Fn(&Row) -> Result<Row, String>,
    select: &Select,
    names: Vec<String>,
) -> Result<Answer, String> {
    let mut kept = Vec::new();
    for row in rows {
        if select.limit.is_some_and(|n| kept.len() >= n) {
            break;
        }
        if keep(row)? {
            push_distinct(&mut kept, project(row)?, select.distinct);
        }
    }
    Ok(answer(names, kept))
}

fn answer(names: Vec<String>, rows: Vec<Row>) -> Answer {
    let approx = vec![false; names.len()];
    Answer {
        names,
        rows,
        approx,
    }
}

/// The values of `row` at `at`.
fn pick(row: &Row, at: &[usize]) -> Row {
    at.iter().map(|&i| row[i].clone()).collect()
}

fn push_distinct(kept: &mut Vec<Row>, row: Row, distinct: bool) {
    if !distinct || !kept.iter().any(|k| same_key(k, &row)) {
        kept.push(row);
    }
}

/// A stable sort on the keys `key` reads, each descending where `desc` says.
fn sort<T>(rows: &mut [T], key: impl Fn(&T) -> Row, desc: &[bool]) {
    rows.sort_by(|a, b| {
        let (ka, kb) = (key(a), key(b));
        for ((x, y), d) in ka.iter().zip(&kb).zip(desc) {
            let o = order(x, y);
            if o != Ordering::Equal {
                return if *d { o.reverse() } else { o };
            }
        }
        Ordering::Equal
    });
}

fn position(names: &[String], c: &str) -> Result<usize, String> {
    let at = names.iter().position(|n| n == c);
    at.ok_or_else(|| format!("unknown column '{c}'"))
}

fn unique(names: &[String]) -> Result<(), String> {
    for (i, n) in names.iter().enumerate() {
        if names[..i].contains(n) {
            return Err(format!("duplicate column '{n}'"));
        }
    }
    Ok(())
}

fn scan(catalog: &Catalog, name: &str) -> Result<Rel, String> {
    let table: std::sync::Arc<Table> = catalog.get(name).map_err(|e| e.to_string())?;
    Ok(Rel {
        names: table
            .schema()
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect(),
        rows: table.rows().to_vec(),
    })
}

/// Name resolution: `t.c` is the column named so, else `c`, else the
/// right-side duplicate `right.c`.
fn resolve(names: &[String], (q, c): (&Option<String>, &str)) -> Result<usize, String> {
    let find = |n: &str| names.iter().position(|x| x == n);
    q.as_ref()
        .and_then(|q| find(&format!("{q}.{c}")))
        .or_else(|| find(c))
        .or_else(|| find(&format!("right.{c}")))
        .ok_or_else(|| format!("unknown column '{c}'"))
}

/// Nested-loop equi-join: the ON pair may be written either way round; a
/// right column whose name the left side already has is called `right.`
/// that name.
fn join(
    left: Rel,
    right: Rel,
    a: &(Option<String>, String),
    b: &(Option<String>, String),
    outer: bool,
) -> Result<Rel, String> {
    let in_left = |c: &(Option<String>, String)| resolve(&left.names, (&c.0, &c.1)).ok();
    let in_right = |c: &(Option<String>, String)| right.names.iter().position(|n| *n == c.1);
    let (lk, rk) = match (in_left(a), in_right(b), in_left(b), in_right(a)) {
        (Some(l), Some(r), ..) | (.., Some(l), Some(r)) => (l, r),
        _ => return Err(format!("cannot orient join condition {} = {}", a.1, b.1)),
    };
    let mut names = left.names.clone();
    for n in &right.names {
        let mut name = n.clone();
        while names.contains(&name) {
            name = format!("right.{name}");
        }
        names.push(name);
    }
    let mut rows = Vec::new();
    for l in &left.rows {
        let before = rows.len();
        for r in &right.rows {
            if !matches!(l[lk], Value::Null) && order(&l[lk], &r[rk]) == Ordering::Equal {
                rows.push([l.clone(), r.clone()].concat());
            }
        }
        if outer && rows.len() == before {
            let pad = vec![Value::Null; right.names.len()];
            rows.push([l.clone(), pad].concat());
        }
    }
    Ok(Rel { names, rows })
}

fn has_agg(item: &SelectItem) -> bool {
    fn walk(e: &SqlExpr) -> bool {
        match e {
            SqlExpr::Agg(..) => true,
            SqlExpr::Binary(_, l, r) => walk(l) || walk(r),
            SqlExpr::Not(x) | SqlExpr::Neg(x) | SqlExpr::IsNull(x, _) => walk(x),
            SqlExpr::Call(_, args) => args.iter().any(walk),
            _ => false,
        }
    }
    matches!(item, SelectItem::Expr(e, _) if walk(e))
}

/// One aggregate's running state over a group.
#[derive(Clone, Default)]
struct Acc {
    count: i64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

/// GROUP BY / aggregates: group keys (each once, in GROUP BY order) then
/// the aggregates, one row per group in order of first appearance — one
/// row over no input when there is no GROUP BY.
fn aggregate(
    select: &Select,
    rel: Rel,
    keep: impl Fn(&Row) -> Result<bool, String>,
) -> Result<Answer, String> {
    if select.order_by.iter().any(|k| k.as_column().is_none()) {
        return Err("expression ORDER BY keys with aggregation".into());
    }
    let mut groups: Vec<String> = Vec::new();
    for g in &select.group_by {
        if !groups.contains(g) {
            groups.push(g.clone());
        }
    }
    let mut aggs: Vec<(AggCall, Option<usize>, String)> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Expr(SqlExpr::Agg(call, arg), alias) => {
                let col = match arg.as_deref() {
                    None => None,
                    Some(SqlExpr::Column(q, c)) => Some(resolve(&rel.names, (q, c))?),
                    Some(other) => return Err(format!("aggregate over expression {other}")),
                };
                let name = alias.clone().unwrap_or_else(|| {
                    let input = col.map_or("all", |c| rel.names[c].as_str());
                    format!("{}_{input}", call.name().to_ascii_lowercase())
                });
                aggs.push((*call, col, name));
            }
            SelectItem::Expr(SqlExpr::Column(_, c), _) if groups.contains(c) => {}
            other => return Err(format!("{other:?} is not a GROUP BY key or an aggregate")),
        }
    }
    let key_at: Vec<usize> = groups
        .iter()
        .map(|g| position(&rel.names, g))
        .collect::<Result<_, _>>()?;
    let mut names = groups.clone();
    names.extend(aggs.iter().map(|(_, _, n)| n.clone()));
    unique(&names)?;
    let keys = select
        .order_by
        .iter()
        .map(|k| k.as_column().unwrap_or_default());
    let sort_at: Vec<usize> = keys
        .map(|k| position(&names, k))
        .collect::<Result<_, _>>()?;

    // (key, rows in the group, one accumulator per aggregate)
    let mut states: Vec<(Row, i64, Vec<Acc>)> = Vec::new();
    for row in &rel.rows {
        if !keep(row)? {
            continue;
        }
        let key = pick(row, &key_at);
        let at = match states.iter().position(|(k, ..)| same_key(k, &key)) {
            Some(at) => at,
            None => {
                states.push((key, 0, vec![Acc::default(); aggs.len()]));
                states.len() - 1
            }
        };
        let (_, n, accs) = &mut states[at];
        *n += 1;
        for (acc, (_, col, _)) in accs.iter_mut().zip(&aggs) {
            let Some(v) = col.map(|c| &row[c]).filter(|v| !matches!(v, Value::Null)) else {
                continue;
            };
            acc.count += 1;
            acc.sum += match v {
                Value::Int(i) => *i as f64,
                Value::Float(f) => *f,
                _ => 0.0,
            };
            if acc.min.as_ref().is_none_or(|m| order(v, m).is_lt()) {
                acc.min = Some(v.clone());
            }
            if acc.max.as_ref().is_none_or(|m| order(v, m).is_gt()) {
                acc.max = Some(v.clone());
            }
        }
    }
    if groups.is_empty() && states.is_empty() {
        states.push((Vec::new(), 0, vec![Acc::default(); aggs.len()]));
    }
    let mut rows: Vec<Row> = states
        .into_iter()
        .map(|(mut key, n, accs)| {
            for (acc, (call, col, _)) in accs.into_iter().zip(&aggs) {
                let none = acc.count == 0;
                key.push(match call {
                    AggCall::Count if col.is_none() => Value::Int(n),
                    AggCall::Count => Value::Int(acc.count),
                    AggCall::Sum | AggCall::Avg if none => Value::Null,
                    AggCall::Sum => Value::Float(acc.sum),
                    AggCall::Avg => Value::Float(acc.sum / acc.count as f64),
                    AggCall::Min => acc.min.unwrap_or(Value::Null),
                    AggCall::Max => acc.max.unwrap_or(Value::Null),
                });
            }
            key
        })
        .collect();
    let desc: Vec<bool> = select.order_by.iter().map(|k| k.desc).collect();
    sort(&mut rows, |r| pick(r, &sort_at), &desc);
    let mut out = lazy_tail(&rows, |_| Ok(true), |r| Ok(r.clone()), select, names)?;
    for (flag, (call, ..)) in out.approx[groups.len()..].iter_mut().zip(&aggs) {
        *flag = matches!(call, AggCall::Sum | AggCall::Avg);
    }
    Ok(out)
}

fn bind(e: &SqlExpr, names: &[String]) -> Result<E, String> {
    let boxed = |x: &SqlExpr| bind(x, names).map(Box::new);
    Ok(match e {
        SqlExpr::Column(q, c) => E::Col(resolve(names, (q, c))?),
        SqlExpr::Int(i) => E::Lit(Value::Int(*i)),
        SqlExpr::Float(f) => E::Lit(Value::Float(*f)),
        SqlExpr::Str(s) => E::Lit(Value::Str(s.clone())),
        SqlExpr::Bool(b) => E::Lit(Value::Bool(*b)),
        SqlExpr::Null => E::Lit(Value::Null),
        SqlExpr::Binary(op, l, r) => E::Bin(*op, boxed(l)?, boxed(r)?),
        SqlExpr::Not(x) => E::Not(boxed(x)?),
        SqlExpr::Neg(x) => E::Neg(boxed(x)?),
        SqlExpr::IsNull(x, negated) => E::IsNull(boxed(x)?, *negated),
        SqlExpr::Call(name, args) => match (name.as_str(), &args[..]) {
            ("similarity", [a, b]) => E::Similarity(boxed(a)?, boxed(b)?),
            _ => return Err(format!("the oracle has no function {name}")),
        },
        SqlExpr::Agg(..) => return Err("aggregate in scalar position".into()),
    })
}

/// The truth of a value: NULL is unknown, a number is true when non-zero,
/// a string or a blob is false.
fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        Value::Int(i) => Some(*i != 0),
        Value::Float(f) => Some(*f != 0.0),
        Value::Str(_) | Value::Blob(_) => Some(false),
    }
}

fn known(t: Option<bool>) -> Value {
    t.map_or(Value::Null, Value::Bool)
}

fn eval(e: &E, row: &Row) -> Result<Value, String> {
    Ok(match e {
        E::Col(i) => row[*i].clone(),
        E::Lit(v) => v.clone(),
        E::Not(x) => known(truth(&eval(x, row)?).map(|t| !t)),
        E::IsNull(x, negated) => Value::Bool(matches!(eval(x, row)?, Value::Null) != *negated),
        E::Neg(x) => match eval(x, row)? {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(i.wrapping_neg()),
            Value::Float(f) => Value::Float(-f),
            v => return Err(format!("cannot negate {v:?}")),
        },
        E::Bin(SqlBinOp::And, l, r) => match truth(&eval(l, row)?) {
            Some(false) => Value::Bool(false),
            lt => match truth(&eval(r, row)?) {
                Some(false) => Value::Bool(false),
                rt => known(lt.zip(rt).map(|_| true)),
            },
        },
        E::Bin(SqlBinOp::Or, l, r) => match truth(&eval(l, row)?) {
            Some(true) => Value::Bool(true),
            lt => match truth(&eval(r, row)?) {
                Some(true) => Value::Bool(true),
                rt => known(lt.zip(rt).map(|_| false)),
            },
        },
        E::Bin(op, l, r) => binary(*op, eval(l, row)?, eval(r, row)?)?,
        E::Similarity(a, b) => similarity(&eval(a, row)?, &eval(b, row)?)?,
    })
}

/// `SIMILARITY(a, b)`: the cosine of the two arguments' vectors, or NULL.
fn similarity(a: &Value, b: &Value) -> Result<Value, String> {
    let (x, y) = (vector_of(a)?, vector_of(b)?);
    let (Some(x), Some(y)) = (x, y) else {
        return Ok(Value::Null);
    };
    if x.len() != y.len() {
        return Ok(Value::Null);
    }
    let mut dot = 0.0f32;
    let (mut xx, mut yy) = (0.0f32, 0.0f32);
    for (p, q) in x.iter().zip(&y) {
        dot += p * q;
        xx += p * p;
        yy += q * q;
    }
    let (nx, ny) = (xx.sqrt(), yy.sqrt());
    if nx == 0.0 || ny == 0.0 {
        return Ok(Value::Float(0.0));
    }
    if !(dot.is_finite() && nx.is_finite() && ny.is_finite()) {
        return Ok(Value::Null);
    }
    let score = (dot / (nx * ny)).clamp(-1.0, 1.0);
    // A zero score is `0.0`, never `-0.0`.
    Ok(Value::Float(if score == 0.0 { 0.0 } else { score as f64 }))
}

/// The vector a `SIMILARITY` argument stands for: `None` for NULL and for
/// a blob whose length is not a multiple of 4.
fn vector_of(v: &Value) -> Result<Option<Vec<f32>>, String> {
    match v {
        Value::Null => Ok(None),
        Value::Blob(bytes) if bytes.len() % 4 != 0 => Ok(None),
        Value::Blob(bytes) => Ok(Some(
            bytes
                .chunks(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )),
        Value::Str(text) => Ok(Some(kath_vector::embed_query(text))),
        other => Err(format!("similarity expects BLOB or STR, got {other:?}")),
    }
}

fn binary(op: SqlBinOp, l: Value, r: Value) -> Result<Value, String> {
    use SqlBinOp::*;
    let holds = |o: Ordering| match op {
        Eq => o == Ordering::Equal,
        Ne => o != Ordering::Equal,
        Lt => o == Ordering::Less,
        Le => o != Ordering::Greater,
        Gt => o == Ordering::Greater,
        _ => o != Ordering::Less,
    };
    if matches!(op, Eq | Ne | Lt | Le | Gt | Ge) {
        return Ok(compare(&l, &r).map_or(Value::Null, |o| Value::Bool(holds(o))));
    }
    Ok(match (l, r) {
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::Str(a), Value::Str(b)) if op == Add => Value::Str(a + &b),
        (Value::Int(a), Value::Int(b)) => Value::Int(match op {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            Div if b == 0 => return Err("division by zero".into()),
            Mod if b == 0 => return Err("modulo by zero".into()),
            Div if a == i64::MIN && b == -1 => return Err("integer overflow".into()),
            Mod if a == i64::MIN && b == -1 => return Err("integer overflow".into()),
            Div => a / b,
            _ => a % b,
        }),
        (l, r) => match (float(&l), float(&r)) {
            (Some(a), Some(b)) => Value::Float(match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div if b == 0.0 => return Err("division by zero".into()),
                Div => a / b,
                _ => a % b,
            }),
            _ => return Err(format!("cannot apply {op:?} to {l:?} and {r:?}")),
        },
    })
}

fn float(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// An integer against a float, exactly: never through a rounding
/// `as f64` of the integer. `None` against NaN.
fn int_vs_float(a: i64, b: f64) -> Option<Ordering> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if b.is_nan() {
        return None;
    }
    if b >= TWO_63 {
        return Some(Ordering::Less);
    }
    if b < -TWO_63 {
        return Some(Ordering::Greater);
    }
    let whole = b.trunc();
    // `whole` is an integer in [-2^63, 2^63): the cast is exact.
    Some(a.cmp(&(whole as i64)).then(if b > whole {
        Ordering::Less
    } else if b < whole {
        Ordering::Greater
    } else {
        Ordering::Equal
    }))
}

/// SQL comparison: `None` (NULL) for NULL, NaN, or types that do not
/// compare.
fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
        (Value::Int(x), Value::Float(y)) => int_vs_float(*x, *y),
        (Value::Float(x), Value::Int(y)) => int_vs_float(*y, *x).map(Ordering::reverse),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        (Value::Blob(x), Value::Blob(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// Where a NaN sits among the numbers: a negative one below all, a
/// positive one above all.
fn nan_side(f: f64) -> i8 {
    match (f.is_nan(), f.is_sign_negative()) {
        (false, _) => 0,
        (true, true) => -1,
        (true, false) => 1,
    }
}

/// The one value order (sorts, MIN/MAX, and key equality).
fn order(a: &Value, b: &Value) -> Ordering {
    let rank = |v: &Value| match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Str(_) => 3,
        Value::Blob(_) => 4,
    };
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => match (nan_side(*x), nan_side(*y)) {
            (0, 0) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
            (p, q) => p.cmp(&q),
        },
        (Value::Int(x), Value::Float(y)) => int_vs_float(*x, *y).unwrap_or(0.cmp(&nan_side(*y))),
        (Value::Float(x), Value::Int(y)) => {
            int_vs_float(*y, *x).map_or(nan_side(*x).cmp(&0), Ordering::reverse)
        }
        _ => compare(a, b).unwrap_or_else(|| rank(a).cmp(&rank(b))),
    }
}

fn same_key(a: &Row, b: &Row) -> bool {
    a.iter().zip(b).all(|(x, y)| order(x, y) == Ordering::Equal)
}

/// Whether two answers' values agree: the same variant and payload;
/// floats bit for bit (NaN equals NaN), or within a relative 1e-9 where
/// `approx` allows.
pub fn same_value(a: &Value, b: &Value, approx: bool) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Blob(x), Value::Blob(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits()
                || (x.is_nan() && y.is_nan())
                || (approx && (x - y).abs() <= 1e-9 * x.abs().max(y.abs()))
        }
        _ => false,
    }
}

/// How `got` differs from `want` — column names, row count, or the first
/// row that disagrees — or `None` when it has `want`'s names and rows.
pub fn mismatch(got: &Table, want: &Answer) -> Option<String> {
    let names: Vec<&str> = got.schema().names();
    if names != want.names {
        return Some(format!("columns {names:?}, want {:?}", want.names));
    }
    let rows = got.rows();
    if rows.len() != want.rows.len() {
        return Some(format!("{} rows, want {}", rows.len(), want.rows.len()));
    }
    let agree = |g: &Row, w: &Row| {
        g.len() == w.len()
            && g.iter()
                .zip(w)
                .zip(&want.approx)
                .all(|((x, y), a)| same_value(x, y, *a))
    };
    let (i, (g, w)) = rows
        .iter()
        .zip(&want.rows)
        .enumerate()
        .find(|(_, (g, w))| !agree(g, w))?;
    Some(format!("row {i}: got {g:?}, want {w:?}"))
}

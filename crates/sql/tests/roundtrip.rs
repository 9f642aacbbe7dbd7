//! Property tests: printing a parsed statement and re-parsing it yields the
//! same AST (the printer is what KathDB persists and shows users, §5), and
//! printed text, mutated, parses, lowers and evaluates to a value or a typed
//! error, never a panic.

use kath_sql::*;
use kath_storage::{DataType, RowBatch, Schema, Value};
use proptest::prelude::*;

fn arb_expr() -> impl Strategy<Value = SqlExpr> {
    let leaf = prop_oneof![
        "[a-z][a-z0-9_]{0,6}".prop_map(|c| SqlExpr::Column(None, c)),
        ("[a-z]{1,4}", "[a-z]{1,4}").prop_map(|(t, c)| SqlExpr::Column(Some(t), c)),
        (0i64..1_000_000).prop_map(SqlExpr::Int),
        (0.0f64..1000.0).prop_map(SqlExpr::Float),
        "[a-z ']{0,8}".prop_map(SqlExpr::Str),
        Just(SqlExpr::Null),
        any::<bool>().prop_map(SqlExpr::Bool),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(SqlBinOp::Add),
                    Just(SqlBinOp::Sub),
                    Just(SqlBinOp::Mul),
                    Just(SqlBinOp::Eq),
                    Just(SqlBinOp::Lt),
                    Just(SqlBinOp::And),
                    Just(SqlBinOp::Or),
                    Just(SqlBinOp::Ge),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| SqlExpr::Binary(op, Box::new(l), Box::new(r))),
            inner.clone().prop_map(|e| SqlExpr::Not(Box::new(e))),
            (inner.clone(), any::<bool>()).prop_map(|(e, n)| SqlExpr::IsNull(Box::new(e), n)),
            (
                "(lower|upper|abs|coalesce)",
                prop::collection::vec(inner, 1..3)
            )
                .prop_map(|(f, args)| SqlExpr::Call(f, args)),
        ]
    })
}

fn arb_select() -> impl Strategy<Value = Select> {
    (
        any::<bool>(),
        prop::collection::vec((arb_expr(), prop::option::of("[a-z][a-z0-9_]{0,5}")), 1..4),
        "[a-z][a-z0-9_]{0,6}",
        prop::option::of(arb_expr()),
        prop::collection::vec(("[a-z][a-z0-9_]{0,5}", any::<bool>()), 0..3),
        prop::option::of(0usize..1000),
    )
        .prop_map(
            |(distinct, items, from, where_clause, order, limit)| Select {
                distinct,
                items: items
                    .into_iter()
                    .map(|(e, a)| SelectItem::Expr(e, a))
                    .collect(),
                from,
                joins: vec![],
                where_clause,
                group_by: vec![],
                order_by: order
                    .into_iter()
                    .map(|(column, desc)| OrderKey::column(column, desc))
                    .collect(),
                limit,
            },
        )
}

proptest! {
    #[test]
    fn print_parse_fixpoint(s in arb_select()) {
        let text = s.to_string();
        let reparsed = parse_select(&text);
        // Keywords used as identifiers (e.g. a column named `not`) are the
        // only legal source of failure; anything else must round-trip.
        if let Ok(back) = reparsed {
            prop_assert_eq!(back, s, "text was: {}", text);
        }
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,80}") {
        let _ = parse_statement(&s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_statements_parse_or_fail_cleanly(
        s in arb_select(),
        mutations in arb_mutations(),
    ) {
        let text = mutate(&s.to_string(), &mutations);
        let _ = parse_statement(&text);
        let _ = parse_expr(&text);
    }

    #[test]
    fn mutated_expressions_evaluate_or_fail_cleanly(
        e in arb_expr(),
        mutations in arb_mutations(),
    ) {
        let text = mutate(&e.to_string(), &mutations);
        let _ = parse_statement(&text);
        if let Ok(parsed) = parse_expr(&text) {
            let (schema, batch) = mixed_batch();
            if let Ok(lowered) = to_expr(&bind(parsed), &schema) {
                if let Ok(column) = lowered.eval_batch(&batch, &schema) {
                    prop_assert_eq!(column.len(), batch.num_rows(), "text was: {}", text);
                }
            }
        }
    }
}

/// Up to three mutations, each `(kind, position, bit)`; none leaves the
/// printed text as it is, so the evaluator also sees every generated shape.
fn arb_mutations() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..4)
}

/// The text's tokens: runs of identifier characters, quoted strings, and
/// every other non-blank character on its own.
fn tokens(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        let mut token = c.to_string();
        let word = |c: &char| c.is_alphanumeric() || matches!(c, '_' | '.');
        if word(&c) {
            while let Some(next) = chars.next_if(word) {
                token.push(next);
            }
        } else if c == '\'' {
            for next in chars.by_ref() {
                token.push(next);
                if next == '\'' {
                    break;
                }
            }
        } else if c.is_whitespace() {
            continue;
        }
        out.push(token);
    }
    out
}

/// `text` after each mutation in turn: drop, repeat or swap a token, flip a
/// bit of a byte, or truncate.
fn mutate(text: &str, mutations: &[(u8, usize, u8)]) -> String {
    let mut text = text.to_string();
    for &(kind, at, bit) in mutations {
        let mut tokens = tokens(&text);
        let k = at % tokens.len().max(1);
        let mut bytes = text.clone().into_bytes();
        text = match kind % 5 {
            0 if !tokens.is_empty() => {
                tokens.remove(k);
                tokens.join(" ")
            }
            1 if !tokens.is_empty() => {
                tokens.insert(k, tokens[k].clone());
                tokens.join(" ")
            }
            2 if tokens.len() > 1 => {
                let next = (k + 1) % tokens.len();
                tokens.swap(k, next);
                tokens.join(" ")
            }
            3 if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes[i] ^= 1 << (bit % 8);
                String::from_utf8_lossy(&bytes).into_owned()
            }
            _ => String::from_utf8_lossy(&bytes[..at % (bytes.len() + 1)]).into_owned(),
        };
    }
    text
}

/// Four rows of every column kind, with NULLs, NaN, an empty string and
/// `i64::MIN`.
fn mixed_batch() -> (Schema, RowBatch) {
    let schema = Schema::of(&[
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
        ("b", DataType::Bool),
        ("m", DataType::Any),
    ]);
    let rows = vec![
        vec![
            Value::Int(1),
            Value::Float(0.5),
            "a".into(),
            Value::Bool(true),
            Value::Int(0),
        ],
        vec![
            Value::Null,
            Value::Float(f64::NAN),
            "".into(),
            Value::Bool(false),
            "x".into(),
        ],
        vec![
            Value::Int(-3),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Float(2.5),
        ],
        vec![
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            "Zz".into(),
            Value::Bool(true),
            Value::Null,
        ],
    ];
    (schema, RowBatch::from_rows(5, rows))
}

/// `e` with every column reference bound to a column of [`mixed_batch`].
fn bind(e: SqlExpr) -> SqlExpr {
    const COLUMNS: [&str; 5] = ["i", "f", "s", "b", "m"];
    let b = |e: Box<SqlExpr>| Box::new(bind(*e));
    match e {
        SqlExpr::Column(_, c) => SqlExpr::Column(None, COLUMNS[c.len() % 5].to_string()),
        SqlExpr::Binary(op, l, r) => SqlExpr::Binary(op, b(l), b(r)),
        SqlExpr::Not(x) => SqlExpr::Not(b(x)),
        SqlExpr::Neg(x) => SqlExpr::Neg(b(x)),
        SqlExpr::IsNull(x, negated) => SqlExpr::IsNull(b(x), negated),
        SqlExpr::Call(f, args) => SqlExpr::Call(f, args.into_iter().map(bind).collect()),
        SqlExpr::Agg(a, x) => SqlExpr::Agg(a, x.map(b)),
        leaf => leaf,
    }
}

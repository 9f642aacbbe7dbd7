//! Runs the corpus `slt/*.slt`, sqllogictest-style: `statement ok`, `statement
//! error [message]`, and `query <types> [rowsort]` with its rows after `----`
//! (values rendered, space-joined; types `I R T B` per column, NULL fits any).
//! Blank lines end records, `#` starts a comment. Statements build a resident
//! catalog; each SELECT runs through the oracle and on every backing (resident,
//! sealed, sealed + tail, the sealed ones also under a 1-page pool) × batch
//! size 1/3/1024 × 1/2/8 threads.

mod oracle;

use kath_sql::{execute, parse_select, run_select_auto_guarded};
use kath_storage::{Catalog, CompileMode, ExecMode, QueryGuard, Row, Table, Value, VectorMode};

/// The resident catalog, and its tables sealed seven rows to a page (all, or
/// but for two fifths INSERTed after) under the default pool and a 1-page one.
fn backings(resident: &Catalog) -> Vec<(String, Catalog)> {
    let mut out = vec![("resident".to_string(), resident.clone())];
    for (sealed, pool) in [(1.0, None), (1.0, Some(1)), (0.6, None), (0.6, Some(1))] {
        let mut c = Catalog::new();
        let pages = c.pool().clone();
        for name in resident.table_names() {
            let t = resident.get(name).unwrap();
            let (head, tail) = t.rows().split_at((t.len() as f64 * sealed) as usize);
            let head = Table::from_rows(name, t.schema().clone(), head.to_vec()).unwrap();
            c.register(head.seal(&pages, 7).unwrap()).unwrap();
            c.append_rows(name, tail).unwrap();
        }
        pool.into_iter().for_each(|p| c.set_pool_budget(p));
        out.push((format!("{sealed} sealed, pool {pool:?}"), c));
    }
    out
}

/// A row as the corpus writes it, its values checked against `types`.
fn render(row: &Row, types: &str, at: &str) -> String {
    let letter = |v: &Value| match v {
        Value::Int(_) => 'I',
        Value::Float(_) => 'R',
        Value::Str(_) => 'T',
        Value::Bool(_) => 'B',
        _ => '?',
    };
    for (v, t) in row.iter().zip(types.chars()) {
        assert!(v.is_null() || letter(v) == t, "{v:?} is not {t}: {at}");
    }
    row.iter().map(Value::render).collect::<Vec<_>>().join(" ")
}

/// One SELECT everywhere: the oracle's rows, once every run returned them too,
/// or — when the oracle and every run fail — their error messages.
fn sweep(resident: &Catalog, sql: &str, at: &str) -> Result<Vec<Row>, Vec<String>> {
    let select = parse_select(sql).unwrap_or_else(|e| panic!("{at}: {e}"));
    let want = oracle::run(resident, &select);
    let mut errors: Vec<String> = want.as_ref().err().cloned().into_iter().collect();
    let (guard, vector, compile) = (QueryGuard::unlimited(), VectorMode::Auto, CompileMode::Off);
    for (label, c) in backings(resident) {
        for (batch, threads) in [1, 3, 1024].map(|b| [(b, 1), (b, 2), (b, 8)]).concat() {
            let mode = ExecMode::Batched(batch);
            let got =
                run_select_auto_guarded(&c, &select, "", mode, threads, vector, compile, &guard);
            let at = format!("{at} ({label}, batch {batch}, {threads} threads)");
            match (&want, got) {
                (Ok(want), Ok((got, _))) => assert_eq!(oracle::mismatch(&got, want), None, "{at}"),
                (Err(_), Err(e)) => errors.push(e.to_string()),
                (want, got) => panic!("{at}: oracle {want:?}, engine {got:?}"),
            }
        }
    }
    want.map(|a| a.rows).map_err(|_| errors)
}

#[test]
fn the_corpus_answers_alike_everywhere() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/slt");
    let entries = std::fs::read_dir(&dir).unwrap();
    let mut files: Vec<_> = entries.map(|e| e.unwrap().path()).collect();
    files.retain(|p| p.extension().is_some_and(|e| e == "slt"));
    files.sort();
    assert!(!files.is_empty(), "no .slt file under {}", dir.display());
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let lines: Vec<_> = text
            .lines()
            .enumerate()
            .filter(|l| !l.1.starts_with('#'))
            .collect();
        let mut c = Catalog::new();
        for record in lines
            .split(|l| l.1.trim().is_empty())
            .filter(|r| !r.is_empty())
        {
            let at = format!("{}:{}", file.display(), record[0].0 + 1);
            let head: Vec<&str> = record[0].1.split_whitespace().collect();
            let body: Vec<&str> = record[1..].iter().map(|(_, l)| *l).collect();
            let split = body.iter().position(|l| *l == "----").unwrap_or(body.len());
            let sql = body[..split].join(" ");
            match head.as_slice() {
                ["statement", "ok"] => {
                    execute(&mut c, &sql, "out").unwrap_or_else(|e| panic!("{at}: {e}"));
                }
                ["statement", "error", message @ ..] => {
                    let errors = sweep(&c, &sql, &at).expect_err(&at);
                    let all = errors.iter().all(|e| e.contains(&message.join(" ")));
                    assert!(all, "{at}: {errors:?} lack {message:?}");
                }
                ["query", types, sort @ ..] => {
                    let rows = sweep(&c, &sql, &at).unwrap_or_else(|e| panic!("{at}: {e:?}"));
                    let mut got: Vec<_> = rows.iter().map(|r| render(r, types, &at)).collect();
                    let mut want: Vec<&str> = body.get(split + 1..).unwrap_or_default().to_vec();
                    if sort == ["rowsort"] {
                        got.sort();
                        want.sort();
                    }
                    assert_eq!(got, want, "{at}");
                }
                other => panic!("{at}: unknown record {other:?}"),
            }
        }
    }
}

//! `storage_bench` — the machine-readable perf trajectory of out-of-core
//! paged columnar storage.
//!
//! Three questions, answered in `BENCH_storage.json` at the repo root:
//!
//! 1. **Scan cost** — the scan → filter → aggregate pipeline over the scale
//!    corpus, resident vs paged behind buffer pools of several budgets
//!    (results are asserted identical; only wall-clock and pool counters
//!    differ).
//! 2. **Checkpoint incrementality** — bytes written by a first (full)
//!    checkpoint vs a second one after appending a single row: the second
//!    must rewrite only each column's tail page.
//! 3. **Compression** — per column: the encoding the codec picked, encoded
//!    bytes vs the approximate in-memory footprint.
//! 4. **Codec** — what a page costs: `encode_page` / `decode_page` in
//!    ns/value on a full 4 096-row page of every encoding and of int-for at
//!    a sweep of bit widths, and `miss_us`, the wall time of one buffer-pool
//!    miss (bytes, CRC, decode, insert, eviction) per column kind behind a
//!    16-page pool that a cyclic scan of 20 pages floods. `--baseline
//!    <report>` copies the codec numbers of another run of this binary —
//!    built at the parent commit — beside them as `parent_*` columns.
//!
//! ```sh
//! cargo run --release -p kath_bench --bin storage_bench            # full: 100k rows
//! cargo run --release -p kath_bench --bin storage_bench -- --quick # smoke: 10k rows
//! cargo run --release -p kath_bench --bin storage_bench -- --out custom.json
//! cargo run --release -p kath_bench --bin storage_bench -- --baseline parent.json
//! ```

use kath_bench::{median, write_report, BenchArgs};
use kath_data::{generate_corpus, CorpusSpec};
use kath_json::{Json, JsonMap};
use kath_sql::{parse_select, run_select_auto_guarded};
use kath_storage::{
    decode_page, encode_page, page_encoding_name, BufferPool, Catalog, CompileMode, DataType,
    Durability, ExecMode, QueryGuard, Row, Schema, Table, Value, VectorMode, DEFAULT_PAGE_ROWS,
};
use std::sync::Arc;
use std::time::Instant;

const QUERY: &str = "SELECT year, COUNT(*) AS n, AVG(id) AS avg_id FROM movie_table \
                     WHERE year >= 1990 GROUP BY year ORDER BY year";

/// Rows per page for the bench: small enough that even `--quick` spans
/// dozens of pages per column, so tiny pool budgets actually evict.
const BENCH_PAGE_ROWS: usize = 1024;

/// Pool budgets to sweep, in pages: starved, modest, effectively unbounded.
const POOL_POINTS: [usize; 3] = [2, 16, 1_000_000];

/// Approximate in-memory bytes of one value — the honest denominator for a
/// compression ratio (the encoded page is the numerator).
fn approx_value_bytes(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Bool(_) => 1,
        Value::Str(s) => 8 + s.len(),
        Value::Blob(b) => 8 + b.len(),
    }
}

/// Runs the bench query `reps` times; returns (median ms, result table).
fn time_query(catalog: &Catalog, reps: usize) -> (f64, Table) {
    let select = parse_select(QUERY).expect("bench query parses");
    let mut samples = Vec::with_capacity(reps);
    let mut result = None;
    for _ in 0..reps {
        let started = Instant::now();
        // Serial and interpreted: the series compares page backings, not
        // drives.
        let table = run_select_auto_guarded(
            catalog,
            &select,
            "out",
            ExecMode::Batched(1024),
            1,
            VectorMode::Auto,
            CompileMode::Off,
            &QueryGuard::unlimited(),
        )
        .expect("bench query runs")
        .0;
        samples.push(started.elapsed().as_secs_f64() * 1000.0);
        result = Some(table);
    }
    (median(samples), result.expect("at least one rep"))
}

/// Pool budget of the miss series, and the pages per column its cyclic scan
/// walks: more than the pool holds, so under LRU every touch is a miss.
const MISS_POOL_PAGES: usize = 16;
const MISS_COLUMN_PAGES: usize = 20;

/// xorshift64*: the codec pages must not move when the corpus generator does.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The column kinds of the repo benchmark's fact table, one value each for
/// row `i`: bit-packed int, float, dictionary, run-length and raw strings.
const CODEC_KINDS: [&str; 5] = ["int", "float", "dict", "rle", "raw"];

fn codec_row(i: usize, rng: &mut u64) -> Row {
    const GENRES: [&str; 6] = ["drama", "comedy", "thriller", "western", "noir", "musical"];
    const STUDIOS: [&str; 12] = [
        "Alder", "Birch", "Cedar", "Dogwood", "Elm", "Fir", "Ginkgo", "Hazel", "Ivy", "Juniper",
        "Koa", "Larch",
    ];
    vec![
        Value::Int(1 + (next(rng) % 5_000) as i64),
        Value::Float((next(rng) % 1_000) as f64 / 10.0),
        STUDIOS[(next(rng) % 12) as usize].into(),
        GENRES[(i / 512) % GENRES.len()].into(),
        format!("Film {:x} {}", next(rng) % (1 << 20), i + 1).into(),
    ]
}

/// Median wall time of `f` in ns, after three unmeasured calls.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..3 {
        std::hint::black_box(f());
    }
    let samples = (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(samples)
}

/// The codec series: see the module docs, point 4.
fn codec_series(quick: bool, baseline: Option<&Json>) -> Json {
    let reps = if quick { 11 } else { 101 };
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let rows: Vec<Row> = (0..MISS_COLUMN_PAGES * DEFAULT_PAGE_ROWS)
        .map(|i| codec_row(i, &mut rng))
        .collect();
    // A `parent_<key>` column for `key` of the entry named `name` in the
    // baseline report's series `series`, when there is one.
    let with_parent = |series: &str, name: &str, mut entry: JsonMap| {
        let theirs = baseline
            .and_then(|b| b.pointer(&format!("/codec/{series}")))
            .and_then(Json::as_array)
            .and_then(|all| {
                all.iter()
                    .find(|e| e.get("page").and_then(Json::as_str) == Some(name))
            });
        if let Some(theirs) = theirs.and_then(Json::as_object) {
            let copied: Vec<(String, Json)> = theirs
                .iter()
                .filter(|(key, _)| key.ends_with("_ns_per_value") || key.ends_with("_us"))
                .map(|(key, value)| (format!("parent_{key}"), value.clone()))
                .collect();
            for (key, value) in copied {
                entry.insert(key, value);
            }
        }
        Json::Object(entry)
    };

    // Encode / decode per value, one full page of each shape.
    let mut shapes: Vec<(String, Vec<Value>)> = CODEC_KINDS
        .iter()
        .enumerate()
        .map(|(c, kind)| {
            let page = rows[..DEFAULT_PAGE_ROWS].iter().map(|r| r[c].clone());
            (kind.to_string(), page.collect())
        })
        .collect();
    for width in [0u32, 1, 4, 8, 13, 16, 24, 32, 48, 57, 64] {
        let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let mut page: Vec<Value> = (0..DEFAULT_PAGE_ROWS)
            .map(|_| Value::Int((next(&mut rng) & mask) as i64))
            .collect();
        page[0] = Value::Int(0);
        page[1] = Value::Int(mask as i64);
        shapes.push((format!("int_w{width}"), page));
    }
    shapes.push((
        "bool".into(),
        (0..DEFAULT_PAGE_ROWS)
            .map(|_| Value::Bool(next(&mut rng) & 1 == 1))
            .collect(),
    ));
    shapes.push((
        "mixed".into(),
        (0..DEFAULT_PAGE_ROWS)
            .map(|i| match i % 3 {
                0 => Value::Int(i as i64),
                1 => Value::Str(format!("s{i}")),
                _ => Value::Null,
            })
            .collect(),
    ));
    let mut pages = Vec::new();
    for (name, values) in &shapes {
        let per_value = |ns: f64| ns / values.len() as f64;
        let (bytes, _) = encode_page(values).expect("page encodes");
        let encode = per_value(median_ns(reps, || {
            encode_page(values).expect("page encodes")
        }));
        let decode = per_value(median_ns(reps, || {
            decode_page(&bytes).expect("page decodes")
        }));
        let encoding = page_encoding_name(&bytes).expect("own page parses");
        eprintln!(
            "codec {name:>8} ({encoding:>11}, {:>6} B): encode {encode:6.2} ns/value, \
             decode {decode:6.2} ns/value",
            bytes.len()
        );
        let mut entry = JsonMap::new();
        entry.insert("page", Json::Str(name.clone()));
        entry.insert("encoding", Json::Str(encoding.into()));
        entry.insert("encoded_bytes", Json::Num(bytes.len() as f64));
        entry.insert("encode_ns_per_value", Json::Num(encode));
        entry.insert("decode_ns_per_value", Json::Num(decode));
        pages.push(with_parent("pages", name, entry));
    }

    // One pool miss, per column kind: a cyclic scan of more pages than the
    // pool holds, so LRU has always just evicted the page asked for.
    let schema = Schema::of(&[
        ("int", DataType::Int),
        ("float", DataType::Float),
        ("dict", DataType::Str),
        ("rle", DataType::Str),
        ("raw", DataType::Str),
    ]);
    let pool = Arc::new(BufferPool::with_budget(MISS_POOL_PAGES));
    let table = Table::from_rows("codec", schema, rows.clone())
        .and_then(|t| t.seal(&pool, DEFAULT_PAGE_ROWS))
        .expect("codec table pages");
    let page_count = table.groups().len();
    let mut misses = Vec::new();
    for (c, kind) in CODEC_KINDS.iter().enumerate() {
        let scan = || {
            for group in table.groups() {
                group
                    .read_column(c, |page| std::hint::black_box(page.len()))
                    .expect("page loads");
            }
        };
        scan();
        let before = pool.status();
        let scans = if quick { 3 } else { 15 };
        let per_scan = median_ns(scans, scan);
        let after = pool.status();
        assert_eq!(
            (after.misses - before.misses, after.hits - before.hits),
            (((scans + 3) * page_count) as u64, 0),
            "the {kind} scan was meant to miss on every page"
        );
        let miss_us = per_scan / page_count as f64 / 1000.0;
        eprintln!("miss  {kind:>8} (pool {MISS_POOL_PAGES}): {miss_us:7.2} us/page");
        let mut entry = JsonMap::new();
        entry.insert("page", Json::Str(kind.to_string()));
        entry.insert("pool_pages", Json::Num(MISS_POOL_PAGES as f64));
        entry.insert("miss_us", Json::Num(miss_us));
        misses.push(with_parent("misses", kind, entry));
    }

    let mut codec = JsonMap::new();
    codec.insert("page_rows", Json::Num(DEFAULT_PAGE_ROWS as f64));
    codec.insert("reps", Json::Num(reps as f64));
    codec.insert("pages", Json::Array(pages));
    codec.insert("misses", Json::Array(misses));
    Json::Object(codec)
}

fn main() {
    let BenchArgs { quick, out } = BenchArgs::parse("BENCH_storage.json");
    let baseline = std::env::args()
        .skip_while(|a| a != "--baseline")
        .nth(1)
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("baseline report reads");
            kath_json::parse(&text).expect("baseline report parses")
        });
    let (rows, reps) = if quick { (10_000, 3) } else { (100_000, 5) };

    eprintln!("generating the {rows}-row scale corpus…");
    let corpus = generate_corpus(&CorpusSpec {
        movies: rows,
        ..Default::default()
    });
    let movies = corpus.movies;

    // 1. Scan: resident baseline, then paged behind each pool budget.
    let mut catalog = Catalog::new();
    catalog.register(movies.clone()).expect("corpus registers");
    let (resident_ms, resident_result) = time_query(&catalog, reps);
    eprintln!("scan resident:              median {resident_ms:8.2} ms");
    let mut scan_series = Vec::new();
    let mut point = JsonMap::new();
    point.insert("config", Json::Str("resident".into()));
    point.insert("median_ms", Json::Num(resident_ms));
    scan_series.push(Json::Object(point));
    for budget in POOL_POINTS {
        let mut catalog = Catalog::new();
        catalog.register(movies.clone()).expect("corpus registers");
        catalog.pool().set_budget(budget);
        catalog
            .page_table("movie_table", BENCH_PAGE_ROWS)
            .expect("table pages");
        let (ms, result) = time_query(&catalog, reps);
        assert_eq!(
            result.rows(),
            resident_result.rows(),
            "paged scan diverged from resident at a {budget}-page pool"
        );
        let p = catalog.pool().status();
        eprintln!(
            "scan paged (pool {budget:>7}): median {ms:8.2} ms \
             ({} hits, {} misses, {} evictions, {} zone skips)",
            p.hits, p.misses, p.evictions, p.zone_skips
        );
        let mut point = JsonMap::new();
        point.insert("config", Json::Str(format!("paged_pool_{budget}")));
        point.insert("pool_pages", Json::Num(budget as f64));
        point.insert("median_ms", Json::Num(ms));
        point.insert("hits", Json::Num(p.hits as f64));
        point.insert("misses", Json::Num(p.misses as f64));
        point.insert("evictions", Json::Num(p.evictions as f64));
        point.insert("zone_skips", Json::Num(p.zone_skips as f64));
        scan_series.push(Json::Object(point));
    }

    // 2. Checkpoint incrementality: full snapshot, append one row, snapshot
    // again — the second writes only each column's tail page.
    let dir = std::env::temp_dir().join(format!("kathdb_storage_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pool = Arc::new(BufferPool::with_budget(1_000_000));
    let (mut durable, _) = Durability::open(&dir, &pool).expect("bench dir opens");
    let (_, paged) = durable
        .checkpoint(&[Arc::new(movies.clone())], &pool, None)
        .expect("first checkpoint");
    let first = durable.status().last_checkpoint.expect("stats recorded");
    let mut appended = (*paged[0]).clone();
    let one_more: Vec<Value> = movies.rows()[0]
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if i == 0 {
                Value::Int(rows as i64)
            } else {
                v.clone()
            }
        })
        .collect();
    appended.push(one_more).expect("append fits schema");
    durable
        .checkpoint(&[Arc::new(appended)], &pool, None)
        .expect("second checkpoint");
    let second = durable.status().last_checkpoint.expect("stats recorded");
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        second.bytes_written < first.bytes_written,
        "second checkpoint was not incremental: {second:?} vs {first:?}"
    );
    eprintln!(
        "checkpoint: first wrote {} bytes ({} pages), second wrote {} bytes \
         ({} pages, {} reused)",
        first.bytes_written,
        first.pages_written,
        second.bytes_written,
        second.pages_written,
        second.pages_reused
    );
    let mut checkpoint = JsonMap::new();
    checkpoint.insert("first_bytes", Json::Num(first.bytes_written as f64));
    checkpoint.insert("first_pages", Json::Num(first.pages_written as f64));
    checkpoint.insert("second_bytes", Json::Num(second.bytes_written as f64));
    checkpoint.insert("second_pages", Json::Num(second.pages_written as f64));
    checkpoint.insert("second_reused", Json::Num(second.pages_reused as f64));

    // 3. Compression: encode each column page by page, report the winning
    // encoding and encoded-vs-in-memory ratio.
    let mut encodings = Vec::new();
    for column in movies.schema().names() {
        let mut values: Vec<Value> = Vec::with_capacity(movies.len());
        movies
            .for_each_in_column(column, |_, v| {
                values.push(v.clone());
                Ok(())
            })
            .expect("listed column");
        let mut encoded_bytes = 0usize;
        let raw_bytes: usize = values.iter().map(approx_value_bytes).sum();
        let mut names: Vec<&'static str> = Vec::new();
        for chunk in values.chunks(BENCH_PAGE_ROWS) {
            let (bytes, _) = encode_page(chunk).expect("column encodes");
            encoded_bytes += bytes.len();
            let name = page_encoding_name(&bytes).expect("own page parses");
            if !names.contains(&name) {
                names.push(name);
            }
        }
        let ratio = if raw_bytes > 0 {
            encoded_bytes as f64 / raw_bytes as f64
        } else {
            1.0
        };
        eprintln!(
            "column {column:>6}: {names:?} — {encoded_bytes} of ~{raw_bytes} bytes \
             (ratio {ratio:.3})"
        );
        let mut entry = JsonMap::new();
        entry.insert("column", Json::Str(column.to_string()));
        entry.insert(
            "encodings",
            Json::Array(names.into_iter().map(|n| Json::Str(n.into())).collect()),
        );
        entry.insert("encoded_bytes", Json::Num(encoded_bytes as f64));
        entry.insert("approx_raw_bytes", Json::Num(raw_bytes as f64));
        entry.insert("ratio", Json::Num(ratio));
        encodings.push(Json::Object(entry));
    }

    let mut report = JsonMap::new();
    report.insert("query", Json::Str(QUERY.into()));
    report.insert("corpus_rows", Json::Num(rows as f64));
    report.insert("page_rows", Json::Num(BENCH_PAGE_ROWS as f64));
    report.insert("scan", Json::Array(scan_series));
    report.insert("checkpoint", Json::Object(checkpoint));
    report.insert("encodings", Json::Array(encodings));
    report.insert("codec", codec_series(quick, baseline.as_ref()));
    write_report(&out, "paged_columnar_storage", quick, reps, report);
}

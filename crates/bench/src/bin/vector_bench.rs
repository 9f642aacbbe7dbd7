//! `vector_bench` — the machine-readable perf trajectory of SQL vector
//! similarity search.
//!
//! Runs `SELECT id FROM docs ORDER BY SIMILARITY(emb, '<query>') DESC
//! LIMIT 10` over embedded-document corpora at two scales, comparing the
//! three physical implementations of the same logical operator (§4):
//!
//! - **baseline** — the classical plan (`VectorMode::Off`): score every
//!   row through the expression kernels and fully sort,
//! - **flat** — the exact top-k vector scan (linear, no sort),
//! - **ivf** — the approximate scan (probe the nearest clusters only),
//!   with its recall@10 against the exact scan reported alongside.
//!
//! Writes `BENCH_vector.json` at the repo root so future PRs can diff
//! performance instead of guessing:
//!
//! ```sh
//! cargo run --release -p kath_bench --bin vector_bench            # full: 2k + 20k docs
//! cargo run --release -p kath_bench --bin vector_bench -- --quick # smoke: 500 + 4k docs
//! cargo run --release -p kath_bench --bin vector_bench -- --out custom.json
//! ```

use kath_bench::{median, write_report, BenchArgs};
use kath_json::{Json, JsonMap};
use kath_sql::{execute, parse_select, run_select_auto_guarded};
use kath_storage::{
    encode_embedding, Catalog, CompileMode, ExecMode, QueryGuard, Value, VectorMode, VectorStrategy,
};
use kath_vector::{default_lexicon, embed_query, DIM};
use std::time::Instant;

const K: usize = 10;
const QUERIES: [&str; 3] = [
    "gun murder shootout",
    "calm quiet tea garden",
    "love wedding kiss",
];

/// splitmix64 — deterministic phrase sampling.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic document corpus: phrases biased toward the lexicon's
/// concept clusters (so the embedding space is genuinely clustered, the
/// regime IVF is built for) plus hash-only filler words.
fn corpus_catalog(rows: usize) -> Catalog {
    let lexicon = default_lexicon();
    let concepts: Vec<&str> = lexicon.concepts().collect();
    let mut c = Catalog::new();
    execute(
        &mut c,
        "CREATE TABLE docs (id INT, body STR, emb BLOB)",
        "x",
    )
    .expect("create");
    let mut table = (*c.get("docs").unwrap()).clone();
    for i in 0..rows as u64 {
        let concept = concepts[(i % concepts.len() as u64) as usize];
        let terms = lexicon.terms_of(concept).expect("known concept");
        let mut words = Vec::with_capacity(4);
        for w in 0..3u64 {
            let t = &terms[(mix(i * 31 + w) % terms.len() as u64) as usize];
            words.push(t.clone());
        }
        words.push(format!("zorp{}", mix(i) % 997)); // unclustered filler
        let body = words.join(" ");
        let emb = encode_embedding(&embed_query(&body));
        table
            .push(vec![
                Value::Int(i as i64),
                Value::Str(body),
                Value::Blob(emb),
            ])
            .expect("row");
    }
    c.register_or_replace(table);
    c
}

fn main() {
    let BenchArgs { quick, out } = BenchArgs::parse("BENCH_vector.json");
    let (sizes, reps) = if quick {
        (vec![500usize, 4000], 5)
    } else {
        (vec![2000usize, 20_000], 15)
    };

    let mut series = Vec::new();
    for rows in &sizes {
        let rows = *rows;
        eprintln!("embedding the {rows}-document corpus…");
        let catalog = corpus_catalog(rows);
        let auto = kath_storage::preferred_vector_strategy(rows);

        // Derive the index once, timed: this is the one-off cost the first
        // similarity query pays (and re-pays lazily after bulk inserts).
        let build_started = Instant::now();
        let index = catalog.vector_index_for("docs", "emb").expect("index");
        let index_build_ms = build_started.elapsed().as_secs_f64() * 1000.0;

        // Recall@10 of the approximate path against the exact one.
        let mut overlap = 0usize;
        for q in QUERIES {
            let qv = embed_query(q);
            let exact = index.search(&qv, K, VectorStrategy::Flat);
            let approx = index.search(&qv, K, VectorStrategy::Ivf);
            overlap += exact.iter().filter(|p| approx.contains(p)).count();
        }
        let recall = overlap as f64 / (K * QUERIES.len()) as f64;

        let mut point = JsonMap::new();
        point.insert("rows", Json::Num(rows as f64));
        point.insert("index_build_ms", Json::Num(index_build_ms));
        point.insert("recall_at_10", Json::Num(recall));
        point.insert(
            "auto_strategy",
            Json::Str(format!("{auto:?}").to_lowercase()),
        );

        let mut baseline_ms = 0.0;
        for (label, mode) in [
            ("baseline_ms", VectorMode::Off),
            ("flat_ms", VectorMode::Flat),
            ("ivf_ms", VectorMode::Ivf),
        ] {
            let mut samples = Vec::with_capacity(reps * QUERIES.len());
            for q in QUERIES {
                let sql =
                    format!("SELECT id FROM docs ORDER BY SIMILARITY(emb, '{q}') DESC LIMIT {K}");
                let select = parse_select(&sql).expect("bench query parses");
                // Serial, so the ratio isolates the access path.
                let run = || {
                    run_select_auto_guarded(
                        &catalog,
                        &select,
                        "out",
                        ExecMode::default(),
                        1,
                        mode,
                        CompileMode::Off,
                        &QueryGuard::unlimited(),
                    )
                    .expect("bench query runs")
                };
                // Warm up (builds IVF lists on first approximate query).
                run();
                for _ in 0..reps {
                    let started = Instant::now();
                    let (t, _) = run();
                    samples.push(started.elapsed().as_secs_f64() * 1000.0);
                    assert_eq!(t.len(), K.min(rows));
                }
            }
            let ms = median(samples);
            if label == "baseline_ms" {
                baseline_ms = ms;
            }
            let speedup = if ms > 0.0 { baseline_ms / ms } else { 1.0 };
            eprintln!("rows {rows:>6} {label:<12} median {ms:9.3} ms (speedup {speedup:5.2}x)");
            point.insert(label, Json::Num(ms));
            if label != "baseline_ms" {
                point.insert(
                    format!("{}_speedup", label.trim_end_matches("_ms")),
                    Json::Num(speedup),
                );
            }
        }
        eprintln!(
            "rows {rows:>6} recall@10 {recall:.3}, auto strategy {auto:?}, \
             index build {index_build_ms:.1} ms"
        );
        series.push(Json::Object(point));
    }

    let mut report = JsonMap::new();
    report.insert(
        "query_shape",
        Json::Str(format!(
            "SELECT id FROM docs ORDER BY SIMILARITY(emb, '<q>') DESC LIMIT {K}"
        )),
    );
    report.insert("dim", Json::Num(DIM as f64));
    report.insert("k", Json::Num(K as f64));
    report.insert(
        "queries",
        Json::Array(QUERIES.iter().map(|q| Json::Str((*q).into())).collect()),
    );
    report.insert("series", Json::Array(series));
    write_report(&out, "vector_topk_similarity", quick, reps, report);
}

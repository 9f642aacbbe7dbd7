//! Property tests for the top-k vector operator.
//!
//! Three contracts, per the paper's physical-choice story (§4): the vector
//! operator must be a drop-in physical implementation of `ORDER BY
//! SIMILARITY(...) DESC LIMIT k` —
//!
//! 1. **Fallback parity**: byte-identical to the full-sort plan
//!    (`VectorMode::Off`) on arbitrary corpora, including NULL, corrupt,
//!    and text cells, at any batch size.
//! 2. **Parallel parity**: the per-morsel top-k drive is byte-identical to
//!    the serial scan at any worker count.
//! 3. **Recall**: the approximate IVF implementation keeps recall@10 ≥ 0.9
//!    against the exact Flat scan on seeded clustered corpora.

use kath_sql::{execute, parse_select, run_select_auto_guarded, Select};
use kath_storage::{
    encode_embedding, Catalog, CompileMode, ExecMode, QueryGuard, Table, Value, VectorMode,
    VectorStrategy,
};
use kath_vector::{embed_query, normalize, seeded_unit_vector};
use proptest::prelude::*;

/// One generated row: a cell-kind roll and a seed payload.
type RowSeed = (u8, u64);

/// Runs `select` through the one entry point; `(mode, threads)` pick the
/// drive, as they do in production.
fn run(c: &Catalog, select: &Select, mode: ExecMode, threads: usize, vector: VectorMode) -> Table {
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
    .unwrap()
    .0
}

fn corpus_catalog(rows: &[RowSeed]) -> Catalog {
    let mut c = Catalog::new();
    execute(
        &mut c,
        "CREATE TABLE docs (id INT, body STR, emb BLOB)",
        "x",
    )
    .unwrap();
    let phrases = [
        "gun fight",
        "calm tea",
        "murder",
        "quiet garden",
        "explosion",
        "wedding kiss",
    ];
    let mut table = (*c.get("docs").unwrap()).clone();
    for (i, (kind, seed)) in rows.iter().enumerate() {
        let body = Value::Str(phrases[(*seed % phrases.len() as u64) as usize].to_string());
        let emb = match kind % 7 {
            // Mostly genuine embeddings; small seed domain forces ties.
            0..=2 => Value::Blob(encode_embedding(&seeded_unit_vector(seed % 7))),
            3 => Value::Null,
            4 => Value::Blob(vec![1, 2, 3, 4, 5]), // corrupt: not a multiple of 4
            // Finite components, overflowing norm: NaN score on every path.
            5 => Value::Blob(encode_embedding(&[2.0e19; 8])),
            // Wrong dimensionality: a no-match, never a truncated-dot score.
            _ => Value::Blob(encode_embedding(&[1.0])),
        };
        table.push(vec![Value::Int(i as i64), body, emb]).unwrap();
    }
    c.register_or_replace(table);
    c
}

proptest! {
    /// SQL-level fallback parity: with and without the vector operator,
    /// the query returns the same table — ranked rows, NULL-score tail,
    /// ties, everything.
    #[test]
    fn vector_operator_matches_full_sort(
        rows in prop::collection::vec((any::<u8>(), any::<u64>()), 0..80),
        k in 0usize..20,
        qseed in 0u64..5,
        on_text in any::<bool>(),
    ) {
        let c = corpus_catalog(&rows);
        let queries = ["gun", "weapon murder", "tea", "plain day", "love"];
        let column = if on_text { "body" } else { "emb" };
        let sql = format!(
            "SELECT id, body FROM docs \
             ORDER BY SIMILARITY({column}, '{}') DESC LIMIT {k}",
            queries[qseed as usize]
        );
        let select = parse_select(&sql).unwrap();
        let fallback = run(&c, &select, ExecMode::Batched(16), 1, VectorMode::Off);
        for mode in [ExecMode::Batched(1), ExecMode::Batched(3), ExecMode::Batched(1024)] {
            for vector in [VectorMode::Auto, VectorMode::Flat, VectorMode::Ivf] {
                let fast = run(&c, &select, mode, 1, vector);
                // IVF is approximate: it may pick different rows, but must
                // still return a validly-ranked result of the same size; the
                // exact modes must match bit for bit.
                if vector == VectorMode::Ivf {
                    prop_assert_eq!(fast.len(), fallback.len(), "{} ({:?})", &sql, mode);
                } else {
                    prop_assert_eq!(&fast, &fallback, "{} ({:?} {:?})", &sql, mode, vector);
                }
            }
        }
    }

    /// Serial vs parallel top-k: byte-identical at every worker count.
    #[test]
    fn parallel_topk_is_byte_identical(
        rows in prop::collection::vec((any::<u8>(), any::<u64>()), 0..120),
        k in 0usize..12,
        threads in 2usize..9,
    ) {
        let c = corpus_catalog(&rows);
        let sql = format!(
            "SELECT id FROM docs ORDER BY SIMILARITY(emb, 'gun murder') DESC LIMIT {k}"
        );
        let select = parse_select(&sql).unwrap();
        // Batch 8 splits even small corpora into several morsels.
        let mode = ExecMode::Batched(8);
        let serial = run(&c, &select, mode, 1, VectorMode::Flat);
        let parallel = run(&c, &select, mode, threads, VectorMode::Flat);
        prop_assert_eq!(parallel, serial, "threads {}", threads);
    }
}

/// A clustered corpus: `n` vectors around `clusters` separated centers.
fn clustered_entries(n: usize, clusters: u64, seed: u64) -> Vec<Vec<f32>> {
    (0..n as u64)
        .map(|i| {
            let base = seeded_unit_vector(i % clusters + 1000 * seed + 17);
            let noise = seeded_unit_vector(i + 31 * seed + 99);
            let mut v: Vec<f32> = base
                .iter()
                .zip(&noise)
                .map(|(b, x)| 0.9 * b + 0.1 * x)
                .collect();
            normalize(&mut v);
            v
        })
        .collect()
}

/// Flat vs IVF recall ≥ 0.9 @ k=10 on seeded corpora — the quality side of
/// the exact-vs-approximate trade the cost model makes.
#[test]
fn ivf_recall_at_10_is_at_least_0_9() {
    for seed in 1..4u64 {
        let vectors = clustered_entries(2000, 8, seed);
        let mut c = Catalog::new();
        execute(&mut c, "CREATE TABLE vecs (id INT, emb BLOB)", "x").unwrap();
        let mut table = (*c.get("vecs").unwrap()).clone();
        for (i, v) in vectors.iter().enumerate() {
            table
                .push(vec![Value::Int(i as i64), Value::Blob(encode_embedding(v))])
                .unwrap();
        }
        c.register_or_replace(table);
        let index = c.vector_index_for("vecs", "emb").unwrap();
        let mut total_overlap = 0usize;
        let n_queries = 20u64;
        for q in 0..n_queries {
            let query = embed_and_perturb(q % 8 + 1000 * seed + 17, q + seed);
            let exact = index.search(&query, 10, VectorStrategy::Flat);
            let approx = index.search(&query, 10, VectorStrategy::Ivf);
            total_overlap += exact.iter().filter(|p| approx.contains(p)).count();
        }
        let recall = total_overlap as f64 / (10 * n_queries as usize) as f64;
        assert!(
            recall >= 0.9,
            "seed {seed}: IVF recall@10 = {recall:.3} < 0.9"
        );
    }
}

/// A query vector near a cluster center, slightly perturbed.
fn embed_and_perturb(center_seed: u64, noise_seed: u64) -> Vec<f32> {
    let base = seeded_unit_vector(center_seed);
    let noise = seeded_unit_vector(noise_seed + 555);
    let mut v: Vec<f32> = base
        .iter()
        .zip(&noise)
        .map(|(b, x)| 0.95 * b + 0.05 * x)
        .collect();
    normalize(&mut v);
    v
}

/// The canonical text embedder drives SQL end to end: EMBED in INSERT,
/// SIMILARITY over both the blob and the raw text column, identical
/// ranking from either representation.
#[test]
fn blob_and_text_columns_rank_identically() {
    let mut c = Catalog::new();
    execute(&mut c, "CREATE TABLE n (id INT, body STR, emb BLOB)", "x").unwrap();
    execute(
        &mut c,
        "INSERT INTO n VALUES \
         (1, 'gun fight', EMBED('gun fight')), \
         (2, 'calm garden', EMBED('calm garden')), \
         (3, 'murder threat', EMBED('murder threat')), \
         (4, 'tea time', EMBED('tea time'))",
        "x",
    )
    .unwrap();
    let _ = embed_query("warm the embedder");
    let by_blob = execute(
        &mut c,
        "SELECT id FROM n ORDER BY SIMILARITY(emb, 'weapon') DESC LIMIT 4",
        "out",
    )
    .unwrap();
    let by_text = execute(
        &mut c,
        "SELECT id FROM n ORDER BY SIMILARITY(body, 'weapon') DESC LIMIT 4",
        "out",
    )
    .unwrap();
    assert_eq!(by_blob, by_text);
    let top = by_blob.cell(0, "id").unwrap().as_int().unwrap();
    assert!(top == 1 || top == 3, "violent doc must win, got {top}");
}

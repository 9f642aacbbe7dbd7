//! Embedding columns and the top-k vector-similarity access path.
//!
//! This is the storage half of the paper's flagship physical-optimizer
//! example: "vector-based similarity search for semantic keyword matching"
//! (§2.2), chosen per query between an exact-but-linear and an
//! approximate-but-sublinear implementation of the *same* logical operator
//! (§4). Embeddings live in ordinary `Value::Blob` cells as little-endian
//! `f32` vectors ([`encode_embedding`]/[`decode_embedding`]), so they ride
//! the existing persistence, WAL, and snapshot formats unchanged —
//! durability needs no new on-disk format. The derived search structure
//! ([`VectorIndex`]) is owned by the immutable table value it was built
//! from ([`Table::vector_index`]): built by the first similarity query on
//! that value, shared by every catalog version holding it, and built anew
//! for the table an insert or crash recovery produces.

use crate::ops::IndexScan;
use crate::{DataType, Operator, RowBatch, Schema, StorageError, Table, Value};
use kath_vector::{cosine, embed_query, IvfIndex};
use parking_lot::RwLock;
use std::sync::Arc;

/// Encodes an embedding as little-endian `f32` bytes for a `Value::Blob`.
pub fn encode_embedding(v: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decodes a blob back into an embedding; `None` when the length is not a
/// multiple of 4 (a corrupt cell decodes to no-match, never to garbage
/// scores).
pub fn decode_embedding(bytes: &[u8]) -> Option<Vec<f32>> {
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect(),
    )
}

/// Physical implementation of the top-k similarity operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorStrategy {
    /// Exact linear scan over every indexed embedding.
    Flat,
    /// IVF approximate search: probe only the nearest cluster lists.
    Ivf,
}

/// Planner knob for the vector access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectorMode {
    /// Cost model picks Flat vs IVF from catalog cardinality (the default).
    #[default]
    Auto,
    /// Never lower to the vector operator (full-sort fallback plan).
    Off,
    /// Force the exact flat scan.
    Flat,
    /// Force the IVF approximate path.
    Ivf,
}

/// Seed fixing the IVF k-means initialization of catalog vector indexes.
pub const VECTOR_INDEX_SEED: u64 = 0x5EED;

/// Cluster count for an IVF index over `n` vectors: ~√n, capped so the
/// centroid-ranking step stays cheap.
pub fn default_nlist(n: usize) -> usize {
    ((n as f64).sqrt().round() as usize).clamp(1, 64)
}

/// Clusters probed per query: a quarter of the lists (≥ 1) — enough for
/// high recall on clustered data while skipping most candidates.
pub fn default_nprobe(nlist: usize) -> usize {
    nlist.div_ceil(4).clamp(1, nlist.max(1))
}

/// Extra scoring-equivalent work the IVF path pays per query on top of its
/// probes: centroid bookkeeping plus the amortized share of (re)building
/// the cluster lists. This constant sets the Flat→IVF crossover.
pub const IVF_FIXED_COST: f64 = 3000.0;

/// Cost of one top-k query in scoring-work units (candidate cosines) —
/// the unit-free model [`preferred_vector_strategy`] minimizes; the
/// optimizer crate scales it to milliseconds for plan estimates.
pub fn vector_search_cost(rows: usize, strategy: VectorStrategy) -> f64 {
    match strategy {
        VectorStrategy::Flat => rows as f64,
        VectorStrategy::Ivf => {
            let nlist = default_nlist(rows);
            let nprobe = default_nprobe(nlist);
            nlist as f64 + rows as f64 * nprobe as f64 / nlist as f64 + IVF_FIXED_COST
        }
    }
}

/// The cost model's Flat-vs-IVF choice for a table of `rows` vectors:
/// exact linear scan while the table is small, approximate sublinear
/// probing once the probed fraction plus the fixed IVF overhead undercut
/// the full scan (≈ 4k rows with the default parameters).
pub fn preferred_vector_strategy(rows: usize) -> VectorStrategy {
    if vector_search_cost(rows, VectorStrategy::Ivf)
        < vector_search_cost(rows, VectorStrategy::Flat)
    {
        VectorStrategy::Ivf
    } else {
        VectorStrategy::Flat
    }
}

/// A derived similarity index over one table column.
///
/// Built from `BLOB` cells (decoded embeddings) or `STR` cells (embedded
/// through the canonical [`kath_vector::embed_query`] convention on the
/// fly). Rows whose cell is NULL, undecodable, or non-finite are
/// *unscored*: they never match, but top-k results pad with them (in row
/// order) exactly like the full-sort fallback ranks NULL scores last — so
/// both physical plans return identical rows.
#[derive(Debug)]
pub struct VectorIndex {
    column: String,
    rows: usize,
    entries: Vec<(usize, Vec<f32>)>,
    unscored: Vec<usize>,
    // The IVF structure is built lazily on the first approximate query:
    // small tables answered by the flat scan never pay for k-means. (The
    // flat scan runs straight over `entries` — no duplicated copy.)
    ivf: RwLock<Option<Arc<IvfIndex>>>,
}

impl VectorIndex {
    /// Builds the index over `table.column`. Cells must be BLOB (encoded
    /// embeddings), STR (embedded on the fly), or NULL.
    pub fn build(table: &Table, column: &str) -> Result<Self, StorageError> {
        let mut entries: Vec<(usize, Vec<f32>)> = Vec::new();
        let mut unscored: Vec<usize> = Vec::new();
        // Usable means the canonical dimensionality (queries come from
        // `embed_query`, so a stored vector of any other length is a
        // no-match by the SIMILARITY dimension rule — never a
        // truncated-dot garbage score) AND a squared norm that does not
        // overflow f32 (`cosine` returns NaN, no-match, for a non-finite
        // norm against *any* query). Such rows live in the unscored set —
        // exactly where the fallback plan's NULL score puts them — rather
        // than silently vanish from (or pollute) top-k results.
        let usable = |v: &[f32]| {
            v.len() == kath_vector::DIM && v.iter().map(|x| x * x).sum::<f32>().is_finite()
        };
        // Streams page by page on paged tables (bounded by the pool budget).
        table.for_each_in_column(column, |pos, cell| {
            match cell {
                Value::Null => unscored.push(pos),
                Value::Blob(b) => match decode_embedding(b) {
                    Some(v) if usable(&v) => entries.push((pos, v)),
                    _ => unscored.push(pos),
                },
                Value::Str(s) => entries.push((pos, embed_query(s))),
                other => {
                    return Err(StorageError::TypeMismatch {
                        column: column.to_string(),
                        expected: DataType::Blob,
                        got: other.data_type(),
                    })
                }
            }
            Ok(())
        })?;
        Ok(Self {
            column: column.to_string(),
            rows: table.len(),
            entries,
            unscored,
            ivf: RwLock::new(None),
        })
    }

    /// The indexed column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Rows of the table at build time.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The scored `(row position, embedding)` entries, in row order (the
    /// unit the parallel driver splits into morsels).
    pub fn entries(&self) -> &[(usize, Vec<f32>)] {
        &self.entries
    }

    /// Row positions with no usable embedding, in row order.
    pub fn unscored(&self) -> &[usize] {
        &self.unscored
    }

    /// Cluster count of the IVF structure (building it if needed).
    pub fn nlist(&self) -> usize {
        self.ivf_index().nlist()
    }

    fn ivf_index(&self) -> Arc<IvfIndex> {
        if let Some(ix) = self.ivf.read().as_ref() {
            return Arc::clone(ix);
        }
        let mut slot = self.ivf.write();
        if let Some(ix) = slot.as_ref() {
            return Arc::clone(ix);
        }
        let nlist = default_nlist(self.entries.len());
        let built = Arc::new(IvfIndex::build(
            self.entries
                .iter()
                .map(|(pos, v)| (*pos as u64, v.clone()))
                .collect(),
            nlist,
            default_nprobe(nlist),
            VECTOR_INDEX_SEED,
        ));
        *slot = Some(Arc::clone(&built));
        built
    }

    /// Top-k row positions by cosine similarity to `query`, ranked
    /// (score descending, then row position — exactly the order a stable
    /// full sort on the score column produces), padded with unscored rows
    /// when fewer than `k` rows carry a finite score.
    pub fn search(&self, query: &[f32], k: usize, strategy: VectorStrategy) -> Vec<usize> {
        let mut out: Vec<usize> = match strategy {
            VectorStrategy::Flat => top_k_entries(&self.entries, query, k)
                .into_iter()
                .map(|(pos, _)| pos)
                .collect(),
            VectorStrategy::Ivf => {
                let hits = self.ivf_index().search(query, k);
                if hits.len() < k.min(self.entries.len()) {
                    // The probed clusters held fewer than k candidates
                    // (tiny corpus or skewed clustering): top up through
                    // the exact scan instead of under-filling — both
                    // physical implementations must return the same row
                    // *count* for the same query.
                    return self.search(query, k, VectorStrategy::Flat);
                }
                hits.into_iter().map(|h| h.id as usize).collect()
            }
        };
        if out.len() < k {
            out.extend(self.unscored.iter().copied().take(k - out.len()));
        }
        out
    }
}

/// Exact top-k over a slice of index entries: the per-morsel unit of the
/// parallel vector scan. Returns `(row position, score)` ranked by
/// (score descending, position ascending); non-finite scores are
/// no-matches and skipped, mirroring the serial index search.
pub fn top_k_entries(entries: &[(usize, Vec<f32>)], query: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut scored: Vec<(usize, f32)> = entries
        .iter()
        .map(|(pos, v)| (*pos, cosine(query, v)))
        .filter(|(_, s)| s.is_finite())
        .collect();
    scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Deterministic merge of per-morsel top-k candidate lists: the global
/// top-k of the union. Because every global winner survives its own
/// morsel's local top-k, merging local winners reproduces the serial
/// result bit for bit, independent of worker count and scheduling.
pub fn merge_top_k(mut candidates: Vec<(usize, f32)>, k: usize) -> Vec<(usize, f32)> {
    candidates.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    candidates.truncate(k);
    candidates
}

/// The top-k vector-scan operator: the physical implementation of
/// `ORDER BY SIMILARITY(col, 'query') DESC LIMIT k` the planner picks over
/// a full sort. Runs the (Flat or IVF) index search eagerly at
/// construction, then streams the winning rows in rank order.
pub struct VectorTopK {
    inner: IndexScan,
    strategy: VectorStrategy,
    result_rows: usize,
}

impl VectorTopK {
    /// Searches `index` (over `table`) for the top `k` rows most similar
    /// to `query` under `strategy`.
    pub fn new(
        table: Arc<Table>,
        index: &VectorIndex,
        query: &[f32],
        k: usize,
        strategy: VectorStrategy,
        batch_size: usize,
    ) -> Self {
        let positions = index.search(query, k, strategy);
        let result_rows = positions.len();
        Self {
            inner: IndexScan::new(table, positions).with_batch_size(batch_size),
            strategy,
            result_rows,
        }
    }

    /// The physical strategy this operator ran with.
    pub fn strategy(&self) -> VectorStrategy {
        self.strategy
    }

    /// Number of rows the search selected (≤ k).
    pub fn result_rows(&self) -> usize {
        self.result_rows
    }
}

impl Operator for VectorTopK {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
        self.inner.next_batch()
    }

    fn batch_capacity(&self) -> usize {
        self.inner.batch_capacity()
    }

    fn narrow(&mut self, rows: usize) {
        self.inner.narrow(rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collect, Column};
    use kath_vector::seeded_unit_vector;

    #[test]
    fn codec_round_trips_and_rejects_bad_lengths() {
        let v = seeded_unit_vector(9);
        let bytes = encode_embedding(&v);
        assert_eq!(bytes.len(), v.len() * 4);
        assert_eq!(decode_embedding(&bytes).unwrap(), v);
        assert_eq!(decode_embedding(&[]).unwrap(), Vec::<f32>::new());
        assert!(decode_embedding(&bytes[..7]).is_none());
    }

    fn docs_table(n: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("emb", DataType::Blob),
        ])
        .unwrap();
        let mut t = Table::new("docs", schema);
        for i in 0..n as u64 {
            t.push(vec![
                Value::Int(i as i64),
                Value::Blob(encode_embedding(&seeded_unit_vector(i % 5 + 100))),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn flat_search_matches_naive_ranking() {
        let t = docs_table(50);
        let ix = VectorIndex::build(&t, "emb").unwrap();
        let query = seeded_unit_vector(102);
        let got = ix.search(&query, 7, VectorStrategy::Flat);
        // Naive reference: score every row, stable-sort descending.
        let mut naive: Vec<(usize, f32)> = (0..50usize)
            .map(|i| {
                let Value::Blob(b) = &t.rows()[i][1] else {
                    unreachable!()
                };
                (i, cosine(&query, &decode_embedding(b).unwrap()))
            })
            .collect();
        naive.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let want: Vec<usize> = naive.iter().take(7).map(|(i, _)| *i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn unscored_rows_pad_in_row_order() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("emb", DataType::Blob),
        ])
        .unwrap();
        let mut t = Table::new("docs", schema);
        let good = encode_embedding(&seeded_unit_vector(1));
        t.push(vec![Value::Int(0), Value::Null]).unwrap();
        t.push(vec![Value::Int(1), Value::Blob(good.clone())])
            .unwrap();
        t.push(vec![Value::Int(2), Value::Blob(vec![1, 2, 3])]) // corrupt
            .unwrap();
        t.push(vec![
            Value::Int(3),
            Value::Blob(encode_embedding(&[f32::NAN; 4])), // non-finite
        ])
        .unwrap();
        // Finite components whose squared norm overflows f32: cosine is
        // NaN against every query, so the row must be unscored — dropped
        // from ranking but still padded in, like the fallback's NULL tail.
        t.push(vec![
            Value::Int(4),
            Value::Blob(encode_embedding(&[2.0e19; 4])),
        ])
        .unwrap();
        let ix = VectorIndex::build(&t, "emb").unwrap();
        assert_eq!(ix.entries().len(), 1);
        assert_eq!(ix.unscored(), &[0, 2, 3, 4]);
        // k beyond the scored rows pads with unscored rows in row order —
        // the same tail a stable full sort puts after the NULL scores.
        assert_eq!(
            ix.search(&seeded_unit_vector(1), 10, VectorStrategy::Flat),
            vec![1, 0, 2, 3, 4]
        );
    }

    #[test]
    fn str_columns_index_through_the_canonical_embedder() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("body", DataType::Str),
        ])
        .unwrap();
        let mut t = Table::new("docs", schema);
        for (i, s) in ["gun fight", "calm tea garden", "murder weapon"]
            .iter()
            .enumerate()
        {
            t.push(vec![Value::Int(i as i64), Value::Str(s.to_string())])
                .unwrap();
        }
        let ix = VectorIndex::build(&t, "body").unwrap();
        let top = ix.search(&embed_query("shootout"), 2, VectorStrategy::Flat);
        assert!(!top.contains(&1), "calm text must not match: {top:?}");
    }

    #[test]
    fn non_embedding_columns_are_rejected() {
        let t = docs_table(3);
        assert!(matches!(
            VectorIndex::build(&t, "id"),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(VectorIndex::build(&t, "missing").is_err());
    }

    #[test]
    fn ivf_strategy_is_built_lazily_and_searches() {
        let t = docs_table(300);
        let ix = VectorIndex::build(&t, "emb").unwrap();
        assert!(ix.ivf.read().is_none(), "IVF must not build eagerly");
        let query = seeded_unit_vector(103);
        let approx = ix.search(&query, 5, VectorStrategy::Ivf);
        assert!(ix.ivf.read().is_some());
        assert_eq!(approx.len(), 5);
        // The clustered corpus is easy: IVF agrees with exact on the top hit.
        let exact = ix.search(&query, 5, VectorStrategy::Flat);
        assert_eq!(approx[0], exact[0]);
    }

    #[test]
    fn cost_model_crossover_prefers_flat_small_ivf_large() {
        assert_eq!(preferred_vector_strategy(0), VectorStrategy::Flat);
        assert_eq!(preferred_vector_strategy(1000), VectorStrategy::Flat);
        assert_eq!(preferred_vector_strategy(100_000), VectorStrategy::Ivf);
        // The curve crosses exactly once.
        let mut flips = 0;
        let mut last = preferred_vector_strategy(1);
        for rows in (1..200_000).step_by(97) {
            let s = preferred_vector_strategy(rows);
            if s != last {
                flips += 1;
                last = s;
            }
        }
        assert_eq!(flips, 1, "strategy choice must cross exactly once");
    }

    #[test]
    fn topk_operator_streams_rank_order() {
        let t = Arc::new(docs_table(40));
        let ix = VectorIndex::build(&t, "emb").unwrap();
        let query = seeded_unit_vector(101);
        let want = ix.search(&query, 6, VectorStrategy::Flat);
        let op = VectorTopK::new(Arc::clone(&t), &ix, &query, 6, VectorStrategy::Flat, 4);
        assert_eq!(op.strategy(), VectorStrategy::Flat);
        assert_eq!(op.result_rows(), 6);
        let out = collect("top", Box::new(op)).unwrap();
        let ids: Vec<i64> = out.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        let want_ids: Vec<i64> = want.into_iter().map(|p| p as i64).collect();
        assert_eq!(ids, want_ids);
    }

    #[test]
    fn per_morsel_topk_merges_to_serial_result() {
        let t = docs_table(200);
        let ix = VectorIndex::build(&t, "emb").unwrap();
        let query = seeded_unit_vector(104);
        let serial = ix.search(&query, 9, VectorStrategy::Flat);
        // Split the entries at arbitrary boundaries; local top-k per chunk,
        // then the deterministic merge.
        for chunk in [7usize, 64, 199] {
            let mut candidates = Vec::new();
            for part in ix.entries().chunks(chunk) {
                candidates.extend(top_k_entries(part, &query, 9));
            }
            let merged: Vec<usize> = merge_top_k(candidates, 9)
                .into_iter()
                .map(|(p, _)| p)
                .collect();
            assert_eq!(merged, serial, "chunk size {chunk}");
        }
    }
}

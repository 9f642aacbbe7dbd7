//! Vector indexes: exact flat search and IVF (inverted-file) ANN.
//!
//! KathDB's physical optimizer chooses between implementations of the same
//! logical operator (§4); for "vector-based similarity search for semantic
//! keyword matching" (§2.2) the choice is exact-but-linear vs
//! approximate-but-sublinear, which `vector_bench` measures (SQL path).

use crate::sim::cosine;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Identifier supplied at insert time.
    pub id: u64,
    /// Cosine similarity to the query.
    pub score: f32,
}

// Max-heap ordering by score, tie-broken by id for determinism.
#[derive(PartialEq)]
struct HeapEntry(f32, u64);

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .total_cmp(&other.0)
            .then(other.1.cmp(&self.1))
            .reverse() // min-heap: smallest score at top for top-k pruning
    }
}

fn top_k(candidates: impl Iterator<Item = (u64, f32)>, k: usize) -> Vec<Hit> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    for (id, score) in candidates {
        // Non-finite scores are no-matches: `total_cmp` would rank NaN
        // above every real score, letting one corrupt embedding win every
        // query. Skip them instead.
        if !score.is_finite() {
            continue;
        }
        heap.push(HeapEntry(score, id));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut hits: Vec<Hit> = heap
        .into_iter()
        .map(|HeapEntry(score, id)| Hit { id, score })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    hits
}

/// Exact top-k search by linear scan.
#[derive(Debug, Clone, Default)]
pub struct FlatIndex {
    entries: Vec<(u64, Vec<f32>)>,
}

impl FlatIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a vector under `id`.
    pub fn insert(&mut self, id: u64, vector: Vec<f32>) {
        self.entries.push((id, vector));
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact top-k by cosine similarity.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        top_k(
            self.entries.iter().map(|(id, v)| (*id, cosine(query, v))),
            k,
        )
    }
}

/// IVF approximate index: vectors are partitioned into clusters by a few
/// rounds of k-means (seeded, deterministic); queries probe only the
/// `nprobe` nearest clusters.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    centroids: Vec<Vec<f32>>,
    lists: Vec<Vec<(u64, Vec<f32>)>>,
    /// Number of clusters probed per query.
    pub nprobe: usize,
}

impl IvfIndex {
    /// Builds the index over `(id, vector)` pairs with `nlist` clusters.
    /// `seed` fixes the k-means initialization.
    pub fn build(entries: Vec<(u64, Vec<f32>)>, nlist: usize, nprobe: usize, seed: u64) -> Self {
        let nlist = nlist.clamp(1, entries.len().max(1));
        // Deterministic init: spread over the data by a seeded stride,
        // linear-probing past already-used entries so every centroid starts
        // from a *distinct* vector (the raw stride can collide, which used
        // to seed duplicate centroids and permanently empty clusters).
        let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(nlist);
        if entries.is_empty() {
            centroids.push(Vec::new());
        } else {
            let n = entries.len();
            let mut used = vec![false; n];
            for i in 0..nlist {
                let mut idx = ((seed as usize)
                    .wrapping_mul(2654435761)
                    .wrapping_add(i * 97))
                    % n;
                while used[idx] {
                    idx = (idx + 1) % n;
                }
                used[idx] = true;
                centroids.push(entries[idx].1.clone());
            }
        }
        // A few Lloyd iterations are enough for recall purposes.
        for _ in 0..4 {
            if entries.is_empty() {
                break;
            }
            let dim = entries[0].1.len();
            let mut sums = vec![vec![0.0f32; dim]; nlist];
            let mut counts = vec![0usize; nlist];
            let mut assign = vec![0usize; entries.len()];
            for (e, (_, v)) in entries.iter().enumerate() {
                let c = nearest_centroid(&centroids, v);
                assign[e] = c;
                counts[c] += 1;
                for (s, x) in sums[c].iter_mut().zip(v) {
                    *s += x;
                }
            }
            for (c, sum) in sums.into_iter().enumerate() {
                if counts[c] > 0 {
                    centroids[c] = sum.into_iter().map(|x| x / counts[c] as f32).collect();
                }
            }
            // Repair empty clusters: an unrepaired empty cluster keeps its
            // stale centroid forever, wasting a probe slot and degrading
            // recall. Reseed each from the largest cluster's farthest
            // member (deterministic tie-breaks: lowest index).
            for c in 0..nlist {
                if counts[c] > 0 {
                    continue;
                }
                let mut donor = 0usize;
                for d in 1..nlist {
                    if counts[d] > counts[donor] {
                        donor = d;
                    }
                }
                if counts[donor] <= 1 {
                    continue; // nothing left to split
                }
                let mut farthest: Option<(usize, f32)> = None;
                for (e, (_, v)) in entries.iter().enumerate() {
                    if assign[e] != donor {
                        continue;
                    }
                    let s = cosine(&centroids[donor], v);
                    let s = if s.is_finite() { s } else { f32::NEG_INFINITY };
                    if farthest.is_none_or(|(_, best)| s < best) {
                        farthest = Some((e, s));
                    }
                }
                if let Some((e, _)) = farthest {
                    centroids[c] = entries[e].1.clone();
                    assign[e] = c;
                    counts[c] += 1;
                    counts[donor] -= 1;
                }
            }
        }
        let mut lists: Vec<Vec<(u64, Vec<f32>)>> = vec![Vec::new(); nlist];
        for (id, v) in entries {
            let c = nearest_centroid(&centroids, &v);
            lists[c].push((id, v));
        }
        Self {
            centroids,
            lists,
            nprobe: nprobe.clamp(1, nlist),
        }
    }

    /// Total vectors indexed.
    pub fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of clusters.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Vectors per cluster (diagnostics; empty clusters waste probe slots).
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(Vec::len).collect()
    }

    /// Approximate top-k: probes the `nprobe` closest clusters.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let mut ranked: Vec<(usize, f32)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (i, cosine(query, c)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let probe = ranked.iter().take(self.nprobe).map(|(i, _)| *i);
        top_k(
            probe.flat_map(|i| self.lists[i].iter().map(|(id, v)| (*id, cosine(query, v)))),
            k,
        )
    }
}

fn nearest_centroid(centroids: &[Vec<f32>], v: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_sim = f32::NEG_INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let s = cosine(c, v);
        if s > best_sim {
            best_sim = s;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{default_lexicon, seeded_unit_vector, TextEmbedder};

    #[test]
    fn flat_search_exact_order() {
        let e = TextEmbedder::new(default_lexicon(), 7);
        let mut ix = FlatIndex::new();
        ix.insert(1, e.embed("gun"));
        ix.insert(2, e.embed("tea"));
        ix.insert(3, e.embed("murder"));
        let hits = ix.search(&e.embed("weapon"), 2);
        assert_eq!(hits.len(), 2);
        // The violence-cluster entries must outrank "tea".
        assert!(hits.iter().all(|h| h.id != 2));
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn top_k_respects_k_and_ties() {
        let mut ix = FlatIndex::new();
        let v = seeded_unit_vector(5);
        for id in 0..10 {
            ix.insert(id, v.clone()); // all identical: ties broken by id
        }
        let hits = ix.search(&v, 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn k_zero_and_empty_index() {
        let ix = FlatIndex::new();
        assert!(ix.search(&seeded_unit_vector(1), 5).is_empty());
        let mut ix2 = FlatIndex::new();
        ix2.insert(1, seeded_unit_vector(1));
        assert!(ix2.search(&seeded_unit_vector(1), 0).is_empty());
    }

    #[test]
    fn ivf_recall_against_flat() {
        // 200 vectors in 4 natural clusters; IVF with enough probes must
        // agree with exact search on the top hit.
        let mut entries = Vec::new();
        let mut flat = FlatIndex::new();
        for i in 0..200u64 {
            let base = seeded_unit_vector(i % 4 + 100);
            let noise = seeded_unit_vector(i + 1000);
            let mut v: Vec<f32> = base
                .iter()
                .zip(&noise)
                .map(|(b, n)| 0.9 * b + 0.1 * n)
                .collect();
            crate::embed::normalize(&mut v);
            entries.push((i, v.clone()));
            flat.insert(i, v);
        }
        let ivf = IvfIndex::build(entries, 8, 4, 42);
        assert_eq!(ivf.len(), 200);
        let mut agree = 0;
        for q in 0..20u64 {
            let query = seeded_unit_vector(q % 4 + 100);
            let f = flat.search(&query, 1);
            let a = ivf.search(&query, 1);
            if !a.is_empty() && a[0].id == f[0].id {
                agree += 1;
            }
        }
        assert!(agree >= 16, "IVF top-1 agreement too low: {agree}/20");
    }

    #[test]
    fn top_k_skips_non_finite_scores() {
        // One corrupt (NaN) embedding must never win a query; it is a
        // no-match, not the best match.
        let mut ix = FlatIndex::new();
        ix.insert(1, vec![f32::NAN; 4]);
        ix.insert(2, vec![1.0, 0.0, 0.0, 0.0]);
        ix.insert(3, vec![0.9, 0.1, 0.0, 0.0]);
        let hits = ix.search(&[1.0, 0.0, 0.0, 0.0], 3);
        assert_eq!(hits.len(), 2, "corrupt entry must be dropped: {hits:?}");
        assert_eq!(hits[0].id, 2);
        assert!(hits.iter().all(|h| h.score.is_finite()));
        // An all-corrupt index matches nothing.
        let mut bad = FlatIndex::new();
        bad.insert(1, vec![f32::INFINITY; 4]);
        assert!(bad.search(&[1.0, 0.0, 0.0, 0.0], 1).is_empty());
    }

    #[test]
    fn ivf_init_deduplicates_and_repairs_empty_clusters() {
        // 4 tight, well-separated clusters of 25 points each. Any seed —
        // including ones whose raw stride collides — must leave every one
        // of 4 cluster lists populated: duplicate initial picks are
        // linear-probed apart and empty clusters are reseeded.
        for seed in 0..16u64 {
            let mut entries = Vec::new();
            for i in 0..100u64 {
                let base = seeded_unit_vector(i % 4 + 500);
                let noise = seeded_unit_vector(i + 9000);
                let mut v: Vec<f32> = base
                    .iter()
                    .zip(&noise)
                    .map(|(b, n)| 0.97 * b + 0.03 * n)
                    .collect();
                crate::embed::normalize(&mut v);
                entries.push((i, v));
            }
            let ivf = IvfIndex::build(entries, 4, 1, seed);
            let sizes = ivf.list_sizes();
            assert!(
                sizes.iter().all(|&s| s > 0),
                "seed {seed}: empty cluster in {sizes:?}"
            );
        }
    }

    #[test]
    fn ivf_duplicate_entries_build_distinct_centroid_seeds() {
        // All-identical data cannot split into distinct clusters, but the
        // build must stay well-formed: no panic, all vectors indexed.
        let v = seeded_unit_vector(3);
        let entries: Vec<_> = (0..10u64).map(|i| (i, v.clone())).collect();
        let ivf = IvfIndex::build(entries, 4, 4, 7);
        assert_eq!(ivf.len(), 10);
        let hits = ivf.search(&v, 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn ivf_clamps_parameters() {
        let entries = vec![(1u64, seeded_unit_vector(1)), (2, seeded_unit_vector(2))];
        let ivf = IvfIndex::build(entries, 100, 100, 1);
        assert!(ivf.nlist() <= 2);
        assert!(ivf.nprobe <= ivf.nlist());
        assert_eq!(ivf.len(), 2);
    }

    #[test]
    fn ivf_empty_build() {
        let ivf = IvfIndex::build(Vec::new(), 4, 2, 1);
        assert!(ivf.is_empty());
        assert!(ivf.search(&seeded_unit_vector(1), 3).is_empty());
    }
}

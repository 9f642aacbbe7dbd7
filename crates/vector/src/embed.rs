//! Deterministic text embeddings.
//!
//! The paper's excitement scorer "computes excitement scores by measuring
//! vector similarity between keywords (e.g., gun, murder, …) and all
//! extracted text entities" (§6). A hosted embedding model is replaced by a
//! *lexicon-clustered hash embedder*: every token gets a pseudo-random unit
//! vector from its hash, and tokens that belong to the same lexicon concept
//! are pulled toward that concept's centroid. The result preserves exactly
//! the property the pipeline needs — related words ("gun", "weapon",
//! "shootout") are mutually similar, unrelated words are not — while being
//! fully deterministic and offline.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Embedding dimensionality.
pub const DIM: usize = 64;

/// A dense embedding vector.
pub type Embedding = Vec<f32>;

/// Deterministic 64-bit hash (FNV-1a); avoids `std` hasher instability
/// across runs/platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Generates a unit vector pseudo-randomly from a seed (splitmix64 stream).
pub fn seeded_unit_vector(seed: u64) -> Embedding {
    unit_vector(seed).to_vec()
}

/// [`seeded_unit_vector`] on the stack.
fn unit_vector(seed: u64) -> [f32; DIM] {
    let mut state = seed;
    let mut v = [0.0f32; DIM];
    for x in &mut v {
        // splitmix64 step
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        // Map to roughly N(0,1) via sum of uniforms (CLT over 2 halves).
        let u1 = (z >> 11) as f64 / (1u64 << 53) as f64;
        *x = (u1 - 0.5) as f32;
    }
    normalize(&mut v);
    v
}

/// Normalizes a vector in place; leaves the zero vector untouched.
pub fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// A concept lexicon: concept name → member terms. Terms of one concept
/// embed near each other.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    concepts: Vec<(String, Vec<String>)>,
}

impl Lexicon {
    /// An empty lexicon (pure hash embeddings).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a concept with member terms (builder style).
    pub fn with_concept<S: Into<String>>(
        mut self,
        name: impl Into<String>,
        terms: impl IntoIterator<Item = S>,
    ) -> Self {
        self.concepts.push((
            name.into(),
            terms.into_iter().map(|t| t.into().to_lowercase()).collect(),
        ));
        self
    }

    /// The concept a term belongs to, if any.
    pub fn concept_of(&self, term: &str) -> Option<&str> {
        let t = term.to_lowercase();
        self.concepts
            .iter()
            .find(|(_, terms)| terms.contains(&t))
            .map(|(name, _)| name.as_str())
    }

    /// All concept names.
    pub fn concepts(&self) -> impl Iterator<Item = &str> {
        self.concepts.iter().map(|(n, _)| n.as_str())
    }

    /// Terms of a concept.
    pub fn terms_of(&self, concept: &str) -> Option<&[String]> {
        self.concepts
            .iter()
            .find(|(n, _)| n == concept)
            .map(|(_, t)| t.as_slice())
    }
}

/// How strongly lexicon terms are pulled to their concept centroid.
const CLUSTER_STRENGTH: f32 = 0.85;

/// The lexicon-clustered text embedder. Cloning shares its tables.
#[derive(Debug, Clone)]
pub struct TextEmbedder {
    tables: Arc<Tables>,
}

/// What an embedder reads and never changes.
#[derive(Debug)]
struct Tables {
    lexicon: Lexicon,
    /// One centroid per lexicon concept, in lexicon order.
    centroids: Vec<[f32; DIM]>,
    /// Lexicon term → index of its concept's centroid; a term listed under
    /// several concepts belongs to the first, as in [`Lexicon::concept_of`].
    centroid_of: HashMap<String, usize>,
    /// Base seed separating unrelated embedder instances.
    seed: u64,
}

impl TextEmbedder {
    /// Builds an embedder over `lexicon`.
    pub fn new(lexicon: Lexicon, seed: u64) -> Self {
        let mut centroids = Vec::new();
        let mut centroid_of = HashMap::new();
        for (i, (concept, terms)) in lexicon.concepts.iter().enumerate() {
            centroids.push(unit_vector(seed ^ fnv1a(concept.as_bytes()) ^ 0xC0FFEE));
            for term in terms {
                centroid_of.entry(term.clone()).or_insert(i);
            }
        }
        Self {
            tables: Arc::new(Tables {
                lexicon,
                centroids,
                centroid_of,
                seed,
            }),
        }
    }

    /// Embeds one token.
    pub fn embed_token(&self, token: &str) -> Embedding {
        self.token_vector(token).to_vec()
    }

    /// [`TextEmbedder::embed_token`] on the stack.
    fn token_vector(&self, token: &str) -> [f32; DIM] {
        let tables = &*self.tables;
        // One lowercase per token, and none for the usual one: ASCII with
        // no capital in it is borrowed as it is.
        let lowered = |b: u8| b.is_ascii() && !b.is_ascii_uppercase();
        let t: Cow<str> = match token.bytes().all(lowered) {
            true => token.into(),
            false => token.to_lowercase().into(),
        };
        let mut v = unit_vector(tables.seed ^ fnv1a(t.as_bytes()));
        if let Some(&concept) = tables.centroid_of.get(&*t) {
            let a = CLUSTER_STRENGTH;
            for (n, c) in v.iter_mut().zip(&tables.centroids[concept]) {
                *n = a * c + (1.0 - a) * *n;
            }
            normalize(&mut v);
        }
        v
    }

    /// Embeds a phrase as the normalized mean of token embeddings.
    /// Empty/whitespace input embeds to the zero vector.
    pub fn embed(&self, text: &str) -> Embedding {
        let mut acc = [0.0f32; DIM];
        let tokens = text.split(|c: char| !c.is_alphanumeric());
        for t in tokens.filter(|t| !t.is_empty()) {
            for (a, b) in acc.iter_mut().zip(self.token_vector(t)) {
                *a += b;
            }
        }
        // No token leaves the zero vector, which normalizing leaves alone.
        normalize(&mut acc);
        acc.to_vec()
    }

    /// The lexicon in use.
    pub fn lexicon(&self) -> &Lexicon {
        &self.tables.lexicon
    }
}

/// Seed of the canonical shared embedder behind [`embed_query`]. One fixed
/// seed means stored `EMBED(...)` blobs, `SIMILARITY(col, 'query')`
/// expressions, and the catalog's vector indexes all live in the same
/// embedding space.
pub const QUERY_EMBED_SEED: u64 = 7;

/// Embeds text with the canonical default-lexicon embedder — the single
/// embedding convention the SQL surface and the vector indexes share.
pub fn embed_query(text: &str) -> Embedding {
    use std::sync::OnceLock;
    static EMBEDDER: OnceLock<TextEmbedder> = OnceLock::new();
    EMBEDDER
        .get_or_init(|| TextEmbedder::new(default_lexicon(), QUERY_EMBED_SEED))
        .embed(text)
}

/// A small built-in lexicon for tests and the default pipeline: concepts the
/// flagship query needs ("excitement" keywords from §6 plus contrast sets).
pub fn default_lexicon() -> Lexicon {
    Lexicon::new()
        .with_concept(
            "violence",
            [
                "gun",
                "murder",
                "weapon",
                "shootout",
                "kill",
                "attack",
                "fight",
                "threat",
                "death",
                "knife",
                "explosion",
                "chase",
            ],
        )
        .with_concept(
            "danger",
            [
                "danger",
                "jump",
                "fall",
                "crash",
                "fire",
                "escape",
                "plane",
                "cliff",
                "motorcycle",
                "storm",
            ],
        )
        .with_concept(
            "calm",
            [
                "calm", "quiet", "peaceful", "garden", "tea", "walk", "routine", "plain",
                "ordinary", "mundane",
            ],
        )
        .with_concept(
            "romance",
            ["love", "romance", "kiss", "wedding", "heart", "date"],
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::cosine;

    fn embedder() -> TextEmbedder {
        TextEmbedder::new(default_lexicon(), 42)
    }

    #[test]
    fn embeddings_are_deterministic() {
        let e = embedder();
        assert_eq!(e.embed("gun fight"), e.embed("gun fight"));
        let e2 = TextEmbedder::new(default_lexicon(), 42);
        assert_eq!(e.embed("murder"), e2.embed("murder"));
    }

    #[test]
    fn same_concept_terms_are_similar() {
        let e = embedder();
        let sim_related = cosine(&e.embed("gun"), &e.embed("murder"));
        let sim_unrelated = cosine(&e.embed("gun"), &e.embed("tea"));
        assert!(
            sim_related > 0.5,
            "related terms should be similar, got {sim_related}"
        );
        assert!(
            sim_related > sim_unrelated + 0.3,
            "related {sim_related} vs unrelated {sim_unrelated}"
        );
    }

    #[test]
    fn case_insensitive() {
        let e = embedder();
        assert_eq!(e.embed("GUN"), e.embed("gun"));
    }

    #[test]
    fn unknown_words_are_stable_but_unclustered() {
        let e = embedder();
        let a = e.embed_token("zxqw");
        assert_eq!(a, e.embed_token("zxqw"));
        let b = e.embed_token("vbnm");
        assert!(cosine(&a, &b).abs() < 0.5);
    }

    #[test]
    fn phrase_embedding_is_unit_or_zero() {
        let e = embedder();
        let v = e.embed("a man jumped off a plane");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        let z = e.embed("   ");
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn lexicon_lookup() {
        let l = default_lexicon();
        assert_eq!(l.concept_of("Gun"), Some("violence"));
        assert_eq!(l.concept_of("unknown"), None);
        assert!(l
            .terms_of("violence")
            .unwrap()
            .contains(&"murder".to_string()));
        assert!(l.concepts().count() >= 4);
    }

    #[test]
    fn seeded_unit_vectors_differ_by_seed() {
        let a = seeded_unit_vector(1);
        let b = seeded_unit_vector(2);
        assert_ne!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }
}

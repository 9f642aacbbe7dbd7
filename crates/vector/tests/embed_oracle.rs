//! Bit-identity oracle for [`TextEmbedder`]: the embedder as it was before
//! its lexicon was hashed and its vectors moved to the stack — two
//! lowercases per token, a linear scan of the lexicon, the concept centroid
//! regenerated for every token, a `Vec` per step — re-implemented here from
//! nothing but the lexicon's public listing, and compared `to_bits()`.

use kath_vector::{default_lexicon, Lexicon, TextEmbedder, DIM};

fn fnv1a_oracle(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

fn normalize_oracle(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

fn unit_vector_oracle(seed: u64) -> Vec<f32> {
    let mut state = seed;
    let mut v: Vec<f32> = (0..DIM)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            let u1 = (z >> 11) as f64 / (1u64 << 53) as f64;
            (u1 - 0.5) as f32
        })
        .collect();
    normalize_oracle(&mut v);
    v
}

/// The first concept, in listing order, one of whose terms is `term`
/// lowercased (again).
fn concept_of_oracle<'a>(lexicon: &'a Lexicon, term: &str) -> Option<&'a str> {
    let t = term.to_lowercase();
    lexicon
        .concepts()
        .find(|c| lexicon.terms_of(c).is_some_and(|terms| terms.contains(&t)))
}

fn embed_token_oracle(lexicon: &Lexicon, seed: u64, token: &str) -> Vec<f32> {
    let t = token.to_lowercase();
    let noise = unit_vector_oracle(seed ^ fnv1a_oracle(t.as_bytes()));
    match concept_of_oracle(lexicon, &t) {
        None => noise,
        Some(concept) => {
            let centroid = unit_vector_oracle(seed ^ fnv1a_oracle(concept.as_bytes()) ^ 0xC0FFEE);
            let a = 0.85f32;
            let mut v: Vec<f32> = centroid
                .iter()
                .zip(&noise)
                .map(|(c, n)| a * c + (1.0 - a) * n)
                .collect();
            normalize_oracle(&mut v);
            v
        }
    }
}

fn embed_oracle(lexicon: &Lexicon, seed: u64, text: &str) -> Vec<f32> {
    let tokens: Vec<&str> = text
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .collect();
    if tokens.is_empty() {
        return vec![0.0; DIM];
    }
    let mut acc = vec![0.0f32; DIM];
    for t in &tokens {
        for (a, b) in acc.iter_mut().zip(embed_token_oracle(lexicon, seed, t)) {
            *a += b;
        }
    }
    normalize_oracle(&mut acc);
    acc
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The five terms the standard knowledge base lists under two concepts.
const DOUBLY_LISTED: [&str; 5] = ["gun", "weapon", "explosion", "fire", "motorcycle"];

fn texts() -> Vec<String> {
    let corpus = kath_data::mmqa_small();
    let mut texts: Vec<String> = corpus.documents.into_iter().map(|d| d.text).collect();
    let edge_cases = [
        "",
        "   \t\n ",
        "?!. --",
        "GUN Fight at the MotorCycle rally",
        "Guilty by Suspicion (1991), 105 min, rated PG13",
        "42",
        "ÉCOLE de la Straße in İstanbul: ΟΔΟΣ, ǅungla",
        "straße STRASSE ﬁre FIRE",
        "a man jumped off a plane",
    ];
    texts.extend(edge_cases.map(String::from));
    texts.extend(DOUBLY_LISTED.map(String::from));
    texts.extend(DOUBLY_LISTED.map(str::to_uppercase));
    texts
}

#[test]
fn embedder_equals_the_unhashed_embedder_bit_for_bit() {
    let kb_lexicon = kath_model::KnowledgeBase::new().lexicon().clone();
    // The doubly-listed terms are what "first concept wins" is about.
    for term in DOUBLY_LISTED {
        let listed = (kb_lexicon.concepts())
            .filter(|c| kb_lexicon.terms_of(c).unwrap().contains(&term.to_string()));
        assert_eq!(listed.count(), 2, "{term}");
    }
    for lexicon in [kb_lexicon, default_lexicon(), Lexicon::new()] {
        for seed in [1u64, 7, 42] {
            let embedder = TextEmbedder::new(lexicon.clone(), seed);
            for text in texts() {
                let expected = embed_oracle(&lexicon, seed, &text);
                assert_eq!(
                    bits(&embedder.embed(&text)),
                    bits(&expected),
                    "embed, seed {seed}, text {text:?}"
                );
                for token in text.split(|c: char| !c.is_alphanumeric()) {
                    let expected = embed_token_oracle(&lexicon, seed, token);
                    assert_eq!(
                        bits(&embedder.embed_token(token)),
                        bits(&expected),
                        "embed_token, seed {seed}, token {token:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_term_under_two_concepts_embeds_with_the_first() {
    let lexicon = Lexicon::new()
        .with_concept("first", ["shared", "Mixed"])
        .with_concept("second", ["shared", "other"]);
    assert_eq!(lexicon.concept_of("SHARED"), Some("first"));
    let embedder = TextEmbedder::new(lexicon.clone(), 7);
    for token in ["shared", "Shared", "mixed", "MIXED", "other", "none"] {
        assert_eq!(
            bits(&embedder.embed_token(token)),
            bits(&embed_token_oracle(&lexicon, 7, token)),
            "{token}"
        );
    }
}

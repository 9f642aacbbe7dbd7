//! KathDB vector-similarity substrate.
//!
//! Provides the deterministic text embedder (the reproduction's stand-in for
//! a hosted embedding model — see DESIGN.md §1), similarity measures, and
//! exact/ANN indexes used by FAO bodies of the `VectorScore` kind
//! ("vector-based similarity search for semantic keyword matching", §2.2).

#![warn(missing_docs)]

mod embed;
mod index;
mod sim;

pub use embed::{
    default_lexicon, embed_query, fnv1a, normalize, seeded_unit_vector, Embedding, Lexicon,
    TextEmbedder, DIM, QUERY_EMBED_SEED,
};
pub use index::{FlatIndex, Hit, IvfIndex};
pub use sim::{cosine, cosine_from_parts, dot, l2, norm};

//! KathDB multimodal view layer.
//!
//! Implements the paper's unified relational data model (§3): scene graphs
//! over images/videos (Table 1) and text semantic graphs (Table 2), plus the
//! view-population pipelines that run the simulated vision/language models
//! over media and materialize the views.

#![warn(missing_docs)]

mod scene_graph;
mod text_graph;

pub use scene_graph::{
    attributes_schema as scene_attributes_schema, emit_frame, frames_schema, objects_schema,
    populate_image, populate_video, relationships_schema as scene_relationships_schema,
    SceneGraphError, SceneGraphViews,
};
pub use text_graph::{
    attributes_schema as text_attributes_schema, emit_document, entities_schema, extract_document,
    mentions_schema, populate_document, relationships_schema as text_relationships_schema,
    texts_schema, DocumentExtraction, TextGraphViews,
};

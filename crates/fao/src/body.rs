//! Function bodies — the physical implementations of logical plan nodes.
//!
//! "A function can contain a SQL query over a table, a view population using
//! machine learning models, a vector-based similarity search for semantic
//! keyword matching, and more" (§2.2). A body is a *structured program*, not
//! opaque code: structured bodies persist to disk as JSON (§4), are cheap to
//! diff across versions, and let the explainer describe exactly what a
//! function does (§5). Interpretation happens in `kath-exec`.

use kath_json::Json;
use kath_lineage::DependencyPattern;
use std::fmt;

/// Which vision implementation a visual operator uses — the physical
/// alternatives the optimizer chooses among (§4: VLM vs OCR vs cascade).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisionImpl {
    /// Accurate, expensive VLM.
    VlmAccurate,
    /// Cheap, noisy VLM.
    VlmCheap,
    /// OCR text extraction only.
    Ocr,
    /// Cheap VLM with escalation to the accurate one.
    Cascade,
}

impl VisionImpl {
    /// Stable spelling for persistence.
    pub fn as_str(&self) -> &'static str {
        match self {
            VisionImpl::VlmAccurate => "vlm_accurate",
            VisionImpl::VlmCheap => "vlm_cheap",
            VisionImpl::Ocr => "ocr",
            VisionImpl::Cascade => "cascade",
        }
    }

    /// Parses the stable spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "vlm_accurate" => VisionImpl::VlmAccurate,
            "vlm_cheap" => VisionImpl::VlmCheap,
            "ocr" => VisionImpl::Ocr,
            "cascade" => VisionImpl::Cascade,
            _ => return None,
        })
    }
}

/// A structured function body.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionBody {
    /// A SQL query over the catalog (joins, filters, projections, sorts).
    Sql {
        /// The query text (parsed/executed by `kath-sql`).
        query: String,
        /// When set, de-duplicate the output keeping the first row per key —
        /// the monitor's patch for the fan-out anomaly of §5 ("enforce that
        /// each poster can be linked to only one tuple in movie_table").
        dedup_key: Option<String>,
    },
    /// Adds a computed column: `output_column = eval(expr)` per input row.
    /// One-to-one; records row-level lineage.
    MapExpr {
        /// Input table name.
        input: String,
        /// Scalar SQL expression over the input columns.
        expr: String,
        /// Name of the appended column.
        output_column: String,
    },
    /// Keeps rows satisfying a predicate. One-to-one (per retained row).
    FilterExpr {
        /// Input table name.
        input: String,
        /// Predicate SQL expression.
        predicate: String,
    },
    /// Vector-similarity concept scoring: embeds `text_column`, scores it
    /// against `keywords`, appends `output_column` ∈ [0,1] (§6 step 4).
    ConceptScore {
        /// Input table name.
        input: String,
        /// Column holding the text to score.
        text_column: String,
        /// The LLM-generated keyword list.
        keywords: Vec<String>,
        /// Name of the appended score column.
        output_column: String,
    },
    /// Visual classification over poster images: reads the image registry
    /// via `uri_column`, computes a boolean `output_column` from visual
    /// features and the scene-graph views (the `classify_boring` node).
    VisualClassify {
        /// Input table name.
        input: String,
        /// Column holding the media URI.
        uri_column: String,
        /// Appended boolean column.
        output_column: String,
        /// Which physical vision implementation to use.
        implementation: VisionImpl,
        /// Decision threshold on the interest score (≤ threshold = boring).
        threshold: f64,
        /// Convert unsupported media formats before decoding — the patch the
        /// rewriter agent adds after the HEIC failure (§5).
        convert_unsupported: bool,
    },
    /// Populates the multimodal relational views from registered media (§3);
    /// the paper pre-writes this function in its prototype (§6).
    ViewPopulate {
        /// `"scene"` or `"text"`.
        modality: String,
        /// Which physical vision implementation (scene only).
        implementation: VisionImpl,
        /// Convert unsupported media formats before decoding (§5 repair).
        convert_unsupported: bool,
    },
}

impl FunctionBody {
    /// The dependency pattern the generating LLM classifies this body as
    /// (§3); it decides row- vs table-level lineage.
    pub fn dependency_pattern(&self) -> DependencyPattern {
        match self {
            // SQL bodies may join/aggregate/sort: wide by default.
            FunctionBody::Sql { .. } => DependencyPattern::ManyToMany,
            FunctionBody::MapExpr { .. }
            | FunctionBody::ConceptScore { .. }
            | FunctionBody::VisualClassify { .. } => DependencyPattern::OneToOne,
            FunctionBody::FilterExpr { .. } => DependencyPattern::OneToOne,
            FunctionBody::ViewPopulate { .. } => DependencyPattern::OneToMany,
        }
    }

    /// Whether the body's per-item work is a model call (concept scoring,
    /// visual classification, view population) rather than an operator
    /// pipeline or an expression: the cost model prices the two apart.
    pub fn calls_model(&self) -> bool {
        !matches!(
            self,
            FunctionBody::Sql { .. }
                | FunctionBody::MapExpr { .. }
                | FunctionBody::FilterExpr { .. }
        )
    }

    /// The input table names this body reads.
    pub fn inputs(&self) -> Vec<String> {
        match self {
            FunctionBody::Sql { query, .. } => kath_sql::parse_select(query)
                .map(|s| s.tables().map(str::to_string).collect())
                .unwrap_or_default(),
            FunctionBody::MapExpr { input, .. }
            | FunctionBody::FilterExpr { input, .. }
            | FunctionBody::ConceptScore { input, .. }
            | FunctionBody::VisualClassify { input, .. } => vec![input.clone()],
            FunctionBody::ViewPopulate { .. } => vec![],
        }
    }

    /// A one-line human description for the explainer.
    pub fn summarize(&self) -> String {
        match self {
            FunctionBody::Sql { query, dedup_key } => match dedup_key {
                Some(k) => format!("runs SQL: {query} (then keeps one row per {k})"),
                None => format!("runs SQL: {query}"),
            },
            FunctionBody::MapExpr {
                expr,
                output_column,
                ..
            } => format!("computes {output_column} = {expr} for each row"),
            FunctionBody::FilterExpr { predicate, .. } => {
                format!("keeps rows where {predicate}")
            }
            FunctionBody::ConceptScore {
                text_column,
                keywords,
                output_column,
                ..
            } => format!(
                "scores {text_column} against keywords [{}] into {output_column} \
                 via embedding similarity",
                keywords.join(", ")
            ),
            FunctionBody::VisualClassify {
                output_column,
                implementation,
                threshold,
                ..
            } => format!(
                "flags posters as {output_column} if their visual interest \
                 (colors, objects, action) falls below {threshold} using {}",
                implementation.as_str()
            ),
            FunctionBody::ViewPopulate {
                modality,
                implementation,
                ..
            } => format!(
                "populates the {modality} relational views from raw media using {}",
                implementation.as_str()
            ),
        }
    }

    /// Persists the body as JSON (tagged by `kind`).
    pub fn to_json(&self) -> Json {
        match self {
            FunctionBody::Sql { query, dedup_key } => {
                let mut pairs = vec![("kind", Json::str("sql")), ("query", Json::str(query))];
                if let Some(k) = dedup_key {
                    pairs.push(("dedup_key", Json::str(k)));
                }
                Json::object(pairs)
            }
            FunctionBody::MapExpr {
                input,
                expr,
                output_column,
            } => Json::object([
                ("kind", Json::str("map_expr")),
                ("input", Json::str(input)),
                ("expr", Json::str(expr)),
                ("output_column", Json::str(output_column)),
            ]),
            FunctionBody::FilterExpr { input, predicate } => Json::object([
                ("kind", Json::str("filter_expr")),
                ("input", Json::str(input)),
                ("predicate", Json::str(predicate)),
            ]),
            FunctionBody::ConceptScore {
                input,
                text_column,
                keywords,
                output_column,
            } => Json::object([
                ("kind", Json::str("concept_score")),
                ("input", Json::str(input)),
                ("text_column", Json::str(text_column)),
                (
                    "keywords",
                    Json::str_array(keywords.iter().map(String::as_str)),
                ),
                ("output_column", Json::str(output_column)),
            ]),
            FunctionBody::VisualClassify {
                input,
                uri_column,
                output_column,
                implementation,
                threshold,
                convert_unsupported,
            } => Json::object([
                ("kind", Json::str("visual_classify")),
                ("input", Json::str(input)),
                ("uri_column", Json::str(uri_column)),
                ("output_column", Json::str(output_column)),
                ("implementation", Json::str(implementation.as_str())),
                ("threshold", Json::Num(*threshold)),
                ("convert_unsupported", Json::Bool(*convert_unsupported)),
            ]),
            FunctionBody::ViewPopulate {
                modality,
                implementation,
                convert_unsupported,
            } => Json::object([
                ("kind", Json::str("view_populate")),
                ("modality", Json::str(modality)),
                ("implementation", Json::str(implementation.as_str())),
                ("convert_unsupported", Json::Bool(*convert_unsupported)),
            ]),
        }
    }

    /// Loads a body from its JSON form.
    pub fn from_json(v: &Json) -> Result<Self, BodyError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| BodyError("missing 'kind'".into()))?;
        let get_str = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| BodyError(format!("missing string '{key}'")))
        };
        Ok(match kind {
            "sql" => FunctionBody::Sql {
                query: get_str("query")?,
                dedup_key: v
                    .get("dedup_key")
                    .and_then(Json::as_str)
                    .map(str::to_string),
            },
            "map_expr" => FunctionBody::MapExpr {
                input: get_str("input")?,
                expr: get_str("expr")?,
                output_column: get_str("output_column")?,
            },
            "filter_expr" => FunctionBody::FilterExpr {
                input: get_str("input")?,
                predicate: get_str("predicate")?,
            },
            "concept_score" => FunctionBody::ConceptScore {
                input: get_str("input")?,
                text_column: get_str("text_column")?,
                keywords: v
                    .get("keywords")
                    .and_then(Json::as_array)
                    .ok_or_else(|| BodyError("missing array 'keywords'".into()))?
                    .iter()
                    .map(|k| {
                        k.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| BodyError("keywords must be strings".into()))
                    })
                    .collect::<Result<_, _>>()?,
                output_column: get_str("output_column")?,
            },
            "visual_classify" => FunctionBody::VisualClassify {
                input: get_str("input")?,
                uri_column: get_str("uri_column")?,
                output_column: get_str("output_column")?,
                implementation: VisionImpl::parse(&get_str("implementation")?)
                    .ok_or_else(|| BodyError("unknown implementation".into()))?,
                threshold: v
                    .get("threshold")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| BodyError("missing number 'threshold'".into()))?,
                convert_unsupported: v
                    .get("convert_unsupported")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            },
            "view_populate" => FunctionBody::ViewPopulate {
                modality: get_str("modality")?,
                implementation: VisionImpl::parse(&get_str("implementation")?)
                    .ok_or_else(|| BodyError("unknown implementation".into()))?,
                convert_unsupported: v
                    .get("convert_unsupported")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            },
            other => return Err(BodyError(format!("unknown body kind '{other}'"))),
        })
    }
}

/// Error ingesting a persisted body.
#[derive(Debug, Clone, PartialEq)]
pub struct BodyError(pub String);

impl fmt::Display for BodyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid function body: {}", self.0)
    }
}

impl std::error::Error for BodyError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_bodies() -> Vec<FunctionBody> {
        vec![
            FunctionBody::Sql {
                query: "SELECT title, year FROM movie_table".into(),
                dedup_key: None,
            },
            FunctionBody::MapExpr {
                input: "films".into(),
                expr: "0.7 * excitement + 0.3 * recency".into(),
                output_column: "final_score".into(),
            },
            FunctionBody::FilterExpr {
                input: "films".into(),
                predicate: "boring = TRUE".into(),
            },
            FunctionBody::ConceptScore {
                input: "films_with_text".into(),
                text_column: "plot".into(),
                keywords: vec!["gun".into(), "murder".into()],
                output_column: "excitement".into(),
            },
            FunctionBody::VisualClassify {
                input: "films_with_image_scene".into(),
                uri_column: "poster_uri".into(),
                output_column: "boring".into(),
                implementation: VisionImpl::Cascade,
                threshold: 0.4,
                convert_unsupported: false,
            },
            FunctionBody::ViewPopulate {
                modality: "scene".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: true,
            },
        ]
    }

    #[test]
    fn json_round_trip_for_every_variant() {
        for body in all_bodies() {
            let text = kath_json::to_string(&body.to_json());
            let back = FunctionBody::from_json(&kath_json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, body);
        }
    }

    #[test]
    fn dependency_patterns_match_section3() {
        // One-to-one scorers record row lineage; SQL (joins/sorts) is wide.
        assert!(matches!(
            all_bodies()[3].dependency_pattern(),
            DependencyPattern::OneToOne
        ));
        assert!(matches!(
            all_bodies()[0].dependency_pattern(),
            DependencyPattern::ManyToMany
        ));
        assert!(matches!(
            all_bodies()[5].dependency_pattern(),
            DependencyPattern::OneToMany
        ));
    }

    #[test]
    fn inputs_extracted_from_sql_and_structured_bodies() {
        let sql = FunctionBody::Sql {
            query: "SELECT a FROM films JOIN posters ON films.id = posters.film_id".into(),
            dedup_key: None,
        };
        assert_eq!(
            sql.inputs(),
            vec!["films".to_string(), "posters".to_string()]
        );
        assert_eq!(all_bodies()[1].inputs(), vec!["films".to_string()]);
        assert!(all_bodies()[5].inputs().is_empty());
    }

    #[test]
    fn summaries_are_explainer_ready() {
        let s = all_bodies()[4].summarize();
        assert!(s.contains("posters"));
        assert!(s.contains("cascade"));
        let s = all_bodies()[3].summarize();
        assert!(s.contains("gun"));
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            r#"{"query":"SELECT 1"}"#,
            r#"{"kind":"nope"}"#,
            r#"{"kind":"map_expr","input":"t"}"#,
            r#"{"kind":"visual_classify","input":"t","uri_column":"u","output_column":"o","implementation":"warp","threshold":0.4}"#,
        ] {
            let v = kath_json::parse(bad).unwrap();
            assert!(FunctionBody::from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn vision_impl_round_trip() {
        for v in [
            VisionImpl::VlmAccurate,
            VisionImpl::VlmCheap,
            VisionImpl::Ocr,
            VisionImpl::Cascade,
        ] {
            assert_eq!(VisionImpl::parse(v.as_str()), Some(v));
        }
        assert_eq!(VisionImpl::parse("gpt4"), None);
    }
}

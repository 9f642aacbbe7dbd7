//! The coder agent: writes function bodies for logical-plan nodes.
//!
//! "Reading both the sampled rows and node specification, the coder writes a
//! function body" (§4). The simulated coder is a deterministic synthesizer
//! over the node's tag, the input schemas it samples from the catalog, and
//! the user's clarifications. A [`CoderFaults`] plan injects the systematic
//! mistakes (reversed score direction) the critic must catch.

use kath_fao::{FunctionBody, VisionImpl};
use kath_model::SimLlm;
use kath_parser::{LogicalNode, StepTag};
use kath_storage::Catalog;

/// Deliberate coder mistakes, injectable for tests and benches (§4's
/// example: "a scoring function … mistakenly implemented to do the reverse").
#[derive(Debug, Clone, Copy, Default)]
pub struct CoderFaults {
    /// Emit recency scores that favour *older* movies.
    pub reversed_recency: bool,
}

/// Context the coder reads besides the node itself.
pub struct CoderContext<'a> {
    /// The catalog (for input schemas and sample rows).
    pub catalog: &'a Catalog,
    /// `(term, clarification)` pairs from the NL parser.
    pub clarifications: &'a [(String, String)],
    /// Injected faults.
    pub faults: CoderFaults,
}

impl<'a> CoderContext<'a> {
    fn clarification_for(&self, term: &str) -> Option<&str> {
        self.clarifications
            .iter()
            .find(|(t, _)| t == term)
            .map(|(_, c)| c.as_str())
    }
}

/// Synthesizes candidate bodies for a node, most-preferred first. Most tags
/// have a single candidate; visual classification has one per physical
/// implementation (§4: "a VLM-based implementation or an OCR-based
/// implementation", plus the cascade).
pub fn synthesize(
    node: &LogicalNode,
    ctx: &CoderContext<'_>,
    llm: &SimLlm,
) -> Vec<(FunctionBody, String)> {
    let sig = &node.signature;
    match &node.tag {
        StepTag::PopulateViews => vec![
            (
                FunctionBody::ViewPopulate {
                    modality: "text".into(),
                    implementation: VisionImpl::VlmAccurate,
                    convert_unsupported: false,
                },
                "pre-written text view population".into(),
            ),
            // The scene half is registered as a sibling function by the
            // compiler; this first candidate is the text half.
        ],
        StepTag::SelectColumns => {
            // Keep identifying + reference columns; drop nothing the later
            // steps need. Reads the actual schema via the catalog.
            let cols = ctx
                .catalog
                .get(&sig.inputs[0])
                .map(|t| {
                    let names = t.schema().names();
                    let wanted: Vec<&str> = names
                        .iter()
                        .copied()
                        .filter(|n| ["id", "title", "year", "did", "vid"].contains(n))
                        .collect();
                    if wanted.is_empty() {
                        names.iter().map(|s| s.to_string()).collect::<Vec<_>>()
                    } else {
                        wanted.iter().map(|s| s.to_string()).collect()
                    }
                })
                .unwrap_or_else(|_| vec!["id".into(), "title".into(), "year".into()]);
            vec![(
                FunctionBody::Sql {
                    query: format!("SELECT {} FROM {}", cols.join(", "), sig.inputs[0]),
                    dedup_key: None,
                },
                "projection of the relevant columns".into(),
            )]
        }
        StepTag::JoinTextView => vec![(
            FunctionBody::Sql {
                query: format!(
                    "SELECT * FROM {} JOIN {} ON {}.did = {}.did",
                    sig.inputs[0], sig.inputs[1], sig.inputs[0], sig.inputs[1]
                ),
                dedup_key: None,
            },
            "equi-join with the text view on did".into(),
        )],
        StepTag::JoinImageView => vec![(
            FunctionBody::Sql {
                query: format!(
                    "SELECT * FROM {} JOIN {} ON {}.vid = {}.vid",
                    sig.inputs[0], sig.inputs[1], sig.inputs[0], sig.inputs[1]
                ),
                dedup_key: None,
            },
            "equi-join with the scene view on vid".into(),
        )],
        StepTag::ConceptScore { term } => {
            let clarification = ctx.clarification_for(term).unwrap_or(term.as_str());
            let keywords = llm.generate_keywords(clarification);
            let noun = kath_parser::noun_form(term);
            vec![(
                FunctionBody::ConceptScore {
                    input: sig.inputs[0].clone(),
                    text_column: "chars".into(),
                    keywords,
                    output_column: format!("{noun}_score"),
                },
                format!("vector similarity between the keyword list and the plot text ({term})"),
            )]
        }
        StepTag::RecencyScore => {
            // Min/max come from sampled rows, as the paper's coder does.
            let (lo, hi) = ctx
                .catalog
                .get(&sig.inputs[0])
                .ok()
                .and_then(|t| {
                    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
                    t.for_each_in_column("year", |_, v| {
                        if let Some(year) = v.as_int() {
                            (lo, hi) = (lo.min(year), hi.max(year));
                        }
                        Ok(())
                    })
                    .ok()?;
                    (lo <= hi).then_some((lo, hi))
                })
                .unwrap_or((1970, 2026));
            let span = (hi - lo).max(1);
            let expr = if ctx.faults.reversed_recency {
                // The injected mistake of §4: higher score to older movies.
                format!("clamp01(({hi} - year) / {span}.0)")
            } else {
                format!("clamp01((year - {lo}) / {span}.0)")
            };
            vec![(
                FunctionBody::MapExpr {
                    input: sig.inputs[0].clone(),
                    expr,
                    output_column: "recency_score".into(),
                },
                "normalized release-year recency".into(),
            )]
        }
        StepTag::CombineScores => {
            // The paper's weights: 0.7 · excitement + 0.3 · recency (Fig. 5).
            let score_col = ctx
                .catalog
                .get(&sig.inputs[0])
                .ok()
                .and_then(|t| {
                    t.schema()
                        .names()
                        .iter()
                        .find(|n| n.ends_with("_score") && **n != "recency_score")
                        .map(|s| s.to_string())
                })
                .unwrap_or_else(|| "excitement_score".into());
            vec![(
                FunctionBody::MapExpr {
                    input: sig.inputs[0].clone(),
                    expr: format!("0.7 * {score_col} + 0.3 * recency_score"),
                    output_column: "final_score".into(),
                },
                "weighted sum: 0.7 * excitement + 0.3 * recency".into(),
            )]
        }
        StepTag::VisualClassify { term } => {
            let make = |implementation, note: &str| {
                (
                    FunctionBody::VisualClassify {
                        input: sig.inputs[0].clone(),
                        uri_column: "pixels".into(),
                        output_column: term.clone(),
                        implementation,
                        threshold: 0.5,
                        convert_unsupported: false,
                    },
                    note.to_string(),
                )
            };
            vec![
                make(
                    VisionImpl::VlmAccurate,
                    "accurate VLM over poster descriptors",
                ),
                make(
                    VisionImpl::Cascade,
                    "cheap VLM with escalation to the accurate one",
                ),
                make(VisionImpl::VlmCheap, "cheap VLM only"),
                make(
                    VisionImpl::Ocr,
                    "OCR-based implementation (Tesseract-style)",
                ),
            ]
        }
        StepTag::FilterFlag { term, keep } => vec![(
            FunctionBody::FilterExpr {
                input: sig.inputs[0].clone(),
                predicate: format!("{term} = {}", if *keep { "TRUE" } else { "FALSE" }),
            },
            format!(
                "keep rows whose poster is {}{term}",
                if *keep { "" } else { "not " }
            ),
        )],
        StepTag::JoinScores => vec![(
            // The score side leads so the surviving `lid` column is the
            // combined-score tuple's lid — the lid Fig. 5 explains.
            FunctionBody::Sql {
                query: format!(
                    "SELECT * FROM {} JOIN {} ON {}.id = {}.id",
                    sig.inputs[0], sig.inputs[1], sig.inputs[0], sig.inputs[1]
                ),
                dedup_key: None,
            },
            "join the score table with the flag table on the movie id".into(),
        )],
        StepTag::FinalRank => {
            let score = if ctx
                .catalog
                .get(&sig.inputs[0])
                .map(|t| t.schema().index_of("final_score").is_some())
                .unwrap_or(false)
            {
                "final_score"
            } else {
                "excitement_score"
            };
            let from = &sig.inputs[0];
            let query = if sig.inputs.len() > 1 {
                format!(
                    "SELECT * FROM {} JOIN {} ON {}.id = {}.id ORDER BY {score} DESC",
                    sig.inputs[1], from, sig.inputs[1], from
                )
            } else {
                format!("SELECT * FROM {from} ORDER BY {score} DESC")
            };
            vec![(
                FunctionBody::Sql {
                    query,
                    dedup_key: None,
                },
                "produce the final ranked list".into(),
            )]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_fao::FunctionSignature;
    use kath_model::TokenMeter;
    use kath_storage::{DataType, Schema, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(Table::new(
            "movie_table",
            Schema::of(&[
                ("id", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("did", DataType::Int),
                ("vid", DataType::Int),
                ("internal_notes", DataType::Str),
            ]),
        ))
        .unwrap();
        let mut scored = Table::new(
            "films_with_recency",
            Schema::of(&[
                ("id", DataType::Int),
                ("year", DataType::Int),
                ("excitement_score", DataType::Float),
                ("recency_score", DataType::Float),
            ]),
        );
        scored
            .push(vec![1i64.into(), 1991i64.into(), 0.9.into(), 0.8.into()])
            .unwrap();
        c.register(scored).unwrap();
        c
    }

    fn node(tag: StepTag, name: &str, inputs: Vec<&str>, output: &str) -> LogicalNode {
        LogicalNode {
            signature: FunctionSignature::new(
                name,
                "desc",
                inputs.into_iter().map(String::from).collect(),
                output,
            ),
            tag,
            prewritten: false,
        }
    }

    fn llm() -> SimLlm {
        SimLlm::new(42, TokenMeter::new())
    }

    #[test]
    fn select_columns_reads_schema_and_drops_noise() {
        let cat = catalog();
        let ctx = CoderContext {
            catalog: &cat,
            clarifications: &[],
            faults: CoderFaults::default(),
        };
        let n = node(
            StepTag::SelectColumns,
            "select_movie_columns",
            vec!["movie_table"],
            "movie_columns",
        );
        let bodies = synthesize(&n, &ctx, &llm());
        let FunctionBody::Sql { query, .. } = &bodies[0].0 else {
            panic!()
        };
        assert!(query.contains("id, title, year, did, vid"));
        assert!(!query.contains("internal_notes"));
    }

    #[test]
    fn concept_score_uses_the_clarification_keywords() {
        let cat = catalog();
        let clar = vec![(
            "exciting".to_string(),
            "scenes that are uncommon in real life".to_string(),
        )];
        let ctx = CoderContext {
            catalog: &cat,
            clarifications: &clar,
            faults: CoderFaults::default(),
        };
        let n = node(
            StepTag::ConceptScore {
                term: "exciting".into(),
            },
            "gen_excitement_score",
            vec!["films_with_text"],
            "films_with_excitement",
        );
        let bodies = synthesize(&n, &ctx, &llm());
        let FunctionBody::ConceptScore {
            keywords,
            output_column,
            ..
        } = &bodies[0].0
        else {
            panic!()
        };
        assert!(keywords.contains(&"gun".to_string()));
        assert_eq!(output_column, "excitement_score");
    }

    #[test]
    fn recency_reads_year_range_and_fault_reverses_it() {
        let cat = catalog();
        let mut ctx = CoderContext {
            catalog: &cat,
            clarifications: &[],
            faults: CoderFaults::default(),
        };
        let n = node(
            StepTag::RecencyScore,
            "gen_recency_score",
            vec!["films_with_recency"],
            "o",
        );
        let good = synthesize(&n, &ctx, &llm());
        let FunctionBody::MapExpr { expr, .. } = &good[0].0 else {
            panic!()
        };
        assert!(expr.contains("year -") || expr.contains("(year"), "{expr}");
        ctx.faults.reversed_recency = true;
        let bad = synthesize(&n, &ctx, &llm());
        let FunctionBody::MapExpr { expr: bad_expr, .. } = &bad[0].0 else {
            panic!()
        };
        assert_ne!(expr, bad_expr);
        assert!(bad_expr.contains("- year"), "{bad_expr}");
    }

    #[test]
    fn visual_classify_offers_four_physical_alternatives() {
        let cat = catalog();
        let ctx = CoderContext {
            catalog: &cat,
            clarifications: &[],
            faults: CoderFaults::default(),
        };
        let n = node(
            StepTag::VisualClassify {
                term: "boring".into(),
            },
            "classify_boring",
            vec!["films_with_image_scene"],
            "films_with_boring_flag",
        );
        let bodies = synthesize(&n, &ctx, &llm());
        assert_eq!(bodies.len(), 4);
        let impls: Vec<VisionImpl> = bodies
            .iter()
            .map(|(b, _)| match b {
                FunctionBody::VisualClassify { implementation, .. } => *implementation,
                _ => panic!(),
            })
            .collect();
        assert!(impls.contains(&VisionImpl::VlmAccurate));
        assert!(impls.contains(&VisionImpl::Ocr));
        assert!(impls.contains(&VisionImpl::Cascade));
    }

    #[test]
    fn combine_finds_the_companion_score_column() {
        let cat = catalog();
        let ctx = CoderContext {
            catalog: &cat,
            clarifications: &[],
            faults: CoderFaults::default(),
        };
        let n = node(
            StepTag::CombineScores,
            "combine_score",
            vec!["films_with_recency"],
            "films_with_final_score",
        );
        let bodies = synthesize(&n, &ctx, &llm());
        let FunctionBody::MapExpr { expr, .. } = &bodies[0].0 else {
            panic!()
        };
        assert_eq!(expr, "0.7 * excitement_score + 0.3 * recency_score");
    }
}

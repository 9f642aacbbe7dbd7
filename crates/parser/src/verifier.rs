//! The agentic plan verifier.
//!
//! "A verifier then reads the draft plan with the initial sample data … if
//! this snapshot is enough to judge correctness, it approves, otherwise it
//! identifies specific relations for which it needs additional information,
//! invokes the tool user, which owns a small set of database utilities
//! (e.g., rows sampler, joinability tester …). Once the verifier is
//! satisfied … it forwards the logical plan to the query optimizer,
//! otherwise it sends hints and the draft plan back to the writer" (§4).

use crate::logical::LogicalPlan;
use kath_storage::Catalog;
use std::collections::HashSet;

/// One verification check with its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it passed.
    pub passed: bool,
    /// Human-readable detail (becomes the hint on failure).
    pub detail: String,
}

/// The verifier's report.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifierReport {
    /// Whether the plan was approved.
    pub approved: bool,
    /// Every check performed (over all rounds).
    pub checks: Vec<Check>,
    /// How many database-utility invocations the tool user made.
    pub tool_invocations: usize,
    /// Writer⇄verifier rounds used.
    pub rounds: u32,
}

impl VerifierReport {
    /// The hints produced by failed checks.
    pub fn hints(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.detail.as_str())
            .collect()
    }
}

/// The plan verifier with its tool user.
pub struct PlanVerifier<'a> {
    catalog: &'a Catalog,
    /// Rows the tool user samples per relation.
    pub sample_size: usize,
    /// Maximum writer⇄verifier rounds before giving up.
    pub max_rounds: u32,
}

impl<'a> PlanVerifier<'a> {
    /// Builds a verifier over the system catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            sample_size: 3,
            max_rounds: 3,
        }
    }

    /// Runs the writer⇄verifier loop: verifies, lets the (simulated) writer
    /// repair resolvable problems (misspelled input names), and re-verifies.
    /// Returns the (possibly revised) plan and the full report.
    pub fn verify(&self, mut plan: LogicalPlan) -> (LogicalPlan, VerifierReport) {
        let mut all_checks = Vec::new();
        let mut tool_invocations = 0usize;
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            let (checks, tools) = self.run_checks(&plan);
            tool_invocations += tools;
            let failed: Vec<Check> = checks.iter().filter(|c| !c.passed).cloned().collect();
            all_checks.extend(checks);
            if failed.is_empty() {
                return (
                    plan,
                    VerifierReport {
                        approved: true,
                        checks: all_checks,
                        tool_invocations,
                        rounds,
                    },
                );
            }
            if rounds >= self.max_rounds {
                return (
                    plan,
                    VerifierReport {
                        approved: false,
                        checks: all_checks,
                        tool_invocations,
                        rounds,
                    },
                );
            }
            // Writer round: repair what the hints make repairable.
            let mut repaired_any = false;
            for check in &failed {
                if let Some(bad) = check.detail.strip_prefix("unknown input '") {
                    let bad_name = bad.split('\'').next().unwrap_or("").to_string();
                    if let Some(fix) = self.closest_name(&bad_name, &plan) {
                        for node in plan.nodes.iter_mut() {
                            for input in node.signature.inputs.iter_mut() {
                                if *input == bad_name {
                                    *input = fix.clone();
                                    repaired_any = true;
                                }
                            }
                        }
                    }
                }
            }
            if !repaired_any {
                return (
                    plan,
                    VerifierReport {
                        approved: false,
                        checks: all_checks,
                        tool_invocations,
                        rounds,
                    },
                );
            }
        }
    }

    fn run_checks(&self, plan: &LogicalPlan) -> (Vec<Check>, usize) {
        let mut checks = Vec::new();
        let mut tools = 0usize;

        // Known datasources: catalog tables + node outputs (in order).
        let mut known: HashSet<String> = self
            .catalog
            .table_names()
            .into_iter()
            .map(str::to_string)
            .collect();

        // 1. Output uniqueness.
        let mut outputs = HashSet::new();
        for node in &plan.nodes {
            let dup = !outputs.insert(node.signature.output.clone());
            checks.push(Check {
                name: format!("unique_output:{}", node.signature.name),
                passed: !dup && !node.signature.output.is_empty(),
                detail: if dup {
                    format!("duplicate output '{}'", node.signature.output)
                } else {
                    format!("output '{}' is unique", node.signature.output)
                },
            });
        }

        // 2. Input resolution in topological order. The pre-written
        // view-population node makes the multimodal views available.
        for node in &plan.nodes {
            if node.prewritten {
                known.insert(node.signature.output.clone());
                for v in [
                    "scene_objects",
                    "scene_relationships",
                    "scene_attributes",
                    "scene_frames",
                    "text_entities",
                    "text_mentions",
                    "text_relationships",
                    "text_attributes",
                    "text_texts",
                ] {
                    known.insert(v.to_string());
                }
                continue;
            }
            for input in &node.signature.inputs {
                let ok = known.contains(input);
                checks.push(Check {
                    name: format!("input_resolves:{}:{input}", node.signature.name),
                    passed: ok,
                    detail: if ok {
                        format!("input '{input}' resolves")
                    } else {
                        format!("unknown input '{input}' of node '{}'", node.signature.name)
                    },
                });
                // Tool user: sample base relations to confirm they are
                // non-degenerate (the "rows sampler" utility). A sample is
                // the table's first rows, so its size is a count.
                if let (true, Ok(table)) = (ok, self.catalog.get(input)) {
                    tools += 1;
                    let sample = table.len().min(self.sample_size);
                    checks.push(Check {
                        name: format!("sampled:{input}"),
                        passed: true,
                        detail: format!("sampled {sample} rows from '{input}'"),
                    });
                }
            }
            known.insert(node.signature.output.clone());
        }

        // 3. Joinability of the flagship joins, via the tool-user utility,
        // when both sides are base relations in the catalog.
        for (left, lcol, right, rcol) in [
            ("movie_table", "did", "text_texts", "did"),
            ("movie_table", "vid", "scene_frames", "vid"),
        ] {
            if self.catalog.contains(left) && self.catalog.contains(right) {
                tools += 1;
                match self.catalog.joinability(left, lcol, right, rcol) {
                    Ok(j) => {
                        let ok = j.key_overlap > 0.0;
                        checks.push(Check {
                            name: format!("joinable:{left}.{lcol}~{right}.{rcol}"),
                            passed: ok,
                            detail: format!(
                                "key overlap {:.2}, right side unique: {}",
                                j.key_overlap, j.right_unique
                            ),
                        });
                    }
                    Err(e) => checks.push(Check {
                        name: format!("joinable:{left}.{lcol}~{right}.{rcol}"),
                        passed: false,
                        detail: format!("joinability test failed: {e}"),
                    }),
                }
            }
        }

        (checks, tools)
    }

    /// The writer's repair heuristic: the known datasource with the closest
    /// name (shared prefix / substring), if any is convincingly close.
    fn closest_name(&self, bad: &str, plan: &LogicalPlan) -> Option<String> {
        let mut candidates: Vec<String> = self
            .catalog
            .table_names()
            .into_iter()
            .map(str::to_string)
            .collect();
        candidates.extend(plan.nodes.iter().map(|n| n.signature.output.clone()));
        candidates
            .into_iter()
            .filter(|c| c.contains(bad) || bad.contains(c.as_str()) || shared_prefix(c, bad) >= 5)
            .max_by_key(|c| shared_prefix(c, bad))
    }
}

fn shared_prefix(a: &str, b: &str) -> usize {
    a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::extract_intent;
    use crate::logical::generate_logical_plan;
    use crate::sketch::generate_sketch;
    use kath_model::{SimLlm, TokenMeter};
    use kath_storage::{DataType, Schema, Table};

    const FLAGSHIP: &str = "Sort the given films in the table by how exciting \
                            they are, but the poster should be 'boring'";

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let movies = Table::from_rows(
            "movie_table",
            Schema::of(&[
                ("id", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("did", DataType::Int),
                ("vid", DataType::Int),
            ]),
            vec![
                vec![
                    1i64.into(),
                    "Guilty by Suspicion".into(),
                    1991i64.into(),
                    1i64.into(),
                    1i64.into(),
                ],
                vec![
                    2i64.into(),
                    "Clean and Sober".into(),
                    1988i64.into(),
                    2i64.into(),
                    2i64.into(),
                ],
            ],
        )
        .unwrap();
        c.register(movies).unwrap();
        let texts = Table::from_rows(
            "text_texts",
            Schema::of(&[
                ("did", DataType::Int),
                ("lid", DataType::Int),
                ("chars", DataType::Str),
            ]),
            vec![
                vec![1i64.into(), 10i64.into(), "A gun fight.".into()],
                vec![2i64.into(), 11i64.into(), "A quiet day.".into()],
            ],
        )
        .unwrap();
        c.register(texts).unwrap();
        let frames = Table::from_rows(
            "scene_frames",
            Schema::of(&[
                ("vid", DataType::Int),
                ("fid", DataType::Int),
                ("lid", DataType::Int),
                ("pixels", DataType::Str),
            ]),
            vec![
                vec![
                    1i64.into(),
                    0i64.into(),
                    20i64.into(),
                    "file://p1.png".into(),
                ],
                vec![
                    2i64.into(),
                    0i64.into(),
                    21i64.into(),
                    "file://p2.png".into(),
                ],
            ],
        )
        .unwrap();
        c.register(frames).unwrap();
        c
    }

    fn good_plan() -> LogicalPlan {
        let llm = SimLlm::new(42, TokenMeter::new());
        let mut intent = extract_intent(FLAGSHIP, &llm);
        intent.concepts[0].clarification = Some("uncommon scenes".to_string());
        intent
            .extra_factors
            .push(crate::intent::ExtraFactor::Recency);
        let sketch = generate_sketch(&intent, &llm, 2);
        generate_logical_plan(&sketch, "movie_table")
    }

    #[test]
    fn good_plan_is_approved_with_tool_use() {
        let cat = catalog();
        let verifier = PlanVerifier::new(&cat);
        let (plan, report) = verifier.verify(good_plan());
        assert!(report.approved, "hints: {:?}", report.hints());
        assert_eq!(report.rounds, 1);
        assert!(report.tool_invocations > 0);
        assert_eq!(plan.nodes.len(), 11);
        // Joinability checks ran against the base relations.
        assert!(report
            .checks
            .iter()
            .any(|c| c.name.starts_with("joinable:") && c.passed));
    }

    #[test]
    fn sampled_checks_count_what_the_rows_sampler_draws() {
        // A follow-up's catalog: the base relations and an intermediate the
        // previous question left, larger than a sample.
        let mut cat = catalog();
        let rows = (0..7i64).map(|i| vec![i.into()]).collect();
        let left = Table::from_rows("movie_columns", Schema::of(&[("id", DataType::Int)]), rows);
        cat.register(left.unwrap()).unwrap();
        let (_, report) = PlanVerifier::new(&cat).verify(good_plan());
        let sampled: Vec<&Check> = (report.checks.iter())
            .filter(|c| c.name.starts_with("sampled:"))
            .collect();
        assert!(sampled.iter().any(|c| c.name == "sampled:movie_columns"));
        for check in sampled {
            let name = &check.name["sampled:".len()..];
            let drawn = cat.sample_rows(name, 3).unwrap().len();
            let detail = format!("sampled {drawn} rows from '{name}'");
            assert_eq!((check.passed, &check.detail), (true, &detail));
        }
    }

    #[test]
    fn misspelled_input_is_repaired_by_the_writer_round() {
        let cat = catalog();
        let mut plan = good_plan();
        // Corrupt one input: "movie_tabel" (a typo an LLM writer could make).
        let idx = plan
            .nodes
            .iter()
            .position(|n| n.signature.name == "select_movie_columns")
            .unwrap();
        plan.nodes[idx].signature.inputs[0] = "movie_tabel".to_string();
        let verifier = PlanVerifier::new(&cat);
        let (repaired, report) = verifier.verify(plan);
        assert!(report.approved, "hints: {:?}", report.hints());
        assert!(report.rounds >= 2);
        assert_eq!(
            repaired
                .node("select_movie_columns")
                .unwrap()
                .signature
                .inputs[0],
            "movie_table"
        );
    }

    #[test]
    fn unresolvable_input_is_rejected_with_hints() {
        let cat = catalog();
        let mut plan = good_plan();
        let idx = plan
            .nodes
            .iter()
            .position(|n| n.signature.name == "select_movie_columns")
            .unwrap();
        plan.nodes[idx].signature.inputs[0] = "zzz_no_such_relation".to_string();
        let verifier = PlanVerifier::new(&cat);
        let (_plan, report) = verifier.verify(plan);
        assert!(!report.approved);
        assert!(!report.hints().is_empty());
        assert!(report.hints()[0].contains("unknown input"));
    }

    #[test]
    fn duplicate_outputs_are_rejected() {
        let cat = catalog();
        let mut plan = good_plan();
        let n = plan.nodes.len();
        plan.nodes[n - 1].signature.output = plan.nodes[n - 2].signature.output.clone();
        let verifier = PlanVerifier::new(&cat);
        let (_p, report) = verifier.verify(plan);
        assert!(!report.approved);
        assert!(report
            .hints()
            .iter()
            .any(|h| h.contains("duplicate output")));
    }

    #[test]
    fn empty_catalog_fails_base_relation_resolution() {
        let cat = Catalog::new();
        let verifier = PlanVerifier::new(&cat);
        let (_p, report) = verifier.verify(good_plan());
        assert!(!report.approved);
    }
}

//! Regenerates every table and figure of the KathDB paper.
//!
//! ```sh
//! cargo run -p kath-bench --bin paper_figures            # everything
//! cargo run -p kath-bench --bin paper_figures -- --fig6  # one artifact
//! ```
//!
//! Artifacts: `--table1 --table2 --table3 --fig2 --fig3 --fig4 --fig5 --fig6`.

use kath_bench::run_flagship_small;
use kath_json::to_string_pretty;
use kath_lineage::lineage_schema;
use kath_multimodal as mm;
use kath_storage::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |flag: &str| args.is_empty() || args.iter().any(|a| a == flag);

    // One flagship run powers Figs. 2-6.
    let (db, result, channel) = run_flagship_small();

    if want("--table1") {
        println!("== Table 1: relational representation of image/video content ==");
        println!("Objects{}", mm::objects_schema());
        println!("Relationships{}", mm::scene_relationships_schema());
        println!("Attributes{}", mm::scene_attributes_schema());
        println!("Frames{}\n", mm::frames_schema());
    }

    if want("--table2") {
        println!("== Table 2: relational representation of text content ==");
        println!("Entities{}", mm::entities_schema());
        println!("Mentions{}", mm::mentions_schema());
        println!("Relationships{}", mm::text_relationships_schema());
        println!("Attributes{}", mm::text_attributes_schema());
        println!("Texts{}\n", mm::texts_schema());
    }

    if want("--table3") {
        println!("== Table 3: unified provenance schema ==");
        println!("Lineage{}\n", lineage_schema());
    }

    if want("--fig2") {
        println!("== Fig. 2: example rows of the lineage table ==");
        let lineage = db.lineage_table().expect("lineage renders");
        // Show the root ingests plus the derivation of the top tuple.
        let lid = result.top_lid().expect("lids present");
        let trace = db.context().lineage.trace(lid).expect("trace");
        let interesting: Vec<i64> = trace.lids();
        let mut shown = Table::new("lineage_excerpt", lineage.schema().clone());
        for row in lineage.rows() {
            let this_lid = row[0].as_int().unwrap_or(-1);
            let is_root = row[1].is_null();
            if interesting.contains(&this_lid) || is_root {
                shown.push(row.clone()).unwrap();
            }
        }
        // Cap at a figure-sized excerpt.
        println!("{}", shown.sample(14).expect("resident rows").render());
        println!("(total lineage edges this session: {})\n", lineage.len());
    }

    if want("--fig3") {
        println!("== Fig. 3: function signature generated by the logical plan generator ==");
        let node = result
            .logical
            .node("classify_boring")
            .expect("classify_boring node");
        println!("{}\n", to_string_pretty(&node.signature.to_json()));
    }

    if want("--fig4") {
        println!("== Fig. 4: NL parser interactions in two modes ==");
        println!("-- Proactive clarification --");
        let transcript = channel.transcript();
        println!("KathDB: {}", transcript[0].0);
        println!("User:   {}", transcript[0].1);
        println!(
            "-- COT sketch (v1, {} steps) --",
            result.parse.history[0].len()
        );
        print!("{}", result.parse.history[0].render());
        println!("-- Reactive correction --");
        println!("User:   {}", transcript[1].1);
        println!("-- COT sketch (v2, {} steps) --", result.parse.sketch.len());
        print!("{}", result.parse.sketch.render());
        println!();
    }

    if want("--fig5") {
        println!("== Fig. 5: query explanations in two modes ==");
        println!("-- Coarse: \"Explain the pipeline?\" --");
        println!("{}", db.explain("Explain the pipeline?").unwrap());
        let lid = result.top_lid().expect("lids present");
        println!("-- Fine-grained: \"Explain tuple {lid}?\" --");
        println!("{}", db.explain(&format!("Explain tuple {lid}?")).unwrap());
    }

    if want("--fig6") {
        println!("== Fig. 6: example final output of KathDB ==");
        println!("{}", result.display_table().expect("display").render());
        println!(
            "simulated tokens: {} over {} model calls",
            db.token_usage().total(),
            db.token_usage().calls
        );
    }
}

//! The flagship pipeline end to end, printing every intermediate artifact
//! the paper's figures show: the clarification dialogue (Fig. 4), the sketch
//! versions, the logical plan in its exact JSON layout (Fig. 3), the
//! verifier report, the optimizer's selections, and the final table (Fig. 6).
//!
//! ```sh
//! cargo run --example movie_excitement
//! ```

use kath_data::mmqa_small;
use kath_json::to_string_pretty;
use kath_model::ScriptedChannel;
use kathdb::KathDB;

fn main() {
    let mut db = KathDB::new(42);
    db.load_corpus(&mmqa_small()).expect("corpus loads");

    let channel = ScriptedChannel::new([
        "The movie plot contains scenes that are uncommon in real life",
        "Oh I prefer a more recent movie as well when scoring",
        "OK",
    ]);
    let result = db
        .query(
            "Sort the given films in the table by how exciting they are, \
             but the poster should be 'boring'",
            channel.as_ref(),
        )
        .expect("query runs");

    println!("== Interaction transcript (Fig. 4) ==");
    for (question, reply) in channel.transcript() {
        let q = question.lines().next().unwrap_or(&question);
        println!("KathDB: {q}");
        if !reply.is_empty() {
            println!("User:   {reply}");
        }
    }

    println!("\n== Sketch versions ==");
    for sketch in &result.parse.history {
        println!("{}", sketch.render());
    }

    println!("== Logical plan (exact JSON layout, Fig. 3) ==");
    println!("{}", to_string_pretty(&result.logical.to_json()));

    println!("\n== Plan verification ==");
    println!(
        "approved: {} after {} round(s), {} tool invocation(s)",
        result.verification.approved,
        result.verification.rounds,
        result.verification.tool_invocations
    );

    println!("\n== Optimizer ==");
    for r in &result.compile.rewrites {
        println!("rewrite [{}]: {}", r.rule, r.detail);
    }
    for s in &result.compile.selections {
        println!(
            "selection: {} -> {} ({} candidates, cost {:.0}, accuracy {:.2})",
            s.func_id, s.chosen, s.candidates, s.cost, s.accuracy
        );
    }
    for c in &result.compile.critiques {
        println!(
            "critique: {} v{} -> v{} ({})",
            c.func_id, c.from_ver, c.to_ver, c.hint
        );
    }

    println!("\n== Execution ==");
    for t in &result.exec.timings {
        println!(
            "{:<24} {:>8.2} ms  {:>5} rows",
            t.func_id, t.elapsed_ms, t.rows_out
        );
    }

    println!("\n== Final result (Fig. 6) ==");
    println!("{}", result.display_table().expect("display").render());
}

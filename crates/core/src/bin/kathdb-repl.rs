//! `kathdb-repl` — the interactive shell for KathDB.
//!
//! The paper's thesis is iterative human-AI interaction; this binary is that
//! loop made concrete. It loads the MMQA-like corpus (or a generated one)
//! and accepts:
//!
//! - any natural-language query (the parser will ask clarification
//!   questions right here on stdin),
//! - `\sql <query>` — run raw SQL against the catalog (CREATE / INSERT /
//!   DROP are write-ahead logged when a durable directory is open),
//! - `\open <dir>` — open a durable database directory: crash recovery
//!   (newest valid snapshot + WAL replay), then WAL-logged mutations,
//! - `\checkpoint` — snapshot every table + the function registry,
//! - `\wal` — durability status (snapshot epoch, log records/bytes, what
//!   the last incremental checkpoint wrote vs reused, and the group-commit
//!   coordinator's fsync batching counters),
//! - `\begin` / `\commit` / `\rollback` — explicit transactions: mutations
//!   stage against the begin-time snapshot (visible to this shell's own
//!   SELECTs, invisible to concurrent sessions) and publish atomically as
//!   one framed WAL group at `\commit`,
//! - `\sessions` — how many concurrent [`kathdb::Session`] handles are
//!   live on this database (0 in a plain shell; programs open them via
//!   `KathDB::session()`),
//! - `\pool` — buffer-pool status (budget, residency, hit/miss/eviction
//!   counters, zone-map skips, dirty pages); `\pool <n>` re-budgets it,
//! - `\explain <question>` — NL questions over the last query's provenance,
//! - `\lineage` — the Table-3 lineage relation (tail),
//! - `\functions` — the versioned function registry,
//! - `\tables` — the catalog,
//! - `\tokens` — simulated token usage,
//! - `\batch <n>` — pin the execution batch size (unpinned is
//!   `\batch 1024`),
//! - `\threads <n>` / `\threads auto` — tune morsel-driven intra-query
//!   parallelism (results are identical at any setting),
//! - `\vindex` — vector-search status; `\vindex auto|off|flat|ivf` picks
//!   the access path for `ORDER BY SIMILARITY(col, 'text') DESC LIMIT k`
//!   (auto = cost model chooses exact Flat vs approximate IVF per query);
//!   `\vindex build <table> <column>` / `\vindex drop <table> <column>`
//!   warm up or discard a derived vector index,
//! - `\quit` (checkpoints first when a durable directory is open).
//!
//! ```sh
//! cargo run -p kathdb --bin kathdb-repl
//! echo 'help' | cargo run -p kathdb --bin kathdb-repl   # non-interactive
//! ```

use kath_data::{generate_corpus, mmqa_small, CorpusSpec};
use kath_model::StdioChannel;
use kath_storage::{ExecMode, VectorMode};
use kathdb::KathDB;
use std::io::{BufRead, Write};

/// Renders the vector access-path policy the way `\vindex` reports it.
fn vector_label(mode: VectorMode) -> &'static str {
    match mode {
        VectorMode::Auto => "auto (cost model picks flat vs ivf per query)",
        VectorMode::Off => "off (full-sort fallback plan)",
        VectorMode::Flat => "flat (exact linear scan)",
        VectorMode::Ivf => "ivf (approximate cluster probing)",
    }
}

/// Renders the active execution mode the way `\batch` reports it.
fn mode_label(mode: ExecMode) -> String {
    format!("batch size {}", mode.batch_size())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut db = KathDB::new(42);
    if let Some(pos) = args.iter().position(|a| a == "--movies") {
        let n: usize = args.get(pos + 1).and_then(|v| v.parse().ok()).unwrap_or(50);
        db.load_corpus(&generate_corpus(&CorpusSpec {
            movies: n,
            ..Default::default()
        }))
        .expect("corpus loads");
        println!("loaded a generated corpus of {n} movies");
    } else {
        db.load_corpus(&mmqa_small()).expect("corpus loads");
        println!("loaded the small MMQA-like corpus (6 movies)");
    }
    println!("KathDB repl — type an NL query, \\help for commands\n");

    let stdin = std::io::stdin();
    let channel = StdioChannel;
    loop {
        print!("kathdb> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line.split_once(' ').map(|(c, r)| (c, r.trim())) {
            _ if line == "\\quit" || line == "\\q" => break,
            _ if line == "\\help" || line == "help" => {
                println!(
                    "commands: \\sql <query> | \\begin | \\commit | \\rollback | \
                     \\sessions | \\open <dir> | \\checkpoint | \\wal | \
                     \\pool [<pages>] | \\explain <question> | \\lineage | \
                     \\functions | \\tables | \\tokens | \\batch <n> | \
                     \\threads <n>|auto | \
                     \\vindex [auto|off|flat|ivf | build <t> <c> | drop <t> <c>] | \
                     \\timeout <ms>|off | \\faults <spec>|off|show | \\quit\n\
                     anything else is parsed as a natural-language query"
                );
            }
            _ if line == "\\lineage" => match db.lineage_table() {
                Ok(t) => {
                    let start = t.len().saturating_sub(15);
                    let mut tail = kath_storage::Table::new("lineage_tail", t.schema().clone());
                    for row in &t.rows()[start..] {
                        tail.push(row.clone()).expect("row copy");
                    }
                    println!("{}", tail.render());
                    println!("({} edges total)", t.len());
                }
                Err(e) => println!("error: {e}"),
            },
            _ if line == "\\functions" => {
                for name in db.registry().names() {
                    let entry = db.registry().get(name).expect("listed");
                    for v in &entry.versions {
                        let active = if v.ver_id == entry.active { "*" } else { " " };
                        println!(
                            "{active} {name} v{} [{}]: {}",
                            v.ver_id,
                            v.note,
                            v.body.summarize()
                        );
                    }
                }
            }
            _ if line == "\\tables" => {
                print!("{}", db.context().catalog.describe());
            }
            _ if line == "\\tokens" => {
                let u = db.token_usage();
                println!(
                    "{} prompt + {} completion tokens over {} calls",
                    u.prompt_tokens, u.completion_tokens, u.calls
                );
            }
            Some(("\\sql", rest)) if !rest.is_empty() => {
                // SELECTs are read-only; mutations are validated, then
                // write-ahead logged (when a durable dir is open), then
                // applied to the live catalog.
                match db.sql(rest) {
                    Ok(t) => println!("{}", t.render()),
                    Err(e) => println!("sql error: {e}"),
                }
            }
            _ if line == "\\begin" => match db.begin() {
                Ok(()) => println!(
                    "transaction open: mutations stage until \\commit \
                     (SELECTs here see them; other sessions do not)"
                ),
                Err(e) => println!("begin failed: {e}"),
            },
            _ if line == "\\commit" => match db.commit() {
                Ok(n) => println!("committed {n} record(s) as one durable WAL group"),
                Err(e) => println!("commit failed: {e}"),
            },
            _ if line == "\\rollback" => match db.rollback() {
                Ok(n) => println!("rolled back: {n} staged record(s) discarded"),
                Err(e) => println!("rollback failed: {e}"),
            },
            _ if line == "\\sessions" => {
                let n = db.sessions();
                let txn = if db.in_transaction() {
                    " — this shell has a transaction open"
                } else {
                    ""
                };
                println!("{n} concurrent session handle(s) live{txn}");
            }
            Some(("\\open", rest)) if !rest.is_empty() => match db.open_dir(rest) {
                Ok(info) => {
                    println!(
                        "opened {rest}: {} table(s) from snapshot {}, {} wal record(s) replayed",
                        info.snapshot_tables, info.snapshot_epoch, info.wal_replayed
                    );
                }
                Err(e) => println!("open failed: {e}"),
            },
            _ if line == "\\checkpoint" => match db.checkpoint() {
                Ok(epoch) => {
                    print!("checkpoint written: snapshot epoch {epoch}");
                    if let Some(c) = db.durability_status().and_then(|s| s.last_checkpoint) {
                        print!(
                            " ({} page(s) written, {} reused, {} of {} bytes)",
                            c.pages_written, c.pages_reused, c.bytes_written, c.bytes_total
                        );
                    }
                    println!();
                }
                Err(e) => println!("checkpoint failed: {e}"),
            },
            _ if line == "\\wal" => match db.durability_status() {
                Some(s) => {
                    println!(
                        "durable dir {} — snapshot epoch {}, {} wal record(s) ({} bytes) since",
                        s.dir.display(),
                        s.snapshot_epoch,
                        s.wal_records,
                        s.wal_bytes
                    );
                    if s.group_fsyncs > 0 {
                        println!(
                            "group commit: {} commit(s) over {} fsync(s) \
                             (mean group size {:.2})",
                            s.group_commits,
                            s.group_fsyncs,
                            s.group_commits as f64 / s.group_fsyncs as f64
                        );
                    }
                    if let Some(c) = s.last_checkpoint {
                        println!(
                            "last checkpoint: epoch {} — {} table(s), {} page(s) written, \
                             {} reused, {} of {} bytes",
                            c.epoch,
                            c.tables,
                            c.pages_written,
                            c.pages_reused,
                            c.bytes_written,
                            c.bytes_total
                        );
                    }
                }
                None => println!("no durable directory open; use \\open <dir>"),
            },
            _ if line == "\\pool" => {
                let p = db.pool_status();
                println!(
                    "buffer pool: {}/{} page(s) resident (~{} bytes), {} dirty page(s), \
                     {} unsaved open row(s)",
                    p.resident_pages,
                    p.budget_pages,
                    p.resident_bytes,
                    db.dirty_pages(),
                    db.unsaved_open_rows()
                );
                println!(
                    "counters: {} hit(s), {} miss(es), {} eviction(s), {} zone-map skip(s)",
                    p.hits, p.misses, p.evictions, p.zone_skips
                );
            }
            Some(("\\pool", rest)) if !rest.is_empty() => match rest.parse::<usize>() {
                Ok(pages) => {
                    db.set_pool_budget(pages);
                    let p = db.pool_status();
                    println!(
                        "buffer pool re-budgeted to {} page(s); {} resident",
                        p.budget_pages, p.resident_pages
                    );
                }
                Err(_) => println!("usage: \\pool            show buffer-pool status\n       \\pool <pages>    re-budget the pool (results identical at any size)"),
            },
            Some(("\\explain", rest)) if !rest.is_empty() => match db.explain(rest) {
                Ok(text) => println!("{text}"),
                Err(e) => println!("error: {e}"),
            },
            _ if line == "\\batch" => {
                println!("execution mode: {}", mode_label(db.exec_mode()));
            }
            Some(("\\batch", rest)) if !rest.is_empty() => match rest.parse::<usize>() {
                Ok(n) if n > 0 => {
                    db.set_exec_mode(ExecMode::Batched(n));
                    println!("execution mode: {}", mode_label(db.exec_mode()));
                }
                _ => println!("usage: \\batch <rows>"),
            },
            _ if line == "\\threads" => {
                println!("parallelism: {} worker(s)", db.threads());
            }
            Some(("\\threads", rest)) if !rest.is_empty() => match rest {
                "auto" => {
                    db.auto_parallelism();
                    println!("parallelism: auto (currently {} worker(s))", db.threads());
                }
                n => match n.parse::<usize>() {
                    Ok(n) if n > 0 => {
                        db.set_parallelism(n);
                        println!("parallelism: {} worker(s)", db.threads());
                    }
                    _ => println!("usage: \\threads <workers> | \\threads auto"),
                },
            },
            _ if line == "\\vindex" => {
                println!("vector access path: {}", vector_label(db.vector_mode()));
                let status = db.vector_index_status();
                if status.is_empty() {
                    println!("no derived vector indexes (they build on first similarity query)");
                } else {
                    for (table, column, scored, unscored) in status {
                        println!("  {table}.{column}: {scored} indexed, {unscored} unscored");
                    }
                }
            }
            Some(("\\vindex", rest)) if !rest.is_empty() => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                match parts.as_slice() {
                    ["auto"] => db.set_vector_mode(VectorMode::Auto),
                    ["off"] => db.set_vector_mode(VectorMode::Off),
                    ["flat"] => db.set_vector_mode(VectorMode::Flat),
                    ["ivf"] => db.set_vector_mode(VectorMode::Ivf),
                    ["build", table, column] => match db.build_vector_index(table, column) {
                        Ok((scored, unscored)) => println!(
                            "built vector index on {table}.{column}: \
                             {scored} indexed, {unscored} unscored"
                        ),
                        Err(e) => println!("vindex build failed: {e}"),
                    },
                    ["drop", table, column] => {
                        if db.drop_vector_index(table, column) {
                            println!("dropped vector index on {table}.{column}");
                        } else {
                            println!("no vector index on {table}.{column}");
                        }
                    }
                    _ => println!(
                        "usage: \\vindex [auto|off|flat|ivf | build <table> <column> | \
                         drop <table> <column>]"
                    ),
                }
                if matches!(parts.as_slice(), ["auto" | "off" | "flat" | "ivf"]) {
                    println!("vector access path: {}", vector_label(db.vector_mode()));
                }
            }
            _ if line == "\\timeout" => match db.query_timeout() {
                Some(t) => println!("query timeout: {} ms", t.as_millis()),
                None => println!("query timeout: off"),
            },
            Some(("\\timeout", rest)) if !rest.is_empty() => match rest {
                "off" => {
                    db.set_query_timeout(None);
                    println!("query timeout: off");
                }
                n => match n.parse::<u64>() {
                    Ok(ms) => {
                        db.set_query_timeout(Some(std::time::Duration::from_millis(ms)));
                        println!(
                            "query timeout: {ms} ms (queries past it abort with a \
                             'query cancelled' error)"
                        );
                    }
                    Err(_) => println!("usage: \\timeout <ms> | \\timeout off"),
                },
            },
            _ if line == "\\faults" || line == "\\faults show" => {
                let (backend, stats) = db.fault_status();
                println!("io backend: {backend}");
                if let Some(s) = stats {
                    println!(
                        "  {} eligible op(s) seen, {} fault(s) injected",
                        s.ops, s.injected
                    );
                }
            }
            Some(("\\faults", rest)) if !rest.is_empty() => match rest {
                "off" => {
                    db.clear_faults();
                    println!("fault injection off (real io backend)");
                }
                "show" => {
                    let (backend, stats) = db.fault_status();
                    println!("io backend: {backend}");
                    if let Some(s) = stats {
                        println!(
                            "  {} eligible op(s) seen, {} fault(s) injected",
                            s.ops, s.injected
                        );
                    }
                }
                spec => match kath_storage::FaultPlan::parse(spec) {
                    Ok(plan) => {
                        db.install_faults(plan);
                        println!(
                            "fault injection on: {} (test-only; \\faults off to disable)",
                            db.fault_status().0
                        );
                    }
                    Err(e) => println!(
                        "bad fault spec: {e}\n\
                         usage: \\faults seed=<n>,p=<f>[,kinds=a|b][,ops=x|y][,at=<n>:<kind>]\
                         [,max=<n>] | \\faults off | \\faults show"
                    ),
                },
            },
            _ if line.starts_with('\\') => {
                println!("unknown command {line}; \\help lists commands");
            }
            _ => match db.query(line, &channel) {
                Ok(result) => {
                    match result.display_table() {
                        Ok(table) => println!("{}", table.render()),
                        Err(e) => println!("error: {e}"),
                    }
                    println!(
                        "plan timings ({}, {} worker(s)):",
                        mode_label(db.context().exec_mode),
                        db.context().threads
                    );
                    for t in &result.exec.timings {
                        let parallel = if t.workers > 1 {
                            format!("  [{}w, merge {:.2} ms]", t.workers, t.merge_ms)
                        } else {
                            String::new()
                        };
                        let reused = if t.reused { "  [reused]" } else { "" };
                        println!(
                            "  {:<28} {:>9.2} ms  {:>6} rows  {:>4} batches{}{}",
                            t.func_id,
                            t.elapsed_ms,
                            t.rows_out,
                            t.batches_out,
                            parallel,
                            reused
                        );
                    }
                    if !result.exec.repairs.is_empty() {
                        println!(
                            "({} repair(s) performed during execution — \\functions shows versions)",
                            result.exec.repairs.len()
                        );
                    }
                    println!(
                        "ask \\explain explain the pipeline — or \\explain explain tuple <lid>"
                    );
                }
                Err(e) => println!("query failed: {e}"),
            },
        }
    }
    if db.durability_status().is_some() {
        match db.close() {
            Ok(()) => println!("(checkpointed durable state)"),
            Err(e) => println!("(close failed: {e})"),
        }
    }
    println!("bye");
}

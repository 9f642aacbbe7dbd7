//! KathDB query optimizer (§2.2, §4).
//!
//! Translates a verified logical plan into a low-cost physical plan: the
//! *coder* writes structured function bodies from node specs and sampled
//! rows, the *profiler* executes them on samples to record runtime/token
//! cost, the *critic* checks semantic direction and sends corrective hints
//! back to the coder, and the selector picks the cheapest implementation
//! meeting the accuracy floor. Logical rewrites (predicate pushdown, dead
//! node elimination) run first.

#![warn(missing_docs)]

mod coder;
mod compile;
mod cost;
mod rewrite;

pub use coder::{synthesize, CoderContext, CoderFaults};
pub use compile::{compile, CompileOptions, CompileReport, CritiqueEvent, SelectionEvent};
pub use cost::{
    choose_strategy, estimate_function, estimate_function_in_mode, estimate_function_over,
    fanned_out_ms, preferred_exec_mode, preferred_fanout_capped, preferred_parallelism,
    preferred_parallelism_capped, relational_overhead_ms, strategy_capped, CostEstimate,
    StrategyPins, BATCH_OVERHEAD_MS, PAGE_DECODE_MS, ROW_OVERHEAD_MS, VALUE_TOUCH_MS,
    WORKER_STARTUP_MS,
};
pub use rewrite::{eliminate_dead_nodes, predicate_pushdown, rewrite_plan, RewriteEvent};

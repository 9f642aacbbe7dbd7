//! The benchmark's declarations: workload names and every metric with its
//! unit and direction. `BENCHMARK.json` at the repository root lists the
//! same names; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const WORKLOADS: [&str; 4] = ["nl_flagship", "sql_resident", "sql_paged", "durable_mixed"];

/// What a user of the system sees. Every workload reports every one of
/// these, measured with tracing off, and none is ever zero.
pub const END_TO_END: [MetricSpec; 5] = [
    lower("setup_s", "s"),
    lower("op_p50_ms", "ms"),
    lower("op_p90_ms", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers, measured by the traced run. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [MetricSpec; 86] = [
    // The untraced half of the traced run: user-visible numbers that only
    // one workload has, so they cannot be end-to-end metrics of all four.
    lower("read_p50_ms", "ms"),
    lower("read_p95_ms", "ms"),
    lower("write_p50_ms", "ms"),
    lower("write_p95_ms", "ms"),
    lower("checkpoint_p50_ms", "ms"),
    lower("recovery_p50_ms", "ms"),
    lower("tokens_per_op", "count"),
    lower("wal_bytes_per_user_byte", "ratio"),
    lower("stored_bytes_per_user_byte", "ratio"),
    lower("failed_share", "ratio"),
    lower("trace_overhead", "ratio"),
    lower("trace.unattributed_share", "ratio"),
    // What the host did to the run: the speed probe's median, stolen vCPU
    // time over wall time, wall time over time at the reference speed, and
    // throughput by the wall clock.
    lower("host.probe_us", "us"),
    lower("host.stolen_share", "ratio"),
    lower("host.slowdown", "ratio"),
    higher("wall.ops_per_s", "1/s"),
    // parser
    lower("parser.parse_ms", "ms"),
    lower("parser.plan_verify_ms", "ms"),
    lower("parser.clarifications", "count"),
    // optimizer
    lower("optimizer.compile_ms", "ms"),
    lower("optimizer.candidates", "count"),
    lower("optimizer.model_calls", "count"),
    // exec / fao / multimodal
    lower("exec.run_ms", "ms"),
    lower("exec.populate_views_ms", "ms"),
    lower("exec.semantic_nodes_ms", "ms"),
    lower("exec.relational_nodes_ms", "ms"),
    lower("exec.slowest_node_share", "ratio"),
    lower("exec.repairs", "count"),
    higher("exec.rows_out", "count"),
    // model
    lower("model.calls_per_op", "count"),
    lower("model.tokens_per_op", "count"),
    lower("model.us_per_call", "us"),
    // lineage
    lower("lineage.rows_per_op", "count"),
    lower("lineage.rows_at_q4", "count"),
    lower("lineage.q4_over_q1", "ratio"),
    // explain
    lower("explain.pipeline_ms", "ms"),
    lower("explain.tuple_ms", "ms"),
    // core (facade)
    lower("core.load_corpus_ms", "ms"),
    lower("core.facade_overhead_ms", "ms"),
    // sql
    lower("sql.parse_us", "us"),
    lower("sql.select_ms.scan_sel01", "ms"),
    lower("sql.select_ms.scan_sel50", "ms"),
    lower("sql.select_ms.agg_group", "ms"),
    lower("sql.select_ms.sort_limit", "ms"),
    lower("sql.select_ms.join_probe", "ms"),
    lower("sql.select_ms.vector_topk", "ms"),
    higher("sql.compiled_share", "ratio"),
    lower("sql.compile_ms", "ms"),
    higher("sql.workers", "count"),
    lower("sql.worker_busy_ms", "ms"),
    lower("sql.merge_ms", "ms"),
    lower("sql.batches", "count"),
    lower("sql.rows_examined_per_row_returned", "ratio"),
    lower("sql.plan_mutation_us", "us"),
    lower("sql.apply_mutation_us", "us"),
    // storage: exec kernels
    lower("storage.scan.resident_ns_per_row", "ns"),
    lower("storage.expr.int_cmp_ns_per_row", "ns"),
    lower("storage.expr.arith_ns_per_row", "ns"),
    lower("storage.hash.build_ns_per_row", "ns"),
    lower("storage.hash.probe_ns_per_row", "ns"),
    lower("storage.agg.ns_per_row", "ns"),
    lower("storage.sort.ns_per_row", "ns"),
    lower("storage.merge.ns_per_row", "ns"),
    // storage: page codec + buffer pool
    lower("storage.page.decode_ns_per_value.for_int", "ns"),
    lower("storage.page.decode_ns_per_value.dict", "ns"),
    lower("storage.page.decode_ns_per_value.rle", "ns"),
    lower("storage.page.decode_ns_per_value.float", "ns"),
    lower("storage.page.decode_ns_per_value.raw", "ns"),
    lower("storage.page.encode_ns_per_value", "ns"),
    higher("storage.pool.hit_rate", "ratio"),
    lower("storage.pool.misses_per_round", "count"),
    lower("storage.pool.evictions_per_round", "count"),
    higher("storage.pool.zone_skips_per_round", "count"),
    lower("storage.pool.resident_bytes", "bytes"),
    // storage: wal / txn / durable
    lower("storage.txn.submit_self_us", "us"),
    lower("storage.txn.snapshot_ns", "ns"),
    lower("storage.wal.append_us", "us"),
    lower("storage.wal.sync_us", "us"),
    lower("storage.durable.fsyncs_per_write", "ratio"),
    lower("storage.durable.wal_bytes_per_write", "bytes"),
    lower("storage.durable.checkpoint_pages_written", "count"),
    higher("storage.durable.checkpoint_pages_reused", "count"),
    lower("storage.durable.checkpoint_bytes_written", "bytes"),
    lower("storage.durable.replay_us_per_record", "us"),
    // vector / vecindex
    lower("storage.vecindex.topk_us", "us"),
    lower("storage.vecindex.build_ms", "ms"),
];

/// The declaration of `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

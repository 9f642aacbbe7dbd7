//! The unified cost model (§1: "compare alternatives for the same sub-task
//! under a unified cost model, optimizing query accuracy and token cost").
//!
//! Profiled sample costs are extrapolated linearly to the row counts of the
//! catalog's full tables; relational pipelines add a per-row, per-batch and
//! cold-page term. The choice the executor makes by itself — Flat or IVF
//! (`kath_storage::preferred_vector_strategy`) — is priced where it is
//! decided, in `kath_storage`.

use kath_fao::{FunctionBody, FunctionRegistry};
use kath_storage::{Catalog, ExecMode, DEFAULT_BATCH_SIZE};

/// A cost estimate for one function or a whole plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostEstimate {
    /// Estimated simulated tokens.
    pub tokens: f64,
    /// Estimated runtime, milliseconds.
    pub runtime_ms: f64,
    /// Estimated accuracy in `[0,1]` (product over nodes).
    pub accuracy: f64,
}

impl CostEstimate {
    /// Scalar cost (same weighting as `ProfileStats::cost`).
    pub fn scalar(&self) -> f64 {
        self.tokens + self.runtime_ms / 1000.0
    }
}

/// Per-row overhead of the Volcano iterator protocol, in milliseconds: one
/// virtual `next()` dispatch plus per-row expression setup (name resolution,
/// `Value` matching) for every operator a row passes through.
pub const ROW_OVERHEAD_MS: f64 = 4e-4;

/// Per-batch overhead of batched execution, in milliseconds: one virtual
/// `next_batch()` dispatch plus columnar assembly per operator.
pub const BATCH_OVERHEAD_MS: f64 = 3e-3;

/// Per-value touch cost shared by both protocols, in milliseconds.
pub const VALUE_TOUCH_MS: f64 = 2e-5;

/// Estimated per-operator overhead of pushing `rows` rows through a
/// relational pipeline in the given execution mode. Volcano pays
/// [`ROW_OVERHEAD_MS`] per row; batched execution amortizes
/// [`BATCH_OVERHEAD_MS`] over each batch. Both pay [`VALUE_TOUCH_MS`] per
/// row. These per-batch vs per-row terms are what lets physical selection
/// prefer batched implementations as cardinality grows.
pub fn relational_overhead_ms(rows: usize, mode: ExecMode) -> f64 {
    let touch = rows as f64 * VALUE_TOUCH_MS;
    match mode {
        ExecMode::Volcano => touch + rows as f64 * ROW_OVERHEAD_MS,
        ExecMode::Batched(n) => {
            let n = n.max(1);
            let batches = rows.div_ceil(n).max(1);
            touch + batches as f64 * BATCH_OVERHEAD_MS
        }
    }
}

/// The cheaper execution mode for a pipeline over `rows` rows under the
/// model above, using the default batch size. Tiny inputs stay on the
/// Volcano path (a whole batch costs more than a handful of `next()`
/// calls); everything else runs batched.
pub fn preferred_exec_mode(rows: usize) -> ExecMode {
    let batched = ExecMode::Batched(DEFAULT_BATCH_SIZE);
    if relational_overhead_ms(rows, batched) < relational_overhead_ms(rows, ExecMode::Volcano) {
        batched
    } else {
        ExecMode::Volcano
    }
}

/// Fixed cost of enlisting one extra worker for a morsel-parallel pipeline,
/// in milliseconds: a scoped-thread spawn, its thread-local partial state,
/// and its share of the deterministic merge step. This startup term is what
/// keeps small pipelines serial — a worker must amortize its spawn over
/// enough morsels to pay for itself.
pub const WORKER_STARTUP_MS: f64 = 0.05;

/// Estimated wall-clock of `serial_ms` of divisible work split over
/// `workers`: the work divides across them; each worker past the first adds
/// [`WORKER_STARTUP_MS`]. `workers == 1` is `serial_ms` exactly.
pub fn fanned_out_ms(serial_ms: f64, workers: usize) -> f64 {
    let w = workers.max(1) as f64;
    serial_ms / w + (w - 1.0) * WORKER_STARTUP_MS
}

/// The cheapest worker count for `serial_ms` of divisible work, searched up
/// to `max_workers` (the host's cores, typically). The curve is convex —
/// per-worker startup cost against the divided win — so the argmin is the
/// break-even point the morsel literature predicts: 1 for small work,
/// rising with it. This is the rule for a profiled model-call node, whose
/// estimate ([`estimate_function`]) is per-row work that morsels divide;
/// [`preferred_parallelism_capped`] applies it to a relational pipeline.
pub fn preferred_fanout_capped(serial_ms: f64, max_workers: usize) -> usize {
    (1..=max_workers.max(1))
        .min_by(|a, b| fanned_out_ms(serial_ms, *a).total_cmp(&fanned_out_ms(serial_ms, *b)))
        .unwrap_or(1)
}

/// The cheapest degree of parallelism for `rows` rows in `mode`, searched
/// up to `max_workers`: [`preferred_fanout_capped`] of the pipeline's
/// serial overhead.
pub fn preferred_parallelism_capped(rows: usize, mode: ExecMode, max_workers: usize) -> usize {
    preferred_fanout_capped(relational_overhead_ms(rows, mode), max_workers)
}

/// [`preferred_parallelism_capped`] with the host's available parallelism
/// as the cap.
pub fn preferred_parallelism(rows: usize, mode: ExecMode) -> usize {
    preferred_parallelism_capped(rows, mode, kath_storage::host_parallelism())
}

/// What a handle pinned of a statement's physical strategy; a `None` half
/// is left to [`choose_strategy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrategyPins {
    /// The pinned execution mode (`ExecMode::Volcano` is the reference
    /// drive: it runs only under this pin).
    pub mode: Option<ExecMode>,
    /// The pinned worker count.
    pub threads: Option<usize>,
}

/// The one strategy rule: `(mode, workers)` for a statement or plan that
/// reads `input_rows` rows of its largest input and whose costliest
/// model-call node is estimated at `model_ms` (0 for plain SQL). The mode
/// is the pin, else the batch drive — never the row protocol by choice.
/// Workers are the pin, else 1 under a Volcano pin (that drive has no
/// morsels), else the larger of the break-even counts for the relational
/// pipeline and for the model calls, capped at the host's cores.
pub fn choose_strategy(pins: StrategyPins, input_rows: usize, model_ms: f64) -> (ExecMode, usize) {
    strategy_capped(pins, input_rows, model_ms, kath_storage::host_parallelism())
}

/// [`choose_strategy`] on a host of `cores` cores.
pub fn strategy_capped(
    pins: StrategyPins,
    input_rows: usize,
    model_ms: f64,
    cores: usize,
) -> (ExecMode, usize) {
    let mode = pins.mode.unwrap_or_default();
    let workers = pins.threads.unwrap_or_else(|| match mode {
        ExecMode::Volcano => 1,
        batched => preferred_parallelism_capped(input_rows, batched, cores)
            .max(preferred_fanout_capped(model_ms, cores)),
    });
    (mode, workers)
}

/// Milliseconds to decode one compressed column page into its in-memory
/// columnar form on a buffer-pool miss: CRC verification, dictionary /
/// run-length / bit-packing expansion, and the `ColumnVector` build. Pool
/// hits skip this entirely, so this constant prices the **cold** path — the
/// conservative bound physical selection should plan against.
pub const PAGE_DECODE_MS: f64 = 0.02;

/// Estimates the cost of executing a function's active version over its
/// full inputs, by scaling the sample profile linearly in input rows (model
/// calls in KathDB are per-row, so linear scaling is the right first-order
/// model). An input the catalog does not hold counts as the sample did.
pub fn estimate_function(
    registry: &FunctionRegistry,
    catalog: &Catalog,
    func_id: &str,
) -> Option<CostEstimate> {
    estimate_function_over(registry, catalog, func_id, None)
}

/// [`estimate_function`] for a node of a plan that has not run yet: an input
/// no earlier node has materialized is taken to have `pending_rows` rows —
/// the plan's largest materialized input, the cardinality the strategy rule
/// already reads — when the caller knows it, and the sample's otherwise.
pub fn estimate_function_over(
    registry: &FunctionRegistry,
    catalog: &Catalog,
    func_id: &str,
    pending_rows: Option<usize>,
) -> Option<CostEstimate> {
    let entry = registry.get(func_id).ok()?;
    let version = entry.active_version();
    let profile = version.profile.as_ref()?;
    let pending_rows = pending_rows.unwrap_or(profile.rows_in);
    let full_rows: usize = match &version.body {
        FunctionBody::ViewPopulate { .. } => profile.rows_in.max(1),
        body => body
            .inputs()
            .iter()
            .map(|t| catalog.get(t).map_or(pending_rows, |t| t.len()))
            .sum(),
    };
    let scale = if profile.rows_in == 0 {
        1.0
    } else {
        full_rows as f64 / profile.rows_in as f64
    };
    Some(CostEstimate {
        tokens: profile.tokens as f64 * scale,
        runtime_ms: profile.runtime_ms * scale,
        accuracy: profile.accuracy.unwrap_or(1.0),
    })
}

/// [`estimate_function`] plus the execution-mode-dependent relational
/// overhead for bodies that run an operator pipeline (SQL, map, filter),
/// priced serial and interpreted. Model-call bodies are mode-independent:
/// their per-row token cost dwarfs iteration overhead. Token cost and
/// accuracy are unaffected — the mode changes wall-clock, never results.
pub fn estimate_function_in_mode(
    registry: &FunctionRegistry,
    catalog: &Catalog,
    func_id: &str,
    mode: ExecMode,
) -> Option<CostEstimate> {
    let mut est = estimate_function(registry, catalog, func_id)?;
    let entry = registry.get(func_id).ok()?;
    let body = &entry.active_version().body;
    if body.calls_model() {
        return Some(est);
    }
    let mut rows = 0usize;
    let mut cold_pages = 0usize;
    for name in body.inputs() {
        if let Ok(t) = catalog.get(&name) {
            rows += t.len();
            if let Some(pt) = t.paged() {
                // A pipeline over an input with a sealed part may have to
                // decode every column page of it on a cold buffer pool;
                // tail rows (and so never-sealed tables) contribute nothing
                // here.
                cold_pages += pt.page_count() * pt.schema().arity();
            }
        }
    }
    est.runtime_ms += relational_overhead_ms(rows, mode) + cold_pages as f64 * PAGE_DECODE_MS;
    Some(est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_fao::{FunctionSignature, ProfileStats};
    use kath_storage::{DataType, Schema, Table};

    fn setup() -> (FunctionRegistry, Catalog) {
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("f", "maps", vec!["t".into()], "o"),
            FunctionBody::MapExpr {
                input: "t".into(),
                expr: "x + 1".into(),
                output_column: "y".into(),
            },
            "initial",
        );
        registry
            .set_profile(
                "f",
                1,
                ProfileStats {
                    runtime_ms: 2.0,
                    tokens: 40,
                    rows_in: 4,
                    rows_out: 4,
                    accuracy: Some(0.9),
                },
            )
            .unwrap();
        let mut catalog = Catalog::new();
        let mut t = Table::new("t", Schema::of(&[("x", DataType::Int)]));
        for i in 0..100i64 {
            t.push(vec![i.into()]).unwrap();
        }
        catalog.register(t).unwrap();
        (registry, catalog)
    }

    #[test]
    fn linear_extrapolation_from_sample() {
        let (registry, catalog) = setup();
        let e = estimate_function(&registry, &catalog, "f").unwrap();
        // 100 rows / 4 sampled = 25x.
        assert!((e.tokens - 1000.0).abs() < 1e-9);
        assert!((e.runtime_ms - 50.0).abs() < 1e-9);
        assert_eq!(e.accuracy, 0.9);
        assert!(e.scalar() > 1000.0);
    }

    #[test]
    fn batched_overhead_beats_volcano_at_scale() {
        let volcano = relational_overhead_ms(100_000, ExecMode::Volcano);
        let batched = relational_overhead_ms(100_000, ExecMode::Batched(1024));
        assert!(
            batched < volcano / 5.0,
            "batched={batched}ms volcano={volcano}ms"
        );
        // Tiny batches pay their per-batch overhead almost per row and lose
        // to a big batch.
        let tiny = relational_overhead_ms(100_000, ExecMode::Batched(1));
        assert!(batched < tiny);
        assert_eq!(preferred_exec_mode(100_000), ExecMode::Batched(1024));
        // A one-row pipeline is not worth a batch.
        assert_eq!(preferred_exec_mode(1), ExecMode::Volcano);
    }

    #[test]
    fn parallelism_pays_at_scale_but_not_for_small_inputs() {
        let batched = ExecMode::Batched(1024);
        // 100k rows: four workers beat one by well over the startup cost.
        let serial = relational_overhead_ms(100_000, batched);
        let four = fanned_out_ms(serial, 4);
        assert!(four < serial / 2.0, "four={four}ms serial={serial}ms");
        assert!(preferred_parallelism_capped(100_000, batched, 8) > 1);
        // A handful of rows cannot amortize a thread spawn.
        assert_eq!(preferred_parallelism_capped(10, batched, 8), 1);
        // The cap is respected.
        assert!(preferred_parallelism_capped(10_000_000, batched, 4) <= 4);
        assert!(preferred_parallelism(100, batched) >= 1);
    }

    #[test]
    fn pins_win_and_a_volcano_pin_means_one_worker() {
        let pinned = StrategyPins {
            mode: Some(ExecMode::Batched(32)),
            threads: Some(6),
        };
        for rows in [0, 6, 1_000_000] {
            assert_eq!(
                strategy_capped(pinned, rows, 30.0, 2),
                (ExecMode::Batched(32), 6)
            );
        }
        let volcano = StrategyPins {
            mode: Some(ExecMode::Volcano),
            threads: None,
        };
        assert_eq!(
            strategy_capped(volcano, 1_000_000, 30.0, 8),
            (ExecMode::Volcano, 1)
        );
        // An explicit worker count survives even there (the drive ignores it).
        let both = StrategyPins {
            threads: Some(4),
            ..volcano
        };
        assert_eq!(strategy_capped(both, 6, 0.0, 8), (ExecMode::Volcano, 4));
    }

    #[test]
    fn no_pin_never_yields_volcano() {
        for rows in [0, 1, 6, 1_000_000] {
            for cores in [1, 2, 8] {
                let (mode, workers) = strategy_capped(StrategyPins::default(), rows, 0.0, cores);
                assert_eq!(mode, ExecMode::default(), "{rows} rows");
                assert!((1..=cores).contains(&workers), "{rows} rows, {cores} cores");
            }
            assert_eq!(
                choose_strategy(StrategyPins::default(), rows, 0.0).0,
                ExecMode::default()
            );
        }
        // A handful of rows stay on the calling thread.
        assert_eq!(strategy_capped(StrategyPins::default(), 6, 0.0, 8).1, 1);
    }

    #[test]
    fn row_term_and_model_term_combine_by_max_under_the_cap() {
        let free = StrategyPins::default();
        let mode = ExecMode::default();
        let workers = |rows, model_ms, cores| strategy_capped(free, rows, model_ms, cores).1;
        for (rows, model_ms) in [(6, 30.0), (1_000_000, 0.0), (1_000_000, 0.2), (5_000, 0.3)] {
            for cores in [1, 2, 4, 16] {
                let by_rows = preferred_parallelism_capped(rows, mode, cores);
                let by_model = preferred_fanout_capped(model_ms, cores);
                let got = workers(rows, model_ms, cores);
                assert_eq!(got, by_rows.max(by_model), "{rows} rows, {model_ms} ms");
                assert!(got <= cores);
            }
        }
        // Six rows alone want one worker; a 30 ms model node over them wants
        // every core; a million rows want more than the 0.2 ms node does.
        assert_eq!(workers(6, 0.0, 8), 1);
        assert_eq!(workers(6, 30.0, 8), 8);
        assert!(workers(1_000_000, 0.2, 16) > preferred_fanout_capped(0.2, 16));
    }

    #[test]
    fn fanout_follows_the_estimate_and_the_cap() {
        // Break-even: a second worker pays once the work exceeds twice its
        // startup cost.
        assert_eq!(preferred_fanout_capped(1.9 * WORKER_STARTUP_MS, 8), 1);
        assert_eq!(preferred_fanout_capped(2.1 * WORKER_STARTUP_MS, 2), 2);
        // 30 ms of model calls want every core offered, and no more.
        assert_eq!(preferred_fanout_capped(30.0, 2), 2);
        assert_eq!(preferred_fanout_capped(30.0, 8), 8);
        assert_eq!(preferred_fanout_capped(30.0, 0), 1);
        assert_eq!(fanned_out_ms(30.0, 1), 30.0);
        assert!((fanned_out_ms(30.0, 2) - (15.0 + WORKER_STARTUP_MS)).abs() < 1e-12);
    }

    #[test]
    fn mode_aware_estimate_adds_relational_overhead() {
        let (registry, catalog) = setup();
        let base = estimate_function(&registry, &catalog, "f").unwrap();
        let volcano =
            estimate_function_in_mode(&registry, &catalog, "f", ExecMode::Volcano).unwrap();
        let batched =
            estimate_function_in_mode(&registry, &catalog, "f", ExecMode::Batched(1024)).unwrap();
        assert!(volcano.runtime_ms > base.runtime_ms);
        assert!(batched.runtime_ms > base.runtime_ms);
        assert!(batched.runtime_ms < volcano.runtime_ms);
        assert_eq!(volcano.tokens, base.tokens);
    }

    #[test]
    fn paged_inputs_add_decode_cost() {
        let (mut registry, catalog) = setup();
        registry.register(
            FunctionSignature::new("q", "selects", vec!["t".into()], "o_sql"),
            FunctionBody::Sql {
                query: "SELECT x FROM t".into(),
                dedup_key: None,
            },
            "initial",
        );
        registry
            .set_profile(
                "q",
                1,
                ProfileStats {
                    runtime_ms: 2.0,
                    tokens: 0,
                    rows_in: 4,
                    rows_out: 4,
                    accuracy: Some(1.0),
                },
            )
            .unwrap();
        let batched = ExecMode::Batched(1024);
        let resident = estimate_function_in_mode(&registry, &catalog, "q", batched).unwrap();

        // Re-register the same table paged with tiny pages: same rows, but
        // the estimate must now carry a per-page decode term.
        let mut paged_catalog = Catalog::new();
        let t = catalog.get("t").unwrap();
        let paged = t.seal(paged_catalog.pool(), 16).unwrap();
        let pages = paged.paged().unwrap().page_count();
        assert!(pages > 1);
        paged_catalog.register(paged).unwrap();
        let cold = estimate_function_in_mode(&registry, &paged_catalog, "q", batched).unwrap();
        let expected_extra = pages as f64 * PAGE_DECODE_MS; // one Int column
        assert!(
            (cold.runtime_ms - resident.runtime_ms - expected_extra).abs() < 1e-9,
            "cold={} resident={} extra={}",
            cold.runtime_ms,
            resident.runtime_ms,
            expected_extra
        );
        assert_eq!(cold.tokens, resident.tokens);

        // A row inserted after the sealing sits in the tail: against the
        // same rows never sealed, the estimate differs by exactly the
        // sealed part's pages.
        let mut grown = (*paged_catalog.get("t").unwrap()).clone();
        grown.push(vec![1i64.into()]).unwrap();
        assert_eq!(grown.tail().len(), 1);
        let mut flat_catalog = Catalog::new();
        let flat = Table::from_rows("t", grown.schema().clone(), grown.rows().to_vec());
        flat_catalog.register(flat.unwrap()).unwrap();
        paged_catalog.register_or_replace(grown);
        let mixed = estimate_function_in_mode(&registry, &paged_catalog, "q", batched).unwrap();
        let flat = estimate_function_in_mode(&registry, &flat_catalog, "q", batched).unwrap();
        assert!((mixed.runtime_ms - flat.runtime_ms - expected_extra).abs() < 1e-9);
    }

    #[test]
    fn unprofiled_functions_are_skipped() {
        let (mut registry, catalog) = setup();
        registry.register(
            FunctionSignature::new("h", "unprofiled", vec!["t".into()], "o3"),
            FunctionBody::FilterExpr {
                input: "t".into(),
                predicate: "x > 0".into(),
            },
            "initial",
        );
        assert!(estimate_function(&registry, &catalog, "h").is_none());
    }
}

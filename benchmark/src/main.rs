//! KathDB's benchmark: four workloads, end-to-end and per-layer metrics,
//! one command. See README.md beside this package's Cargo.toml.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sql_resident --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`.

mod common;
mod compare;
mod durable;
mod kernels;
mod nl;
mod report;
mod span;
mod spec;
mod sql;
mod stats;

use common::{Budget, Busy, RunConfig, Size};
use kath_json::{Json, JsonMap};
use kathdb::KathDB;
use report::Report;
use span::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark [--workload <name>] [--seed <u64>] [--seconds <s> | --ops <n>]
                 [--trace <0|1>] [--smoke] [--sets <n>] [--out <path>]
       benchmark --check-repeat [--workload <name>] [--seed <u64>] [--ops <n>]
       benchmark --compare <before.json> <after.json>
workloads: nl_flagship sql_resident sql_paged durable_mixed (default: all four,
each in a process of its own)";

/// Seconds one run measures when neither `--seconds` nor `--ops` is given;
/// `run_seconds` in BENCHMARK.json is the same number.
const DEFAULT_SECONDS: f64 = 25.0;
/// Ops of a `--check-repeat` run when `--ops` is not given.
const REPEAT_OPS: usize = 8;

struct Args {
    workload: Option<String>,
    seed: u64,
    budget: Budget,
    traced: bool,
    size: Size,
    sets: usize,
    out: Option<PathBuf>,
    check_repeat: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        budget: Budget::Seconds(DEFAULT_SECONDS),
        traced: false,
        size: Size::Full,
        sets: 1,
        out: None,
        check_repeat: false,
        compare: None,
    };
    let mut explicit_budget = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read `{v}`"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec::WORKLOADS.contains(&name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name.to_string());
            }
            "--seed" => args.seed = number(flag, value()?)?,
            "--seconds" => {
                let s: f64 = number(flag, value()?)?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                args.budget = Budget::Seconds(s);
                explicit_budget = true;
            }
            "--ops" => {
                let n: usize = number(flag, value()?)?;
                if n == 0 {
                    return Err("--ops must be positive".into());
                }
                args.budget = Budget::Ops(n);
                explicit_budget = true;
            }
            "--trace" => {
                args.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.size = Size::Smoke,
            "--sets" => args.sets = number::<usize>(flag, value()?)?.max(1),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--check-repeat" => args.check_repeat = true,
            "--compare" => {
                let before = PathBuf::from(value()?);
                args.compare = Some((before, PathBuf::from(value()?)));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.check_repeat && !matches!(args.budget, Budget::Ops(_)) {
        if explicit_budget {
            return Err("--check-repeat needs --ops, not --seconds: counts must repeat".into());
        }
        args.budget = Budget::Ops(REPEAT_OPS);
    }
    Ok(args)
}

/// Where reports, traces and durable data go: under the build's target
/// directory, never over a committed file.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

/// Engine settings as a caller observes them through the facade.
pub fn engine_settings(db: &KathDB) -> Vec<(String, String)> {
    vec![
        ("threads".into(), db.threads().to_string()),
        ("exec_mode".into(), format!("{:?}", db.exec_mode())),
        ("compile_mode".into(), format!("{:?}", db.compile_mode())),
        ("vector_mode".into(), format!("{:?}", db.vector_mode())),
        ("group_commit".into(), db.group_commit().to_string()),
    ]
}

/// The end-to-end metrics every workload reports, all at the reference host
/// speed (see [`Busy`]): `setup_s` is the median of the repeated set-ups,
/// `ops_per_s` is ops over the time spent inside the system (the benchmark's
/// own checks between ops do not count). Beside them, what the host did to
/// the run: the probe's median, stolen vCPU time over wall time, wall time
/// over scaled time, and the throughput the wall clock saw.
pub fn push_end_to_end(report: &mut Report, setup_s: &[f64], op_ms: &[f64], busy: &Busy) {
    let n = op_ms.len();
    report.push("setup_s", stats::median(setup_s), setup_s.len());
    report.push("op_p50_ms", stats::median(op_ms), n);
    report.push("op_p90_ms", stats::percentile(op_ms, 90.0), n);
    report.push("ops_per_s", stats::ratio(n as f64, busy.seconds()), n);
    report.push("peak_rss_mb", report::peak_rss_mb(), 1);
    report.push(
        "host.probe_us",
        stats::median(busy.probes_us()),
        busy.probes_us().len(),
    );
    report.push(
        "host.stolen_share",
        stats::ratio(busy.stolen_seconds(), busy.wall_seconds()),
        n,
    );
    report.push(
        "host.slowdown",
        stats::ratio(busy.wall_seconds(), busy.seconds()),
        n,
    );
    report.push(
        "wall.ops_per_s",
        stats::ratio(n as f64, busy.wall_seconds()),
        n,
    );
    if stats::highest_supported_percentile(n).is_none_or(|p| p < 90) {
        eprintln!("note: op_p90_ms rests on {n} ops; p90 wants at least 100");
    }
}

/// Share of the traced op time that no layer span covers: the self time of
/// the root spans over their duration.
pub fn push_unattributed_share(report: &mut Report, tr: &Tracer, root: &str) {
    let (mut own, mut total, mut ops) = (0u64, 0u64, 0usize);
    for (span, self_ns) in tr.spans().iter().zip(tr.self_times_ns()) {
        if span.name == root {
            own += self_ns;
            total += span.duration_ns();
            ops += 1;
        }
    }
    let share = stats::ratio(own as f64, total as f64);
    report.push("trace.unattributed_share", share, ops);
}

/// Writes the run's spans as `<out_dir>/trace-<workload>.json`.
pub fn write_trace(cfg: &RunConfig, workload: &str, tr: &Tracer) {
    let path = cfg.out_dir.join(format!("trace-{workload}.json"));
    let text = kath_json::to_string(&tr.chrome_trace());
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&path, text))
    {
        eprintln!("cannot write {}: {e}", path.display());
        return;
    }
    eprintln!("{} spans -> {}", tr.spans().len(), path.display());
    let mut by_name: Vec<_> = tr.self_ms_by_name().into_iter().collect();
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = by_name.iter().map(|(_, ms)| ms).sum();
    for (name, ms) in by_name {
        eprintln!(
            "  self {:>6.2}%  {name}",
            100.0 * ms / total.max(f64::MIN_POSITIVE)
        );
    }
}

/// Runs one workload in this process and completes its report.
fn run_workload(workload: &str, cfg: &RunConfig) -> Report {
    let mut report = match workload {
        "nl_flagship" => nl::run(cfg),
        "sql_resident" => sql::run(cfg, sql::Layout::Resident),
        "sql_paged" => sql::run(cfg, sql::Layout::Paged),
        "durable_mixed" => durable::run(cfg),
        other => unreachable!("parse_args admitted workload {other}"),
    };
    report.workload = workload.to_string();
    report.seed = cfg.seed;
    report.traced = cfg.traced;
    report.budget = cfg.budget.describe();
    report.host = report::host_fingerprint(&cfg.out_dir);
    if cfg.size == Size::Smoke {
        report.host.insert("sizes".into(), "smoke".into());
    }
    // A layer this workload does not exercise reads 0.
    for spec in &spec::PER_LAYER {
        if cfg.traced && report.metric(spec.name).is_none() {
            report.push(spec.name, 0.0, 0);
        }
    }
    report
}

fn print_report(report: &Report) {
    println!(
        "# {} seed {} {} traced={} attempted {} failed {}",
        report.workload, report.seed, report.budget, report.traced, report.attempted, report.failed
    );
    for failure in &report.failures {
        println!("# FAILED {failure}");
    }
    for m in &report.metrics {
        println!(
            "{:<44} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The line the driver reads: end-to-end metrics of an untraced run,
/// per-layer metrics of a traced one.
fn contract_line(report: &Report) -> String {
    let declared: &[spec::MetricSpec] = if report.traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let metrics: JsonMap = declared
        .iter()
        .filter_map(|s| report.metric(s.name))
        .map(|m| {
            let entry = Json::object([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit.as_str())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    kath_json::to_string(&Json::object([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Object(metrics)),
    ]))
}

fn config(args: &Args) -> RunConfig {
    RunConfig {
        seed: args.seed,
        budget: args.budget,
        traced: args.traced,
        size: args.size,
        out_dir: out_dir(),
    }
}

fn report_path(args: &Args, name: &str) -> PathBuf {
    args.out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("report-{name}.json")))
}

/// One workload, in this process.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let report = run_workload(workload, &config(args));
    print_report(&report);
    let suffix = if report.traced { "-trace" } else { "" };
    report::write_reports(
        &report_path(args, &format!("{workload}{suffix}")),
        std::slice::from_ref(&report),
    )?;
    println!("{}", contract_line(&report));
    Ok(report.correct())
}

/// All four workloads, `--sets` times, each run in a child process so that
/// `peak_rss_mb` is the workload's own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = out_dir().join(format!("child-{}.json", std::process::id()));
    let mut reports = Vec::new();
    let mut ok = true;
    for set in 0..args.sets {
        for workload in spec::WORKLOADS {
            eprintln!("== set {} of {}: {workload}", set + 1, args.sets);
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", workload, "--seed", &args.seed.to_string()]);
            match args.budget {
                Budget::Seconds(s) => child.args(["--seconds", &s.to_string()]),
                Budget::Ops(n) => child.args(["--ops", &n.to_string()]),
            };
            child.args(["--trace", if args.traced { "1" } else { "0" }]);
            if args.size == Size::Smoke {
                child.arg("--smoke");
            }
            child.arg("--out").arg(&scratch);
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            ok &= status.success();
            reports.extend(report::read_reports(&scratch)?);
        }
    }
    let _ = std::fs::remove_file(&scratch);
    let path = report_path(args, if args.traced { "all-trace" } else { "all" });
    report::write_reports(&path, &reports)?;
    eprintln!("{} reports -> {}", reports.len(), path.display());
    Ok(ok)
}

/// Runs each chosen workload twice with one seed and one op count; every
/// exact count and digest must agree.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let cfg = config(args);
    let mut same = true;
    for workload in spec::WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let (a, b) = (run_workload(workload, &cfg), run_workload(workload, &cfg));
        if !(a.correct() && b.correct()) {
            same = false;
            println!(
                "{workload}: a run failed its checks: {:?} {:?}",
                a.failures, b.failures
            );
        }
        let keys: std::collections::BTreeSet<_> = a.exact.keys().chain(b.exact.keys()).collect();
        for key in keys {
            let (x, y) = (a.exact.get(key), b.exact.get(key));
            let verdict = if x == y { "same" } else { "DIFFERS" };
            same &= x == y;
            println!("{workload:<14} {key:<28} {verdict} {x:?} {y:?}");
        }
    }
    Ok(same)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("benchmark: built with debug assertions; build with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((before, after)) = &args.compare {
        compare::compare(before, after, Path::new("BENCHMARK.json"))
    } else if args.check_repeat {
        check_repeat(&args)
    } else if let Some(workload) = &args.workload {
        run_one(&args, workload)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let args = parse_args(&strings(&[
            "--workload",
            "sql_paged",
            "--seed",
            "18446744073709551615",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("sql_paged"));
        assert_eq!(args.seed, u64::MAX);
        assert_eq!(args.budget, Budget::Seconds(10.0));
        assert!(args.traced);
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "yes"])).is_err());
        assert!(parse_args(&strings(&["--check-repeat", "--seconds", "3"])).is_err());
        let repeat = parse_args(&strings(&["--check-repeat"])).unwrap();
        assert_eq!(repeat.budget, Budget::Ops(REPEAT_OPS));
    }

    /// BENCHMARK.json declares exactly the workloads and metrics of spec.rs.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = kath_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), spec::WORKLOADS);
        for (key, declared) in [
            ("end_to_end", &spec::END_TO_END[..]),
            ("per_layer", &spec::PER_LAYER[..]),
        ] {
            let listed = json.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), declared.len(), "{key}");
            for (entry, spec) in listed.iter().zip(declared) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap();
                assert_eq!(field("name"), spec.name);
                assert_eq!(field("unit"), spec.unit, "{}", spec.name);
                let better = format!("{:?}", spec.better).to_lowercase();
                assert_eq!(field("better"), better, "{}", spec.name);
            }
        }
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    /// All four workloads at smoke sizes, facade and staged, end to end.
    #[test]
    fn smoke_pass_of_all_four_workloads() {
        let cfg = RunConfig {
            seed: 3,
            budget: Budget::Ops(4),
            traced: true,
            size: Size::Smoke,
            out_dir: out_dir().join("smoke-test"),
        };
        for workload in spec::WORKLOADS {
            let report = run_workload(workload, &cfg);
            assert!(report.correct(), "{workload}: {:?}", report.failures);
            for spec in spec::END_TO_END.iter().chain(&spec::PER_LAYER) {
                let m = report
                    .metric(spec.name)
                    .unwrap_or_else(|| panic!("{workload} lacks {}", spec.name));
                assert!(m.value.is_finite(), "{workload} {}", spec.name);
            }
            for spec in &spec::END_TO_END {
                assert!(
                    report.metric(spec.name).unwrap().value > 0.0,
                    "{workload} {}",
                    spec.name
                );
            }
            let line = kath_json::parse(&contract_line(&report)).unwrap();
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(
                line.get("metrics").and_then(Json::as_object).unwrap().len(),
                spec::PER_LAYER.len()
            );
            assert!(cfg.out_dir.join(format!("trace-{workload}.json")).exists());
        }
    }
}

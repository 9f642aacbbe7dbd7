//! The report one run of one workload produces, its JSON form, and the
//! description of the host it ran on.

use crate::spec;
use kath_json::{Json, JsonMap};
use std::collections::BTreeMap;
use std::path::Path;

/// One measured value. `samples` is how many observations stand behind it
/// (1 for a count or a ratio taken once).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: usize,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// `"<n> s"` or `"<n> ops"`: what ended the timed loop.
    pub budget: String,
    pub attempted: u64,
    pub failed: u64,
    /// First few oracle failures, verbatim.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Counts and digests that must repeat exactly for one seed and one op
    /// count (`--check-repeat` compares these).
    pub exact: BTreeMap<String, String>,
    /// Op counts by kind.
    pub ops: BTreeMap<String, u64>,
    /// Engine settings as observed through the facade.
    pub engine: BTreeMap<String, String>,
    pub host: BTreeMap<String, String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Records a declared metric; its unit comes from the declaration.
    pub fn push(&mut self, name: &str, value: f64, samples: usize) {
        let unit = spec::find(name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"))
            .unit;
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        });
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        let strings = |m: &BTreeMap<String, String>| {
            Json::Object(
                m.iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
                    .collect(),
            )
        };
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::object([
                    ("name", Json::str(m.name.as_str())),
                    ("unit", Json::str(m.unit.as_str())),
                    ("value", Json::Num(m.value)),
                    ("samples", Json::Num(m.samples as f64)),
                ])
            })
            .collect();
        let ops: JsonMap = self
            .ops
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect();
        Json::object([
            ("workload", Json::str(self.workload.as_str())),
            // A string: seeds use all 64 bits, JSON numbers only 53.
            ("seed", Json::str(self.seed.to_string())),
            ("traced", Json::Bool(self.traced)),
            ("budget", Json::str(self.budget.as_str())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failures", Json::str_array(self.failures.iter().cloned())),
            ("metrics", Json::Array(metrics)),
            ("exact", strings(&self.exact)),
            ("ops", Json::Object(ops)),
            ("engine", strings(&self.engine)),
            ("host", strings(&self.host)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Report, String> {
        let text = |key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report has no string `{key}`"))
        };
        let number = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("report has no number `{key}`"))
        };
        let strings = |key: &str| -> Result<BTreeMap<String, String>, String> {
            let obj = j
                .get(key)
                .and_then(Json::as_object)
                .ok_or_else(|| format!("report has no object `{key}`"))?;
            Ok(obj
                .iter()
                .filter_map(|(k, v)| Some((k.to_string(), v.as_str()?.to_string())))
                .collect())
        };
        let mut metrics = Vec::new();
        for m in j
            .get("metrics")
            .and_then(Json::as_array)
            .ok_or("report has no `metrics` array")?
        {
            let field = |key: &str| m.get(key).ok_or_else(|| format!("metric has no `{key}`"));
            metrics.push(Metric {
                name: field("name")?.as_str().ok_or("metric name")?.to_string(),
                unit: field("unit")?.as_str().ok_or("metric unit")?.to_string(),
                value: field("value")?.as_f64().ok_or("metric value")?,
                samples: field("samples")?.as_f64().ok_or("metric samples")? as usize,
            });
        }
        Ok(Report {
            workload: text("workload")?,
            seed: text("seed")?.parse().map_err(|e| format!("seed: {e}"))?,
            traced: j.get("traced").and_then(Json::as_bool).unwrap_or(false),
            budget: text("budget")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            failures: j
                .get("failures")
                .and_then(Json::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            metrics,
            exact: strings("exact")?,
            ops: j
                .get("ops")
                .and_then(Json::as_object)
                .map(|o| {
                    o.iter()
                        .filter_map(|(k, v)| Some((k.to_string(), v.as_f64()? as u64)))
                        .collect()
                })
                .unwrap_or_default(),
            engine: strings("engine")?,
            host: strings("host")?,
        })
    }
}

/// Reads a report file: one report, or `{"reports": [...]}` as `--sets`
/// writes it.
pub fn read_reports(path: &Path) -> Result<Vec<Report>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = kath_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match json.get("reports").and_then(Json::as_array) {
        Some(items) => items.iter().map(Report::from_json).collect(),
        None => Ok(vec![Report::from_json(&json)?]),
    }
}

pub fn write_reports(path: &Path, reports: &[Report]) -> Result<(), String> {
    let json = match reports {
        [one] => one.to_json(),
        many => Json::object([(
            "reports",
            Json::Array(many.iter().map(Report::to_json).collect()),
        )]),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, kath_json::to_string_pretty(&json) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs.to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and with what this run was made.
pub fn host_fingerprint(data_dir: &Path) -> BTreeMap<String, String> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    BTreeMap::from([
        ("nproc".to_string(), nproc.to_string()),
        ("cpu_model".to_string(), cpu_model),
        ("kernel".to_string(), kernel),
        ("data_fs".to_string(), filesystem_of(data_dir)),
        ("rustc".to_string(), first_line_of("rustc", &["-V"])),
        (
            "git_rev".to_string(),
            first_line_of("git", &["rev-parse", "HEAD"]),
        ),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_kath_json() {
        let mut r = Report {
            workload: "sql_paged".into(),
            seed: u64::MAX - 7,
            traced: true,
            budget: "12 ops".into(),
            attempted: 72,
            failed: 1,
            failures: vec!["round 3 agg_group: digest mismatch".into()],
            ..Report::default()
        };
        r.push("op_p50_ms", 151.203_771_9, 12);
        r.push("storage.pool.hit_rate", 0.25, 1);
        r.exact.insert("digest.agg_group".into(), "9f3a".into());
        r.ops.insert("rounds".into(), 12);
        r.engine.insert("threads".into(), "2".into());
        r.host.insert("nproc".into(), "2".into());

        let text = kath_json::to_string_pretty(&r.to_json());
        let back = Report::from_json(&kath_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.metric("op_p50_ms").unwrap().unit, "ms");
        assert!(!back.correct());
    }

    #[test]
    fn fingerprint_names_the_host() {
        let host = host_fingerprint(Path::new("."));
        for key in [
            "nproc",
            "cpu_model",
            "kernel",
            "data_fs",
            "rustc",
            "git_rev",
        ] {
            assert!(host.contains_key(key), "{key}");
        }
        assert!(peak_rss_mb() > 0.0);
    }
}

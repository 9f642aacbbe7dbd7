//! What every workload shares: the run configuration, the loop budget,
//! seeded choice, result digests and the scratch directory.

use crate::report::Report;
use crate::stats::ratio;
use kath_storage::Table;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What ends a timed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Run whole ops until this many seconds have passed.
    Seconds(f64),
    /// Run exactly this many ops, so every count repeats exactly.
    Ops(usize),
}

impl Budget {
    pub fn describe(&self) -> String {
        match self {
            Budget::Seconds(s) => format!("{s} s"),
            Budget::Ops(n) => format!("{n} ops"),
        }
    }

    /// The budget of one of `parts` equal phases of a run.
    pub fn split(&self, parts: usize) -> Budget {
        match *self {
            Budget::Seconds(s) => Budget::Seconds(s / parts as f64),
            Budget::Ops(n) => Budget::Ops(n.div_ceil(parts)),
        }
    }

    /// Starts the loop: call [`Pace::more`] before each op.
    pub fn start(&self) -> Pace {
        Pace {
            budget: *self,
            started: Instant::now(),
            done: 0,
        }
    }
}

/// A running loop budget.
pub struct Pace {
    budget: Budget,
    started: Instant,
    done: usize,
}

impl Pace {
    /// Whether another op fits the budget; counts the op it admits.
    pub fn more(&mut self) -> bool {
        let go = match self.budget {
            Budget::Seconds(s) => self.done == 0 || self.started.elapsed().as_secs_f64() < s,
            Budget::Ops(n) => self.done < n,
        };
        if go {
            self.done += 1;
        }
        go
    }
}

/// Input sizes: the benchmark's own, or tiny ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub budget: Budget,
    pub traced: bool,
    pub size: Size,
    /// Scratch directory for durable data and trace files.
    pub out_dir: PathBuf,
}

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;

/// The model seed `KathDB::open` uses; every handle here uses the same one.
pub const MODEL_SEED: u64 = 42;

/// The tally of a workload's output checks: what the result line reports as
/// `attempted` and `failed`, with the first few failures kept verbatim.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    /// Moves the tally into the report.
    pub fn finish(self, report: &mut Report) {
        report.attempted = self.attempted;
        report.failed = self.failed;
        report.failures = self.failures;
        let share = ratio(self.failed as f64, self.attempted as f64);
        report.push("failed_share", share, 1);
    }
}

/// What [`host_probe_us`] takes on this benchmark's reference host (the
/// 2-vCPU guest of the README) while nothing else contends for its core.
pub const PROBE_REFERENCE_US: f64 = 400.0;

/// A probe sample older than this is taken again before the next timed call.
const PROBE_FRESH: Duration = Duration::from_millis(100);

/// How much of the vCPU time the hypervisor reports stolen during a call
/// counts as lost to the call. All of it would if the call ran on one thread
/// and nothing else wanted a core; half if both morsel workers were busy
/// throughout. Over 24 runs of each workload, quiet and contended, 0.6 to 0.8
/// gave the narrowest run-to-run spread on all four.
const STOLEN_SHARE_LOST: f64 = 0.7;

/// The stolen share is remembered over about this much timed wall time:
/// `/proc/stat` counts in hundredths of a second, coarser than most calls.
const STEAL_MEMORY_S: f64 = 0.25;

/// A fixed piece of work, timed: what the hardware thread gives a program
/// right now. The guest shares its cores with other tenants, and for
/// minutes at a time code like the engine's (allocation, formatting,
/// hashing: many independent instructions) runs up to 1.5 times slower while
/// a dependent chain of multiplications keeps its speed. The probe mixes
/// both, about one part chain to three parts allocation and hashing, and
/// never touches the engine. Returns microseconds.
pub fn host_probe_us() -> f64 {
    let started = Instant::now();
    let mut x = 1u64;
    for i in 0..40_000u64 {
        x = (x ^ (x >> 30))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    let rows: Vec<String> = (0..3_000)
        .map(|i| format!("row {i} of the probe {}", x & 1))
        .collect();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for row in &rows {
        row.hash(&mut h);
    }
    std::hint::black_box(h.finish());
    drop(rows);
    started.elapsed().as_secs_f64() * 1e6
}

/// Seconds of vCPU time the hypervisor has run someone else while this
/// guest wanted to run, summed over its CPUs (`steal` in `/proc/stat`);
/// 0 where the kernel does not say.
fn stolen_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let total = s.lines().find(|l| l.starts_with("cpu "))?;
            total.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The share of recent timed wall time that was lost to stolen vCPU time.
#[derive(Default)]
struct StealMeter {
    stolen_s: f64,
    wall_s: f64,
}

impl StealMeter {
    /// Adds a call that took `took_s` of wall time while `stolen_s` were
    /// stolen, forgetting older calls as [`STEAL_MEMORY_S`] says; returns
    /// the share of the call's time to discount, at most 0.9.
    fn lost_share(&mut self, took_s: f64, stolen_s: f64) -> f64 {
        let keep = (-took_s / STEAL_MEMORY_S).exp();
        self.stolen_s = self.stolen_s * keep + stolen_s;
        self.wall_s = self.wall_s * keep + took_s;
        (STOLEN_SHARE_LOST * ratio(self.stolen_s, self.wall_s)).min(0.9)
    }
}

/// Wall time as it would have been on the reference host left alone: the
/// part not lost to stolen vCPU time, divided by how much slower than
/// [`PROBE_REFERENCE_US`] the probe ran just before and just after.
pub fn at_reference_speed(
    wall: f64,
    lost_share: f64,
    probe_before_us: f64,
    probe_after_us: f64,
) -> f64 {
    wall * (1.0 - lost_share) * PROBE_REFERENCE_US / ((probe_before_us + probe_after_us) / 2.0)
}

/// Times calls into the system under test, so that the benchmark's own
/// checks between ops do not count as the system's time, and scales each
/// call's time to the reference host left alone (see the README, "Host
/// speed"): [`host_probe_us`] runs before and after every timed call
/// (consecutive calls share the sample between them) and `/proc/stat` is
/// read on both sides of it, all outside the timed span.
#[derive(Default)]
pub struct Busy {
    wall_s: f64,
    scaled_s: f64,
    stolen_s: f64,
    steal: StealMeter,
    /// The latest probe sample and when it was taken.
    last_probe: Option<(Instant, f64)>,
    probes_us: Vec<f64>,
}

impl Busy {
    fn probe(&mut self) -> f64 {
        let us = host_probe_us();
        self.probes_us.push(us);
        self.last_probe = Some((Instant::now(), us));
        us
    }

    /// Runs `f`, adds its time, and returns its result with that time in
    /// milliseconds at the reference host speed.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last_probe {
            Some((at, us)) if at.elapsed() < PROBE_FRESH => us,
            _ => self.probe(),
        };
        let stolen_before = stolen_seconds();
        let started = Instant::now();
        let out = f();
        let took_s = started.elapsed().as_secs_f64();
        let stolen_s = (stolen_seconds() - stolen_before).max(0.0);
        let after = self.probe();
        let lost = self.steal.lost_share(took_s, stolen_s);
        let scaled_s = at_reference_speed(took_s, lost, before, after);
        self.wall_s += took_s;
        self.stolen_s += stolen_s;
        self.scaled_s += scaled_s;
        (out, scaled_s * 1e3)
    }

    /// Time inside the system, at the reference host speed.
    pub fn seconds(&self) -> f64 {
        self.scaled_s
    }

    /// Time inside the system as the wall clock counted it.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_s
    }

    /// vCPU time stolen from the guest while the system was timed.
    pub fn stolen_seconds(&self) -> f64 {
        self.stolen_s
    }

    /// Every probe sample of this run, in microseconds.
    pub fn probes_us(&self) -> &[f64] {
        &self.probes_us
    }
}

/// splitmix64: the benchmark's seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `0.0..1.0`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An order-sensitive digest of a table's rows. `DefaultHasher::new()` has
/// fixed keys, so the digest repeats across processes.
pub fn table_digest(table: &Table) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    table.len().hash(&mut h);
    for row in table.rows() {
        row.hash(&mut h);
    }
    h.finish()
}

/// A fresh, empty directory `<out_dir>/data/<tag>-<pid>-<n>`.
pub fn fresh_data_dir(cfg: &RunConfig, tag: &str, n: usize) -> PathBuf {
    let dir = cfg
        .out_dir
        .join("data")
        .join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_scales_to_the_reference_host() {
        // At the reference probe time and with nothing stolen, wall time stands.
        let same = at_reference_speed(2.0, 0.0, PROBE_REFERENCE_US, PROBE_REFERENCE_US);
        assert!((same - 2.0).abs() < 1e-12);
        // A probe twice as slow halves the time; a fifth lost leaves four fifths.
        let slow = at_reference_speed(2.0, 0.2, 3.0 * PROBE_REFERENCE_US, PROBE_REFERENCE_US);
        assert!((slow - 0.8).abs() < 1e-12);
    }

    #[test]
    fn steal_meter_remembers_and_forgets() {
        let mut meter = StealMeter::default();
        assert_eq!(meter.lost_share(0.05, 0.0), 0.0);
        // One tick of /proc/stat lands on one short call; its neighbours
        // share it instead of one call losing a fifth of its time.
        let hit = meter.lost_share(0.05, 0.01);
        assert!(hit > 0.0 && hit < STOLEN_SHARE_LOST * 0.2, "{hit}");
        let next = meter.lost_share(0.05, 0.0);
        assert!(next > 0.0 && next < hit);
        // Long after, nothing is left of it.
        assert!(meter.lost_share(10.0, 0.0) < 1e-6);
        // Sustained steal converges on its share times the lost part; a
        // guest that hardly runs at all is still discounted at most 0.9.
        for _ in 0..100 {
            meter.lost_share(0.05, 0.025);
        }
        assert!((meter.lost_share(0.05, 0.025) - STOLEN_SHARE_LOST * 0.5).abs() < 1e-3);
        for _ in 0..100 {
            meter.lost_share(0.05, 0.1);
        }
        assert_eq!(meter.lost_share(0.05, 0.1), 0.9);
    }

    #[test]
    fn busy_counts_wall_and_scaled_time() {
        let mut busy = Busy::default();
        let (out, ms) = busy.time(|| {
            std::thread::sleep(Duration::from_millis(5));
            7
        });
        assert_eq!(out, 7);
        assert!(ms > 0.0 && busy.wall_seconds() >= 0.005);
        assert!((busy.seconds() * 1e3 - ms).abs() < 1e-9);
        assert_eq!(busy.probes_us().len(), 2);
        busy.time(|| ());
        assert_eq!(
            busy.probes_us().len(),
            3,
            "consecutive calls share a sample"
        );
    }
}

//! `FaultyIo`: a seeded fault injector in front of any [`IoBackend`].
//!
//! A [`FaultPlan`] decides, per eligible operation, whether to inject and
//! what: errors, short writes, ENOSPC and fsync failures at chosen or
//! probabilistic operation counts. Same plan, same seed, same (single-
//! threaded) operation order ⇒ same faults, every run. A test installs it
//! with `io.set_backend(Arc::new(FaultyIo::new(plan, base)))` and restores
//! the disk with `io.set_backend(base)`.

use kath_storage::IoBackend;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The operation classes a fault schedule can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Whole-file reads and directory listings.
    Read,
    /// File writes (whole-file or at an offset).
    Write,
    /// File and directory fsyncs.
    Fsync,
    /// Renames (the commit point of atomic writes and snapshots).
    Rename,
    /// File and directory removal (pruning and sweeping).
    Unlink,
    /// Truncation (torn-tail repair at WAL open).
    Truncate,
    /// Directory creation.
    Dir,
}

impl IoOp {
    fn parse(s: &str) -> Option<IoOp> {
        Some(match s {
            "read" => IoOp::Read,
            "write" => IoOp::Write,
            "fsync" => IoOp::Fsync,
            "rename" => IoOp::Rename,
            "unlink" => IoOp::Unlink,
            "truncate" => IoOp::Truncate,
            "dir" => IoOp::Dir,
            _ => return None,
        })
    }
}

/// What an injected fault looks like to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An interrupted-shaped error a bounded retry may clear.
    Transient,
    /// A hard I/O error; retrying is pointless.
    Permanent,
    /// Out of disk space (permanent by classification).
    Enospc,
    /// Writes only: a prefix of the data lands on disk, then the operation
    /// errors — the torn-write shape crash recovery must tolerate.
    ShortWrite,
}

impl FaultKind {
    const ALL: [FaultKind; 4] = [
        FaultKind::Transient,
        FaultKind::Permanent,
        FaultKind::Enospc,
        FaultKind::ShortWrite,
    ];

    fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "transient" => FaultKind::Transient,
            "permanent" => FaultKind::Permanent,
            "enospc" => FaultKind::Enospc,
            "short" | "shortwrite" => FaultKind::ShortWrite,
            _ => return None,
        })
    }

    /// The error this fault surfaces as (short writes degrade to transient
    /// on operations that carry no data).
    pub fn error(self) -> io::Error {
        match self {
            FaultKind::Transient | FaultKind::ShortWrite => io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient fault".to_string(),
            ),
            FaultKind::Permanent => io::Error::other("injected permanent fault".to_string()),
            FaultKind::Enospc => {
                io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC".to_string())
            }
        }
    }
}

/// A fault schedule: which operations are eligible, and when/what to
/// inject.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// RNG seed for probabilistic injection.
    pub seed: u64,
    /// Per-eligible-operation fault probability in `[0, 1]`.
    pub probability: f64,
    /// Inject exactly at these 1-based eligible-operation counts.
    pub at_ops: Vec<(u64, FaultKind)>,
    /// Kinds drawn probabilistically (empty = all kinds).
    pub kinds: Vec<FaultKind>,
    /// Eligible operation classes (empty = all classes).
    pub ops: Vec<IoOp>,
}

impl FaultPlan {
    /// A schedule injecting each eligible operation with probability `p`.
    pub fn probabilistic(seed: u64, p: f64) -> FaultPlan {
        FaultPlan {
            seed,
            probability: p,
            ..FaultPlan::default()
        }
    }

    /// A schedule injecting `kind` exactly at the `n`-th eligible
    /// operation (1-based).
    pub fn at(n: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            at_ops: vec![(n, kind)],
            ..FaultPlan::default()
        }
    }

    /// Restricts the schedule to the given operation classes.
    pub fn on_ops(mut self, ops: &[IoOp]) -> FaultPlan {
        self.ops = ops.to_vec();
        self
    }

    /// Restricts probabilistic draws to the given kinds.
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> FaultPlan {
        self.kinds = kinds.to_vec();
        self
    }

    /// Parses a spec, the form a failing schedule prints for replay:
    /// comma-separated `key=value` pairs — `seed=<u64>`, `p=<f64>`,
    /// `kinds=<k>|<k>…`, `ops=<op>|<op>…`, `at=<n>:<kind>`. Example:
    /// `seed=42,p=0.05,kinds=transient|enospc,ops=write|fsync`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?;
                }
                "p" => {
                    let p: f64 = value.parse().map_err(|_| format!("bad p '{value}'"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("p must be in [0,1], got {p}"));
                    }
                    plan.probability = p;
                }
                "kinds" => {
                    for k in value.split('|') {
                        plan.kinds.push(
                            FaultKind::parse(k.trim()).ok_or_else(|| format!("bad kind '{k}'"))?,
                        );
                    }
                }
                "ops" => {
                    for o in value.split('|') {
                        plan.ops
                            .push(IoOp::parse(o.trim()).ok_or_else(|| format!("bad op '{o}'"))?);
                    }
                }
                "at" => {
                    let (n, kind) = match value.split_once(':') {
                        Some((n, k)) => (
                            n.parse().map_err(|_| format!("bad op index '{n}'"))?,
                            FaultKind::parse(k.trim()).ok_or_else(|| format!("bad kind '{k}'"))?,
                        ),
                        None => (
                            value
                                .parse()
                                .map_err(|_| format!("bad op index '{value}'"))?,
                            FaultKind::Permanent,
                        ),
                    };
                    plan.at_ops.push((n, kind));
                }
                _ => return Err(format!("unknown fault key '{key}'")),
            }
        }
        Ok(plan)
    }
}

/// SplitMix64's increment.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fault-injecting backend: decides per eligible operation (seeded,
/// deterministic) whether to inject, and otherwise delegates to the
/// backend it wraps. Short writes land a prefix of the data before
/// erroring, so torn frames and torn pages genuinely appear on disk.
#[derive(Debug)]
pub struct FaultyIo {
    plan: FaultPlan,
    inner: Arc<dyn IoBackend>,
    ops: AtomicU64,
    /// SplitMix64's state. The generator is counter-based, so one
    /// `fetch_add` per draw needs no lock.
    rng: AtomicU64,
}

impl FaultyIo {
    /// A backend injecting per `plan` in front of `inner`.
    pub fn new(plan: FaultPlan, inner: Arc<dyn IoBackend>) -> FaultyIo {
        // SplitMix64 wants a non-zero-ish seed; mix the raw seed once.
        let state = plan.seed.wrapping_add(GOLDEN);
        FaultyIo {
            plan,
            inner,
            ops: AtomicU64::new(0),
            rng: AtomicU64::new(state),
        }
    }

    /// Eligible operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// SplitMix64: deterministic, dependency-free uniform draw in `[0,1)`.
    fn next_f64(&self) -> f64 {
        let mut z = self
            .rng
            .fetch_add(GOLDEN, Ordering::Relaxed)
            .wrapping_add(GOLDEN);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether to inject on this operation, and what.
    pub fn decide(&self, op: IoOp) -> Option<FaultKind> {
        if !self.plan.ops.is_empty() && !self.plan.ops.contains(&op) {
            return None;
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some((_, k)) = self.plan.at_ops.iter().find(|(at, _)| *at == n) {
            Some(*k)
        } else if self.plan.probability > 0.0 && self.next_f64() < self.plan.probability {
            let kinds = if self.plan.kinds.is_empty() {
                &FaultKind::ALL[..]
            } else {
                &self.plan.kinds[..]
            };
            let idx = (self.next_f64() * kinds.len() as f64) as usize;
            Some(kinds[idx.min(kinds.len() - 1)])
        } else {
            None
        }
    }

    /// Injects on non-write operations: any fault kind becomes its error.
    fn gate(&self, op: IoOp) -> io::Result<()> {
        match self.decide(op) {
            Some(kind) => Err(kind.error()),
            None => Ok(()),
        }
    }
}

impl IoBackend for FaultyIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.gate(IoOp::Read)?;
        self.inner.read(path)
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        match self.decide(IoOp::Write) {
            Some(FaultKind::ShortWrite) => {
                // Land a prefix, then fail: a torn write at this offset.
                let cut = data.len() / 2;
                let _ = self.inner.write_at(path, offset, &data[..cut]);
                Err(FaultKind::ShortWrite.error())
            }
            Some(kind) => Err(kind.error()),
            None => self.inner.write_at(path, offset, data),
        }
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.decide(IoOp::Write) {
            Some(FaultKind::ShortWrite) => {
                let cut = data.len() / 2;
                let _ = self.inner.write_file(path, &data[..cut]);
                Err(FaultKind::ShortWrite.error())
            }
            Some(kind) => Err(kind.error()),
            None => self.inner.write_file(path, data),
        }
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.gate(IoOp::Fsync)?;
        self.inner.fsync(path)
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        self.gate(IoOp::Fsync)?;
        self.inner.fsync_dir(path)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.gate(IoOp::Truncate)?;
        self.inner.set_len(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(IoOp::Rename)?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate(IoOp::Unlink)?;
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.gate(IoOp::Unlink)?;
        self.inner.remove_dir_all(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.gate(IoOp::Dir)?;
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.gate(IoOp::Read)?;
        self.inner.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

//! The I/O seam: every file operation of the durability path (WAL appends,
//! checkpoint writes, page reads, snapshot housekeeping) goes through an
//! [`Io`] handle instead of calling `std::fs` directly.
//!
//! The handle dispatches to an [`IoBackend`]: [`RealIo`] (plain `std::fs`)
//! in production, or a seeded [`FaultyIo`] in front of it (or of any other
//! backend) that injects errors, short writes, ENOSPC, and fsync failures
//! at chosen or probabilistic operation counts. The chaos suites drive
//! every fault schedule through the same code paths a real disk failure
//! would take, so the crash-safety invariant — *clean error or
//! prefix-of-committed-state, never panic/corruption/acknowledged-then-lost
//! write* — is tested, not hoped.
//!
//! Faults are classified **transient** (interrupted/timeout-shaped errors a
//! retry may clear) or **permanent** (everything else, including ENOSPC).
//! WAL appends and checkpoint writes wrap their syscalls in
//! [`with_retry`]: a bounded retry-with-backoff loop that only re-attempts
//! transient failures. Both WAL appends (rewrite at a fixed offset) and
//! checkpoint writes (temp file + atomic rename) are idempotent, so a
//! retry after a short write cannot duplicate or interleave bytes.

use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::io;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    fn error(self) -> io::Error {
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

/// Whether an I/O error is worth retrying. Injected transient faults use
/// [`io::ErrorKind::Interrupted`]; real interrupted/timeout-shaped errors
/// classify the same way. Everything else — ENOSPC, permission, hard I/O
/// errors — is permanent and surfaces immediately.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Bounded retry-with-backoff for transient faults, the policy WAL appends
/// and checkpoint writes run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included; min 1).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_micros(500),
        }
    }
}

/// Runs `f`, retrying **transient** failures (see [`is_transient`]) up to
/// `policy.attempts` total attempts with doubling backoff. The operation
/// must be idempotent — the WAL rewrites at a fixed offset and checkpoint
/// writes recreate their temp file, so both qualify.
pub fn with_retry<T>(policy: &RetryPolicy, mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut delay = policy.backoff;
    let mut attempt = 1u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < policy.attempts.max(1) && is_transient(&e) => {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Fsyncs a directory under the default [`RetryPolicy`]: the barrier that
/// makes the entries created, renamed or removed in it survive power loss.
pub(crate) fn sync_dir(io: &Io, dir: &Path) -> io::Result<()> {
    with_retry(&RetryPolicy::default(), || io.fsync_dir(dir))
}

/// The directory holding `path` (`.` for a bare file name).
pub(crate) fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    }
}

/// The file operations the durability path performs. Implementations are
/// path-based (no long-lived handles), which keeps every operation
/// individually injectable and makes retries idempotent.
pub trait IoBackend: Send + Sync + fmt::Debug {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes `data` at `offset`, creating the file if absent. Bytes past
    /// the written range are left untouched (no truncation).
    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()>;
    /// Creates (or truncates) the file with exactly `data` (no fsync).
    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Fsyncs a file.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs a directory (required for a rename to survive power loss).
    fn fsync_dir(&self, path: &Path) -> io::Result<()>;
    /// Truncates (or extends) a file to `len` bytes.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Renames a file or directory (the atomic commit point).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Removes a directory tree.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists a directory's entry paths (unsorted).
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Whether the path exists (never injected: existence probes steer
    /// control flow, they do not touch data).
    fn exists(&self, path: &Path) -> bool;
    /// Injection counters, when this backend injects faults.
    fn fault_stats(&self) -> Option<FaultStats> {
        None
    }
    /// One-line description for status surfaces (`\faults`).
    fn describe(&self) -> String;
}

/// `EINVAL`, which fsync(2) returns for a file that does not support
/// synchronization (the same value on Linux and the BSDs).
const EINVAL: i32 = 22;

/// The production backend: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl IoBackend for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(data)
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(data)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .read(true)
            .open(path)?
            .sync_all()
    }

    /// A filesystem that cannot fsync a directory says so with
    /// `Unsupported` (or `EINVAL`, fsync(2)'s spelling of the same thing);
    /// that one answer counts as done, since there is no stronger barrier
    /// to ask for. Every other error is the caller's.
    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        match std::fs::File::open(path)?.sync_all() {
            Err(e)
                if e.kind() == io::ErrorKind::Unsupported || e.raw_os_error() == Some(EINVAL) =>
            {
                Ok(())
            }
            res => res,
        }
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn describe(&self) -> String {
        "real".to_string()
    }
}

/// A fault schedule: which operations are eligible, and when/what to
/// inject. Deterministic for a given seed and (single-threaded) operation
/// order.
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
    /// Stop injecting after this many faults (None = unbounded).
    pub max_faults: Option<u64>,
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

    /// Caps the number of injected faults.
    pub fn limit(mut self, n: u64) -> FaultPlan {
        self.max_faults = Some(n);
        self
    }

    /// Parses a `\faults` spec: comma-separated `key=value` pairs —
    /// `seed=<u64>`, `p=<f64>`, `kinds=<k>|<k>…`, `ops=<op>|<op>…`,
    /// `at=<n>:<kind>`, `max=<u64>`. Example:
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
                "max" => {
                    plan.max_faults =
                        Some(value.parse().map_err(|_| format!("bad max '{value}'"))?);
                }
                _ => return Err(format!("unknown fault key '{key}'")),
            }
        }
        Ok(plan)
    }
}

/// Injection counters of a [`FaultyIo`] backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Eligible operations observed.
    pub ops: u64,
    /// Faults injected.
    pub injected: u64,
}

/// A fault-injecting backend: decides per eligible operation (seeded,
/// deterministic) whether to inject, and otherwise delegates to the
/// backend it wraps. Short writes land a prefix of the data before
/// erroring, so torn frames and torn pages genuinely appear on disk.
#[derive(Debug)]
pub struct FaultyIo {
    plan: FaultPlan,
    inner: Arc<dyn IoBackend>,
    ops: AtomicU64,
    injected: AtomicU64,
    rng: Mutex<u64>,
}

impl FaultyIo {
    /// A backend injecting per `plan` in front of `inner`.
    pub fn new(plan: FaultPlan, inner: Arc<dyn IoBackend>) -> FaultyIo {
        // SplitMix64 wants a non-zero-ish seed; mix the raw seed once.
        let state = plan.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        FaultyIo {
            plan,
            inner,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            rng: Mutex::new(state),
        }
    }

    /// SplitMix64: deterministic, dependency-free uniform draw in `[0,1)`.
    fn next_f64(&self) -> f64 {
        let mut state = self.rng.lock();
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether to inject on this operation, and what.
    fn decide(&self, op: IoOp) -> Option<FaultKind> {
        if !self.plan.ops.is_empty() && !self.plan.ops.contains(&op) {
            return None;
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1; // lint: relaxed-ok — the RMW keeps the fault-clock tick exact; no other memory rides on it
        if let Some(max) = self.plan.max_faults {
            // lint: relaxed-ok — injection cap is advisory; a racy read at worst injects one extra fault
            if self.injected.load(Ordering::Relaxed) >= max {
                return None;
            }
        }
        let kind = if let Some((_, k)) = self.plan.at_ops.iter().find(|(at, _)| *at == n) {
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
        };
        if kind.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok — monotonic injected-fault counter
        }
        kind
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

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(FaultStats {
            ops: self.ops.load(Ordering::Relaxed), // lint: relaxed-ok — stats snapshot; approximate reads are fine
            injected: self.injected.load(Ordering::Relaxed), // lint: relaxed-ok — stats snapshot; approximate reads are fine
        })
    }

    fn describe(&self) -> String {
        format!(
            "faulty (seed={}, p={}, {} chosen op(s), max={:?}) over {}",
            self.plan.seed,
            self.plan.probability,
            self.plan.at_ops.len(),
            self.plan.max_faults,
            self.inner.describe()
        )
    }
}

/// A cheap-to-clone handle to the database's I/O backend. The backend is
/// swappable at runtime (the `\faults` REPL knob), so one handle is shared
/// by the buffer pool, the WAL, and the checkpoint machinery of a
/// database.
#[derive(Clone, Default)]
pub struct Io {
    inner: Arc<IoCell>,
}

#[derive(Default)]
struct IoCell {
    backend: RwLock<Backends>,
}

/// The backend operations run on, and — while a fault schedule is
/// installed — the backend it wraps, which `clear_faults` restores.
struct Backends {
    active: Arc<dyn IoBackend>,
    unfaulted: Option<Arc<dyn IoBackend>>,
}

impl Default for Backends {
    fn default() -> Self {
        Backends {
            active: Arc::new(RealIo),
            unfaulted: None,
        }
    }
}

impl fmt::Debug for Io {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Io({})", self.describe())
    }
}

impl Io {
    /// A handle over the production backend.
    pub fn real() -> Io {
        Io::default()
    }

    /// Swaps in a backend (all sharers of this handle see it immediately).
    pub fn set_backend(&self, backend: Arc<dyn IoBackend>) {
        *self.inner.backend.write() = Backends {
            active: backend,
            unfaulted: None,
        };
    }

    /// Installs a fresh [`FaultyIo`] running `plan` over the handle's
    /// backend (a schedule installed earlier is replaced, not stacked).
    pub fn install_faults(&self, plan: FaultPlan) {
        let mut b = self.inner.backend.write();
        let base = b.unfaulted.take().unwrap_or_else(|| Arc::clone(&b.active));
        b.active = Arc::new(FaultyIo::new(plan, Arc::clone(&base)));
        b.unfaulted = Some(base);
    }

    /// Restores the backend the fault schedule wrapped.
    pub fn clear_faults(&self) {
        let mut b = self.inner.backend.write();
        if let Some(base) = b.unfaulted.take() {
            b.active = base;
        }
    }

    /// Injection counters, when a fault backend is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.backend().fault_stats()
    }

    /// One-line backend description (`\faults`).
    pub fn describe(&self) -> String {
        self.backend().describe()
    }

    fn backend(&self) -> Arc<dyn IoBackend> {
        Arc::clone(&self.inner.backend.read().active)
    }

    /// Reads a whole file.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.backend().read(path)
    }

    /// Reads a whole file, mapping a missing file to `None`.
    pub fn read_opt(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match self.backend().read(path) {
            Ok(d) => Ok(Some(d)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Writes `data` at `offset` (creating the file if absent).
    pub fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        self.backend().write_at(path, offset, data)
    }

    /// Creates (or truncates) the file with exactly `data` (no fsync).
    pub fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.backend().write_file(path, data)
    }

    /// Fsyncs a file.
    pub fn fsync(&self, path: &Path) -> io::Result<()> {
        self.backend().fsync(path)
    }

    /// Fsyncs a directory.
    pub fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        self.backend().fsync_dir(path)
    }

    /// Truncates (or extends) a file to `len` bytes.
    pub fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.backend().set_len(path, len)
    }

    /// Renames a file or directory.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.backend().rename(from, to)
    }

    /// Removes a file.
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.backend().remove_file(path)
    }

    /// Removes a directory tree.
    pub fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.backend().remove_dir_all(path)
    }

    /// Creates a directory and its parents.
    pub fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.backend().create_dir_all(path)
    }

    /// Lists a directory's entry paths (unsorted).
    pub fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.backend().read_dir(path)
    }

    /// Whether the path exists.
    pub fn exists(&self, path: &Path) -> bool {
        self.backend().exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kathdb_io_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_backend_round_trips() {
        let dir = tmp("real");
        let io = Io::real();
        let p = dir.join("a.bin");
        io.write_file(&p, b"hello").unwrap();
        io.fsync(&p).unwrap();
        assert_eq!(io.read(&p).unwrap(), b"hello");
        io.write_at(&p, 1, b"a").unwrap();
        assert_eq!(io.read(&p).unwrap(), b"hallo");
        io.set_len(&p, 2).unwrap();
        assert_eq!(io.read(&p).unwrap(), b"ha");
        let q = dir.join("b.bin");
        io.rename(&p, &q).unwrap();
        assert!(!io.exists(&p));
        assert!(io.exists(&q));
        assert_eq!(io.read_dir(&dir).unwrap(), vec![q.clone()]);
        assert!(io.read_opt(&p).unwrap().is_none());
        io.remove_file(&q).unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn chosen_op_injects_exactly_there() {
        let dir = tmp("chosen");
        let io = Io::real();
        io.install_faults(FaultPlan::at(2, FaultKind::Permanent));
        let p = dir.join("x");
        io.write_file(&p, b"1").unwrap(); // op 1: fine
        let err = io.write_file(&p, b"2").unwrap_err(); // op 2: injected
        assert!(!is_transient(&err));
        io.write_file(&p, b"3").unwrap(); // op 3: fine again
        let stats = io.fault_stats().unwrap();
        assert_eq!(stats.ops, 3);
        assert_eq!(stats.injected, 1);
        io.clear_faults();
        assert!(io.fault_stats().is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn faults_wrap_the_backend_once_and_clearing_restores_it() {
        let io = Io::real();
        io.install_faults(FaultPlan::at(1, FaultKind::Permanent));
        io.install_faults(FaultPlan::at(2, FaultKind::Permanent));
        let described = io.describe();
        assert!(described.ends_with("over real"), "{described}");
        assert_eq!(described.matches("faulty").count(), 1, "{described}");
        io.clear_faults();
        assert_eq!(io.describe(), "real");
        io.clear_faults();
        assert_eq!(io.describe(), "real");
    }

    #[test]
    fn probabilistic_schedule_is_deterministic_per_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let dir = tmp(&format!("det{seed}"));
            let io = Io::real();
            io.install_faults(FaultPlan::probabilistic(seed, 0.5));
            let p = dir.join("x");
            let v: Vec<bool> = (0..32).map(|_| io.write_file(&p, b"d").is_ok()).collect();
            let _ = std::fs::remove_dir_all(dir);
            v
        };
        assert_eq!(outcomes(7), outcomes(7));
        assert_ne!(outcomes(7), outcomes(8), "seeds must differ");
    }

    #[test]
    fn short_write_lands_a_prefix() {
        let dir = tmp("short");
        let io = Io::real();
        io.install_faults(FaultPlan::at(1, FaultKind::ShortWrite));
        let p = dir.join("x");
        let err = io.write_file(&p, b"0123456789").unwrap_err();
        assert!(is_transient(&err), "short writes retry as transient");
        assert_eq!(std::fs::read(&p).unwrap(), b"01234");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn retry_clears_transient_but_not_permanent() {
        let dir = tmp("retry");
        let io = Io::real();
        let p = dir.join("x");
        let policy = RetryPolicy::default();
        io.install_faults(FaultPlan::at(1, FaultKind::Transient));
        with_retry(&policy, || io.write_file(&p, b"ok")).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"ok");
        io.install_faults(FaultPlan {
            at_ops: vec![(1, FaultKind::Enospc)],
            ..FaultPlan::default()
        });
        let err = with_retry(&policy, || io.write_file(&p, b"no")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Exactly one attempt was made: ENOSPC is permanent.
        assert_eq!(io.fault_stats().unwrap().ops, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn op_class_restriction_skips_other_ops() {
        let dir = tmp("class");
        let io = Io::real();
        io.install_faults(FaultPlan::probabilistic(1, 1.0).on_ops(&[IoOp::Fsync]));
        let p = dir.join("x");
        io.write_file(&p, b"d").unwrap(); // writes are not eligible
        assert!(io.fsync(&p).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn spec_parsing_round_trips() {
        let plan = FaultPlan::parse("seed=42,p=0.05,kinds=transient|enospc,ops=write|fsync,max=3")
            .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.probability, 0.05);
        assert_eq!(plan.kinds, vec![FaultKind::Transient, FaultKind::Enospc]);
        assert_eq!(plan.ops, vec![IoOp::Write, IoOp::Fsync]);
        assert_eq!(plan.max_faults, Some(3));
        let plan = FaultPlan::parse("at=12:short").unwrap();
        assert_eq!(plan.at_ops, vec![(12, FaultKind::ShortWrite)]);
        let plan = FaultPlan::parse("at=3").unwrap();
        assert_eq!(plan.at_ops, vec![(3, FaultKind::Permanent)]);
        assert!(FaultPlan::parse("p=2.0").is_err());
        assert!(FaultPlan::parse("nope=1").is_err());
        assert!(FaultPlan::parse("p").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn classification_is_transient_only_for_retryable_kinds() {
        assert!(is_transient(&FaultKind::Transient.error()));
        assert!(is_transient(&FaultKind::ShortWrite.error()));
        assert!(!is_transient(&FaultKind::Permanent.error()));
        assert!(!is_transient(&FaultKind::Enospc.error()));
    }
}

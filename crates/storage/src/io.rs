//! The I/O seam: every file operation of the durability path (WAL appends,
//! checkpoint writes, page reads, snapshot housekeeping) goes through an
//! [`Io`] handle instead of calling `std::fs` directly.
//!
//! The handle dispatches to an [`IoBackend`]: [`RealIo`] (plain `std::fs`)
//! in production, or whatever backend [`Io::set_backend`] swaps in. The
//! test suites swap in a seeded fault injector and an in-memory power-loss
//! disk, so every fault schedule runs through the same code paths a real
//! disk failure would take, and the crash-safety invariant — *clean error
//! or prefix-of-committed-state, never panic/corruption/acknowledged-then-
//! lost write* — is tested, not hoped.
//!
//! Errors are classified **transient** (interrupted/timeout-shaped errors a
//! retry may clear) or **permanent** (everything else, including ENOSPC).
//! WAL appends and checkpoint writes wrap their syscalls in
//! [`with_retry`]: a bounded retry-with-backoff loop that only re-attempts
//! transient failures. Both WAL appends (rewrite at a fixed offset) and
//! checkpoint writes (temp file + atomic rename) are idempotent, so a
//! retry after a short write cannot duplicate or interleave bytes.

use parking_lot::RwLock;
use std::fmt;
use std::io;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Whether an I/O error is worth retrying: interrupted/timeout-shaped
/// errors are transient. Everything else — ENOSPC, permission, hard I/O
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
}

/// A cheap-to-clone handle to the database's I/O backend. The backend is
/// swappable at runtime ([`Io::set_backend`]), so one handle is shared by
/// the buffer pool, the WAL, and the checkpoint machinery of a database.
#[derive(Clone, Default)]
pub struct Io {
    inner: Arc<IoCell>,
}

struct IoCell {
    backend: RwLock<Arc<dyn IoBackend>>,
}

impl Default for IoCell {
    fn default() -> Self {
        IoCell {
            backend: RwLock::new(Arc::new(RealIo)),
        }
    }
}

impl fmt::Debug for Io {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Io({:?})", self.backend())
    }
}

impl Io {
    /// A handle over the production backend.
    pub fn real() -> Io {
        Io::default()
    }

    /// Swaps in a backend (all sharers of this handle see it immediately).
    pub fn set_backend(&self, backend: Arc<dyn IoBackend>) {
        *self.inner.backend.write() = backend;
    }

    fn backend(&self) -> Arc<dyn IoBackend> {
        Arc::clone(&self.inner.backend.read())
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
    fn classification_is_transient_only_for_retryable_kinds() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
        ] {
            assert!(is_transient(&io::Error::from(kind)), "{kind:?}");
        }
        for kind in [
            io::ErrorKind::StorageFull,
            io::ErrorKind::Other,
            io::ErrorKind::PermissionDenied,
        ] {
            assert!(!is_transient(&io::Error::from(kind)), "{kind:?}");
        }
    }
}

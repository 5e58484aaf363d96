//! Virtual file system: every byte the engine persists goes through the
//! [`Vfs`] trait, so disk faults are injectable and crashes replayable.
//!
//! Two implementations ship:
//!
//! * [`MemVfs`] — an in-memory disk with an fsync barrier per file and a
//!   seeded [`DiskFaultConfig`]: short writes, failed fsyncs, bit flips
//!   in the torn tail, and a crash point after any chosen operation.
//!   Crash semantics follow the page-cache model: data appended since
//!   the last successful `sync` may be lost, survive partially (a torn
//!   prefix of the tail), or survive corrupted; data acknowledged by a
//!   successful `sync` always survives. Metadata operations (`create`,
//!   `rename`, `remove`, `truncate`) are treated as journaled — durable
//!   immediately — which is the conventional simplification for
//!   engine-level crash testing.
//! * [`RealVfs`] — `std::fs` under a root directory, for actual on-disk
//!   persistence (unix only; the simulation backends cover the rest).
//!
//! Fault decisions reuse the chaos layer's generator
//! ([`mendel_net::fault::XorShift64`] seeded through
//! [`mendel_net::fault::splitmix64`]), so a disk-fault schedule is
//! reproducible from its seed exactly like a network [`FaultPlan`]
//! schedule — single-threaded access yields byte-identical fault
//! sequences.
//!
//! [`FaultPlan`]: mendel_net::fault::FaultPlan

use mendel_net::fault::{splitmix64, XorShift64};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by virtual disk operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// The path does not exist.
    NotFound(String),
    /// The simulated process has crashed; every operation fails until
    /// the harness reopens the store on a recovered vfs.
    Crashed,
    /// An injected (or real) fsync failure: the data may or may not be
    /// durable, and the caller must not acknowledge it.
    FsyncFailed(String),
    /// Any other I/O failure, with context.
    Io(String),
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "no such file: {p}"),
            VfsError::Crashed => write!(f, "simulated crash: process is down"),
            VfsError::FsyncFailed(p) => write!(f, "fsync failed: {p}"),
            VfsError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for VfsError {}

/// Result alias for disk operations.
pub type VfsResult<T> = Result<T, VfsError>;

/// One open file. Append-only writes plus positioned reads — all the
/// engine's formats (WAL, segments, manifest) are written sequentially
/// and read at known offsets.
pub trait VfsFile: Send {
    /// Current file length in bytes.
    fn len(&self) -> VfsResult<u64>;
    /// Whether the file is empty.
    fn is_empty(&self) -> VfsResult<bool> {
        Ok(self.len()? == 0)
    }
    /// Read up to `buf.len()` bytes at `offset`; returns bytes read
    /// (short only at end of file).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> VfsResult<usize>;
    /// Append bytes; returns how many were written (may be short under
    /// injected faults — callers loop like `write_all`).
    fn append(&mut self, data: &[u8]) -> VfsResult<usize>;
    /// Make every appended byte durable (fsync).
    fn sync(&mut self) -> VfsResult<()>;
}

/// The virtual disk. Paths are flat `/`-separated strings relative to
/// the vfs root (e.g. `node-3/wal`).
pub trait Vfs: Send + Sync {
    /// Create (or truncate) a file for writing.
    fn create(&self, path: &str) -> VfsResult<Box<dyn VfsFile>>;
    /// Open an existing file.
    fn open(&self, path: &str) -> VfsResult<Box<dyn VfsFile>>;
    /// Does `path` exist?
    fn exists(&self, path: &str) -> VfsResult<bool>;
    /// All paths starting with `prefix`, ascending.
    fn list(&self, prefix: &str) -> VfsResult<Vec<String>>;
    /// Delete a file.
    fn remove(&self, path: &str) -> VfsResult<()>;
    /// Atomically replace `to` with `from` (the manifest-update
    /// primitive).
    fn rename(&self, from: &str, to: &str) -> VfsResult<()>;
    /// Truncate `path` to `len` bytes (WAL tail repair).
    fn truncate(&self, path: &str, len: u64) -> VfsResult<()>;
    /// Simulate losing the un-synced tail of every file under `prefix`
    /// (a process kill). Real filesystems do nothing — killing a real
    /// process needs no help.
    fn crash(&self, _prefix: &str) {}
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// Seeded disk-fault plan, the storage twin of the network
/// [`mendel_net::fault::FaultConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultConfig {
    /// Seed from which every fault decision derives.
    pub seed: u64,
    /// Probability an `append` writes only part of its buffer.
    pub short_write_prob: f64,
    /// Probability a `sync` fails (data not durable, caller sees the
    /// error).
    pub fsync_fail_prob: f64,
    /// Probability each crash-surviving un-synced byte takes a bit flip
    /// (a torn, corrupted tail the CRC layer must catch).
    pub flip_prob: f64,
    /// Crash after exactly this many vfs operations have succeeded: the
    /// next operation (and all after it) fail with [`VfsError::Crashed`]
    /// and the un-synced tails are torn. One-shot: cleared by the crash
    /// itself so recovery can run on the same vfs after
    /// [`MemVfs::recover`].
    pub crash_after: Option<u64>,
}

impl DiskFaultConfig {
    /// A fault-free disk.
    pub fn none(seed: u64) -> Self {
        DiskFaultConfig {
            seed,
            short_write_prob: 0.0,
            fsync_fail_prob: 0.0,
            flip_prob: 0.0,
            crash_after: None,
        }
    }

    /// Short writes and torn-tail bit flips, no spontaneous fsync
    /// failures — the profile the crash-point matrix sweeps.
    // audit:allow(unreached): the torn-write profile this file's crash-point tests sweep
    pub fn torn(seed: u64) -> Self {
        DiskFaultConfig {
            seed,
            short_write_prob: 0.3,
            fsync_fail_prob: 0.0,
            flip_prob: 0.1,
            crash_after: None,
        }
    }

    /// Crash after `ops` successful operations.
    // audit:allow(unreached): crates/store/tests/crash_matrix.rs and this crate's crash tests set their crash point with it
    pub fn crash_at(mut self, ops: u64) -> Self {
        self.crash_after = Some(ops);
        self
    }
}

// ---------------------------------------------------------------------
// MemVfs
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct MemFile {
    /// Full visible content (what reads see).
    visible: Vec<u8>,
    /// Prefix length known durable (advanced by `sync`).
    durable: usize,
}

struct MemState {
    files: BTreeMap<String, MemFile>,
    cfg: DiskFaultConfig,
    rng: XorShift64,
    ops: u64,
    crashed: bool,
}

impl MemState {
    /// Count one operation; fail if the process is down or dies now.
    fn tick(&mut self) -> VfsResult<()> {
        if self.crashed {
            return Err(VfsError::Crashed);
        }
        if let Some(at) = self.cfg.crash_after {
            if self.ops >= at {
                self.apply_crash(None);
                return Err(VfsError::Crashed);
            }
        }
        self.ops += 1;
        Ok(())
    }

    /// Tear the un-synced tail of every file (under `prefix` if given):
    /// keep a seeded-random prefix of it, flipping bits per
    /// `flip_prob`, and mark the survivor durable (it is what the disk
    /// holds now).
    fn apply_crash(&mut self, prefix: Option<&str>) {
        if prefix.is_none() {
            self.crashed = true;
            self.cfg.crash_after = None; // one-shot
        }
        let seed = self.cfg.seed;
        let ops = self.ops;
        for (path, f) in self.files.iter_mut() {
            if let Some(p) = prefix {
                if !path.starts_with(p) {
                    continue;
                }
            }
            let tail = f.visible.len().saturating_sub(f.durable);
            if tail == 0 {
                continue;
            }
            let mut rng = XorShift64::new(
                seed ^ splitmix64(ops ^ mendel_dht::sha1::sha1_u64(path.as_bytes())),
            );
            let kept = rng.next_range(tail as u64 + 1) as usize;
            f.visible.truncate(f.durable + kept);
            if self.cfg.flip_prob > 0.0 {
                for b in &mut f.visible[f.durable..] {
                    if rng.next_f64() < self.cfg.flip_prob {
                        *b ^= 1 << rng.next_range(8);
                    }
                }
            }
            f.durable = f.visible.len();
        }
    }
}

/// The in-memory fault-injectable disk. Cloneable handles share one
/// underlying state ([`Arc`] inside), so a cluster and its chaos
/// harness can hold the same disk.
#[derive(Clone)]
pub struct MemVfs {
    state: Arc<Mutex<MemState>>,
}

impl MemVfs {
    /// A disk with the given fault plan.
    pub fn new(cfg: DiskFaultConfig) -> Self {
        MemVfs {
            state: Arc::new(Mutex::new(MemState {
                files: BTreeMap::new(),
                rng: XorShift64::new(cfg.seed ^ 0xD15C_FA17),
                cfg,
                ops: 0,
                crashed: false,
            })),
        }
    }

    /// A fault-free disk.
    pub fn plain(seed: u64) -> Self {
        Self::new(DiskFaultConfig::none(seed))
    }

    /// Operations performed so far (the crash-point matrix measures an
    /// ingest run with this, then sweeps `crash_after` over the range).
    // audit:allow(unreached): crates/store/tests/crash_matrix.rs and cluster.rs's crash-point sweep place crashes by operation count
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Is the simulated process down?
    pub fn is_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Bring the disk back after a crash: the surviving bytes stay,
    /// operations work again, and the one-shot crash point is gone.
    // audit:allow(unreached): tests/durability.rs, crates/store/tests/crash_matrix.rs and the crash tests in cluster.rs and engine.rs restart a crashed disk with it
    pub fn recover(&self) {
        let mut s = self.state.lock();
        s.crashed = false;
        s.cfg.crash_after = None;
    }

    /// Arm (or re-arm) the one-shot crash point at an absolute
    /// operation count — lets a harness crash a *recovery* that runs on
    /// the same disk as the crashed ingest.
    // audit:allow(unreached): crates/store/tests/crash_matrix.rs and mendel's crash-point sweep crash a recovery with it
    pub fn set_crash_after(&self, ops: u64) {
        self.state.lock().cfg.crash_after = Some(ops);
    }

    /// Disarm the one-shot crash point.
    // audit:allow(unreached): crates/store/tests/crash_matrix.rs disarms a crash point that a recovery did not reach
    pub fn clear_crash_after(&self) {
        self.state.lock().cfg.crash_after = None;
    }

    /// Flip one bit at `offset` of `path` — targeted corruption for
    /// checksum-verification tests.
    // audit:allow(unreached): the segment and WAL tests flip stored bytes with it
    pub fn corrupt(&self, path: &str, offset: usize) -> VfsResult<()> {
        let mut s = self.state.lock();
        let f = s
            .files
            .get_mut(path)
            .ok_or_else(|| VfsError::NotFound(path.into()))?;
        if offset >= f.visible.len() {
            return Err(VfsError::Io(format!(
                "corrupt offset {offset} beyond {} bytes",
                f.visible.len()
            )));
        }
        f.visible[offset] ^= 1;
        Ok(())
    }

    /// Current visible length of `path` (testing aid).
    // audit:allow(unreached): the segment, WAL, engine and vfs tests read file sizes with it
    pub fn file_len(&self, path: &str) -> VfsResult<u64> {
        let s = self.state.lock();
        s.files
            .get(path)
            .map(|f| f.visible.len() as u64)
            .ok_or_else(|| VfsError::NotFound(path.into()))
    }
}

impl Vfs for MemVfs {
    fn create(&self, path: &str) -> VfsResult<Box<dyn VfsFile>> {
        let mut s = self.state.lock();
        s.tick()?;
        s.files.insert(path.to_string(), MemFile::default());
        Ok(Box::new(MemFileHandle {
            state: self.state.clone(),
            path: path.to_string(),
        }))
    }

    fn open(&self, path: &str) -> VfsResult<Box<dyn VfsFile>> {
        let mut s = self.state.lock();
        s.tick()?;
        if !s.files.contains_key(path) {
            return Err(VfsError::NotFound(path.into()));
        }
        Ok(Box::new(MemFileHandle {
            state: self.state.clone(),
            path: path.to_string(),
        }))
    }

    fn exists(&self, path: &str) -> VfsResult<bool> {
        let mut s = self.state.lock();
        s.tick()?;
        Ok(s.files.contains_key(path))
    }

    fn list(&self, prefix: &str) -> VfsResult<Vec<String>> {
        let mut s = self.state.lock();
        s.tick()?;
        Ok(s.files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }

    fn remove(&self, path: &str) -> VfsResult<()> {
        let mut s = self.state.lock();
        s.tick()?;
        s.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| VfsError::NotFound(path.into()))
    }

    fn rename(&self, from: &str, to: &str) -> VfsResult<()> {
        let mut s = self.state.lock();
        s.tick()?;
        let f = s
            .files
            .remove(from)
            .ok_or_else(|| VfsError::NotFound(from.into()))?;
        s.files.insert(to.to_string(), f);
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> VfsResult<()> {
        let mut s = self.state.lock();
        s.tick()?;
        let f = s
            .files
            .get_mut(path)
            .ok_or_else(|| VfsError::NotFound(path.into()))?;
        f.visible.truncate(len as usize);
        f.durable = f.durable.min(f.visible.len());
        Ok(())
    }

    fn crash(&self, prefix: &str) {
        self.state.lock().apply_crash(Some(prefix));
    }
}

struct MemFileHandle {
    state: Arc<Mutex<MemState>>,
    path: String,
}

impl MemFileHandle {
    fn with_file<T>(
        &self,
        op: impl FnOnce(&mut MemFile, &mut XorShift64, &DiskFaultConfig) -> VfsResult<T>,
    ) -> VfsResult<T> {
        let mut s = self.state.lock();
        s.tick()?;
        let MemState {
            files, rng, cfg, ..
        } = &mut *s;
        let f = files
            .get_mut(&self.path)
            .ok_or_else(|| VfsError::NotFound(self.path.clone()))?;
        op(f, rng, cfg)
    }
}

impl VfsFile for MemFileHandle {
    fn len(&self) -> VfsResult<u64> {
        self.with_file(|f, _, _| Ok(f.visible.len() as u64))
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> VfsResult<usize> {
        self.with_file(|f, _, _| {
            let start = (offset as usize).min(f.visible.len());
            let n = buf.len().min(f.visible.len() - start);
            buf[..n].copy_from_slice(&f.visible[start..start + n]);
            Ok(n)
        })
    }

    fn append(&mut self, data: &[u8]) -> VfsResult<usize> {
        self.with_file(|f, rng, cfg| {
            let n = if data.len() > 1 && rng.next_f64() < cfg.short_write_prob {
                // A short write lands a non-empty prefix; zero-byte
                // progress would let a write_all loop spin forever.
                1 + rng.next_range(data.len() as u64 - 1) as usize
            } else {
                data.len()
            };
            f.visible.extend_from_slice(&data[..n]);
            Ok(n)
        })
    }

    fn sync(&mut self) -> VfsResult<()> {
        let path = self.path.clone();
        self.with_file(move |f, rng, cfg| {
            if rng.next_f64() < cfg.fsync_fail_prob {
                return Err(VfsError::FsyncFailed(path));
            }
            f.durable = f.visible.len();
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------
// RealVfs
// ---------------------------------------------------------------------

/// `std::fs` under a root directory. No fault injection — real disks
/// provide their own.
#[cfg(unix)]
pub struct RealVfs {
    root: std::path::PathBuf,
}

#[cfg(unix)]
impl RealVfs {
    /// A vfs rooted at `root` (created if absent).
    pub fn new(root: impl Into<std::path::PathBuf>) -> VfsResult<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| VfsError::Io(format!("{}: {e}", root.display())))?;
        Ok(RealVfs { root })
    }

    fn resolve(&self, path: &str) -> std::path::PathBuf {
        self.root.join(path)
    }

    fn io(path: &std::path::Path, e: std::io::Error) -> VfsError {
        if e.kind() == std::io::ErrorKind::NotFound {
            VfsError::NotFound(path.display().to_string())
        } else {
            VfsError::Io(format!("{}: {e}", path.display()))
        }
    }
}

#[cfg(unix)]
impl Vfs for RealVfs {
    fn create(&self, path: &str) -> VfsResult<Box<dyn VfsFile>> {
        let full = self.resolve(path);
        if let Some(parent) = full.parent() {
            std::fs::create_dir_all(parent).map_err(|e| Self::io(&full, e))?;
        }
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&full)
            .map_err(|e| Self::io(&full, e))?;
        Ok(Box::new(RealFile { f, path: full }))
    }

    fn open(&self, path: &str) -> VfsResult<Box<dyn VfsFile>> {
        let full = self.resolve(path);
        let f = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(&full)
            .map_err(|e| Self::io(&full, e))?;
        Ok(Box::new(RealFile { f, path: full }))
    }

    fn exists(&self, path: &str) -> VfsResult<bool> {
        Ok(self.resolve(path).is_file())
    }

    fn list(&self, prefix: &str) -> VfsResult<Vec<String>> {
        fn walk(dir: &std::path::Path, rel: &str, out: &mut Vec<String>) -> std::io::Result<()> {
            if !dir.is_dir() {
                return Ok(());
            }
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                let child_rel = if rel.is_empty() {
                    name
                } else {
                    format!("{rel}/{name}")
                };
                if entry.path().is_dir() {
                    walk(&entry.path(), &child_rel, out)?;
                } else {
                    out.push(child_rel);
                }
            }
            Ok(())
        }
        let mut all = Vec::new();
        walk(&self.root, "", &mut all).map_err(|e| VfsError::Io(format!("list: {e}")))?;
        all.retain(|p| p.starts_with(prefix));
        all.sort();
        Ok(all)
    }

    fn remove(&self, path: &str) -> VfsResult<()> {
        let full = self.resolve(path);
        std::fs::remove_file(&full).map_err(|e| Self::io(&full, e))
    }

    fn rename(&self, from: &str, to: &str) -> VfsResult<()> {
        let f = self.resolve(from);
        let t = self.resolve(to);
        std::fs::rename(&f, &t).map_err(|e| Self::io(&f, e))
    }

    fn truncate(&self, path: &str, len: u64) -> VfsResult<()> {
        let full = self.resolve(path);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&full)
            .map_err(|e| Self::io(&full, e))?;
        f.set_len(len).map_err(|e| Self::io(&full, e))
    }
}

#[cfg(unix)]
struct RealFile {
    f: std::fs::File,
    path: std::path::PathBuf,
}

#[cfg(unix)]
impl VfsFile for RealFile {
    fn len(&self) -> VfsResult<u64> {
        self.f
            .metadata()
            .map(|m| m.len())
            .map_err(|e| RealVfs::io(&self.path, e))
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> VfsResult<usize> {
        use std::os::unix::fs::FileExt;
        self.f
            .read_at(buf, offset)
            .map_err(|e| RealVfs::io(&self.path, e))
    }

    fn append(&mut self, data: &[u8]) -> VfsResult<usize> {
        use std::io::Write;
        self.f.write(data).map_err(|e| RealVfs::io(&self.path, e))
    }

    fn sync(&mut self) -> VfsResult<()> {
        self.f
            .sync_all()
            .map_err(|e| VfsError::FsyncFailed(format!("{}: {e}", self.path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_roundtrip_and_listing() {
        let vfs = MemVfs::plain(1);
        let mut f = vfs.create("dir/a").unwrap();
        assert_eq!(f.append(b"hello").unwrap(), 5);
        f.sync().unwrap();
        let mut buf = [0u8; 8];
        let n = f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        vfs.create("dir/b").unwrap();
        vfs.create("other/c").unwrap();
        assert_eq!(vfs.list("dir/").unwrap(), vec!["dir/a", "dir/b"]);
        assert!(vfs.exists("dir/a").unwrap());
        vfs.remove("dir/b").unwrap();
        assert!(!vfs.exists("dir/b").unwrap());
    }

    #[test]
    fn unsynced_tail_is_lost_or_torn_on_crash() {
        for seed in 0..20u64 {
            let vfs = MemVfs::new(DiskFaultConfig::none(seed));
            let mut f = vfs.create("f").unwrap();
            f.append(b"durable!").unwrap();
            f.sync().unwrap();
            f.append(b"volatile").unwrap();
            vfs.crash("");
            let len = vfs.file_len("f").unwrap();
            assert!(
                (8..=16).contains(&len),
                "seed {seed}: durable prefix must survive, got len {len}"
            );
            let mut buf = vec![0u8; 8];
            vfs.open("f").unwrap().read_at(0, &mut buf).unwrap();
            assert_eq!(&buf, b"durable!", "seed {seed}");
        }
    }

    #[test]
    fn crash_point_stops_all_operations() {
        let vfs = MemVfs::new(DiskFaultConfig::none(7).crash_at(3));
        let mut f = vfs.create("f").unwrap(); // op 0
        f.append(b"x").unwrap(); // op 1
        f.sync().unwrap(); // op 2
        assert_eq!(f.append(b"y").unwrap_err(), VfsError::Crashed); // op 3 dies
        assert!(matches!(vfs.open("f"), Err(VfsError::Crashed)));
        assert!(vfs.is_crashed());
        vfs.recover();
        assert!(!vfs.is_crashed());
        let f = vfs.open("f").unwrap();
        assert_eq!(f.len().unwrap(), 1, "synced byte survived the crash");
    }

    #[test]
    fn short_writes_make_progress() {
        let vfs = MemVfs::new(DiskFaultConfig {
            short_write_prob: 1.0,
            ..DiskFaultConfig::none(3)
        });
        let mut f = vfs.create("f").unwrap();
        let data = [7u8; 64];
        let mut written = 0;
        while written < data.len() {
            let n = f.append(&data[written..]).unwrap();
            assert!(n >= 1, "short writes must land at least one byte");
            assert!(n <= data.len() - written);
            written += n;
        }
        assert_eq!(f.len().unwrap(), 64);
    }

    #[test]
    fn fsync_failures_surface() {
        let vfs = MemVfs::new(DiskFaultConfig {
            fsync_fail_prob: 1.0,
            ..DiskFaultConfig::none(5)
        });
        let mut f = vfs.create("f").unwrap();
        f.append(b"x").unwrap();
        assert!(matches!(f.sync().unwrap_err(), VfsError::FsyncFailed(_)));
        // The data was not acknowledged; a crash may drop it.
        vfs.crash("");
        assert!(vfs.file_len("f").unwrap() <= 1);
    }

    #[test]
    fn crash_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let vfs = MemVfs::new(DiskFaultConfig::torn(seed));
            let mut f = vfs.create("f").unwrap();
            let mut data = Vec::new();
            for i in 0..50u8 {
                data.push(i);
            }
            let mut off = 0;
            while off < data.len() {
                off += f.append(&data[off..]).unwrap();
            }
            vfs.crash("");
            let len = vfs.file_len("f").unwrap() as usize;
            let mut buf = vec![0u8; len];
            vfs.open("f").unwrap().read_at(0, &mut buf).unwrap();
            buf
        };
        assert_eq!(run(42), run(42), "same seed, same torn tail");
    }

    #[test]
    fn rename_replaces_atomically() {
        let vfs = MemVfs::plain(1);
        let mut f = vfs.create("m.tmp").unwrap();
        f.append(b"new").unwrap();
        f.sync().unwrap();
        let mut old = vfs.create("m").unwrap();
        old.append(b"old").unwrap();
        old.sync().unwrap();
        vfs.rename("m.tmp", "m").unwrap();
        assert!(!vfs.exists("m.tmp").unwrap());
        let mut buf = [0u8; 3];
        vfs.open("m").unwrap().read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"new");
    }

    #[test]
    fn prefix_crash_only_tears_matching_files() {
        let vfs = MemVfs::plain(9);
        let mut a = vfs.create("node-0/wal").unwrap();
        a.append(b"unsynced").unwrap();
        let mut b = vfs.create("node-1/wal").unwrap();
        b.append(b"unsynced").unwrap();
        vfs.crash("node-0/");
        assert!(vfs.file_len("node-0/wal").unwrap() < 8);
        assert_eq!(vfs.file_len("node-1/wal").unwrap(), 8);
    }

    #[cfg(unix)]
    #[test]
    fn real_vfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mendel-store-vfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = RealVfs::new(&dir).unwrap();
        let mut f = vfs.create("sub/file").unwrap();
        f.append(b"abcdef").unwrap();
        f.sync().unwrap();
        let mut buf = [0u8; 3];
        assert_eq!(f.read_at(2, &mut buf).unwrap(), 3);
        assert_eq!(&buf, b"cde");
        assert_eq!(vfs.list("sub/").unwrap(), vec!["sub/file"]);
        vfs.truncate("sub/file", 2).unwrap();
        assert_eq!(vfs.open("sub/file").unwrap().len().unwrap(), 2);
        vfs.rename("sub/file", "sub/file2").unwrap();
        assert!(vfs.exists("sub/file2").unwrap());
        vfs.remove("sub/file2").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

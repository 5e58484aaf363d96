//! Spawning, watching and reaping the `mendel serve` processes, and the
//! scratch directories they write.
//!
//! Hygiene rules: every child is killed and waited for when its
//! [`Cluster`] is dropped (normal return, error return or panic unwind),
//! when the harness receives SIGINT or SIGTERM (a watcher thread does the
//! clean-up, the handler only sets a flag), and — through
//! `PR_SET_PDEATHSIG` — when the harness itself is SIGKILLed. Every wait
//! has a deadline.

use crate::http;
use crate::workload::NODES;
use std::fs::File;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;
const SC_CLK_TCK: i32 = 2;

// The handful of libc entry points std does not wrap. std links libc on
// every unix target, so no crate is needed.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

static SIGNALLED: AtomicBool = AtomicBool::new(false);
static LIVE_CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static LIVE_SCRATCH: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: anything more is not async-signal-safe.
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Install the SIGINT/SIGTERM handler and its watcher thread. On a
/// signal the watcher kills and reaps every live child, removes every
/// live scratch directory and exits with status 130.
pub fn install_signal_cleanup() {
    // SAFETY: `on_signal` is an `extern "C" fn(i32)` that only stores to
    // an atomic, which is async-signal-safe; `signal` has no other
    // requirement on its arguments.
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
    // Detached on purpose: it lives exactly as long as the process.
    std::thread::spawn(|| loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            let pids = std::mem::take(&mut *lock(&LIVE_CHILDREN));
            for &pid in &pids {
                // SAFETY: plain syscalls on pids of children this process
                // spawned and has not yet waited for; a null status
                // pointer is allowed by waitpid.
                unsafe {
                    kill(pid as i32, SIGKILL);
                    waitpid(pid as i32, std::ptr::null_mut(), 0);
                }
            }
            for dir in lock(&LIVE_SCRATCH).drain(..) {
                let _ = std::fs::remove_dir_all(dir);
            }
            eprintln!(
                "benchmark: interrupted; {} server processes killed",
                pids.len()
            );
            std::process::exit(130);
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

/// The registries only hold plain lists that are valid after any
/// partial update, so a poisoned lock is recovered rather than
/// propagated (this also runs inside `Drop`).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Kernel clock ticks per second, the unit of `/proc/<pid>/stat` times.
pub fn clock_ticks_per_second() -> f64 {
    // SAFETY: sysconf only reads its integer argument.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// A directory for one run's corpus, logs and data dirs; removed on
/// drop and on SIGINT/SIGTERM.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Create `<parent>/scratch-<pid>-<n>`.
    pub fn create(parent: &Path) -> io::Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("scratch-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        let path = path.canonicalize()?;
        lock(&LIVE_SCRATCH).push(path.clone());
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        lock(&LIVE_SCRATCH).retain(|p| p != &self.path);
    }
}

/// Run a helper process (`mendel generate`, `layers`) to completion
/// within `timeout`. Its output passes through to stderr; like a server
/// process it is killed if the harness is interrupted or dies.
pub fn run_tool(cmd: &mut Command, what: &str, timeout: Duration) -> Result<(), String> {
    cmd.stdin(Stdio::null())
        .stdout(io::stderr())
        .stderr(Stdio::inherit());
    die_with_parent(cmd);
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("{what}: cannot start {:?}: {e}", cmd.get_program()))?;
    let pid = child.id();
    lock(&LIVE_CHILDREN).push(pid);
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("{what}: no exit within {timeout:?}; killed"));
            }
            Ok(None) => std::thread::sleep(HEALTH_POLL),
            Err(e) => break Err(format!("{what}: wait: {e}")),
        }
    };
    lock(&LIVE_CHILDREN).retain(|&p| p != pid);
    match status? {
        status if status.success() => Ok(()),
        status => Err(format!("{what}: {status}")),
    }
}

/// Have the kernel SIGKILL the child when the thread that spawned it
/// dies, so that not even a SIGKILLed harness leaves processes behind.
fn die_with_parent(cmd: &mut Command) {
    // SAFETY: the closure runs in the forked child before exec and makes
    // one async-signal-safe syscall, touching no memory of the parent.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
            Ok(())
        });
    }
}

/// `(stolen, total)` clock ticks of all CPUs since boot, from the first
/// line of `/proc/stat`. "Stolen" is time the hypervisor ran someone else
/// while this machine had work to do; its share over a phase tells how
/// much a shared host disturbed the phase.
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    parse_host_cpu_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_host_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    // cpu user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already part of user time.
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The file system type holding `path`, from `/proc/mounts` (longest
/// mount-point prefix wins); `"unknown"` when that cannot be read.
pub fn fs_type_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let absolute = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    fs_type_from_mounts(&mounts, &absolute)
}

fn fs_type_from_mounts(mounts: &str, path: &Path) -> String {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// How a cluster's processes are started.
#[derive(Debug, Clone)]
pub struct ClusterOpts {
    /// The `mendel` executable under test.
    pub mendel: PathBuf,
    pub dna: bool,
    pub groups: usize,
    /// `--tracing true --trace-sample 1` instead of `--tracing false`.
    pub tracing: bool,
    /// Give process `i` the durable backend under `<dir>/p<i>`.
    pub data_root: Option<PathBuf>,
    /// Where each process's stderr is kept (for the failure message).
    pub log_dir: PathBuf,
}

/// One `mendel serve` process.
#[derive(Debug)]
pub struct Node {
    pub http: SocketAddr,
    child: Child,
}

/// Three `mendel serve` processes on loopback; killed and reaped on drop.
#[derive(Debug)]
pub struct Cluster {
    pub nodes: Vec<Node>,
}

/// The benchmark drives real processes over 127.0.0.1; say so clearly,
/// once and up front, where a sandbox forbids that, instead of failing
/// spawn round after spawn round.
pub fn check_loopback() -> Result<(), String> {
    TcpListener::bind("127.0.0.1:0").map(drop).map_err(|e| {
        format!(
            "loopback sockets unavailable in this environment ({e}); the benchmark drives real \
             `mendel serve` processes over 127.0.0.1 and cannot run without them"
        )
    })
}

/// Spawn rounds tried before giving up; a round is lost when a probed
/// port is taken by someone else before the child binds it.
const SPAWN_ROUNDS: usize = 5;
const HEALTH_DEADLINE: Duration = Duration::from_secs(20);
const HEALTH_POLL: Duration = Duration::from_millis(2);

/// Reserve `n` distinct free loopback ports. The listeners are closed
/// before the children bind, so a collision is possible; the caller
/// retries the round.
fn probe_ports(n: usize) -> io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| Ok(l.local_addr()?.port()))
        .collect()
}

impl Cluster {
    /// Spawn the three processes and wait until each answers
    /// `GET /healthz`. Call from the main thread only: the children are
    /// tied to the life of the spawning thread (see module docs).
    pub fn spawn(opts: &ClusterOpts) -> Result<Cluster, String> {
        let mut last = String::new();
        for round in 0..SPAWN_ROUNDS {
            let attempt = probe_ports(2 * NODES)
                .map_err(|e| format!("probe loopback ports: {e}"))
                .and_then(|ports| Cluster::spawn_round(opts, &ports));
            match attempt {
                Ok(cluster) => return Ok(cluster),
                Err(why) => {
                    eprintln!("benchmark: spawn round {round} failed ({why}); retrying");
                    last = why;
                }
            }
        }
        Err(format!(
            "no cluster after {SPAWN_ROUNDS} spawn rounds; last failure: {last}"
        ))
    }

    fn spawn_round(opts: &ClusterOpts, ports: &[u16]) -> Result<Cluster, String> {
        let (listen, http) = ports.split_at(NODES);
        let peers = (0..NODES)
            .map(|i| format!("{i}=127.0.0.1:{}", listen[i]))
            .collect::<Vec<_>>()
            .join(",");
        // Built up node by node, so an early return drops (and thereby
        // kills) the nodes already started.
        let mut cluster = Cluster { nodes: Vec::new() };
        for i in 0..NODES {
            let mut cmd = Command::new(&opts.mendel);
            cmd.args(serve_args(opts, i, listen[i], http[i], &peers));
            let log = File::create(opts.log_dir.join(format!("node{i}.stderr")))
                .map_err(|e| format!("create server log: {e}"))?;
            cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(log);
            die_with_parent(&mut cmd);
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", opts.mendel.display()))?;
            lock(&LIVE_CHILDREN).push(child.id());
            cluster.nodes.push(Node {
                http: SocketAddr::from(([127, 0, 0, 1], http[i])),
                child,
            });
        }
        let deadline = Instant::now() + HEALTH_DEADLINE;
        for (i, node) in cluster.nodes.iter_mut().enumerate() {
            loop {
                let probe = http::request(
                    node.http,
                    "GET",
                    "/healthz",
                    b"",
                    Duration::from_millis(500),
                );
                if matches!(probe, Ok((200, _))) {
                    break;
                }
                if let Ok(Some(status)) = node.child.try_wait() {
                    let log = std::fs::read_to_string(opts.log_dir.join(format!("node{i}.stderr")))
                        .unwrap_or_default();
                    return Err(format!("node {i} exited early ({status}): {}", log.trim()));
                }
                if Instant::now() > deadline {
                    return Err(format!("node {i} not healthy within {HEALTH_DEADLINE:?}"));
                }
                std::thread::sleep(HEALTH_POLL);
            }
        }
        Ok(cluster)
    }

    /// Σ (utime + stime) of the three processes, in clock ticks.
    pub fn cpu_ticks(&self) -> io::Result<u64> {
        self.nodes
            .iter()
            .map(|n| proc_cpu_ticks(n.child.id()))
            .sum()
    }

    /// Σ `VmHWM` (peak resident set) of the three processes, in kB.
    pub fn rss_hwm_kb(&self) -> io::Result<u64> {
        self.nodes
            .iter()
            .map(|n| proc_status_kb(n.child.id(), "VmHWM"))
            .sum()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            let _ = node.child.kill();
        }
        for node in &mut self.nodes {
            let _ = node.child.wait();
            let reaped = node.child.id();
            lock(&LIVE_CHILDREN).retain(|&pid| pid != reaped);
        }
    }
}

fn serve_args(opts: &ClusterOpts, node: usize, listen: u16, http: u16, peers: &str) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--node",
        &node.to_string(),
        "--listen",
        &format!("127.0.0.1:{listen}"),
        "--http",
        &format!("127.0.0.1:{http}"),
        "--peers",
        peers,
        "--nodes",
        &NODES.to_string(),
        "--groups",
        &opts.groups.to_string(),
        "--replication",
        "1",
        "--tracing",
        if opts.tracing { "true" } else { "false" },
        "--trace-sample",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if opts.dna {
        args.push("--dna".into());
    }
    if let Some(root) = &opts.data_root {
        args.push("--data-dir".into());
        args.push(root.join(format!("p{node}")).display().to_string());
    }
    args
}

fn proc_cpu_ticks(pid: u32) -> io::Result<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat_cpu_ticks(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("/proc/{pid}/stat")))
}

/// utime + stime: fields 14 and 15, counted after the `(comm)` field,
/// which may itself contain spaces and parentheses.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // `after_comm` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn proc_status_kb(pid: u32, key: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_status_kb(&status, key)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("/proc/{pid}/status")))
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_comm() {
        let stat =
            "4242 (mendel) serve) S 1 4242 4242 0 -1 4194304 900 0 0 0 123 45 0 0 20 0 7 0 100 1 2";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(168));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn host_steal_is_the_eighth_field() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n";
        assert_eq!(parse_host_cpu_ticks(stat), Some((35, 1000)));
        assert_eq!(parse_host_cpu_ticks("cpu0 1 2 3\n"), None);
        assert_eq!(parse_host_cpu_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn status_peak_rss() {
        let status = "Name:\tmendel\nVmPeak:\t  900 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn longest_mount_prefix_names_the_file_system() {
        let mounts =
            "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(
            fs_type_from_mounts(mounts, Path::new("/dev/shm/x/y")),
            "tmpfs"
        );
        assert_eq!(
            fs_type_from_mounts(mounts, Path::new("/root/repo/benchmark")),
            "ext4"
        );
        assert_eq!(fs_type_from_mounts("", Path::new("/x")), "unknown");
    }

    #[test]
    fn serve_command_line_is_stable() {
        let opts = ClusterOpts {
            mendel: "mendel".into(),
            dna: true,
            groups: 3,
            tracing: false,
            data_root: Some("/s/data".into()),
            log_dir: "/s".into(),
        };
        assert_eq!(
            serve_args(&opts, 1, 7001, 8001, "0=127.0.0.1:7000,1=127.0.0.1:7001").join(" "),
            "serve --node 1 --listen 127.0.0.1:7001 --http 127.0.0.1:8001 \
             --peers 0=127.0.0.1:7000,1=127.0.0.1:7001 --nodes 3 --groups 3 --replication 1 \
             --tracing false --trace-sample 1 --dna --data-dir /s/data/p1"
        );
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let parent =
            std::env::temp_dir().join(format!("mendel-benchmark-test-{}", std::process::id()));
        let kept;
        {
            let scratch = Scratch::create(&parent).unwrap();
            kept = scratch.path().to_path_buf();
            std::fs::write(kept.join("f"), b"x").unwrap();
            assert!(kept.exists());
        }
        assert!(!kept.exists());
        let _ = std::fs::remove_dir_all(parent);
    }
}

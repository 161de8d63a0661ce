//! Host context stamped on every result, so numbers from different
//! hosts are never compared, the process's CPU placement, and its own
//! peak memory.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism` before pinning.
    pub nproc: usize,
    /// The CPU the workload ran on.
    pub pinned_cpu: Option<usize>,
    /// Speed-up of a pure spin loop split across `nproc` threads: the
    /// number of cores this process actually gets.
    pub effective_parallelism: f64,
    /// `rustc --version`.
    pub rustc: String,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probes the host (about 0.1 s of spinning on every CPU of
    /// `cpus`).
    pub fn detect(checkout: &Path, cpus: &Cpus) -> Host {
        Host {
            nproc: cpus.nproc,
            pinned_cpu: cpus.pinned,
            effective_parallelism: effective_parallelism(cpus),
            rustc: command_output(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".to_owned()),
            commit: git_commit(checkout).unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// One-line JSON form.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"pinned_cpu\":{},\"effective_parallelism\":{:.3},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
            self.nproc,
            self.pinned_cpu
                .map_or_else(|| "null".to_owned(), |c| c.to_string()),
            self.effective_parallelism,
            self.rustc.replace('"', "'"),
            self.commit
        )
    }
}

fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// The commit of the checkout at `dir`. Git is kept from searching
/// above the checkout, so an unversioned copy reports `None`.
fn git_commit(dir: &Path) -> Option<String> {
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]).current_dir(dir);
    if let Some(parent) = dir.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_output(&mut cmd)
}

fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

fn timed_spin(cpus: &Cpus, threads: usize, iters: u64) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || {
                cpus.widen();
                spin(iters)
            });
        }
    });
    start.elapsed()
}

/// `threads × t(1 thread) / t(threads)` for the same per-thread spin,
/// best of three: about 1.0 when the threads share one core.
fn effective_parallelism(cpus: &Cpus) -> f64 {
    const ITERS: u64 = 5_000_000;
    let threads = cpus.nproc;
    let best = |n: usize| {
        (0..3)
            .map(|_| timed_spin(cpus, n, ITERS))
            .min()
            .expect("three runs")
    };
    let one = best(1);
    let many = best(threads);
    threads as f64 * one.as_secs_f64() / many.as_secs_f64().max(1e-9)
}

/// An affinity mask as the kernel takes it: one bit per CPU, up to 1024.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get_affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuMask>()` bytes to
    // `mask`, which owns that many; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: the kernel reads `size_of::<CpuMask>()` bytes from `mask`;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// The CPUs this process may use, and the one it was pinned to.
#[derive(Debug, Clone)]
pub struct Cpus {
    allowed: Option<CpuMask>,
    /// `std::thread::available_parallelism` before pinning: the
    /// daemon's thread count.
    pub nproc: usize,
    /// The CPU the calling thread was pinned to, if pinning worked.
    pub pinned: Option<usize>,
}

impl Cpus {
    /// Pins the calling thread, and every thread and process it starts
    /// from then on, to the first CPU it may use.
    ///
    /// Left to the scheduler, a client and the daemon threads it talks
    /// to share a CPU in some runs and not in others, and a warm round
    /// trip or a pipelined burst then costs about 1.4× or 3.5× as much
    /// from one run to the next. Pinned, every run places them alike.
    pub fn pin_first() -> Cpus {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let allowed = get_affinity();
        let pinned = allowed.and_then(|mask| {
            let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
            let mut one: CpuMask = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            set_affinity(&one).then_some(cpu)
        });
        Cpus {
            allowed,
            nproc,
            pinned,
        }
    }

    /// Lets the calling thread, and what it starts from then on, run on
    /// every CPU the process could use before pinning.
    pub fn widen(&self) {
        if let Some(mask) = &self.allowed {
            set_affinity(mask);
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

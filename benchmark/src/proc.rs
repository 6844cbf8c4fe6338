//! Process and host facts (no dependency): CPU time for the noise guard,
//! peak memory, and what machine this is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::hint::black_box;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The system allocator, counting live heap bytes and their peak.
///
/// Peak resident memory (`VmHWM`) turned out bimodal on the reference host
/// — 10.8 or 16.0 MiB for the same seed, depending on where glibc's
/// dynamic mmap threshold settles — so it cannot carry a bound. Bytes the
/// program asked for repeat exactly, and are what a change that trades
/// memory for speed moves.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    // statistics only: the counters publish no other data, so Relaxed
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence what is
// returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on to `System.alloc`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `System.realloc` is called directly so
        // in-place growth stays as cheap as without the counter.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// Peak live heap bytes so far, in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The calibration kernel's usual fastest time on the reference host (the
/// one `baseline.json` names; it ranges from 0.017 to 0.019 there), in
/// seconds.
const CALIBRATION_REFERENCE_S: f64 = 0.018;

/// A yardstick for the host's speed during one run.
///
/// On the shared reference host everything — serves, compiles, sweeps —
/// runs up to a fifth slower or faster from one minute to the next, in
/// step. A fixed kernel timed throughout the run (a naive 48 x 48 x 48 i8
/// matmul, 300 times over: some 18 ms, the length of a timed segment)
/// moves with it: ten runs' rates spread 12 % raw and 5 % once divided by
/// the kernel's speed. Host timings are therefore reported in *calibrated*
/// seconds: seconds of a host on which the kernel takes
/// [`CALIBRATION_REFERENCE_S`]. The kernel lives in the benchmark and calls
/// nothing of the repository's, so no change to the system moves it.
pub struct Calibration {
    fastest_s: f64,
    a: Vec<i8>,
    b: Vec<i8>,
    c: Vec<i32>,
}

const KERNEL_DIM: usize = 48;
const KERNEL_REPEATS: usize = 300;

impl Calibration {
    pub fn new() -> Self {
        let cells = KERNEL_DIM * KERNEL_DIM;
        Self {
            fastest_s: f64::INFINITY,
            a: (0..cells).map(|i| (i % 13) as i8 - 6).collect(),
            b: (0..cells).map(|i| (i % 7) as i8 - 3).collect(),
            c: vec![0; cells],
        }
    }

    /// Runs the kernel once and keeps its fastest time so far: like every
    /// host timing here, the least disturbed repetition.
    pub fn sample(&mut self) {
        let n = KERNEL_DIM;
        let started = Instant::now();
        for _ in 0..KERNEL_REPEATS {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0i32;
                    for k in 0..n {
                        acc = acc.wrapping_add(i32::from(a[i * n + k]) * i32::from(b[k * n + j]));
                    }
                    self.c[i * n + j] = acc;
                }
            }
            black_box(&self.c);
        }
        self.fastest_s = self.fastest_s.min(started.elapsed().as_secs_f64());
    }

    /// The kernel's fastest time this run, in seconds.
    pub fn fastest_s(&self) -> f64 {
        self.fastest_s
    }

    /// What a host-second of this run is worth in calibrated seconds:
    /// below 1 while the host runs slower than the reference.
    ///
    /// # Panics
    /// Panics if the kernel was never sampled: a harness bug.
    pub fn scale(&self) -> f64 {
        assert!(
            self.fastest_s.is_finite(),
            "calibration kernel never sampled"
        );
        CALIBRATION_REFERENCE_S / self.fastest_s
    }
}

/// Clock ticks per second in `/proc/self/stat`: `USER_HZ`, which the Linux
/// ABI fixes at 100 for user space whatever the kernel's own tick is.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far (0 where
/// `/proc` is unreadable: the noise guard then reports a ratio of 0
/// instead of guessing).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // the command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis, after which utime and stime are the
    // 12th and 13th
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Wall and process-CPU time of one timed region.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, CPU seconds)` since `start`.
    pub fn stop(self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu)
    }
}

/// What machine produced a result file: core count, CPU model, compiler.
pub fn host_facts_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}}}",
        crate::report::json_string(&cpu),
        crate::report::json_string(&rustc)
    )
}

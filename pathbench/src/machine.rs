//! Machine-speed normalization and process accounting.
//!
//! Identical processes on the benchmark host run up to 40% apart, and
//! the host exposes no hardware counters. So between work items, while
//! nothing is in flight, the benchmark times a fixed CPU kernel and
//! scales each timing by `NOMINAL_KERNEL_MS / measured`: a host running
//! slow right now stretches the kernel and the work alike, and the
//! ratio cancels. The raw values are printed beside the scaled ones.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// The kernel's reference time. Scaled timings read as if the host ran
/// the kernel in exactly this long.
pub const NOMINAL_KERNEL_MS: f64 = 10.0;

type FixedMap = HashMap<u64, u64, BuildHasherDefault<std::collections::hash_map::DefaultHasher>>;

/// Runs the fixed kernel once and returns its wall time. The kernel
/// mixes what the checker spends its time on: hash-map inserts and
/// lookups over a few MiB, small allocations, and a sort.
pub fn kernel() -> Duration {
    let t = Instant::now();
    let mut map = FixedMap::default();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut keys = Vec::with_capacity(1 << 15);
    for _ in 0..1 << 15 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push(x);
        map.insert(x, x.rotate_left(7));
    }
    let mut acc = 0u64;
    for round in 0..6u64 {
        for k in &keys {
            acc = acc.wrapping_add(map.get(k).copied().unwrap_or(0));
        }
        let mut v: Vec<Vec<u32>> = keys
            .iter()
            .take(1 << 12)
            .map(|k| vec![*k as u32; 1 + (*k % 7) as usize])
            .collect();
        v.sort_unstable_by_key(|e| e[0] ^ round as u32);
        acc = acc.wrapping_add(v[0][0] as u64);
    }
    keys.sort_unstable();
    std::hint::black_box((acc, keys[0]));
    t.elapsed()
}

mod affinity {
    extern "C" {
        pub fn sched_getcpu() -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// A `cpu_set_t` of 1024 CPUs.
type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t` of the size passed, and
    // pid 0 names the calling thread.
    let rc =
        unsafe { affinity::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pins the calling thread to `cpu`; threads it starts afterwards
/// inherit the pin. Returns whether the host allowed it.
pub fn pin(cpu: usize) -> bool {
    let mut mask: CpuMask = [0; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live `cpu_set_t` of the size passed, and pid 0
    // names the calling thread.
    unsafe { affinity::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPU the measured work runs on, and another allowed CPU if there
/// is one.
#[derive(Debug, Clone, Copy)]
pub struct Cpus {
    pub work: usize,
    pub other: Option<usize>,
}

/// Pins the calling thread, before the benchmark starts any other, to
/// the CPU it is running on. Every thread it starts afterwards (the
/// daemon's worker among them) inherits the pin, so the kernel times the
/// CPU that runs the measured work. The two CPUs of the benchmark host
/// change speed separately; unpinned, the daemon's worker often ran on
/// the other CPU than the kernel, and scaling by the kernel added noise
/// instead of removing it. Returns `None` if the host refuses; the run
/// then goes on unpinned.
pub fn pin_work_cpu() -> Option<Cpus> {
    let allowed = allowed_cpus();
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let work = usize::try_from(unsafe { affinity::sched_getcpu() }).ok()?;
    if !pin(work) {
        return None;
    }
    let other = allowed.into_iter().find(|&c| c != work);
    Some(Cpus { work, other })
}

/// Seconds of CPU the whole process (every thread) has used, from
/// `/proc/self/stat` (`utime + stime`, in clock ticks of 10 ms).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How far from a unit of work the kernel points that scale it may lie.
/// The host switches between a fast and a slow phase (kernel points
/// cluster near two values, ~1.5x apart) every second or so; a window of
/// a few seconds follows the drift of the phase mix, while its median
/// outvotes single stalled points.
const WINDOW: Duration = Duration::from_secs(3);

/// Kernel times taken between units of measured work, with when each
/// was taken. Each point is the faster of two back-to-back kernel runs,
/// so a stall that hits one run does not count.
#[derive(Debug, Default, Clone)]
pub struct Speed {
    points: Vec<(Instant, f64)>,
}

impl Speed {
    /// Takes one more point.
    pub fn sample(&mut self) {
        let at = Instant::now();
        let a = kernel().as_secs_f64();
        let b = kernel().as_secs_f64();
        self.points.push((at, a.min(b) * 1e3));
    }

    /// Every point taken, ms.
    pub fn points_ms(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.1).collect()
    }

    /// Median point, ms (`bench.ref_ms`).
    pub fn ref_ms(&self) -> f64 {
        crate::report::median(&self.points_ms())
    }

    /// Factor that turns a raw timing of the work done from `start` to
    /// `end` into a normalized one: the nominal kernel time over the
    /// median of the points taken within [`WINDOW`] of that interval.
    pub fn scale(&self, start: Instant, end: Instant) -> f64 {
        let near: Vec<f64> = self
            .points
            .iter()
            .filter(|(at, _)| *at + WINDOW >= start && *at <= end + WINDOW)
            .map(|p| p.1)
            .collect();
        let ms = if near.is_empty() {
            self.ref_ms()
        } else {
            crate::report::median(&near)
        };
        NOMINAL_KERNEL_MS / ms
    }
}

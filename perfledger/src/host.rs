//! Host facts, interference probes and the calibration kernel. The probes
//! run at the start of every round, so a run slowed by the host can be
//! recognised afterwards: a register-only loop (`alu`) and a dependent
//! random walk over a 32 MiB buffer (`mem`) measure the machine, not the
//! program. The calibration kernel runs around every timed repetition, and
//! the gated timings are expressed in its units (see README, "Calibrated
//! time").

use std::hint::black_box;
use std::time::Instant;

const ALU_STEPS: u64 = 2_000_000;
/// 32 MiB of `u32` links: far past the private caches, and big enough that
/// other tenants of a shared last-level cache slow the walk down.
pub const MEM_WORDS: usize = 8 << 20;
const MEM_STEPS: usize = 100_000;

/// Length of each of the calibration kernel's two vectors: 2 x 64 KiB,
/// past the first-level cache and well inside the second, like the
/// network's weights and activations.
const CALIB_LEN: usize = 8192;
/// Passes of the calibration kernel over its vectors (~0.6 ms).
const CALIB_PASSES: usize = 64;
/// The calibration kernel's nominal time. A calibrated time is a wall time
/// multiplied by this over the kernel's time measured around it: the time
/// the work would take on a host that runs the kernel in exactly this long.
pub const CALIB_NOMINAL_MS: f64 = 0.6;

pub struct Probes {
    chain: Vec<u32>,
    calib: [Vec<f64>; 2],
}

impl Probes {
    pub fn new(seed: u64) -> Probes {
        // Sattolo's shuffle yields one random cycle through every slot, so
        // the walk never settles into a short, cache-resident loop.
        let mut chain: Vec<u32> = (0..MEM_WORDS as u32).collect();
        let mut x = seed | 1;
        for i in (1..MEM_WORDS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chain.swap(i, (x % i as u64) as usize);
        }
        let calib = [
            (0..CALIB_LEN).map(|i| i as f64 * 1e-3).collect(),
            (0..CALIB_LEN).map(|i| 1.0 - i as f64 * 1e-4).collect(),
        ];
        Probes { chain, calib }
    }

    /// Milliseconds one run of the calibration kernel takes: dot products
    /// of two 64 KiB vectors of `f64`, four partial sums per pass. Its
    /// speed follows the host's second-level-cache and floating-point
    /// throughput, which is what neighbouring tenants take away from the
    /// program (the register-only `alu` probe barely moves when they do).
    pub fn calib(&self) -> f64 {
        let t = Instant::now();
        let [a, b] = &self.calib;
        let mut acc = 0.0f64;
        for _ in 0..CALIB_PASSES {
            let mut sums = [0.0f64; 4];
            for (k, (x, y)) in black_box(a).iter().zip(black_box(b)).enumerate() {
                sums[k & 3] += x * y;
            }
            acc += sums.iter().sum::<f64>();
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// `(alu_ms, mem_ms)` for one interleaved pair of probes. The ALU probe
    /// keeps eight independent multiply-add chains in flight, so it needs
    /// the core's full floating-point throughput and slows down when a
    /// sibling hyperthread competes for it.
    pub fn run(&self) -> (f64, f64) {
        let t = Instant::now();
        let mut acc = black_box([1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7]);
        let (m, c) = black_box((0.999_999_9f64, 1e-7f64));
        for _ in 0..ALU_STEPS {
            for a in &mut acc {
                *a = *a * m + c;
            }
        }
        black_box(acc);
        let alu = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let mut i = black_box(0usize);
        for _ in 0..MEM_STEPS {
            i = self.chain[i] as usize;
        }
        black_box(i);
        (alu, t.elapsed().as_secs_f64() * 1e3)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), less the probe
/// buffer, which lives for the whole run.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| (kb * 1024.0 - (MEM_WORDS * 4) as f64) / 1e6)
}

/// `(steal, total)` jiffies of all CPUs so far, from `/proc/stat`: time the
/// hypervisor ran something else while this guest's vCPUs wanted to run.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// `(cpus, cpu model)`.
pub fn facts() -> (usize, String) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    (cpus, model)
}

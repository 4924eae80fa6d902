//! Host-noise probe and process memory figures.
//!
//! The probe is a fixed register-only loop (`alu`) and a fixed dependent pointer chase over an
//! 8 MiB array (`dram`): larger than a core's private L2, so it measures how much memory
//! traffic from other tenants slows a cache-missing load on this host right now. Neither
//! touches the program under test; they explain the time metrics, they are not part of them.
//! The probe runs in a child process, so its 8 MiB array never shapes this process's
//! allocator state or resident set.

use std::hint::black_box;
use std::time::Instant;

const ALU_STEPS: u64 = 40_000_000;
const CHASE_SLOTS: usize = 2 << 20; // 2 Mi u32 slots = 8 MiB
const CHASE_STEPS: usize = 2_000_000;

/// One probe reading, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub alu_ms: f64,
    pub dram_ms: f64,
}

/// Runs both probes once in a child process (this binary with `--probe`).
pub fn probe_in_child() -> Probe {
    let failed = Probe {
        alu_ms: f64::NAN,
        dram_ms: f64::NAN,
    };
    let Ok(exe) = std::env::current_exe() else {
        return failed;
    };
    let Ok(out) = std::process::Command::new(exe).arg("--probe").output() else {
        return failed;
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let mut nums = text.split_whitespace().map(|s| s.parse::<f64>().ok());
    match (nums.next().flatten(), nums.next().flatten()) {
        (Some(alu_ms), Some(dram_ms)) => Probe { alu_ms, dram_ms },
        _ => failed,
    }
}

/// Runs both probes once in this process.
pub fn probe() -> Probe {
    let t = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    for _ in 0..ALU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    let alu_ms = t.elapsed().as_secs_f64() * 1e3;

    // One random cycle through every slot (Sattolo's shuffle), fixed seed: each load depends
    // on the previous one, so the chase runs at the latency of a missing load.
    let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
    let mut state: u64 = 0x005E_ED0F_D2A3;
    for i in (1..CHASE_SLOTS).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = ((state >> 33) % i as u64) as usize;
        next.swap(i, j);
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    black_box(at);
    let dram_ms = t.elapsed().as_secs_f64() * 1e3;
    Probe { alu_ms, dram_ms }
}

/// `(steal, total)` jiffies of all CPUs, from the first line of `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor gave to others between two `cpu_jiffies` readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

/// Peak resident set of this process (not its children) in MiB, from `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

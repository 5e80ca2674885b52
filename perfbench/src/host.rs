//! Host-speed calibration.
//!
//! The benchmark runs on a few vCPUs of a shared machine. Its speed moves
//! between phases that last minutes, longer than a run, and a simulation
//! call can take twice as long in a slow phase as in a fast one. No
//! statistic over one run averages that out.
//!
//! So every simulation call is bracketed by a fixed calibration kernel,
//! which is part of the benchmark, not of the simulator. The kernel's time
//! over its reference time, [`REFERENCE_S`], is the host's slowness at that
//! moment, and the host-time metrics are divided by it. The kernel makes
//! random read-modify-write accesses to a 32 MB table, with many loads in
//! flight at once. Of the kernels tried (README.md), it is the one whose
//! time kept a constant ratio to a simulation call's across host phases.
//! A change to the kernel, its size or [`REFERENCE_S`] moves every
//! host-time metric, so the kernel is frozen.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 2^22 × 8 B = 32 MB, about the working set of the 8-core
/// workloads and more than the private caches hold.
const ENTRIES: usize = 1 << 22;
/// Accesses per sample.
const ACCESSES: u64 = 5_000_000;
/// Seconds one sample takes at the reference host speed: the median
/// measured on the baseline host (2 vCPUs of an `Intel(R) Xeon(R)
/// Processor`, model 143) in a fast phase. Slowness 1.0 is that speed.
pub const REFERENCE_S: f64 = 0.048;

/// The calibration kernel and its table, allocated once per run.
pub struct HostClock {
    table: Vec<u64>,
}

impl HostClock {
    /// Allocates the table, writing every entry so that all of it is
    /// resident from here on, and warms it with one untimed pass.
    pub fn new() -> Self {
        let table = (0..ENTRIES as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let mut clock = Self { table };
        clock.sample();
        clock
    }

    /// Runs the kernel once; returns the host's slowness, the kernel's
    /// time over [`REFERENCE_S`].
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(random_updates(&mut self.table, ACCESSES));
        t.elapsed().as_secs_f64() / REFERENCE_S
    }
}

/// `accesses` read-modify-writes at xorshift-random entries of `table`,
/// whose length is a power of two. Every sample makes the same accesses.
fn random_updates(table: &mut [u64], accesses: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x0139_408d_cbbf_7a44_u64;
    let mut sum = 0u64;
    for _ in 0..accesses {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        sum = sum.wrapping_add(table[i]);
        table[i] = sum;
    }
    sum
}

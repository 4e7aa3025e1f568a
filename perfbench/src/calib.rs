//! Host-speed calibration.
//!
//! On a shared host the same binary can run 50–60% slower for minutes at a
//! time (measured while building this benchmark: a certify-deep pass took
//! 14.6 s and, seven minutes later, 23.9 s). The end-to-end times are
//! therefore reported in reference-host seconds: each run times a fixed
//! kernel, which belongs to the benchmark and never to the program under
//! test, and divides its wall times by the kernel's slowdown against
//! [`REFERENCE_S`]. The raw wall times stay in the report lines, next to
//! the `host_slowdown` samples they were divided by.

use crate::plan::Rng;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time on the reference host: its median over 30
/// benchmark runs on the 2-core shared Xeon VM the benchmark was built on.
pub const REFERENCE_S: f64 = 0.064;

/// Times one run of the kernel: a register-only hash loop, then dependent
/// random loads over 32 MiB and a sequential sum over it, so both a smaller
/// CPU share and memory contention slow it down.
pub fn kernel_s() -> f64 {
    const WORDS: usize = 1 << 22;
    let start = Instant::now();
    let mut rng = Rng::new(1, 0);
    let mut h = 0u64;
    for _ in 0..WORDS {
        h ^= rng.next_u64();
    }
    let v: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let mut idx = 0usize;
    for _ in 0..WORDS / 8 {
        let x = v[idx];
        h = h.wrapping_add(x);
        idx = ((x as usize) ^ idx) & (WORDS - 1);
    }
    let sum = v.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    black_box((h, sum));
    start.elapsed().as_secs_f64()
}

/// The host's slowdown against the reference: one kernel run's time over
/// [`REFERENCE_S`] (above 1 means slower than the reference host).
pub fn slowdown() -> f64 {
    kernel_s() / REFERENCE_S
}

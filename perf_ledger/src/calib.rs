//! Host-speed calibration. On a shared host the same code runs at
//! different speeds from one minute to the next (neighbours on the
//! physical cores, frequency changes), by as much as 2× between runs,
//! and no amount of repetition inside one run averages that away. The
//! timed run therefore interleaves a fixed probe with its repetitions
//! and scales its median timings to the host speed at which the probe
//! takes [`REFERENCE_PROBE_S`].
//!
//! The probe is the benchmark's own code and never calls into the
//! program, so a change to the program moves the normalised figures
//! exactly as it moves the raw ones. Changing the probe or its
//! reference changes every normalised figure; that is a benchmark-only
//! change and re-baselines the ledger.

use std::time::Instant;

/// The probe time that defines the reference host speed: about what
/// the probe takes on a 2-vCPU Xeon at its slower, usual speed.
pub const REFERENCE_PROBE_S: f64 = 0.040;

/// Seconds a fixed mix of work like the simulator's takes on this host
/// now: scalar float math with `exp` (as in the leakage model) and
/// random stores into an L2-sized table, then short-lived allocations,
/// sorting and formatting (as in board builds and result records).
pub fn probe() -> f64 {
    let mut table = vec![1u64; 1 << 15];
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(i);
        acc += ((x >> 11) as f64 * 1e-16).exp();
    }
    let mut bytes = 0usize;
    for i in 0..20_000usize {
        let len = 16 + i % 48;
        let mut v: Vec<f64> = (0..len).map(|j| ((i * 31 + j * 7) % 97) as f64).collect();
        v.sort_by(f64::total_cmp);
        bytes += format!("{i}-{}", v[len / 2]).len();
    }
    std::hint::black_box((acc, &table, bytes));
    t0.elapsed().as_secs_f64()
}

/// How much slower than the reference this host ran while the probe
/// took `probe_s`: multiply a duration by the inverse, a rate by this.
pub fn slowdown(probe_s: f64) -> f64 {
    probe_s / REFERENCE_PROBE_S
}

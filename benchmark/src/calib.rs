//! Host-speed calibration of the end-to-end times.
//!
//! The 2-core reference host shares its memory system with neighbouring
//! machines, and its speed drifts by up to 1.6× over seconds to minutes
//! as they load it. The drift hits allocation- and pointer-heavy code,
//! like the analysis, and barely moves pure arithmetic: over three
//! minutes of back-to-back runs, a scale analysis correlated with this
//! module's kernel at r ≈ 0.5–0.8 and with an arithmetic loop at r ≈ 0.2.
//! So every end-to-end time is measured next to a run of the kernel and
//! scaled by [`REFERENCE_MS`] / kernel time: it reads as the time on a
//! host whose kernel takes `REFERENCE_MS`. In that trial the quartile
//! spread of 15-second medians fell from 23–26% unscaled to 6% scaled.
//! The kernel is the benchmark's own code, so a change to the program
//! does not move it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Kernel time, in milliseconds, that scaled times are expressed at: about
/// the kernel's time on the reference host when its neighbours are quiet.
pub const REFERENCE_MS: f64 = 10.0;

/// Elements the kernel inserts and allocates per round; small, so the
/// kernel adds under 1 MB to the peak resident set.
const KERNEL_N: u64 = 8_000;

/// Rounds per kernel run.
const KERNEL_ROUNDS: u64 = 5;

/// The calibration kernel: map inserts of small heap vectors and a
/// vector of vectors, the allocation and pointer-chasing mix of the
/// analysis. Returns a checksum so the work cannot be optimized away.
fn kernel() -> u64 {
    let mut sum = 0u64;
    for round in 0..KERNEL_ROUNDS {
        let mut map = BTreeMap::new();
        for i in 0..KERNEL_N {
            map.insert(i.wrapping_mul(7919) % 100_003, vec![i ^ round; 8]);
        }
        let rows: Vec<Vec<u64>> = (0..KERNEL_N).map(|i| (0..i % 16).collect()).collect();
        sum = sum.wrapping_add(map.values().map(|v| v[0]).sum::<u64>());
        sum = sum.wrapping_add(rows.iter().map(|r| r.len() as u64).sum::<u64>());
    }
    sum
}

/// Run the kernel once; returns the factor that scales a time measured
/// next to it to the reference host speed.
pub fn factor() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    REFERENCE_MS / (start.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_factor_is_positive() {
        assert_eq!(kernel(), kernel());
        let f = factor();
        assert!(f.is_finite() && f > 0.0, "{f}");
    }
}

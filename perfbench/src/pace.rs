//! The host's pace: a fixed, bench-owned reference kernel timed right
//! after each measured operation.
//!
//! The benchmark host is a shared VM whose speed per instruction drops
//! by up to 1.8x for stretches of 5 to over 30 seconds, with no CPU steal
//! recorded. Between the stretches, and in short gaps inside most of
//! them, it runs at full speed, so the fastest batch of a run is steady
//! (1.64–1.85 ms over the runs measured). But some stretches outlast a
//! whole 30-second run and leave no gap, and then the fastest batch rose
//! by 40% (2.26 and 2.41 ms). The reference kernel slows in the same
//! stretches, a little less than a batch: over 2-second windows with no
//! gap the fastest batch rose by 62–85% and the fastest reference call
//! by 35–60%. [`paced_fastest`] scales the fastest batch by the fastest
//! reference call, which cuts such a run's error to about a quarter of
//! what the raw fastest batch would carry and leaves a run with gaps as
//! it was.
//!
//! The reference is pure benchmark code, so a change to the program
//! moves the paced time in full and a change to the host mostly does not.

use std::hint::black_box;
use std::time::Instant;

/// Rows of the reference product.
const M: usize = 32;
/// Inner dimension.
const K: usize = 144;
/// Columns.
const N: usize = 64;
/// Products per reference call (about 0.33 ms on an idle core).
const REPS: usize = 16;

/// The reference kernel's wall time on an idle core of the 2-core Xeon
/// VM the benchmark was tuned on, in ms. A ratio times this is a time
/// at that host's uncontended speed.
pub const NOMINAL_MS: f64 = 0.3333;

/// The reference kernel: `REPS` integer products `A · Bᵀ` of `[M, K]` by
/// `[N, K]` signed 8-bit operands into `i32`, the arithmetic of packed
/// inference, on operands small enough to stay in L1.
pub struct Pace {
    a: Vec<i8>,
    b: Vec<i8>,
    c: Vec<i32>,
}

impl Default for Pace {
    fn default() -> Self {
        Pace {
            a: (0..M * K).map(|i| ((i * 7) % 13) as i8 - 6).collect(),
            b: (0..N * K).map(|i| ((i * 5) % 11) as i8 - 5).collect(),
            c: vec![0; M * N],
        }
    }
}

impl Pace {
    /// Runs the reference kernel once; returns its wall time in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..REPS {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            for (i, out) in self.c.chunks_exact_mut(N).enumerate() {
                let row = &a[i * K..(i + 1) * K];
                for (o, col) in out.iter_mut().zip(b.chunks_exact(K)) {
                    *o = row
                        .iter()
                        .zip(col)
                        .map(|(&x, &y)| i32::from(x) * i32::from(y))
                        .sum();
                }
            }
            black_box(&self.c);
        }
        1e3 * t0.elapsed().as_secs_f64()
    }
}

/// The fastest operation of a run at the host's nominal pace, in ms:
/// the fastest of `op_ms` scaled by [`NOMINAL_MS`] over the fastest of
/// `ref_ms`, the reference calls interleaved with the operations. When
/// the host leaves gaps in its contention both minima fall in them and
/// the scale is about 1; when a whole run is slowed both minima rise
/// and the scale takes most of the slowdown out.
pub fn paced_fastest(op_ms: &[f64], ref_ms: &[f64]) -> f64 {
    let reference = crate::fastest(ref_ms);
    if reference > 0.0 {
        crate::fastest(op_ms) * NOMINAL_MS / reference
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_fastest_scales_by_the_fastest_reference() {
        // A run slowed throughout: every batch and reference call 1.5x.
        let ops = [3.0, 2.7, 2.85];
        let refs = [1.5 * NOMINAL_MS, 1.6 * NOMINAL_MS, 1.55 * NOMINAL_MS];
        let paced = paced_fastest(&ops, &refs);
        assert!((paced - 1.8).abs() < 1e-12, "{paced}");
        assert_eq!(paced_fastest(&ops, &[]), 0.0);
        assert_eq!(paced_fastest(&[], &refs), 0.0);
    }

    #[test]
    fn reference_kernel_times_positive() {
        let mut pace = Pace::default();
        assert!(pace.time_ms() > 0.0);
        // The product itself is fixed: row 0 · column 0.
        let expect: i32 = (0..K)
            .map(|p| i32::from(pace.a[p]) * i32::from(pace.b[p]))
            .sum();
        assert_eq!(pace.c[0], expect);
    }
}

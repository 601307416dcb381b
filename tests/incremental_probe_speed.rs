//! Speed floor for incremental competition probes.
//!
//! A competition probe re-evaluates the validation batches with one
//! layer's spec flipped. The incremental path re-enters the forward at
//! the cached activation boundary in front of the probed layer instead
//! of running the whole network again. Both paths give bit-identical
//! decisions (the `incremental_eval` and `engine_equivalence` suites
//! prove that); this test pins that the incremental path is never the
//! slower one.
//!
//! Workload: a 10-round round-robin competition on `plain_cnn(4, 2,
//! Pact, 0)` over eight 2-sample SynthCIFAR validation batches, in a
//! 1-thread pool. Full-forward and incremental runs are interleaved and
//! the floor compares their medians.
//!
//! Measured `full / incremental` on a 2-CPU x86-64 host: 2.05–2.26x
//! (release, parallel build), 2.06–2.14x (release, serial build) and
//! 1.83–2.53x (debug). The floor is 1.0, about 2x below every
//! measurement.
//!
//! It lives in its own test binary so no other test shares the process
//! while it times.

use ccq_repro::ccq::{Competition, LambdaSchedule};
use ccq_repro::data::{synth_cifar, SynthCifarConfig};
use ccq_repro::models::plain_cnn;
use ccq_repro::nn::train::Batch;
use ccq_repro::nn::Network;
use ccq_repro::quant::{BitLadder, PolicyKind};
use ccq_repro::tensor::rng;
use std::hint::black_box;
use std::time::Instant;

/// Interleaved repetitions per path; the floor compares medians.
const REPS: usize = 15;

/// Minimum `full / incremental` median wall-time ratio.
const FLOOR: f64 = 1.0;

/// One competition run at a fixed seed, returning its wall time in
/// seconds. Restores the network's specs afterwards so every repetition
/// starts from the same state.
fn competition_secs(net: &mut Network, val: &[Batch], incremental: bool) -> f64 {
    let ladder = BitLadder::paper_default();
    let lambda = LambdaSchedule::constant(0.5);
    let specs: Vec<_> = (0..net.quant_layer_count())
        .map(|i| net.quant_spec(i))
        .collect();
    let mut comp = Competition::new(0.5, 10).incremental(incremental);
    let mut r = rng(1);
    let t0 = Instant::now();
    let out = comp
        .run(net, &ladder, None, &lambda, 0, val, &mut r)
        .expect("competition");
    let secs = t0.elapsed().as_secs_f64();
    black_box(out);
    for (i, spec) in specs.iter().enumerate() {
        net.set_quant_spec(i, *spec);
    }
    secs
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn incremental_probes_are_not_slower_than_full_forwards() {
    let data = synth_cifar(&SynthCifarConfig {
        classes: 4,
        samples_per_class: 16,
        image_size: 8,
        seed: 0,
        ..Default::default()
    });
    let (_, val) = data.split_at(48);
    let val = val.batches(2);
    let mut net = plain_cnn(4, 2, PolicyKind::Pact, 0);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");

    let (full, incremental) = pool.install(|| {
        // Warm caches and lazy state on both paths before timing.
        competition_secs(&mut net, &val, false);
        competition_secs(&mut net, &val, true);
        let (mut full, mut incremental) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            full.push(competition_secs(&mut net, &val, false));
            incremental.push(competition_secs(&mut net, &val, true));
        }
        (median(full), median(incremental))
    });
    let speedup = full / incremental;
    eprintln!("incremental vs full-forward probe speedup {speedup:.3}x");
    assert!(
        speedup >= FLOOR,
        "incremental probing slower than full forwards: {speedup:.3}x \
         (full {full:.4}s, incremental {incremental:.4}s)"
    );
}

//! End-to-end and per-layer benchmark of the CCQ pipeline.
//!
//! Four closed-loop workloads (see `METRICS.md` for every metric, its
//! unit, and the workload it should move; `BENCHMARK.json` gates
//! `infer-packed` and `serve-drain`, and the doc explains why):
//!
//! - `search-hedge`: a CCQ descent with the Hedge searcher to the
//!   compression target (competition-heavy);
//! - `search-oneshot`: the same descent with the one-shot allocator
//!   (recovery-dominated);
//! - `infer-packed`: integer inference of a packed mixed-precision
//!   ResNet, one batch at a time;
//! - `serve-drain`: a queue of small jobs drained through the daemon.
//!
//! A timed run (`--trace 0`) reports the end-to-end metrics; a separate
//! traced run (`--trace 1`) times the calls into each crate from outside
//! and reports the per-layer metrics.

pub mod gemm;
pub mod host;
pub mod infer;
pub mod layers;
pub mod model;
pub mod pace;
pub mod pins;
pub mod search;
pub mod serve;
pub mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads, by the names the metrics doc uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hedge-searcher descent to the compression target.
    SearchHedge,
    /// One-shot-searcher descent to the same target.
    SearchOneshot,
    /// Packed integer inference, one batch at a time.
    InferPacked,
    /// Draining a queue of demo jobs through the daemon.
    ServeDrain,
}

impl Workload {
    /// Every workload the benchmark runs.
    pub const ALL: [Workload; 4] = [
        Workload::SearchHedge,
        Workload::SearchOneshot,
        Workload::InferPacked,
        Workload::ServeDrain,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchHedge => "search-hedge",
            Workload::SearchOneshot => "search-oneshot",
            Workload::InferPacked => "infer-packed",
            Workload::ServeDrain => "serve-drain",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::smoke`] runs every code path in a few seconds for tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// SynthCIFAR classes.
    pub classes: usize,
    /// SynthCIFAR training images.
    pub train_images: usize,
    /// SynthCIFAR validation images (the searches' validation set).
    pub val_images: usize,
    /// Images in the held-out test draw (the inference stream).
    pub test_images: usize,
    /// Square image side.
    pub image: usize,
    /// ResNet20 base width.
    pub width: usize,
    /// Minibatch size for training, validation and inference.
    pub batch: usize,
    /// Full-precision pre-training epochs.
    pub pretrain_epochs: usize,
    /// Set-ups per timed run (their median is `setup_s`); each builds
    /// the inputs of one sub-seed.
    pub setups: usize,
    /// Minimum operations per timed run.
    pub min_ops: usize,
    /// Minimum batches per timed `infer-packed` run.
    pub min_batches: usize,
    /// Demo jobs per serve queue.
    pub jobs: usize,
    /// Repetitions per timed call in the layer pass.
    pub layer_reps: usize,
}

impl Scale {
    /// The measured sizes.
    pub fn full() -> Scale {
        Scale {
            classes: 4,
            train_images: 96,
            val_images: 64,
            test_images: 256,
            image: 8,
            width: 4,
            batch: 32,
            pretrain_epochs: 30,
            setups: 3,
            min_ops: 6,
            min_batches: stats::min_samples_for(infer::TAIL),
            jobs: 6,
            layer_reps: 7,
        }
    }

    /// Tiny sizes that still run every path (tests).
    pub fn smoke() -> Scale {
        Scale {
            classes: 3,
            train_images: 24,
            val_images: 16,
            test_images: 24,
            image: 8,
            width: 2,
            batch: 8,
            pretrain_epochs: 2,
            setups: 2,
            min_ops: 1,
            min_batches: 4,
            jobs: 2,
            layer_reps: 1,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement window of a timed run.
    pub seconds: f64,
    /// Traced (per-layer) instead of timed (end-to-end) run.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// Scratch directory for autosaves, artifacts and spools.
    pub work_dir: PathBuf,
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run produced: operation counts, check failures, metrics for
/// the result line, and human-readable lines printed before it.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (searches, batches, jobs, artifact checks).
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// One message per failure.
    pub failures: Vec<String>,
    /// Metrics for the result line, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Whether every check passed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs one workload and returns its outcome. Errors inside a workload
/// surface as failed operations, never as panics.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    host::Host::detect().describe(&mut out);
    match p.workload {
        Workload::SearchHedge | Workload::SearchOneshot => search::run(p, &mut out),
        Workload::InferPacked => infer::run(p, &mut out),
        Workload::ServeDrain => serve::run(p, &mut out),
    }
    if p.trace {
        layers::kernel_pass(p, &mut out);
    } else {
        let rss = host::peak_rss_mb();
        out.op(rss.is_some(), || "peak RSS unreadable".into());
        out.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.line(format!(
        "failed_ops_ratio = {ratio} ({} failed / {} attempted)",
        out.failed, out.attempted
    ));
    out
}

/// The seed of sub-input `i` of workload seed `seed`.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(i as u64)
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Times `f` after one warm-up call, repeating until both `min_reps`
/// samples and `budget_s` seconds are spent (at most 10 000 samples).
/// Returns the samples in milliseconds.
pub fn time_ms<T>(min_reps: usize, budget_s: f64, mut f: impl FnMut() -> T) -> Vec<f64> {
    std::hint::black_box(f());
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps.max(1) || (secs(start) < budget_s && samples.len() < 10_000) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(1e3 * secs(t0));
    }
    samples
}

/// The percentile of per-operation wall time that `op_ms` reports for
/// `serve-drain` drains. On a shared host their median moved by up to
/// half between back-to-back runs of identical work, while the 5th
/// percentile, the speed the code reaches when the host leaves it
/// alone, held within a few percent. The fastest drain does not: its
/// fsyncs and poll waits make single drains of the same queue run twice
/// as fast now and then. `infer-packed` reports its fastest batch at the
/// host's nominal pace (see [`pace`]); the searches, with about ten
/// second-long descents per run, report the median. Every workload
/// prints its median (and `infer-packed` its p99) by name.
pub const FAST: f64 = 5.0;

/// The [`FAST`] percentile of `samples`, 0 for none.
pub fn fast(samples: &[f64]) -> f64 {
    stats::percentile(samples, FAST).unwrap_or(0.0)
}

/// The fastest of `samples`, 0 for none.
pub fn fastest(samples: &[f64]) -> f64 {
    stats::percentile(samples, 0.0).unwrap_or(0.0)
}

/// Median of `samples`, 0 for none.
pub fn med(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

/// FNV-1a over a byte stream — the digest pinned correctness values use.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

//! `search-hedge` and `search-oneshot`: a CCQ descent from a pre-trained
//! ResNet to the compression target, with adaptive recovery and
//! autosave on.

use crate::model::{self, ImageTask};
use crate::{fast, layers, med, pins, secs, serve, Outcome, Params, Workload};
use ccq::{
    CcqConfig, CcqReport, CcqRunner, DescentEvent, EventSink, NullSink, Phase, RecoveryMode,
    SearcherKind, StartPoint, StepOutcome,
};
use ccq_data::Augment;
use ccq_nn::train::{evaluate, Batch};
use ccq_nn::Network;
use ccq_quant::BitWidth;
use ccq_tensor::Rng64;
use std::time::Instant;

type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Bench-owned event sink: counts what the descent did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Competition probes (one per expert evaluation).
    pub probes: u64,
    /// Recovery (fine-tuning) epochs.
    pub recovery_epochs: u64,
    /// Divergence-guard rollbacks.
    pub rollbacks: u64,
}

impl EventSink for Counts {
    fn on_event(&mut self, ev: &DescentEvent) {
        match ev {
            DescentEvent::ProbeRound { probes, .. } => self.probes += probes.len() as u64,
            DescentEvent::RecoveryEpoch { .. } => self.recovery_epochs += 1,
            DescentEvent::GuardRollback { .. } => self.rollbacks += 1,
            _ => {}
        }
    }
}

/// Wall seconds per engine phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// [`Phase::InitQuantize`].
    pub init: f64,
    /// [`Phase::Compete`].
    pub compete: f64,
    /// [`Phase::Quantize`].
    pub quantize: f64,
    /// [`Phase::Recover`].
    pub recover: f64,
    /// [`Phase::Checkpoint`].
    pub checkpoint: f64,
}

impl PhaseTimes {
    /// Attributes `s` seconds to `phase`.
    pub fn add(&mut self, phase: Phase, s: f64) {
        match phase {
            Phase::InitQuantize => self.init += s,
            Phase::Compete => self.compete += s,
            Phase::Quantize => self.quantize += s,
            Phase::Recover => self.recover += s,
            Phase::Checkpoint => self.checkpoint += s,
            Phase::Done => {}
        }
    }

    /// Sum over phases.
    pub fn total(&self) -> f64 {
        self.init + self.compete + self.quantize + self.recover + self.checkpoint
    }
}

/// A traced descent's per-layer view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreTrace {
    /// Phase attribution of the traced descent(s).
    pub phases: PhaseTimes,
    /// Event counts.
    pub counts: Counts,
    /// Traced wall time, fresh engine to `Done`.
    pub traced_s: f64,
    /// Untraced wall time of the same descent(s).
    pub untraced_s: f64,
    /// Probe segments run ÷ segments a full forward would run.
    pub probe_forward_fraction: f64,
}

impl CoreTrace {
    /// Field-wise median of repeated traces of one descent (counts are
    /// equal across repeats and taken from the first).
    pub fn median(traces: &[CoreTrace]) -> CoreTrace {
        let m = |f: fn(&CoreTrace) -> f64| med(&traces.iter().map(f).collect::<Vec<_>>());
        CoreTrace {
            phases: PhaseTimes {
                init: m(|t| t.phases.init),
                compete: m(|t| t.phases.compete),
                quantize: m(|t| t.phases.quantize),
                recover: m(|t| t.phases.recover),
                checkpoint: m(|t| t.phases.checkpoint),
            },
            counts: traces.first().map(|t| t.counts).unwrap_or_default(),
            traced_s: m(|t| t.traced_s),
            untraced_s: m(|t| t.untraced_s),
            probe_forward_fraction: m(|t| t.probe_forward_fraction),
        }
    }

    /// Reports the `core.*` rows.
    pub fn report(&self, out: &mut Outcome) {
        let ph = &self.phases;
        let c = &self.counts;
        out.metric("core.init_quantize_s", ph.init, "s");
        out.metric("core.compete_s", ph.compete, "s");
        out.metric("core.quantize_s", ph.quantize, "s");
        out.metric("core.recover_s", ph.recover, "s");
        out.metric("core.checkpoint_s", ph.checkpoint, "s");
        out.metric("core.probes", c.probes as f64, "count");
        out.metric(
            "core.probes_per_s",
            c.probes as f64 / ph.compete.max(1e-9),
            "1/s",
        );
        out.metric(
            "core.probe_forward_fraction",
            self.probe_forward_fraction,
            "ratio",
        );
        out.metric("core.recovery_epochs", c.recovery_epochs as f64, "count");
        out.metric(
            "core.recover_s_per_epoch",
            ph.recover / (c.recovery_epochs.max(1) as f64),
            "s",
        );
        out.metric("core.guard_rollbacks", c.rollbacks as f64, "count");
        out.metric(
            "core.phase_coverage",
            ph.total() / self.traced_s.max(1e-9),
            "ratio",
        );
        out.metric(
            "core.trace_overhead_pct",
            100.0 * (self.traced_s / self.untraced_s.max(1e-9) - 1.0),
            "%",
        );
        out.line(format!(
            "phase mix: compete {:.1}% recover {:.1}% quantize {:.1}% checkpoint {:.1}% init {:.1}% of {:.3} s traced ({:.3} s untraced)",
            100.0 * ph.compete / self.traced_s.max(1e-9),
            100.0 * ph.recover / self.traced_s.max(1e-9),
            100.0 * ph.quantize / self.traced_s.max(1e-9),
            100.0 * ph.checkpoint / self.traced_s.max(1e-9),
            100.0 * ph.init / self.traced_s.max(1e-9),
            self.traced_s,
            self.untraced_s,
        ));
    }
}

/// One finished descent.
#[derive(Debug)]
pub struct Descent {
    /// The run's report.
    pub report: CcqReport,
    /// Wall seconds from fresh engine to `Done`.
    pub secs: f64,
    /// The final mixed-precision network.
    pub net: Network,
    /// The traced view (traced descents only).
    pub trace: Option<CoreTrace>,
    /// Train-provider call times, ms (traced descents only).
    pub provider_ms: Vec<f64>,
}

/// The workload's searcher.
pub fn searcher(w: Workload) -> SearcherKind {
    match w {
        Workload::SearchOneshot => SearcherKind::OneShot,
        _ => SearcherKind::Hedge,
    }
}

/// Per-layer weight-bit floor (the paper's Table I mode). Every layer
/// descends to it, so a descent always takes one step per layer and its
/// length does not depend on the order the searcher picks.
pub const FLOOR_BITS: u32 = 6;

/// The compression target: the compression of the floor assignment, a
/// hair below so float rounding cannot miss it. A descent reaches it
/// exactly when the last layer reaches its floor.
pub const TARGET: f64 = 32.0 / FLOOR_BITS as f64 - 1e-6;

/// Adaptive recovery: train until validation accuracy is within this
/// much of the running baseline...
pub const TOLERANCE: f32 = 0.15;

/// ...or for at most this many epochs.
pub const MAX_EPOCHS: usize = 3;

/// Validation batches per competition probe.
pub const PROBE_VAL_BATCHES: usize = 1;

/// The descent configuration for `kind` over a network with `layers`
/// quantizable layers.
pub fn config(p: &Params, kind: SearcherKind, layers: usize) -> CcqConfig {
    CcqConfig {
        target_compression: Some(TARGET),
        targets: Some(vec![BitWidth::of(FLOOR_BITS); layers]),
        recovery: RecoveryMode::Adaptive {
            tolerance: TOLERANCE,
            max_epochs: MAX_EPOCHS,
        },
        probe_val_batches: PROBE_VAL_BATCHES,
        batch_size: p.scale.batch,
        seed: p.seed,
        searcher: kind,
        autosave: Some(p.work_dir.join(format!("{kind}.ccqruns"))),
        ..CcqConfig::default()
    }
}

/// A batch provider: one collaboration stage's training batches.
pub type Provider<'a> = dyn FnMut(&mut Rng64) -> Vec<Batch> + 'a;

/// Runs one descent over a fresh copy of `net`. The clock starts at the
/// fresh engine; `traced` single-steps it, attributes each step's wall
/// time to the phase that ran, counts events in a bench-owned sink and
/// times every `provider` call.
///
/// # Errors
///
/// Any error the descent surfaces.
pub fn descend(
    net: &Network,
    provider: &mut Provider<'_>,
    val: &[Batch],
    cfg: &CcqConfig,
    traced: bool,
) -> ccq::Result<Descent> {
    let mut net = net.clone();
    let mut provider_ms = Vec::new();
    let t0 = Instant::now();
    let mut runner = CcqRunner::new(cfg.clone());
    let (report, trace) = if traced {
        let mut counts = Counts::default();
        let mut phases = PhaseTimes::default();
        let mut timed = |r: &mut Rng64| -> Vec<Batch> {
            let t = Instant::now();
            let b = provider(r);
            provider_ms.push(1e3 * secs(t));
            b
        };
        let mut engine =
            runner.engine(&mut net, &mut timed, val, &mut counts, StartPoint::Fresh)?;
        loop {
            let t = Instant::now();
            match engine.step()? {
                StepOutcome::Advanced { ran, .. } => phases.add(ran, secs(t)),
                StepOutcome::Finished => break,
            }
        }
        let stats = engine.probe_cache_stats();
        let fraction = stats.segments_run as f64 / stats.segments_total.max(1) as f64;
        let report = engine
            .into_report()
            .ok_or(ccq::CcqError::EngineInvariant("Done implies a report"))?;
        let trace = CoreTrace {
            phases,
            counts,
            traced_s: secs(t0),
            untraced_s: 0.0,
            probe_forward_fraction: fraction,
        };
        (report, Some(trace))
    } else {
        let report = runner
            .engine(&mut net, provider, val, &mut NullSink, StartPoint::Fresh)?
            .run_to_completion()?;
        (report, None)
    };
    Ok(Descent {
        report,
        secs: secs(t0),
        net,
        trace,
        provider_ms,
    })
}

/// The image workloads' provider: a freshly augmented epoch per stage.
pub fn image_provider(task: &ImageTask, batch: usize) -> impl FnMut(&mut Rng64) -> Vec<Batch> + '_ {
    let aug = Augment::standard();
    move |r: &mut Rng64| task.train.augmented_batches(batch, &aug, r)
}

/// The values a descent's correctness is pinned by.
#[derive(Debug, Clone, PartialEq)]
pub struct Final {
    /// Final per-layer bit pattern.
    pub pattern: String,
    /// Final top-1, percent.
    pub top1_pct: f64,
    /// Final compression ratio.
    pub compression: f64,
}

impl Final {
    /// Extracts the pinned values from a report.
    pub fn of(r: &CcqReport) -> Final {
        Final {
            pattern: r.bit_pattern(),
            top1_pct: 100.0 * f64::from(r.final_accuracy),
            compression: r.final_compression,
        }
    }
}

/// Digest over a sweep's outcomes (patterns, exact top-1 and
/// compression bits), in sweep order.
pub fn digest(finals: &[Final]) -> u64 {
    crate::fnv1a(finals.iter().flat_map(|f| {
        let mut b = f.pattern.clone().into_bytes();
        b.extend(f.top1_pct.to_bits().to_le_bytes());
        b.extend(f.compression.to_bits().to_le_bytes());
        b
    }))
}

/// Checks that one descent reached its target.
fn check_target(out: &mut Outcome, cfg: &CcqConfig, got: &Final) {
    if let Some(target) = cfg.target_compression {
        out.op(got.compression >= target, || {
            format!(
                "compression {:.3}x below the {target}x target",
                got.compression
            )
        });
    }
}

/// Runs the workload.
pub fn run(p: &Params, out: &mut Outcome) {
    let result = if p.trace {
        traced(p, out)
    } else {
        timed(p, out)
    };
    if let Err(e) = result {
        out.op(false, || format!("{}: {e}", p.workload.name()));
    }
}

/// The timed run. Set-up builds `scale.setups` tasks (data plus a
/// pre-trained network) from sub-seeds of the workload seed; the run
/// descends from each task in turn, with the workload seed, until the
/// window closes. `search_s` is the median over every descent.
fn timed(p: &Params, out: &mut Outcome) -> BoxResult<()> {
    let kind = searcher(p.workload);
    let mut setup_s = Vec::new();
    let mut tasks = Vec::new();
    for i in 0..p.scale.setups {
        let t0 = Instant::now();
        tasks.push(model::build(&p.scale, crate::sub_seed(p.seed, i))?);
        setup_s.push(secs(t0));
    }
    let cfg = config(p, kind, tasks[0].net.clone().quant_layer_count());

    // Descents cycle over the tasks; the first cycle is the sweep the
    // pins cover, and every later descent must repeat its task's first
    // outcome exactly.
    let mut descent_s = Vec::new();
    let mut finals: Vec<Final> = Vec::new();
    let mut test_top1 = Vec::new();
    let t_run = Instant::now();
    while descent_s.len() < p.scale.min_ops.max(tasks.len()) || secs(t_run) < p.seconds {
        let i = descent_s.len() % tasks.len();
        let task = &tasks[i];
        let mut provider = image_provider(task, p.scale.batch);
        let d = descend(&task.net, &mut provider, &task.val, &cfg, false)?;
        descent_s.push(d.secs);
        let got = Final::of(&d.report);
        check_target(out, &cfg, &got);
        match finals.get(i) {
            None => {
                let mut net = d.net;
                test_top1.push(100.0 * f64::from(evaluate(&mut net, &task.test)?.accuracy));
                finals.push(got);
            }
            Some(f) => out.op(&got == f, || {
                format!("descent {i} did not repeat: {got:?} vs {f:?}")
            }),
        }
    }
    if let Some(pin) = pins::digest(p) {
        let got = digest(&finals);
        out.op(got == pin, || {
            format!("seed {} pinned sweep digest {pin:#x}, got {got:#x}", p.seed)
        });
    }
    let n = finals.len() as f64;
    let top1 = test_top1.iter().sum::<f64>() / n;
    let compression = finals.iter().map(|f| f.compression).sum::<f64>() / n;
    let total: f64 = descent_s.iter().sum();
    out.line(format!(
        "search_s = {:.4} s median, {:.4} s p5 ({} descents {descent_s:.3?}; {:.4} descents/s)",
        med(&descent_s),
        fast(&descent_s),
        descent_s.len(),
        descent_s.len() as f64 / total
    ));
    out.line(format!(
        "sweep of {} descents: held-out top-1 {top1:.3}% at {compression:.4}x; digest {:#x}",
        finals.len(),
        digest(&finals)
    ));
    for (f, t) in finals.iter().zip(&tasks) {
        out.line(format!(
            "  baseline {:.2}% -> {} {:.3}% {:.4}x",
            100.0 * t.baseline,
            f.pattern,
            f.top1_pct,
            f.compression
        ));
    }
    out.line(format!(
        "setup_s = {:.4} s (median of {} set-ups {setup_s:.3?})",
        med(&setup_s),
        setup_s.len()
    ));
    out.metric("setup_s", med(&setup_s), "s");
    out.metric("op_ms", 1e3 * med(&descent_s), "ms");
    out.metric("quality_pct", top1, "%");
    out.metric("compression_x", compression, "x");
    Ok(())
}

/// The traced run: an untraced and a traced descent of the same seed,
/// the layer pass on the descent's own final network and batches, and
/// the serve layer's reference drain.
fn traced(p: &Params, out: &mut Outcome) -> BoxResult<()> {
    let task = model::build(&p.scale, crate::sub_seed(p.seed, 0))?;
    let cfg = config(
        p,
        searcher(p.workload),
        task.net.clone().quant_layer_count(),
    );
    let mut provider = image_provider(&task, p.scale.batch);
    let (d, _) = core_pass(
        out,
        &task.net,
        &mut provider,
        &task.val,
        &cfg,
        p.seconds / 2.0,
    )?;
    layers::data_rows(out, 1e3 * task.synth_s, med(&d.provider_ms));
    let train = provider(&mut ccq_tensor::rng(p.seed));
    let arch = model::arch(&p.scale);
    layers::net_pass(p, out, &d.net, &arch, &train, &task.val)?;
    serve::reference(p, out)?;
    Ok(())
}

/// Runs untraced and traced descents of one configuration in turn for
/// at least `window` seconds, checks that every one reaches the same
/// outcome with the same event counts, and reports the `core.*` rows as
/// per-field medians. Returns the last traced descent and the median
/// trace.
///
/// # Errors
///
/// Any error a descent surfaces.
pub fn core_pass(
    out: &mut Outcome,
    net: &Network,
    provider: &mut Provider<'_>,
    val: &[Batch],
    cfg: &CcqConfig,
    window: f64,
) -> BoxResult<(Descent, CoreTrace)> {
    let t0 = Instant::now();
    let mut traces = Vec::new();
    let mut plain_s = Vec::new();
    let mut first: Option<(Final, Counts)> = None;
    loop {
        let plain = descend(net, provider, val, cfg, false)?;
        let mut traced = descend(net, provider, val, cfg, true)?;
        let trace = traced.trace.take().ok_or("traced descent lost its trace")?;
        let (a, b) = (Final::of(&plain.report), Final::of(&traced.report));
        check_target(out, cfg, &b);
        out.op(a == b, || format!("traced descent differs: {b:?} vs {a:?}"));
        let (f, c) = first.get_or_insert_with(|| (b.clone(), trace.counts));
        out.op(*f == b && *c == trace.counts, || {
            "a traced descent did not repeat".into()
        });
        plain_s.push(plain.secs);
        traces.push(trace);
        if secs(t0) >= window {
            let mut trace = CoreTrace::median(&traces);
            trace.untraced_s = med(&plain_s);
            trace.report(out);
            out.line(format!(
                "core rows: medians of {} traced descents",
                traces.len()
            ));
            return Ok((traced, trace));
        }
    }
}

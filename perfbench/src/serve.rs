//! `serve-drain`: a fixed queue of small demo jobs drained through the
//! daemon. Every job autosaves its run state each step, fsyncs its event
//! log and writes a `.ccqpack` sidecar, so durable writes, spool
//! transitions and poll latency dominate.

use crate::model::argmax_rows;
use crate::search::{self, Counts};
use crate::{fast, fnv1a, layers, med, pins, secs, Outcome, Params};
use ccq::{parse_events, DescentEvent, EventSink};
use ccq_infer::{arch, PackedModel};
use ccq_nn::train::train_epoch;
use ccq_nn::{PackedExec, Sgd};
use ccq_serve::{execute_job, run_daemon, DaemonConfig, DaemonReport, Dir, JobSpec, Spool};
use ccq_tensor::{rng, Rng64};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// The queue for a seed: `scale.jobs` demo jobs whose variants (and so
/// seeds and ladders) follow from the workload seed.
pub fn jobs(p: &Params) -> Vec<JobSpec> {
    let n = p.scale.jobs as u64;
    (0..n)
        .map(|i| JobSpec::demo(&format!("job{i:02}"), p.seed.wrapping_mul(n) + i))
        .collect()
}

/// A fresh, initialized spool under the work directory.
fn fresh_spool(p: &Params, tag: &str) -> BoxResult<Spool> {
    let root = p.work_dir.join(tag);
    if root.exists() {
        std::fs::remove_dir_all(&root)?;
    }
    let spool = Spool::new(root);
    spool.init()?;
    Ok(spool)
}

/// Enqueues every job; returns each enqueue's time in ms.
fn enqueue_all(spool: &Spool, jobs: &[JobSpec]) -> BoxResult<Vec<f64>> {
    let mut ms = Vec::new();
    for spec in jobs {
        let t0 = Instant::now();
        spool.enqueue(spec)?;
        ms.push(1e3 * secs(t0));
    }
    Ok(ms)
}

/// Drains the spool in drain mode; returns the report and wall seconds.
fn drain(spool: &Spool, workers: usize) -> BoxResult<(DaemonReport, f64)> {
    let cfg = DaemonConfig {
        workers,
        drain: true,
        ..DaemonConfig::default()
    };
    let t0 = Instant::now();
    let report = run_daemon(spool, &cfg, &AtomicBool::new(false))?;
    Ok((report, secs(t0)))
}

/// What a drained queue left behind.
#[derive(Debug, Clone, PartialEq)]
struct Drained {
    /// Digest over every job's `.ccqpack` bytes, in queue order.
    digest: u64,
    /// Mean final top-1 over the jobs, percent.
    top1_pct: f64,
    /// Share of the jobs' validation images on which the `.ccqpack`'s
    /// integer path predicts the label its dequant (fake-quant) path
    /// does, percent.
    agreement_pct: f64,
    /// Mean final compression over the jobs.
    compression: f64,
}

/// Checks that every job landed in `done/` with a loadable `.ccqpack`
/// and a finished event log; one operation per job.
fn check_done(out: &mut Outcome, spool: &Spool, jobs: &[JobSpec]) -> Drained {
    let mut bytes = Vec::new();
    let (mut top1, mut compression) = (0.0, 0.0);
    let (mut agree, mut images) = (0usize, 0usize);
    for spec in jobs {
        let id = &spec.name;
        let landed = (|| -> BoxResult<(f64, f64, usize, usize)> {
            if spool.find(id)? != Some(Dir::Done) {
                return Err(format!("job {id} is not in done/").into());
            }
            let pack = spool.pack_path(Dir::Done, id);
            let raw = std::fs::read(&pack)?;
            let model = PackedModel::load(&pack)?;
            if model.to_bytes() != raw {
                return Err(format!("job {id}: .ccqpack does not round-trip").into());
            }
            let (agree, images) = pack_agreement(&model, spec)?;
            bytes.extend(raw);
            let events = parse_events(&std::fs::read_to_string(spool.events_path(Dir::Done, id))?)?;
            match events.last() {
                Some(DescentEvent::Finished {
                    final_accuracy,
                    final_compression,
                    ..
                }) => Ok((
                    100.0 * f64::from(*final_accuracy),
                    *final_compression,
                    agree,
                    images,
                )),
                _ => Err(format!("job {id}: event log does not end in Finished").into()),
            }
        })();
        out.op(landed.is_ok(), || format!("{landed:?}"));
        if let Ok((t, c, a, i)) = landed {
            top1 += t;
            compression += c;
            agree += a;
            images += i;
        }
    }
    let n = jobs.len().max(1) as f64;
    Drained {
        digest: fnv1a(bytes),
        top1_pct: top1 / n,
        agreement_pct: 100.0 * agree as f64 / images.max(1) as f64,
        compression: compression / n,
    }
}

/// Runs a job's deployed `.ccqpack` over the job's validation split in
/// both execution modes; returns how many images get the same label
/// from the integer path as from the dequant path, and how many ran.
fn pack_agreement(model: &PackedModel, spec: &JobSpec) -> BoxResult<(usize, usize)> {
    let mut net = model.instantiate()?;
    let (_, val) = spec.build_batches();
    let (mut agree, mut images) = (0, 0);
    for b in &val {
        let dequant = argmax_rows(&net.forward_packed(&b.images, PackedExec::Dequant)?);
        let integer = argmax_rows(&net.forward_packed(&b.images, PackedExec::Integer)?);
        agree += dequant.iter().zip(&integer).filter(|(a, b)| a == b).count();
        images += dequant.len();
    }
    Ok((agree, images))
}

/// Runs the workload.
pub fn run(p: &Params, out: &mut Outcome) {
    let result = if p.trace {
        traced(p, out)
    } else {
        timed(p, out)
    };
    if let Err(e) = result {
        out.op(false, || format!("serve-drain: {e}"));
    }
}

fn timed(p: &Params, out: &mut Outcome) -> BoxResult<()> {
    let jobs = jobs(p);
    let workers = crate::host::Host::detect().workers;
    let (mut setup_s, mut drain_s) = (Vec::new(), Vec::new());
    let mut first: Option<Drained> = None;
    let t_run = Instant::now();
    while drain_s.len() < p.scale.min_ops || secs(t_run) < p.seconds {
        let t0 = Instant::now();
        let spool = fresh_spool(p, "spool")?;
        enqueue_all(&spool, &jobs)?;
        setup_s.push(secs(t0));
        let (report, s) = drain(&spool, workers)?;
        drain_s.push(s);
        out.op(
            report.done == jobs.len() && report.failed + report.quarantined == 0,
            || format!("daemon report {report:?}"),
        );
        let got = check_done(out, &spool, &jobs);
        let first = first.get_or_insert_with(|| got.clone());
        out.op(&got == first, || {
            format!("drain not deterministic: {got:?} vs {first:?}")
        });
        if let Some(digest) = pins::digest(p) {
            out.op(got.digest == digest, || {
                format!(
                    "seed {} pinned pack digest {digest:#x}, got {:#x}",
                    p.seed, got.digest
                )
            });
        }
    }
    let d = first.ok_or("no drain ran")?;
    let jobs_done = (drain_s.len() * jobs.len()) as f64;
    out.line(format!(
        "serve_drain_s = {:.4} s median, {:.4} s p5 ({} drains of {} jobs, {workers} workers; {:.2} jobs/s; pack digest {:#x})",
        med(&drain_s),
        fast(&drain_s),
        drain_s.len(),
        jobs.len(),
        jobs_done / drain_s.iter().sum::<f64>(),
        d.digest
    ));
    out.line(format!(
        "job top-1 = {:.2} % mean; .ccqpack integer-vs-dequant label agreement = {:.2} %",
        d.top1_pct, d.agreement_pct
    ));
    out.line(format!(
        "setup_s = {:.4} s (median of {} spool set-ups)",
        med(&setup_s),
        setup_s.len()
    ));
    out.metric("setup_s", med(&setup_s), "s");
    out.metric("op_ms", 1e3 * fast(&drain_s), "ms");
    out.metric("quality_pct", d.agreement_pct, "%");
    out.metric("compression_x", d.compression, "x");
    Ok(())
}

/// The `serve.*` rows: per-job enqueue, a drain with its daemon
/// counters, each job executed alone on one worker, and the queue's
/// overhead over that job time. Every traced run reports them.
///
/// # Errors
///
/// Spool, daemon and job errors.
pub fn reference(p: &Params, out: &mut Outcome) -> BoxResult<()> {
    let jobs = jobs(p);
    let workers = crate::host::Host::detect().workers;
    let spool = fresh_spool(p, "trace-spool")?;
    let enqueue_ms = enqueue_all(&spool, &jobs)?;
    let (report, drain_s) = drain(&spool, workers)?;
    check_done(out, &spool, &jobs);

    let solo = fresh_spool(p, "trace-solo")?;
    let mut job_s = Vec::new();
    for spec in &jobs {
        let t0 = Instant::now();
        execute_job(&solo, spec, &|| false, None)?;
        job_s.push(secs(t0));
    }
    let overhead = drain_s - job_s.iter().sum::<f64>() / workers as f64;
    out.metric("serve.enqueue_ms", med(&enqueue_ms), "ms");
    out.metric("serve.execute_job_s", med(&job_s), "s");
    out.metric("serve.queue_overhead_s", overhead, "s");
    out.metric("serve.claims", report.claims as f64, "count");
    out.metric("serve.retries", report.retries as f64, "count");
    out.metric(
        "serve.failed",
        (report.failed + report.quarantined) as f64,
        "count",
    );
    out.line(format!(
        "serve: drain {drain_s:.4} s with {workers} workers, {} jobs at {:.4} s each alone",
        jobs.len(),
        med(&job_s)
    ));
    Ok(())
}

/// The traced run: the serve rows, then the first job's descent traced
/// outside the daemon (the job's own recipe: pre-train, then the
/// descent), then the layer pass on that job's final network.
fn traced(p: &Params, out: &mut Outcome) -> BoxResult<()> {
    reference(p, out)?;
    let spec = jobs(p).remove(0);
    let t0 = Instant::now();
    let (train, val) = spec.build_batches();
    let synth_ms = 1e3 * secs(t0);
    let mut net = spec.build_net();
    let mut opt = Sgd::new(spec.pretrain_lr).momentum(spec.pretrain_momentum);
    let mut r = rng(spec.pretrain_seed);
    for _ in 0..spec.pretrain_epochs {
        train_epoch(&mut net, &train, &mut opt, &mut r)?;
    }
    let mut cfg = spec.to_config()?;
    cfg.autosave = Some(p.work_dir.join("job.ccqruns"));
    let mut provider = |_: &mut Rng64| train.clone();
    let (d, trace) = search::core_pass(out, &net, &mut provider, &val, &cfg, p.seconds / 2.0)?;
    layers::data_rows(out, synth_ms, med(&d.provider_ms));
    layers::net_pass(
        p,
        out,
        &d.net,
        &arch::mlp_arch(&spec.mlp_dims),
        &train,
        &val,
    )?;
    let mut counts = Counts::default();
    for ev in parse_events(&std::fs::read_to_string(
        Spool::new(p.work_dir.join("trace-spool")).events_path(Dir::Done, &spec.name),
    )?)? {
        counts.on_event(&ev);
    }
    // The daemon ran the same job from the same spec: its event log in
    // `done/` must count exactly what the traced replica did.
    out.op(counts == trace.counts, || {
        format!(
            "daemon job counted {counts:?}, traced replica {:?}",
            trace.counts
        )
    });
    Ok(())
}

//! `infer-packed`: one client streams fixed-size batches through the
//! packed integer forward of a mixed int8/int4/int2 ResNet, sending the
//! next batch only when the previous one finished. No training runs.

use crate::model::{self, argmax_rows};
use crate::pace::{self, Pace};
use crate::{fastest, layers, med, pins, search, secs, serve, stats, Outcome, Params};
use ccq::SearcherKind;
use ccq_infer::PackedModel;
use ccq_nn::train::Batch;
use ccq_nn::{Mode, Network, PackedExec};
use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
use std::time::Instant;

type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Largest tolerated |integer − fake-quant| logit deviation: activation
/// grids are dynamic, so a rounding-boundary input can flip one
/// activation code and the flip compounds through depth.
pub const INT_BOUND: f32 = 1e-1;

/// Test batches on which dequant and integer execution are compared
/// against the fake-quant forward.
const CHECK_BATCHES: usize = 2;

/// Tail percentile reported for batch latency.
pub const TAIL: f64 = 99.0;

/// Seconds after which a timed run stops even short of the sample count
/// the tail needs.
const MAX_RUN_S: f64 = 120.0;

/// The fixed mixed-precision ladder: int8/int4/int2 cycling over the
/// layers, the second layer pruned, the classifier head full precision.
pub fn assign_ladder(net: &mut Network) {
    let n = net.quant_layer_count();
    for i in 0..n {
        let spec = if i + 1 == n {
            QuantSpec::full_precision(PolicyKind::MaxAbs)
        } else if i == 1 {
            QuantSpec::new(PolicyKind::MaxAbs, BitWidth::ZERO, BitWidth::ZERO)
        } else {
            let bits = [8, 4, 2][i % 3];
            QuantSpec::new(PolicyKind::MaxAbs, BitWidth::of(bits), BitWidth::of(8))
        };
        net.set_quant_spec(i, spec);
    }
}

/// The deployed model and the fake-quant network it was packed from.
struct Deployed {
    fake: Network,
    model: PackedModel,
    net: Network,
    task: model::ImageTask,
}

/// Set-up: data, pre-training, packing, a `CCQPACK` round trip through
/// `save_atomic`/`load`, and instantiation. The reload must equal the
/// saved bytes.
fn setup(p: &Params, out: &mut Outcome) -> BoxResult<Deployed> {
    let task = model::build(&p.scale, p.seed)?;
    let mut fake = task.net.clone();
    assign_ladder(&mut fake);
    let arch = model::arch(&p.scale);
    let model = PackedModel::capture(&mut fake.clone(), &arch)?;
    let path = p.work_dir.join("infer.ccqpack");
    model.save_atomic(&path)?;
    let saved = std::fs::read(&path)?;
    let loaded = PackedModel::load(&path)?;
    out.op(saved == model.to_bytes() && loaded == model, || {
        "CCQPACK reload differs from the saved model".into()
    });
    let net = loaded.instantiate()?;
    Ok(Deployed {
        fake,
        model,
        net,
        task,
    })
}

/// Reference predictions over the stream, after the agreement checks:
/// dequant execution bit-exact against the fake-quant `Eval` forward and
/// integer execution within [`INT_BOUND`] on the check subset. Returns
/// the integer path's labels per batch and the share of images on which
/// they equal the fake-quant labels, in percent.
fn reference(
    p: &Params,
    out: &mut Outcome,
    d: &mut Deployed,
    test: &[Batch],
) -> BoxResult<(Vec<Vec<usize>>, f64)> {
    for b in test.iter().take(CHECK_BATCHES) {
        let fake = d.fake.forward(&b.images, Mode::Eval)?;
        let dequant = d.net.forward_packed(&b.images, PackedExec::Dequant)?;
        let integer = d.net.forward_packed(&b.images, PackedExec::Integer)?;
        out.op(fake.as_slice() == dequant.as_slice(), || {
            "dequant execution is not bit-exact against fake-quant".into()
        });
        let dev = fake
            .as_slice()
            .iter()
            .zip(integer.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        out.op(dev <= INT_BOUND, || {
            format!("integer deviation {dev:e} exceeds {INT_BOUND:e}")
        });
    }
    let labels = test
        .iter()
        .map(|b| {
            Ok(argmax_rows(
                &d.net.forward_packed(&b.images, PackedExec::Integer)?,
            ))
        })
        .collect::<ccq_nn::Result<Vec<_>>>()?;
    let mut agree = 0usize;
    for (b, l) in test.iter().zip(&labels) {
        let fake = argmax_rows(&d.fake.forward(&b.images, Mode::Eval)?);
        agree += fake.iter().zip(l).filter(|(a, b)| a == b).count();
    }
    let images: usize = test.iter().map(Batch::len).sum();
    let digest = crate::fnv1a(
        labels
            .iter()
            .flatten()
            .flat_map(|&l| (l as u32).to_le_bytes()),
    );
    if let Some(pin) = pins::digest(p) {
        out.op(pin == digest, || {
            format!(
                "seed {} pinned label digest {pin:#x}, got {digest:#x}",
                p.seed
            )
        });
    }
    out.line(format!("predicted-label digest {digest:#x}"));
    Ok((labels, 100.0 * agree as f64 / images.max(1) as f64))
}

/// Runs the workload.
pub fn run(p: &Params, out: &mut Outcome) {
    let result = if p.trace {
        traced(p, out)
    } else {
        timed(p, out)
    };
    if let Err(e) = result {
        out.op(false, || format!("infer-packed: {e}"));
    }
}

fn timed(p: &Params, out: &mut Outcome) -> BoxResult<()> {
    let mut setup_s = Vec::new();
    let mut deployed = None;
    for _ in 0..p.scale.setups {
        let t0 = Instant::now();
        let d = setup(p, out)?;
        setup_s.push(secs(t0));
        deployed = Some(d);
    }
    let mut d = deployed.ok_or("no set-up ran")?;
    let test = d.task.test.clone();
    let (expected, agreement) = reference(p, out, &mut d, &test)?;

    let (mut batch_ms, mut ref_ms) = (Vec::new(), Vec::new());
    let mut pace = Pace::default();
    let mut images = 0usize;
    let t_run = Instant::now();
    while (secs(t_run) < p.seconds || batch_ms.len() < p.scale.min_batches)
        && secs(t_run) < MAX_RUN_S
    {
        let i = batch_ms.len() % test.len();
        let t0 = Instant::now();
        let logits = d.net.forward_packed(&test[i].images, PackedExec::Integer);
        batch_ms.push(1e3 * secs(t0));
        // The host's pace right after the batch (see `pace`).
        ref_ms.push(pace.time_ms());
        images += test[i].len();
        let ok = matches!(&logits, Ok(l) if argmax_rows(l) == expected[i]);
        out.op(ok, || format!("batch {i}: predictions changed"));
    }
    let busy_s = 1e-3 * batch_ms.iter().sum::<f64>();
    let paced = pace::paced_fastest(&batch_ms, &ref_ms);
    let p50 = med(&batch_ms);
    let p99 = stats::tail(&batch_ms, TAIL);
    let correct: usize = test
        .iter()
        .zip(&expected)
        .map(|(b, e)| b.labels.iter().zip(e).filter(|(a, b)| a == b).count())
        .sum();
    let top1 = 100.0 * correct as f64 / test.iter().map(Batch::len).sum::<usize>() as f64;
    let compression = layers::compression(&d.model);

    out.line(format!(
        "infer_images_per_s = {:.2} images/s ({images} images in {} batches of {}, batch time only)",
        images as f64 / busy_s,
        batch_ms.len(),
        p.scale.batch
    ));
    out.line(format!(
        "infer_batch_p50_ms = {p50:.4} ms, fastest {:.4} ms ({} samples)",
        fastest(&batch_ms),
        batch_ms.len()
    ));
    out.line(format!(
        "paced fastest batch = {paced:.4} ms (reference kernel fastest {:.4} ms, median {:.4} ms, nominal {} ms)",
        fastest(&ref_ms),
        med(&ref_ms),
        pace::NOMINAL_MS
    ));
    match p99 {
        Some(v) => out.line(format!(
            "infer_batch_p99_ms = {v:.4} ms ({} samples beyond)",
            stats::beyond(batch_ms.len(), TAIL)
        )),
        None => out.line(format!(
            "infer_batch_p99_ms = n/a (fewer than {} samples)",
            stats::min_samples_for(TAIL)
        )),
    }
    out.line(format!(
        "setup_s = {:.4} s (median of {} set-ups); packed top-1 {top1:.2}%, {agreement:.2}% of labels equal fake-quant, {compression:.3}x",
        med(&setup_s),
        setup_s.len()
    ));
    out.metric("setup_s", med(&setup_s), "s");
    out.metric("op_ms", paced, "ms");
    out.metric("quality_pct", agreement, "%");
    out.metric("compression_x", compression, "x");
    Ok(())
}

/// The traced run: the layer pass on the laddered network, the core
/// rows from a one-shot descent of the workload's own pre-trained
/// network (the search that would produce such a deployment), and the
/// serve layer's reference drain.
fn traced(p: &Params, out: &mut Outcome) -> BoxResult<()> {
    let mut d = setup(p, out)?;
    let test = d.task.test.clone();
    reference(p, out, &mut d, &test)?;
    let task = &d.task;
    let mut provider = search::image_provider(task, p.scale.batch);
    let cfg = search::config(
        p,
        SearcherKind::OneShot,
        task.net.clone().quant_layer_count(),
    );
    let (searched, _) = search::core_pass(
        out,
        &task.net,
        &mut provider,
        &task.val,
        &cfg,
        p.seconds / 2.0,
    )?;
    layers::data_rows(out, 1e3 * task.synth_s, med(&searched.provider_ms));
    let train = provider(&mut ccq_tensor::rng(p.seed));
    let arch = model::arch(&p.scale);
    layers::net_pass(p, out, &d.fake, &arch, &train, &test)?;
    serve::reference(p, out)?;
    Ok(())
}

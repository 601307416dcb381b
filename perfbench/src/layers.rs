//! The layer pass of a traced run: times public calls into `ccq-nn`,
//! `ccq-quant`, `ccq-infer`, `ccq-tensor` and `ccq-data` from outside,
//! at the shapes the workloads run.

use crate::gemm::{self, Gemm, Lowering};
use crate::{med, model, secs, serve, time_ms, Outcome, Params};
use ccq_infer::{LayerPayload, PackedModel};
use ccq_nn::cache::ActivationCache;
use ccq_nn::loss::cross_entropy;
use ccq_nn::train::{evaluate, evaluate_from, train_epoch, Batch};
use ccq_nn::{Mode, Network, PackedExec, Sgd};
use ccq_tensor::ops::{
    col2im, im2col, int_im2col, int_matmul, int_matmul_a_bt, matmul, matmul_a_bt, matmul_at_b,
};
use ccq_tensor::{rng, Init, Rng64, Tensor};
use std::hint::black_box;
use std::time::Instant;

type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Seconds each timed call of the layer pass repeats for, at least.
const BUDGET_S: f64 = 0.02;

/// The `data.*` rows.
pub fn data_rows(out: &mut Outcome, synth_ms: f64, augmented_batches_ms: f64) {
    out.metric("data.synth_ms", synth_ms, "ms");
    out.metric("data.augmented_batches_ms", augmented_batches_ms, "ms");
}

/// The `nn.*`, `quant.*` and `infer.*` rows, measured on `net` (the
/// workload's own network with its final quantization specs) at its
/// training and validation batches. `arch` rebuilds `net` for packing.
///
/// # Errors
///
/// Any error a timed call returns.
pub fn net_pass(
    p: &Params,
    out: &mut Outcome,
    net: &Network,
    arch: &str,
    train: &[Batch],
    val: &[Batch],
) -> BoxResult<()> {
    let reps = p.scale.layer_reps;
    let x = &train[0].images;
    let labels = &train[0].labels;
    let mut r = rng(p.seed);

    let mut c = net.clone();
    let mut opt = Sgd::new(0.01).momentum(0.9);
    let mut epoch = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        train_epoch(&mut c, train, &mut opt, &mut r)?;
        epoch.push(1e3 * secs(t0));
    }
    out.metric("nn.train_epoch_ms", med(&epoch), "ms");

    let mut c = net.clone();
    let fwd = time_ms(reps, BUDGET_S, || c.forward(x, Mode::Train));
    out.metric("nn.forward_train_ms", med(&fwd), "ms");
    let mut bwd = Vec::new();
    for _ in 0..reps {
        let logits = c.forward(x, Mode::Train)?;
        let (_, grad) = cross_entropy(&logits, labels)?;
        let t0 = Instant::now();
        black_box(c.backward(&grad)?);
        bwd.push(1e3 * secs(t0));
    }
    out.metric("nn.backward_ms", med(&bwd), "ms");

    let mut c = net.clone();
    let snap = c.snapshot();
    out.metric(
        "nn.snapshot_ms",
        med(&time_ms(reps, BUDGET_S, || c.snapshot())),
        "ms",
    );
    let restore = time_ms(reps, BUDGET_S, || c.restore(&snap));
    out.metric("nn.restore_ms", med(&restore), "ms");

    let probe = &val[..crate::search::PROBE_VAL_BATCHES.min(val.len())];
    let eval = time_ms(reps, BUDGET_S, || evaluate(&mut c, val));
    out.metric("nn.evaluate_ms", med(&eval), "ms");
    let fill = time_ms(reps, BUDGET_S, || ActivationCache::fill(&mut c, probe));
    out.metric("nn.cache_fill_ms", med(&fill), "ms");
    let cache = ActivationCache::fill(&mut c, probe)?;
    let mid = c.quant_layer_count() / 2;
    let segment = cache.segment_of(mid);
    evaluate_from(&mut c, segment, 0, &cache, probe)?;
    let from = time_ms(reps, BUDGET_S, || {
        evaluate_from(&mut c, segment, 0, &cache, probe)
    });
    out.metric("nn.evaluate_from_ms", med(&from), "ms");

    quant_rows(p, out, net, x)?;
    infer_rows(p, out, net, arch, &val[0])?;
    Ok(())
}

/// `quant.*`: weight and activation fake-quant over every layer, per
/// network pass, on inputs shaped like each layer's real input.
fn quant_rows(p: &Params, out: &mut Outcome, net: &Network, x: &Tensor) -> BoxResult<()> {
    let mut c = net.clone();
    let gemms = gemm::layer_gemms(&c, x)?;
    let mut quants = Vec::new();
    c.visit_quant(&mut |h| quants.push((h.quant.clone(), h.weight.value.clone())));
    let mut r = rng(p.seed);
    let acts: Vec<Tensor> = gemms
        .iter()
        .map(|g| Init::Uniform { lo: 0.0, hi: 2.0 }.sample(&g.input_dims(), &mut r))
        .collect();
    let w = time_ms(p.scale.layer_reps, BUDGET_S, || {
        quants
            .iter()
            .map(|(q, w)| q.quantize_weights(w).len())
            .sum::<usize>()
    });
    out.metric("quant.quantize_weights_ms", med(&w), "ms");
    let a = time_ms(p.scale.layer_reps, BUDGET_S, || {
        quants
            .iter()
            .zip(&acts)
            .map(|((q, _), x)| q.quantize_acts(x).len())
            .sum::<usize>()
    });
    out.metric("quant.quantize_acts_ms", med(&a), "ms");
    Ok(())
}

/// `infer.*`: capture, persist, reload and run the packed network.
fn infer_rows(
    p: &Params,
    out: &mut Outcome,
    net: &Network,
    arch: &str,
    batch: &Batch,
) -> BoxResult<()> {
    let reps = p.scale.layer_reps;
    let mut c = net.clone();
    let capture = time_ms(reps, BUDGET_S, || PackedModel::capture(&mut c, arch));
    out.metric("infer.capture_ms", med(&capture), "ms");
    let model = PackedModel::capture(&mut c, arch)?;
    out.metric("infer.payload_bytes", model.payload_bytes() as f64, "bytes");
    let path = p.work_dir.join("layer-pass.ccqpack");
    let save = time_ms(reps, BUDGET_S, || model.save_atomic(&path));
    out.metric("infer.save_atomic_ms", med(&save), "ms");
    let load = time_ms(reps, BUDGET_S, || PackedModel::load(&path));
    out.metric("infer.load_ms", med(&load), "ms");
    let mut deployed = PackedModel::load(&path)?.instantiate()?;
    for (name, exec) in [
        ("infer.forward_integer_ms", PackedExec::Integer),
        ("infer.forward_dequant_ms", PackedExec::Dequant),
    ] {
        let t = time_ms(reps, BUDGET_S, || {
            deployed.forward_packed(&batch.images, exec)
        });
        out.metric(name, med(&t), "ms");
    }
    Ok(())
}

/// Bytes of `f32` weight storage over bytes of packed payload.
pub fn compression(model: &PackedModel) -> f64 {
    let weights: usize = model
        .layers()
        .iter()
        .map(|l| match &l.payload {
            LayerPayload::Packed(w) => w.len(),
            LayerPayload::Shadow(t) => t.len(),
        })
        .sum();
    (4 * weights) as f64 / model.payload_bytes().max(1) as f64
}

/// Every distinct GEMM the benchmark's models issue: the ResNet at the
/// image workloads' batch size and the demo MLP at its job batch size.
///
/// # Errors
///
/// Propagates the shape-probing forward pass's error.
pub fn benchmark_gemms(p: &Params) -> BoxResult<Vec<Gemm>> {
    let s = &p.scale;
    let resnet = model::resnet(s, 0);
    let x = Tensor::zeros(&[s.batch, 3, s.image, s.image]);
    let mut all = gemm::layer_gemms(&resnet, &x)?;
    let spec = serve::jobs(p).remove(0);
    let x = Tensor::zeros(&[spec.batch_size, spec.mlp_dims[0]]);
    all.extend(gemm::layer_gemms(&spec.build_net(), &x)?);
    Ok(gemm::distinct(&all))
}

/// Kernels a conv layer runs: forward GEMM, weight and input gradients,
/// the im2col lowering and its adjoint, and the packed integer path.
pub const CONV_KERNELS: [&str; 7] = [
    "matmul",
    "matmul_a_bt",
    "matmul_at_b",
    "im2col",
    "col2im",
    "int_im2col",
    "int_matmul",
];

/// Kernels a linear layer runs: forward GEMM, weight and input
/// gradients, and the packed integer path.
pub const LINEAR_KERNELS: [&str; 4] = ["matmul_a_bt", "matmul_at_b", "matmul", "int_matmul_a_bt"];

/// The kernel-row metric names for `gemms`.
pub fn kernel_names(gemms: &[Gemm]) -> std::collections::BTreeSet<String> {
    gemms
        .iter()
        .flat_map(|g| {
            let kernels: &[&str] = match g.lowering {
                Lowering::Conv { .. } => &CONV_KERNELS,
                Lowering::Linear => &LINEAR_KERNELS,
            };
            kernels
                .iter()
                .map(move |k| format!("tensor.{k}.{}_ms", g.label()))
        })
        .collect()
}

/// The `tensor.*` rows: every kernel each distinct GEMM's layer runs,
/// plus the thread pool's dispatch overhead.
pub fn kernel_pass(p: &Params, out: &mut Outcome) {
    if let Err(e) = kernel_rows(p, out) {
        out.op(false, || format!("kernel pass: {e}"));
    }
}

fn kernel_rows(p: &Params, out: &mut Outcome) -> BoxResult<()> {
    let mut r = rng(p.seed ^ 0x6b65_726e);
    for g in benchmark_gemms(p)? {
        kernel_shape(p, out, &g, &mut r)?;
    }
    // The smallest `matmul` that splits into two row chunks: two rows
    // and just enough work to clear the kernels' parallel threshold. It
    // runs through ccq-tensor's own dispatch on a pool as wide as the
    // host allows, so the row is that dispatch plus a trivial product.
    let cores = crate::host::Host::detect().cores;
    let pool = rayon::ThreadPoolBuilder::new().num_threads(cores).build()?;
    let (a, b) = (uniform(&[2, 128], &mut r), uniform(&[128, 128], &mut r));
    let dispatch = pool.install(|| time_ms(1000, BUDGET_S, || matmul(&a, &b)));
    out.metric("tensor.par_dispatch_us", 1e3 * med(&dispatch), "us");
    Ok(())
}

fn uniform(dims: &[usize], r: &mut Rng64) -> Tensor {
    Init::Uniform { lo: -1.0, hi: 1.0 }.sample(dims, r)
}

/// Random 8-bit activation codes, carried as `i16`.
fn act_codes(len: usize, r: &mut Rng64) -> Vec<i16> {
    uniform(&[len], r)
        .as_slice()
        .iter()
        .map(|v| (v * 255.0) as i16)
        .collect()
}

/// Random signed 8-bit weight codes.
fn weight_codes(len: usize, r: &mut Rng64) -> Vec<i8> {
    uniform(&[len], r)
        .as_slice()
        .iter()
        .map(|v| (v * 127.0) as i8)
        .collect()
}

/// Times one kernel at one shape: a `_ms` metric plus a report line with
/// its GFLOP/s and bytes moved.
fn row(out: &mut Outcome, kernel: &str, g: &Gemm, flops: f64, bytes: usize, ms: &[f64]) {
    let t = med(ms);
    let label = g.label();
    out.metric(format!("tensor.{kernel}.{label}_ms"), t, "ms");
    let gflops = if flops > 0.0 {
        format!("{:.2} GFLOP/s", flops / (t * 1e6))
    } else {
        "-".to_string()
    };
    out.line(format!(
        "tensor.{kernel}.{label}: {t:.4} ms, {gflops}, {bytes} bytes moved"
    ));
}

fn kernel_shape(p: &Params, out: &mut Outcome, g: &Gemm, r: &mut Rng64) -> BoxResult<()> {
    let (m, k, n) = (g.m, g.k, g.n);
    let f = g.flops();
    let reps = p.scale.layer_reps;
    match g.lowering {
        Lowering::Conv { c, h, geom } => {
            let (w, cols, dmat) = (
                uniform(&[m, k], r),
                uniform(&[k, n], r),
                uniform(&[m, n], r),
            );
            let x = uniform(&g.input_dims(), r);
            let fb = 4 * (m * k + k * n + m * n);
            row(
                out,
                "matmul",
                g,
                f,
                fb,
                &time_ms(reps, BUDGET_S, || matmul(&w, &cols)),
            );
            let t = time_ms(reps, BUDGET_S, || matmul_a_bt(&dmat, &cols));
            row(out, "matmul_a_bt", g, f, fb, &t);
            let t = time_ms(reps, BUDGET_S, || matmul_at_b(&w, &dmat));
            row(out, "matmul_at_b", g, f, fb, &t);
            let ib = 4 * (x.len() + k * n);
            row(
                out,
                "im2col",
                g,
                0.0,
                ib,
                &time_ms(reps, BUDGET_S, || im2col(&x, geom)),
            );
            let t = time_ms(reps, BUDGET_S, || col2im(&cols, g.batch, c, h, h, geom));
            row(out, "col2im", g, 0.0, ib, &t);
            let xc = act_codes(x.len(), r);
            let t = time_ms(reps, BUDGET_S, || int_im2col(&xc, [g.batch, c, h, h], geom));
            row(out, "int_im2col", g, 0.0, 2 * (x.len() + k * n), &t);
            let wc = weight_codes(m * k, r);
            let cc = act_codes(k * n, r);
            let t = time_ms(reps, BUDGET_S, || int_matmul(&wc, &cc, m, k, n));
            row(out, "int_matmul", g, f, m * k + 2 * k * n + 4 * m * n, &t);
        }
        Lowering::Linear => {
            let (x, w, dy) = (
                uniform(&[m, k], r),
                uniform(&[n, k], r),
                uniform(&[m, n], r),
            );
            let fb = 4 * (m * k + k * n + m * n);
            let t = time_ms(reps, BUDGET_S, || matmul_a_bt(&x, &w));
            row(out, "matmul_a_bt", g, f, fb, &t);
            let t = time_ms(reps, BUDGET_S, || matmul_at_b(&dy, &x));
            row(out, "matmul_at_b", g, f, fb, &t);
            row(
                out,
                "matmul",
                g,
                f,
                fb,
                &time_ms(reps, BUDGET_S, || matmul(&dy, &w)),
            );
            let xc = act_codes(m * k, r);
            let wc = weight_codes(n * k, r);
            let t = time_ms(reps, BUDGET_S, || int_matmul_a_bt(&xc, &wc, m, k, n));
            row(
                out,
                "int_matmul_a_bt",
                g,
                f,
                2 * m * k + n * k + 4 * m * n,
                &t,
            );
        }
    }
    Ok(())
}

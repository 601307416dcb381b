//! Smoke-sized runs of every workload: each must pass its correctness
//! checks and report exactly the metrics `BENCHMARK.json` declares.

use ccq_perfbench::{gemm, layers, run, Params, Scale, Workload};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn params(w: Workload, trace: bool) -> Params {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        w.name(),
        u8::from(trace)
    ));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir).expect("work dir");
    Params {
        workload: w,
        seed: 3,
        seconds: 0.0,
        trace,
        scale: Scale::smoke(),
        work_dir,
    }
}

/// The `name` values of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn is_kernel_row(name: &str) -> bool {
    name.starts_with("tensor.") && name != "tensor.par_dispatch_us"
}

fn smoke(w: Workload, trace: bool) -> BTreeSet<String> {
    let p = params(w, trace);
    let out = run(&p);
    assert!(
        out.correct(),
        "{} trace={trace}: {:?}",
        w.name(),
        out.failures
    );
    assert!(out.attempted > 0);
    let names: BTreeSet<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names.len(), out.metrics.len(), "a metric is reported twice");
    let _ = std::fs::remove_dir_all(&p.work_dir);
    names
}

fn check_timed(w: Workload) {
    assert_eq!(smoke(w, false), declared("end_to_end"));
}

fn check_traced(w: Workload) {
    let got = smoke(w, true);
    let want = declared("per_layer");
    let strip = |s: &BTreeSet<String>| -> BTreeSet<String> {
        s.iter().filter(|n| !is_kernel_row(n)).cloned().collect()
    };
    assert_eq!(strip(&got), strip(&want));
    // Kernel rows are named by the GEMM shapes of the scale's models.
    let smoke_p = params(w, true);
    let expected: BTreeSet<String> =
        layers::kernel_names(&layers::benchmark_gemms(&smoke_p).unwrap());
    let kernels: BTreeSet<String> = got.iter().filter(|n| is_kernel_row(n)).cloned().collect();
    assert_eq!(kernels, expected);
    let full = Params {
        scale: Scale::full(),
        ..smoke_p
    };
    let declared_kernels: BTreeSet<String> =
        want.iter().filter(|n| is_kernel_row(n)).cloned().collect();
    assert_eq!(
        layers::kernel_names(&layers::benchmark_gemms(&full).unwrap()),
        declared_kernels
    );
}

#[test]
fn search_hedge_smoke() {
    check_timed(Workload::SearchHedge);
    check_traced(Workload::SearchHedge);
}

#[test]
fn search_oneshot_smoke() {
    check_timed(Workload::SearchOneshot);
    check_traced(Workload::SearchOneshot);
}

#[test]
fn infer_packed_smoke() {
    check_timed(Workload::InferPacked);
    check_traced(Workload::InferPacked);
}

#[test]
fn serve_drain_smoke() {
    check_timed(Workload::ServeDrain);
    check_traced(Workload::ServeDrain);
}

#[test]
fn gemm_shapes_follow_the_resnet_geometry() {
    let p = params(Workload::SearchHedge, true);
    let s = p.scale;
    let net = ccq_perfbench::model::resnet(&s, 0);
    let x = ccq_tensor::Tensor::zeros(&[s.batch, 3, s.image, s.image]);
    let g = gemm::layer_gemms(&net, &x).unwrap();
    assert_eq!(g.len(), 22);
    // Stem: 3 input channels, 3x3, stride 1, full resolution.
    assert_eq!(
        (g[0].m, g[0].k, g[0].n),
        (s.width, 27, s.batch * s.image * s.image)
    );
    // Head: linear over the last stage's channels.
    let head = g.last().unwrap();
    assert_eq!((head.m, head.k, head.n), (s.batch, 4 * s.width, s.classes));
    // Every conv's input side is its output side times its stride.
    for x in &g {
        if let gemm::Lowering::Conv { h, geom, .. } = x.lowering {
            let out_side = (h + 2 * geom.padding - geom.kernel_h) / geom.stride + 1;
            assert_eq!(x.n, s.batch * out_side * out_side);
        }
    }
}

#[test]
fn serve_drain_pins_hold_at_full_scale() {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pins-serve-drain");
    std::fs::create_dir_all(&work_dir).expect("work dir");
    for seed in [0, 7] {
        let p = Params {
            workload: Workload::ServeDrain,
            seed,
            seconds: 0.0,
            trace: false,
            scale: Scale::full(),
            work_dir: work_dir.clone(),
        };
        let out = run(&p);
        assert!(out.correct(), "seed {seed}: {:?}", out.failures);
    }
}

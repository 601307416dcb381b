//! Differential deployment harness: packed execution ≡ fake-quant.
//!
//! For each of the three seed ResNet workloads, every searcher drives a
//! small CCQ descent to a final mixed-precision checkpoint; that
//! checkpoint is packed into a `CCQPACK` artifact, byte round-tripped,
//! and instantiated on a fresh network. One more input per workload is a
//! fixed mixed ladder (int8/int4/int2 cycling, one pruned layer, an f32
//! head) that exercises every payload regime at once; it also goes
//! through a `save_atomic` → `load_with_fallback` round trip on disk and
//! must compress at least 2x against `f32`. The deployed network must
//! then agree with the fake-quant original:
//!
//! - **dequant execution** reproduces the fake-quant `Eval` forward
//!   bit-exactly — packing stores the exact grid codes and the decoding
//!   grid, so dequantization lands on the identical `f32` values;
//! - **integer execution** stays within [`INT_BOUND`]: `i8×i8→i32`
//!   accumulation with one `f32` rescale per layer only differs by
//!   accumulation rounding, but activation grids are dynamic (max-abs
//!   of the incoming batch), so a rounding-boundary input can flip one
//!   activation code and the flip compounds through depth.

use ccq_repro::ccq::{CcqConfig, CcqRunner, RecoveryMode, SearcherKind};
use ccq_repro::data::{synth_cifar, SynthCifarConfig};
use ccq_repro::infer::{arch, LayerPayload, PackedModel};
use ccq_repro::models::{ModelConfig, ModelKind};
use ccq_repro::nn::checkpoint::Checkpoint;
use ccq_repro::nn::train::train_epoch;
use ccq_repro::nn::{Mode, Network, PackedExec, Sgd};
use ccq_repro::quant::{BitLadder, BitWidth, PolicyKind, QuantSpec};
use ccq_repro::tensor::{rng, Init, Rng64, Tensor};

/// Pinned integer-execution agreement bound (max abs logit deviation).
/// Measured worst case over every input here, identical on the parallel
/// and serial builds: 3.8e-6 for the searchers' final checkpoints and
/// 5.44e-2 for the mixed ladder (resnet18 at batch 2, where one
/// activation code flips at a rounding boundary and the flip compounds
/// through depth). The bound is that worst case plus ~40% headroom.
const INT_BOUND: f32 = 7.5e-2;

const SEARCHERS: [SearcherKind; 4] = [
    SearcherKind::Hedge,
    SearcherKind::ZeroBit,
    SearcherKind::ReleqRl,
    SearcherKind::OneShot,
];

/// Runs every searcher to a final checkpoint on one workload and checks
/// the packed artifact against the fake-quant network.
fn packed_matches_fake_quant(kind: ModelKind, family: &str) {
    let data = synth_cifar(&SynthCifarConfig {
        classes: 4,
        samples_per_class: 8,
        image_size: 16,
        noise_std: 0.15,
        jitter: 0.2,
        monochrome: false,
        seed: 21,
    });
    let (train, val) = data.split_at(24);
    let (train_b, val_b) = (train.batches(8), val.batches(8));
    let cfg = ModelConfig {
        classes: 4,
        width: 2,
        policy: PolicyKind::MaxAbs,
        seed: 33,
    };
    let arch = arch::model_arch(family, cfg.classes, cfg.width);
    let mut x_rng = rng(55);
    let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[2, 3, 16, 16], &mut x_rng);

    for searcher in SEARCHERS {
        let mut net = kind.build(&cfg);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut r = rng(61);
        train_epoch(&mut net, &train_b, &mut opt, &mut r).expect("pretraining");
        let ccq_cfg = CcqConfig {
            ladder: BitLadder::new(&[8, 4]).unwrap(),
            recovery: RecoveryMode::Manual { epochs: 1 },
            probe_val_batches: 1,
            max_steps: 2,
            searcher,
            seed: 77,
            ..CcqConfig::default()
        };
        let mut provider = |_: &mut Rng64| train_b.clone();
        CcqRunner::new(ccq_cfg)
            .run_with_sources(&mut net, &mut provider, &val_b)
            .expect("ccq descent");

        let fake = net.forward(&x, Mode::Eval).expect("fake-quant forward");
        let ckpt = Checkpoint::capture(&mut net);
        let model = PackedModel::from_checkpoint(&ckpt, &arch).expect("pack checkpoint");
        let round_tripped =
            PackedModel::from_bytes(&model.to_bytes()).expect("artifact bytes round-trip");
        assert_eq!(
            round_tripped, model,
            "{family}/{searcher:?}: lossy serialization"
        );

        assert_packed_agrees(&fake, &round_tripped, &x, &format!("{family}/{searcher:?}"));
    }
}

/// Instantiates `model` and checks both packed execution modes against
/// the fake-quant logits `fake` on input `x`.
fn assert_packed_agrees(fake: &Tensor, model: &PackedModel, x: &Tensor, what: &str) {
    let mut deployed = model.instantiate().expect("instantiate");
    let dequant = deployed
        .forward_packed(x, PackedExec::Dequant)
        .expect("dequant forward");
    assert_eq!(
        fake.as_slice(),
        dequant.as_slice(),
        "{what}: packed dequant must be bit-exact"
    );
    let integer = deployed
        .forward_packed(x, PackedExec::Integer)
        .expect("integer forward");
    let worst = fake
        .as_slice()
        .iter()
        .zip(integer.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        worst <= INT_BOUND,
        "{what}: integer deviation {worst:e} exceeds {INT_BOUND:e}"
    );
}

/// Deterministic mixed-precision assignment: cycle int8/int4/int2 over
/// the layers, prune the second layer, keep the final layer (the
/// classifier head) at full precision — the shape of a finished CCQ
/// descent, with every payload regime represented.
fn assign_mixed_ladder(net: &mut Network) {
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

/// Packs one workload under the fixed mixed ladder, round-trips the
/// artifact through disk, and checks the summary header, compression vs
/// `f32`, and agreement of the reloaded artifact at batch 2 and 8.
fn mixed_ladder_matches_fake_quant(kind: ModelKind, family: &str) {
    let cfg = ModelConfig {
        classes: 4,
        width: 2,
        policy: PolicyKind::MaxAbs,
        seed: 9,
    };
    let mut net = kind.build(&cfg);
    assign_mixed_ladder(&mut net);
    let model = PackedModel::capture(&mut net, &arch::model_arch(family, cfg.classes, cfg.width))
        .expect("capture");
    assert!(
        model.summary().starts_with("CCQPACK "),
        "{family}/ladder: summary header"
    );

    let dir =
        std::env::temp_dir().join(format!("ccq_packed_ladder_{family}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ladder.ccqpack");
    model.save_atomic(&path).expect("save_atomic");
    assert_eq!(
        std::fs::read(&path).expect("read artifact"),
        model.to_bytes(),
        "{family}/ladder: artifact on disk is not the serialized model"
    );
    let back = PackedModel::load_with_fallback(&path).expect("load_with_fallback");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert_eq!(
        back.to_bytes(),
        model.to_bytes(),
        "{family}/ladder: disk round trip is not byte-equal"
    );

    let f32_bytes: usize = back
        .layers()
        .iter()
        .map(|l| {
            4 * match &l.payload {
                LayerPayload::Packed(p) => p.len(),
                LayerPayload::Shadow(t) => t.len(),
            }
        })
        .sum();
    let compression = f32_bytes as f64 / back.payload_bytes() as f64;
    assert!(
        compression >= 2.0,
        "{family}/ladder: compression {compression:.2}x below the 2x floor"
    );

    let mut x_rng = rng(100);
    for batch in [2, 8] {
        let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[batch, 3, 16, 16], &mut x_rng);
        let fake = net.forward(&x, Mode::Eval).expect("fake-quant forward");
        assert_packed_agrees(&fake, &back, &x, &format!("{family}/ladder/batch {batch}"));
    }
}

#[test]
fn resnet20_packed_matches_fake_quant_for_every_searcher() {
    packed_matches_fake_quant(ModelKind::Resnet20, "resnet20");
    mixed_ladder_matches_fake_quant(ModelKind::Resnet20, "resnet20");
}

#[test]
fn resnet18_packed_matches_fake_quant_for_every_searcher() {
    packed_matches_fake_quant(ModelKind::Resnet18, "resnet18");
    mixed_ladder_matches_fake_quant(ModelKind::Resnet18, "resnet18");
}

#[test]
fn resnet50_style_packed_matches_fake_quant_for_every_searcher() {
    packed_matches_fake_quant(ModelKind::Resnet50, "resnet50");
    mixed_ladder_matches_fake_quant(ModelKind::Resnet50, "resnet50");
}

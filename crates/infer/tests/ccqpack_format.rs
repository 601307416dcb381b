//! `CCQPACK` wire-format hardening: round trips, corruption,
//! truncation, version skew, `.prev` fallback — mirroring the `CCQCKPT`
//! suite — plus the hw size-model agreement check.

use ccq_infer::{InferError, LayerPayload, PackedModel};
use ccq_models::mlp;
use ccq_nn::{Mode, Network, PackedExec};
use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::Tensor;
use proptest::prelude::*;
use std::fs;

/// A 4-layer MLP exercising every payload regime: int8, int4 (odd
/// element count: 9×5 = 45 weights), the pruned rung, and full
/// precision.
fn mixed_net() -> (Network, &'static str) {
    let mut net = mlp(&[6, 8, 9, 5, 4], PolicyKind::Pact, 3);
    net.set_quant_spec(
        0,
        QuantSpec::new(PolicyKind::MaxAbs, BitWidth::of(8), BitWidth::of(8)),
    );
    net.set_quant_spec(
        1,
        QuantSpec::new(
            PolicyKind::Pact,
            BitWidth::ZERO,
            BitWidth::new_allowing_zero(0).unwrap(),
        ),
    );
    net.set_quant_spec(
        2,
        QuantSpec::new(PolicyKind::Sawb, BitWidth::of(4), BitWidth::of(4)),
    );
    net.set_quant_spec(3, QuantSpec::full_precision(PolicyKind::Pact));
    (net, "mlp:6x8x9x5x4")
}

fn capture_mixed() -> (PackedModel, Tensor, Tensor) {
    let (mut net, arch) = mixed_net();
    let x = Tensor::ones(&[3, 6]);
    let fake = net.forward(&x, Mode::Eval).unwrap();
    let model = PackedModel::capture(&mut net, arch).unwrap();
    (model, x, fake)
}

#[test]
fn byte_round_trip_is_exact() {
    let (model, _, _) = capture_mixed();
    let bytes = model.to_bytes();
    // Byte pin: any drift in the CCQPACK encoding changes this digest.
    assert_eq!(
        (ccq_nn::durable::fnv1a(&bytes), bytes.len()),
        (0x3287_7f77_fc5d_038e, 535)
    );
    let back = PackedModel::from_bytes(&bytes).unwrap();
    assert_eq!(back, model);
    assert_eq!(back.to_bytes(), bytes);
}

#[test]
fn instantiated_artifact_matches_fake_quant_bit_exactly() {
    let (model, x, fake) = capture_mixed();
    let mut deployed = PackedModel::from_bytes(&model.to_bytes())
        .unwrap()
        .instantiate()
        .unwrap();
    assert!(deployed.is_packed());
    let packed = deployed.forward_packed(&x, PackedExec::Dequant).unwrap();
    assert_eq!(fake.as_slice(), packed.as_slice());
    // Integer execution agrees within accumulation-order rounding.
    let int = deployed.forward_packed(&x, PackedExec::Integer).unwrap();
    for (a, b) in fake.as_slice().iter().zip(int.as_slice()) {
        assert!((a - b).abs() <= 1e-4, "{a} vs {b}");
    }
}

#[test]
fn unpackable_policy_rides_as_f32_shadow_and_still_agrees() {
    let mut net = mlp(&[5, 7, 3], PolicyKind::Dorefa, 11);
    net.set_all_quant_specs(QuantSpec::new(
        PolicyKind::Dorefa,
        BitWidth::of(4),
        BitWidth::of(4),
    ));
    let x = Tensor::ones(&[2, 5]);
    let fake = net.forward(&x, Mode::Eval).unwrap();
    let model = PackedModel::capture(&mut net, "mlp:5x7x3").unwrap();
    assert!(model
        .layers()
        .iter()
        .all(|l| matches!(l.payload, LayerPayload::Shadow(_))));
    let mut deployed = model.instantiate().unwrap();
    let y = deployed.forward_packed(&x, PackedExec::Dequant).unwrap();
    assert_eq!(fake.as_slice(), y.as_slice());
}

#[test]
fn hw_size_model_matches_measured_payload_per_layer() {
    let (model, _, _) = capture_mixed();
    for layer in model.layers() {
        let count = match &layer.payload {
            LayerPayload::Packed(p) => p.len(),
            LayerPayload::Shadow(t) => t.len(),
        };
        let modeled = ccq_hw::packed_weight_bytes(count, layer.spec.weight_bits);
        assert_eq!(
            modeled,
            layer.payload_bytes() as u64,
            "layer '{}' at {:?}",
            layer.label,
            layer.spec.weight_bits
        );
    }
    // And in aggregate the hw SizeReport agrees with the artifact.
    let (mut net, _) = mixed_net();
    let profiles: Vec<ccq_hw::LayerProfile> = net
        .quant_layer_info()
        .into_iter()
        .map(|i| ccq_hw::LayerProfile {
            label: i.label,
            weight_count: i.weight_count,
            macs: i.macs,
            weight_bits: i.spec.weight_bits,
            act_bits: i.spec.act_bits,
        })
        .collect();
    let report = ccq_hw::model_size(&profiles);
    assert_eq!(report.packed_bytes, model.payload_bytes() as u64);
}

#[test]
fn rejects_bad_magic_version_skew_and_truncation() {
    let (model, _, _) = capture_mixed();
    let bytes = model.to_bytes();

    assert!(matches!(
        PackedModel::from_bytes(b"NOTAPACK"),
        Err(InferError::PackFormat(_))
    ));

    let mut skewed = bytes.clone();
    skewed[7] = 9; // the version byte follows the 7-byte magic
    match PackedModel::from_bytes(&skewed).unwrap_err() {
        InferError::PackFormat(msg) => assert!(msg.contains("version 9"), "{msg}"),
        other => panic!("expected PackFormat, got {other:?}"),
    }

    for keep in 0..bytes.len() {
        assert!(
            PackedModel::from_bytes(&bytes[..keep]).is_err(),
            "prefix of {keep} bytes must not parse"
        );
    }

    let mut trailing = bytes.clone();
    trailing.push(0);
    match PackedModel::from_bytes(&trailing).unwrap_err() {
        InferError::PackFormat(msg) => assert!(msg.contains("trailing"), "{msg}"),
        other => panic!("expected PackFormat, got {other:?}"),
    }

    // Hostile state-tensor headers: an empty arch, no layers, then one
    // rank-3 state tensor whose element count overflows (39 bytes), or
    // a 16384x16384 one with no data behind it (must not reserve 1 GiB).
    for dims in [&[u32::MAX; 3][..], &[16384, 16384]] {
        let mut hostile = b"CCQPACK\x01\x00".to_vec();
        hostile.extend(0u32.to_le_bytes()); // arch ""
        hostile.push(1); // layers section
        hostile.extend(0u32.to_le_bytes());
        hostile.push(2); // state section
        hostile.extend(1u32.to_le_bytes());
        hostile.extend((dims.len() as u32).to_le_bytes());
        dims.iter().for_each(|d| hostile.extend(d.to_le_bytes()));
        assert!(matches!(
            PackedModel::from_bytes(&hostile),
            Err(InferError::PackFormat(_))
        ));
    }
}

#[test]
fn rejects_section_tag_drift_and_bad_payload_kind() {
    let (model, _, _) = capture_mixed();
    let bytes = model.to_bytes();
    // Byte 8 is the meta section tag; corrupting it must be caught by
    // the section check, not misparsed.
    let mut drifted = bytes.clone();
    drifted[8] = 7;
    match PackedModel::from_bytes(&drifted).unwrap_err() {
        InferError::PackFormat(msg) => assert!(msg.contains("meta section"), "{msg}"),
        other => panic!("expected PackFormat, got {other:?}"),
    }
}

#[test]
fn int4_payload_with_nonzero_padding_nibble_is_rejected() {
    // Corrupt the padding nibble of the odd-length int4 layer: the
    // payload length still matches, so only the code-level validation
    // can catch it.
    let (model, _, _) = capture_mixed();
    let bytes = model.to_bytes();
    let layer1 = model
        .layers()
        .iter()
        .find(|l| l.spec.weight_bits == BitWidth::of(4))
        .unwrap();
    let LayerPayload::Packed(p) = &layer1.payload else {
        panic!("layer 1 must be packed");
    };
    assert_eq!(p.len() % 2, 1, "fixture needs an odd int4 tail");
    let last = p.payload().last().copied().unwrap();
    // Find the payload's final byte in the artifact and poison the
    // padding nibble.
    let needle: &[u8] = p.payload();
    let pos = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("payload bytes present verbatim");
    let mut poisoned = bytes.clone();
    poisoned[pos + needle.len() - 1] = last | 0xF0;
    assert!(matches!(
        PackedModel::from_bytes(&poisoned),
        Err(InferError::PackFormat(_))
    ));
}

#[test]
fn atomic_write_retains_previous_generation_and_falls_back() {
    let dir = std::env::temp_dir().join("ccq_pack_atomic_test");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join("model.ccqpack");
    let prev = dir.join("model.ccqpack.prev");
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&prev);

    let (model, _, _) = capture_mixed();
    model.save_atomic(&path).unwrap();
    assert!(!dir.join("model.ccqpack.tmp").exists());
    assert_eq!(PackedModel::load(&path).unwrap(), model);

    // Second write rotates the first generation to .prev.
    model.save_atomic(&path).unwrap();
    assert!(prev.exists());

    // Corrupt the current generation: the loader falls back to .prev.
    fs::write(&path, b"torn write").unwrap();
    assert_eq!(PackedModel::load_with_fallback(&path).unwrap(), model);
    assert!(PackedModel::load(&path).is_err());

    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&prev);
}

#[test]
fn apply_rejects_structural_mismatch() {
    let (model, _, _) = capture_mixed();
    // Wrong layer count.
    let mut small = mlp(&[6, 8, 4], PolicyKind::Pact, 0);
    assert!(matches!(
        model.apply(&mut small),
        Err(InferError::Mismatch(_))
    ));
    // Same layer count, wrong shapes.
    let mut reshaped = mlp(&[6, 9, 8, 5, 4], PolicyKind::Pact, 0);
    assert!(matches!(
        model.apply(&mut reshaped),
        Err(InferError::Mismatch(_))
    ));
    // Capture validates the arch string against the live net.
    let (mut net, _) = mixed_net();
    assert!(matches!(
        PackedModel::capture(&mut net, "mlp:6x8x4"),
        Err(InferError::Mismatch(_))
    ));
}

/// Overwrites little-endian `u32`s at arbitrary offsets with
/// log-uniform values, so tags, counts and dims get small and huge
/// values alike.
fn mutate(bytes: &mut [u8], edits: &[(usize, u32, u32)]) {
    for &(at, v, shift) in edits {
        let at = at % bytes.len();
        let v = (v >> shift).to_le_bytes();
        let n = v.len().min(bytes.len() - at);
        bytes[at..at + n].copy_from_slice(&v[..n]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (bare and behind a valid header) and a valid
    /// encoding with corrupted length, dim and tag fields all decode to
    /// `Ok` or a typed error, never a panic.
    #[test]
    fn hostile_bytes_decode_to_typed_errors(
        body in proptest::collection::vec(0u8..=255, 0..256),
        edits in proptest::collection::vec((0usize..1 << 16, 0u32..=u32::MAX, 0u32..32), 1..4),
    ) {
        let mut headed = b"CCQPACK\x01".to_vec();
        headed.extend(&body);
        let mut mutated = capture_mixed().0.to_bytes();
        mutate(&mut mutated, &edits);
        for bytes in [body, headed, mutated] {
            let decoded = PackedModel::from_bytes(&bytes);
            prop_assert!(matches!(decoded, Ok(_) | Err(InferError::PackFormat(_))));
        }
    }
}

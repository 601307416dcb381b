//! Checkpointing: persist a trained (and possibly quantized) network.
//!
//! A checkpoint captures everything [`Network::snapshot`] captures —
//! parameter tensors, batch-norm running statistics, PACT `α` values —
//! *plus* every layer's [`ccq_quant::QuantSpec`], so a mixed-precision
//! assignment produced by CCQ can be saved and reloaded into a freshly
//! built network of the same architecture.
//!
//! The format is a self-contained little-endian binary layout (magic,
//! version, then length-prefixed sections) encoded with the shared
//! [`crate::durable`] codec, so checkpoints are portable across
//! platforms and decoding never panics on hostile bytes.

use crate::durable::{self, ByteReader, ByteWriter, Rotate};
use crate::{Network, NnError, Result};
use ccq_quant::QuantSpec;
use ccq_tensor::Tensor;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 7] = b"CCQCKPT";
const VERSION: u8 = 1;

/// A serializable network checkpoint.
///
/// # Example
///
/// ```
/// use ccq_nn::checkpoint::Checkpoint;
/// # use ccq_nn::layers::{QLinear, Sequential};
/// # use ccq_nn::Network;
/// # use ccq_quant::{PolicyKind, QuantSpec};
/// # let mut rng = ccq_tensor::rng(0);
/// # let mut net = Network::new(Sequential::new(vec![Box::new(QLinear::new(
/// #     "fc", 2, 2, QuantSpec::full_precision(PolicyKind::Pact), &mut rng))]));
/// let ckpt = Checkpoint::capture(&mut net);
/// let bytes = ckpt.to_bytes();
/// let restored = Checkpoint::from_bytes(&bytes)?;
/// restored.apply(&mut net)?;
/// # Ok::<(), ccq_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    tensors: Vec<Tensor>,
    alphas: Vec<f32>,
    weight_steps: Vec<f32>,
    act_steps: Vec<f32>,
    specs: Vec<QuantSpec>,
}

impl Checkpoint {
    /// Captures the full state of a network.
    pub fn capture(net: &mut Network) -> Self {
        let mut tensors = Vec::new();
        let mut alphas = Vec::new();
        let mut weight_steps = Vec::new();
        let mut act_steps = Vec::new();
        let mut specs = Vec::new();
        net.visit_state_tensors(&mut |t| tensors.push(t.clone()));
        net.visit_quant(&mut |h| {
            alphas.push(h.quant.alpha());
            weight_steps.push(h.quant.weight_step());
            act_steps.push(h.quant.act_step());
            specs.push(h.quant.spec());
        });
        Checkpoint {
            tensors,
            alphas,
            weight_steps,
            act_steps,
            specs,
        }
    }

    /// Applies the checkpoint to a structurally identical network: state
    /// tensors, `α` values, and quantization specs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::StateMismatch`] when the network structure does
    /// not match.
    pub fn apply(&self, net: &mut Network) -> Result<()> {
        let mut count = 0;
        net.visit_state_tensors(&mut |_| count += 1);
        if count != self.tensors.len() {
            return Err(NnError::StateMismatch {
                expected: count,
                actual: self.tensors.len(),
            });
        }
        if net.quant_layer_count() != self.specs.len() {
            return Err(NnError::StateMismatch {
                expected: net.quant_layer_count(),
                actual: self.specs.len(),
            });
        }
        let mut i = 0;
        let mut shape_ok = true;
        net.visit_state_tensors(&mut |t| {
            if t.shape() == self.tensors[i].shape() {
                *t = self.tensors[i].clone();
            } else {
                shape_ok = false;
            }
            i += 1;
        });
        if !shape_ok {
            return Err(NnError::InvalidConfig(
                "checkpoint tensor shapes do not match".into(),
            ));
        }
        let mut j = 0;
        net.visit_quant(&mut |h| {
            h.quant.set_spec(self.specs[j]);
            h.quant.set_alpha(self.alphas[j]);
            h.quant.set_weight_step(self.weight_steps[j]);
            h.quant.set_act_step(self.act_steps[j]);
            j += 1;
        });
        Ok(())
    }

    /// Serializes to the binary checkpoint format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::default();
        w.raw(MAGIC);
        w.u8(VERSION);
        w.list(&self.tensors, ByteWriter::tensor);
        w.count(self.specs.len());
        for (i, &spec) in self.specs.iter().enumerate() {
            w.spec(spec);
            w.f32(self.alphas[i]);
            w.f32(self.weight_steps[i]);
            w.f32(self.act_steps[i]);
        }
        w.finish()
    }

    /// Deserializes from the binary checkpoint format.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointFormat`] on a malformed or truncated
    /// buffer, a bad magic, or an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let r = &mut ByteReader::new(bytes);
        r.magic(MAGIC, "CCQ checkpoint")?;
        let version = r.u8()?;
        if version != VERSION {
            return Err(NnError::CheckpointFormat(format!(
                "unsupported checkpoint version {version} (this build reads version {VERSION})"
            )));
        }
        let tensors = r.list(ByteReader::tensor)?;
        let mut ckpt = Checkpoint {
            tensors,
            alphas: Vec::new(),
            weight_steps: Vec::new(),
            act_steps: Vec::new(),
            specs: Vec::new(),
        };
        for _ in 0..r.count()? {
            ckpt.specs.push(r.spec()?);
            ckpt.alphas.push(r.f32()?);
            ckpt.weight_steps.push(r.f32()?);
            ckpt.act_steps.push(r.f32()?);
        }
        Ok(ckpt)
    }

    /// Writes the checkpoint to a writer (e.g. a file). A `&mut` reference
    /// may be passed for any `W: Write`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointIo`] on a write failure.
    pub fn save<W: Write>(&self, mut writer: W) -> Result<()> {
        writer
            .write_all(&self.to_bytes())
            .map_err(|e| NnError::CheckpointIo(format!("checkpoint write failed: {e}")))
    }

    /// Reads a checkpoint from a reader. A `&mut` reference may be passed
    /// for any `R: Read`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointIo`] on a read failure and
    /// [`NnError::CheckpointFormat`] on a malformed buffer.
    pub fn load<R: Read>(mut reader: R) -> Result<Self> {
        let mut buf = Vec::new();
        reader
            .read_to_end(&mut buf)
            .map_err(|e| NnError::CheckpointIo(format!("checkpoint read failed: {e}")))?;
        Checkpoint::from_bytes(&buf)
    }

    /// Atomically writes the checkpoint to `path` with
    /// [`durable::write_atomic`] (tmp + fsync + rename + parent-directory
    /// fsync); no previous generation is retained.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointIo`] on any filesystem failure,
    /// including a failed directory fsync (the renamed file is in place
    /// but not yet durable — callers retry the whole write).
    pub fn save_atomic(&self, path: &Path) -> Result<()> {
        Ok(durable::write_atomic(
            path,
            &self.to_bytes(),
            Rotate::Replace,
        )?)
    }

    /// Loads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointIo`] on a read failure and
    /// [`NnError::CheckpointFormat`] on malformed contents.
    pub fn load_file(path: &Path) -> Result<Self> {
        let bytes = fs::read(path)
            .map_err(|e| NnError::CheckpointIo(format!("read {}: {e}", path.display())))?;
        Checkpoint::from_bytes(&bytes)
    }

    /// Number of state tensors captured.
    pub fn tensor_count(&self) -> usize {
        self.tensors.len()
    }

    /// The captured per-layer quantization specs.
    pub fn specs(&self) -> &[QuantSpec] {
        &self.specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{QLinear, Relu, Sequential};
    use crate::Mode;
    use ccq_quant::{BitWidth, PolicyKind};
    use ccq_tensor::rng;
    use proptest::prelude::*;

    fn net() -> Network {
        let mut r = rng(0);
        let spec = QuantSpec::full_precision(PolicyKind::Pact);
        Network::new(Sequential::new(vec![
            Box::new(QLinear::new("fc1", 3, 4, spec, &mut r)),
            Box::new(Relu::new()),
            Box::new(QLinear::new("fc2", 4, 2, spec, &mut r)),
        ]))
    }

    #[test]
    fn round_trip_preserves_behaviour_and_specs() {
        let mut a = net();
        a.set_quant_spec(
            1,
            QuantSpec::new(PolicyKind::Pact, BitWidth::of(3), BitWidth::of(4)),
        );
        let x = Tensor::ones(&[2, 3]);
        let y_before = a.forward(&x, Mode::Eval).unwrap();

        let bytes = Checkpoint::capture(&mut a).to_bytes();
        // Byte pin: any drift in the CCQCKPT encoding changes this digest.
        assert_eq!(
            (crate::durable::fnv1a(&bytes), bytes.len()),
            (0x2774_99c0_bca2_4ada, 208)
        );
        let ckpt = Checkpoint::from_bytes(&bytes).unwrap();

        let mut b = net(); // different weights until applied
        ckpt.apply(&mut b).unwrap();
        let y_after = b.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y_before.as_slice(), y_after.as_slice());
        assert_eq!(b.quant_spec(1).weight_bits, BitWidth::of(3));
        assert_eq!(b.quant_spec(1).act_bits, BitWidth::of(4));
    }

    #[test]
    fn save_atomic_round_trips_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("ccq_ckpt_atomic_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("model.ccqckpt");
        let ckpt = Checkpoint::capture(&mut net());
        ckpt.save_atomic(&path).unwrap();
        assert!(!path.with_extension("ccqckpt.tmp").exists());
        assert_eq!(Checkpoint::load_file(&path).unwrap(), ckpt);
        // Overwriting in place is also atomic.
        ckpt.save_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load_file(&path).unwrap(), ckpt);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn save_load_through_io() {
        let mut a = net();
        let ckpt = Checkpoint::capture(&mut a);
        let mut buf = Vec::new();
        ckpt.save(&mut buf).unwrap();
        let loaded = Checkpoint::load(buf.as_slice()).unwrap();
        assert_eq!(loaded, ckpt);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(matches!(
            Checkpoint::from_bytes(b"NOTCKPT!"),
            Err(NnError::CheckpointFormat(_))
        ));
        let mut a = net();
        let bytes = Checkpoint::capture(&mut a).to_bytes();
        assert!(matches!(
            Checkpoint::from_bytes(&bytes[..bytes.len() / 2]),
            Err(NnError::CheckpointFormat(_))
        ));
        // Hostile headers: one rank-3 tensor whose element count
        // overflows (28 bytes), and one 16384x16384 tensor with no data
        // behind it (24 bytes, must not reserve 1 GiB first).
        for dims in [&[u32::MAX; 3][..], &[16384, 16384]] {
            let mut hostile = b"CCQCKPT\x01".to_vec();
            hostile.extend(1u32.to_le_bytes());
            hostile.extend((dims.len() as u32).to_le_bytes());
            dims.iter().for_each(|d| hostile.extend(d.to_le_bytes()));
            assert!(matches!(
                Checkpoint::from_bytes(&hostile),
                Err(NnError::CheckpointFormat(_))
            ));
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let mut a = net();
        let mut bytes = Checkpoint::capture(&mut a).to_bytes();
        bytes[7] = 99; // the version byte follows the 7-byte magic
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        match err {
            NnError::CheckpointFormat(msg) => assert!(msg.contains("version 99"), "{msg}"),
            other => panic!("expected CheckpointFormat, got {other:?}"),
        }
    }

    #[test]
    fn truncation_at_every_prefix_errors_without_panicking() {
        let mut a = net();
        let bytes = Checkpoint::capture(&mut a).to_bytes();
        for keep in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..keep]).is_err(),
                "prefix of {keep} bytes must not parse"
            );
        }
    }

    #[test]
    fn io_failures_surface_as_checkpoint_io() {
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("bad sector"))
            }
        }
        let mut a = net();
        let ckpt = Checkpoint::capture(&mut a);
        assert!(matches!(
            ckpt.save(FailingWriter),
            Err(NnError::CheckpointIo(_))
        ));
        assert!(matches!(
            Checkpoint::load(FailingReader),
            Err(NnError::CheckpointIo(_))
        ));
    }

    #[test]
    fn rejects_structural_mismatch() {
        let mut a = net();
        let ckpt = Checkpoint::capture(&mut a);
        let mut r = rng(1);
        let mut other = Network::new(Sequential::new(vec![Box::new(QLinear::new(
            "solo",
            3,
            2,
            QuantSpec::full_precision(PolicyKind::Pact),
            &mut r,
        ))]));
        assert!(matches!(
            ckpt.apply(&mut other),
            Err(NnError::StateMismatch { .. })
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
            let mut headed = b"CCQCKPT\x01".to_vec();
            headed.extend(&body);
            let mut mutated = Checkpoint::capture(&mut net()).to_bytes();
            mutate(&mut mutated, &edits);
            for bytes in [body, headed, mutated] {
                let decoded = Checkpoint::from_bytes(&bytes);
                prop_assert!(matches!(decoded, Ok(_) | Err(NnError::CheckpointFormat(_))));
            }
        }
    }
}

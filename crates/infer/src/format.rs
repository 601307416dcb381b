//! The `CCQPACK` v1 wire format and its crash-safe file I/O.
//!
//! A `CCQPACK` artifact is a self-contained little-endian binary file:
//! magic, version, then three tagged sections in fixed order —
//! [`TAG_META`] (the architecture string), [`TAG_LAYERS`] (per-layer
//! spec, decoding grid, and weight payload), and [`TAG_STATE`] (every
//! non-weight `f32` state tensor). The section tags make truncation and
//! section-drift corruption detectable instead of silently misparsed.
//!
//! File writes go through [`ccq_nn::durable::write_atomic`], the same
//! writer as the `CCQRUNS` run state: bytes go to a `<path>.tmp`
//! sibling, are fsynced, the previous generation is rotated to
//! `<path>.prev`, the tmp file is renamed into place, and the parent
//! directory is fsynced. [`PackedModel::load_with_fallback`] falls back
//! to `<path>.prev` when the current file is torn or corrupt.

use crate::pack::{LayerPayload, PackedLayer, PackedModel};
use crate::{InferError, Result};
use ccq_nn::durable::{self, ByteReader, ByteWriter, Rotate};
use ccq_quant::grid::symmetric_qmax;
use ccq_quant::{PackedWeights, WeightGrid};
use std::fs;
use std::path::Path;

const MAGIC: &[u8; 7] = b"CCQPACK";
const VERSION: u8 = 1;

/// Tag of the metadata section (architecture string).
const TAG_META: u8 = 0;
/// Tag of the per-layer weight-payload section.
const TAG_LAYERS: u8 = 1;
/// Tag of the non-weight state-tensor section.
const TAG_STATE: u8 = 2;

/// Payload-kind byte: packed integer codes.
const PAYLOAD_PACKED: u8 = 0;
/// Payload-kind byte: `f32` shadow weights.
const PAYLOAD_SHADOW: u8 = 1;

impl PackedModel {
    /// Serializes to the `CCQPACK` v1 binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::default();
        w.raw(MAGIC);
        w.u8(VERSION);
        w.u8(TAG_META);
        w.str(&self.arch);
        w.u8(TAG_LAYERS);
        w.list(&self.layers, |w, layer| {
            w.str(&layer.label);
            w.spec(layer.spec);
            w.f32(layer.alpha);
            w.f32(layer.weight_step);
            w.f32(layer.act_step);
            match &layer.payload {
                LayerPayload::Packed(p) => {
                    w.u8(PAYLOAD_PACKED);
                    w.shape(p.shape());
                    w.u32(p.bits());
                    w.f32(p.grid().alpha);
                    w.bytes(p.payload());
                }
                LayerPayload::Shadow(t) => {
                    w.u8(PAYLOAD_SHADOW);
                    w.tensor(t);
                }
            }
        });
        w.u8(TAG_STATE);
        w.list(&self.state, ByteWriter::tensor);
        w.finish()
    }

    /// Deserializes from the `CCQPACK` binary format.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::PackFormat`] on a truncated or malformed
    /// buffer, a bad magic, an unsupported version, a section-tag
    /// mismatch, or a weight payload that does not decode under its
    /// declared width.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let r = &mut ByteReader::new(bytes);
        r.magic(MAGIC, "CCQ packed artifact")?;
        let version = r.u8()?;
        if version != VERSION {
            return Err(malformed(&format!(
                "unsupported artifact version {version} (this build reads version {VERSION})"
            )));
        }
        expect_tag(r, TAG_META, "meta")?;
        let arch = r.string("architecture string")?;
        expect_tag(r, TAG_LAYERS, "layers")?;
        let mut layers = Vec::new();
        for _ in 0..r.count()? {
            let label = r.string("layer label")?;
            let spec = r.spec()?;
            let alpha = r.f32()?;
            let weight_step = r.f32()?;
            let act_step = r.f32()?;
            let payload = match r.u8()? {
                PAYLOAD_PACKED => {
                    let shape = r.shape()?;
                    let bits = r.u32()?;
                    if bits > 8 {
                        return Err(malformed(&format!("implausible packed width {bits}")));
                    }
                    let grid = WeightGrid {
                        alpha: r.f32()?,
                        qmax: symmetric_qmax(bits),
                    };
                    let packed = PackedWeights::from_parts(shape, bits, grid, r.bytes()?.to_vec())
                        .map_err(|e| malformed(&format!("layer '{label}': {e}")))?;
                    LayerPayload::Packed(packed)
                }
                PAYLOAD_SHADOW => LayerPayload::Shadow(r.tensor()?),
                other => return Err(malformed(&format!("unknown payload kind {other}"))),
            };
            layers.push(PackedLayer {
                label,
                spec,
                alpha,
                weight_step,
                act_step,
                payload,
            });
        }
        expect_tag(r, TAG_STATE, "state")?;
        let state = r.list(ByteReader::tensor)?;
        if r.remaining() != 0 {
            return Err(malformed("trailing bytes after the state section"));
        }
        Ok(PackedModel {
            arch,
            layers,
            state,
        })
    }

    /// Atomically writes the artifact to `path` with
    /// [`durable::write_atomic`]: tmp + fsync + rename, the existing
    /// current file first rotated to `<path>.prev` so the last good
    /// generation survives a torn write, then a parent-directory fsync.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::PackIo`] on any filesystem failure,
    /// including a failed directory fsync (the renamed file is in place
    /// but not yet durable — callers retry the whole write).
    pub fn save_atomic(&self, path: &Path) -> Result<()> {
        Ok(durable::write_atomic(
            path,
            &self.to_bytes(),
            Rotate::KeepPrev,
        )?)
    }

    /// Loads an artifact from exactly `path` (no fallback).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::PackIo`] on a read failure and
    /// [`InferError::PackFormat`] on malformed contents.
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = fs::read(path)
            .map_err(|e| InferError::PackIo(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }

    /// Loads an artifact from `path`, falling back to the retained
    /// `<path>.prev` generation when the current file is missing,
    /// truncated, or corrupt.
    ///
    /// # Errors
    ///
    /// Returns the current file's error when neither generation loads.
    pub fn load_with_fallback(path: &Path) -> Result<Self> {
        durable::load_with_fallback(path, Self::load)
    }
}

fn malformed(msg: &str) -> InferError {
    InferError::PackFormat(msg.to_string())
}

fn expect_tag(r: &mut ByteReader<'_>, want: u8, name: &str) -> Result<()> {
    let got = r.u8()?;
    if got != want {
        return Err(malformed(&format!(
            "expected {name} section (tag {want}), found tag {got}"
        )));
    }
    Ok(())
}

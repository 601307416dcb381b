//! Crash-safe run state: everything needed to resume a CCQ descent
//! bit-for-bit from a step boundary.
//!
//! A [`RunState`] extends the network [`Checkpoint`] with the descent's
//! own mutable state — Hedge weights π, the RNG stream, SGD momentum, the
//! LR schedule, step/epoch counters, the recovery baseline, and the
//! learning curve so far. The on-disk format mirrors the checkpoint's
//! self-contained little-endian layout under its own magic (`CCQRUNS`).
//!
//! Writes go through [`ccq_nn::durable::write_atomic`]: the state is
//! written to a temporary file, fsynced, and renamed over the
//! destination, with the previous generation retained as `<path>.prev`.
//! [`RunState::load_with_fallback`] falls back to the previous
//! generation when the current file is torn or corrupt, so a crash
//! mid-write never loses the run.

use crate::event::{StepRecord, TraceEvent, TracePoint};
use crate::searcher::SearcherState;
use crate::{CcqError, ExpertKind, Result};
use ccq_nn::checkpoint::Checkpoint;
use ccq_nn::durable::{self, ByteReader, ByteWriter, DurableError, Rotate};
use ccq_tensor::Tensor;
use std::fs;
use std::path::Path;

const MAGIC: &[u8; 7] = b"CCQRUNS";
/// Current write version. Version 1 (pre-[`crate::Searcher`]) stored a
/// bare π vector where version 2 stores a tagged [`SearcherState`] plus
/// the rollback counter; v1 files still load, mapping π to Hedge state.
const VERSION: u8 = 2;

/// Tags of the searcher-state section (v2+).
const TAG_HEDGE: u8 = 0;
const TAG_ZERO_BIT: u8 = 1;
const TAG_RELEQ: u8 = 2;
const TAG_ONE_SHOT: u8 = 3;

/// A serializable snapshot of an in-flight CCQ run at a step boundary.
///
/// The first block of fields fingerprints the configuration; resume
/// refuses to continue under a different config
/// ([`CcqError::ResumeMismatch`]). The rest is the mutable descent state.
#[derive(Debug, Clone, PartialEq)]
pub struct RunState {
    /// Master seed of the run.
    pub seed: u64,
    /// Hedge learning rate γ.
    pub gamma: f32,
    /// Ladder rungs, top to floor, as raw bit counts.
    pub ladder: Vec<u32>,
    /// Expert granularity code (0 = layer, 1 = weight/act).
    pub granularity_code: u8,
    /// Probe regime code (0 = full information, 1 = sampled).
    pub regime_code: u8,
    /// Per-layer forced floors, as raw bit counts, when configured.
    pub targets: Option<Vec<u32>>,
    /// The next quantization step `t` to run (1-based).
    pub next_step: usize,
    /// Global fine-tuning epoch counter.
    pub epoch: usize,
    /// Full-precision baseline accuracy (the adaptive recovery threshold).
    pub baseline_accuracy: f32,
    /// Validation accuracy entering `next_step`.
    pub last_accuracy: f32,
    /// Optimizer learning rate in effect.
    pub lr: f32,
    /// Base LR of the hybrid schedule (guard retries may have scaled it).
    pub base_lr: f32,
    /// xoshiro256++ state of the run's RNG stream.
    pub rng: [u64; 4],
    /// Plateau tracking of the hybrid LR schedule.
    pub plateau: (f32, usize, Option<usize>),
    /// The searcher's tagged mutable state (π for Hedge, θ for the RL
    /// policy, the measured ordering for the one-shot allocator).
    pub searcher: SearcherState,
    /// Guard rollbacks taken so far in this run.
    pub rollbacks: u64,
    /// SGD momentum buffers, in parameter visit order.
    pub velocities: Vec<Tensor>,
    /// The network checkpoint (weights, batch-norm stats, α, specs).
    pub ckpt: Checkpoint,
    /// Learning curve so far.
    pub trace: Vec<TracePoint>,
    /// Completed quantization steps so far.
    pub steps: Vec<StepRecord>,
}

impl RunState {
    /// Serializes to the binary run-state format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::default();
        w.raw(MAGIC);
        w.u8(VERSION);
        w.u64(self.seed);
        w.f32(self.gamma);
        w.list(&self.ladder, |w, &b| w.u32(b));
        w.u8(self.granularity_code);
        w.u8(self.regime_code);
        match &self.targets {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                w.list(t, |w, &b| w.u32(b));
            }
        }
        w.u64(self.next_step as u64);
        w.u64(self.epoch as u64);
        w.f32(self.baseline_accuracy);
        w.f32(self.last_accuracy);
        w.f32(self.lr);
        w.f32(self.base_lr);
        for &s in &self.rng {
            w.u64(s);
        }
        w.f32(self.plateau.0);
        w.u64(self.plateau.1 as u64);
        match self.plateau.2 {
            None => w.u8(0),
            Some(k) => {
                w.u8(1);
                w.u64(k as u64);
            }
        }
        match &self.searcher {
            SearcherState::Hedge { pi } => {
                w.u8(TAG_HEDGE);
                w.f32s(pi);
            }
            SearcherState::ZeroBit { pi } => {
                w.u8(TAG_ZERO_BIT);
                w.f32s(pi);
            }
            SearcherState::ReleqRl {
                theta,
                baseline,
                updates,
            } => {
                w.u8(TAG_RELEQ);
                w.f32s(theta);
                w.f32(*baseline);
                w.u64(*updates);
            }
            SearcherState::OneShot {
                order,
                sensitivities,
            } => {
                w.u8(TAG_ONE_SHOT);
                w.list(order, |w, &s| w.count(s));
                w.f32s(sensitivities);
            }
        }
        w.u64(self.rollbacks);
        w.list(&self.velocities, ByteWriter::tensor);
        w.bytes(&self.ckpt.to_bytes());
        w.list(&self.trace, |w, p| {
            w.u64(p.epoch as u64);
            w.f32(p.val_accuracy);
            w.f32(p.lr);
            match p.event {
                TraceEvent::Baseline => w.u8(0),
                TraceEvent::InitQuantize => w.u8(1),
                TraceEvent::QuantStep { layer, to_bits } => {
                    w.u8(2);
                    w.count(layer);
                    w.bits(to_bits);
                }
                TraceEvent::Recovery => w.u8(3),
            }
        });
        w.list(&self.steps, |w, s| {
            w.u64(s.step as u64);
            w.count(s.layer);
            w.u8(kind_code(s.kind));
            w.str(&s.label);
            w.bits(s.from_bits);
            w.bits(s.to_bits);
            w.f32(s.accuracy_before);
            w.f32(s.accuracy_after_quant);
            w.f32(s.accuracy_after_recovery);
            w.u64(s.recovery_epochs as u64);
            w.f64(s.compression);
            w.f32(s.lambda);
        });
        w.finish()
    }

    /// Serializes in the legacy v1 layout — a bare Hedge π vector where
    /// v2 writes the tagged searcher section and rollback counter —
    /// byte-for-byte what pre-searcher builds wrote to disk. Fixture
    /// support for compatibility tests; not part of the stable API.
    ///
    /// # Panics
    ///
    /// Panics when the searcher state isn't [`SearcherState::Hedge`]:
    /// v1 only ever stored Hedge weights.
    #[doc(hidden)]
    #[must_use]
    pub fn to_legacy_v1_bytes(&self) -> Vec<u8> {
        let SearcherState::Hedge { pi } = &self.searcher else {
            // ccq-lint: allow(panic-surface) — test-fixture API, not a runtime path.
            panic!("v1 fixtures are Hedge-only, got {:?}", self.searcher)
        };
        let v2 = self.to_bytes();
        // v2 = header..plateau | tag + π-section + rollbacks | tail.
        // Rebuild as   header..plateau | π-section | tail   with the
        // version byte set to 1. The searcher section starts right
        // after the plateau block, whose length is fixed given the
        // restart tag, so split the v2 bytes around it.
        let head_len = self.header_len();
        let sect_len = 1 + 4 + 4 * pi.len() + 8; // tag + len + f32s + rollbacks
        let mut w = ByteWriter::default();
        w.raw(&v2[..head_len]);
        w.f32s(pi);
        w.raw(&v2[head_len + sect_len..]);
        let mut out = w.finish();
        out[7] = 1; // version byte
        out
    }

    /// Byte length of the serialized header through the plateau block
    /// (where the searcher section begins).
    fn header_len(&self) -> usize {
        7 + 1 // magic + version
            + 8 + 4 // seed + gamma
            + 4 + 4 * self.ladder.len() // ladder
            + 1 + 1 // granularity + regime
            + match &self.targets { None => 1, Some(t) => 1 + 4 + 4 * t.len() }
            + 8 + 8 // next_step + epoch
            + 4 + 4 + 4 + 4 // accuracies + lrs
            + 32 // rng
            + 4 + 8 + match self.plateau.2 { None => 1, Some(_) => 9 }
    }

    /// Deserializes from the binary run-state format.
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::CheckpointIo`] on a truncated or malformed
    /// buffer, a bad magic, or an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::decode(&mut ByteReader::new(bytes))
            .map_err(|e| CcqError::CheckpointIo(format!("malformed run state: {e}")))
    }

    fn decode(r: &mut ByteReader<'_>) -> std::result::Result<Self, DurableError> {
        r.magic(MAGIC, "CCQ run state")?;
        let version = r.u8()?;
        if !(1..=VERSION).contains(&version) {
            return Err(invalid(format!(
                "unsupported run-state version {version} (this build reads versions 1..={VERSION})"
            )));
        }
        let seed = r.u64()?;
        let gamma = r.f32()?;
        let ladder = r.list(ByteReader::u32)?;
        let granularity_code = r.u8()?;
        let regime_code = r.u8()?;
        let targets = match r.u8()? {
            0 => None,
            1 => Some(r.list(ByteReader::u32)?),
            other => return Err(invalid(format!("bad targets tag {other}"))),
        };
        let next_step = r.u64()? as usize;
        let epoch = r.u64()? as usize;
        let baseline_accuracy = r.f32()?;
        let last_accuracy = r.f32()?;
        let lr = r.f32()?;
        let base_lr = r.f32()?;
        let mut rng = [0u64; 4];
        for s in &mut rng {
            *s = r.u64()?;
        }
        let plateau_best = r.f32()?;
        let plateau_since = r.u64()? as usize;
        let plateau_restart = match r.u8()? {
            0 => None,
            1 => Some(r.u64()? as usize),
            other => return Err(invalid(format!("bad restart tag {other}"))),
        };
        let (searcher, rollbacks) = if version == 1 {
            // v1 predates the searcher abstraction: a bare π vector, no
            // rollback counter. Only the Hedge searcher existed, so the
            // mapping is lossless and resume stays byte-identical.
            (SearcherState::Hedge { pi: r.f32s()? }, 0u64)
        } else {
            let searcher = match r.u8()? {
                TAG_HEDGE => SearcherState::Hedge { pi: r.f32s()? },
                TAG_ZERO_BIT => SearcherState::ZeroBit { pi: r.f32s()? },
                TAG_RELEQ => SearcherState::ReleqRl {
                    theta: r.f32s()?,
                    baseline: r.f32()?,
                    updates: r.u64()?,
                },
                TAG_ONE_SHOT => SearcherState::OneShot {
                    order: r.list(ByteReader::count)?,
                    sensitivities: r.f32s()?,
                },
                other => return Err(invalid(format!("bad searcher tag {other}"))),
            };
            (searcher, r.u64()?)
        };
        let velocities = r.list(ByteReader::tensor)?;
        let ckpt = Checkpoint::from_bytes(r.bytes()?)
            .map_err(|e| invalid(format!("embedded checkpoint: {e}")))?;
        let trace = r.list(|r| {
            Ok(TracePoint {
                epoch: r.u64()? as usize,
                val_accuracy: r.f32()?,
                lr: r.f32()?,
                event: match r.u8()? {
                    0 => TraceEvent::Baseline,
                    1 => TraceEvent::InitQuantize,
                    2 => TraceEvent::QuantStep {
                        layer: r.count()?,
                        to_bits: r.bits()?,
                    },
                    3 => TraceEvent::Recovery,
                    other => return Err(invalid(format!("bad trace event tag {other}"))),
                },
            })
        })?;
        let steps = r.list(|r| {
            Ok(StepRecord {
                step: r.u64()? as usize,
                layer: r.count()?,
                kind: kind_from_code(r.u8()?)?,
                label: r.string("step label")?,
                from_bits: r.bits()?,
                to_bits: r.bits()?,
                accuracy_before: r.f32()?,
                accuracy_after_quant: r.f32()?,
                accuracy_after_recovery: r.f32()?,
                recovery_epochs: r.u64()? as usize,
                compression: r.f64()?,
                lambda: r.f32()?,
            })
        })?;
        Ok(RunState {
            seed,
            gamma,
            ladder,
            granularity_code,
            regime_code,
            targets,
            next_step,
            epoch,
            baseline_accuracy,
            last_accuracy,
            lr,
            base_lr,
            rng,
            plateau: (plateau_best, plateau_since, plateau_restart),
            searcher,
            rollbacks,
            velocities,
            ckpt,
            trace,
            steps,
        })
    }

    /// Atomically writes the state to `path` with
    /// [`durable::write_atomic`]: tmp + fsync + rename, the existing
    /// current file first rotated to `<path>.prev` so the last good
    /// generation survives a torn write, then a parent-directory fsync.
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::CheckpointIo`] on any filesystem failure,
    /// including a failed directory fsync (the renamed file is in place
    /// but not yet durable — callers retry the whole write).
    pub fn write_atomic(&self, path: &Path) -> Result<()> {
        self.write_atomic_inner(path, false)
    }

    /// [`RunState::write_atomic`] with a fault plan consulted at the
    /// post-rename directory-fsync barrier: an injected failure reports
    /// after the rename lands, exactly like a real barrier failure.
    ///
    /// # Errors
    ///
    /// Same contract as [`RunState::write_atomic`].
    #[cfg(feature = "fault-inject")]
    pub fn write_atomic_with_faults(
        &self,
        path: &Path,
        plan: Option<&crate::FaultPlan>,
    ) -> Result<()> {
        let inject = plan.is_some_and(|p| p.take_dir_sync_failure());
        self.write_atomic_inner(path, inject)
    }

    fn write_atomic_inner(&self, path: &Path, inject_dir_sync_failure: bool) -> Result<()> {
        durable::write_atomic_faulted(
            path,
            &self.to_bytes(),
            Rotate::KeepPrev,
            inject_dir_sync_failure,
        )
        .map_err(|e| CcqError::CheckpointIo(e.to_string()))
    }

    /// Loads the state from `path`, falling back to the retained
    /// `<path>.prev` generation when the current file is missing,
    /// truncated, or corrupt.
    ///
    /// # Errors
    ///
    /// Returns the current file's [`CcqError::CheckpointIo`] when neither
    /// generation loads.
    pub fn load_with_fallback(path: &Path) -> Result<Self> {
        durable::load_with_fallback(path, Self::load)
    }

    /// [`RunState::load_with_fallback`] with a fault plan consulted on
    /// the read path: an injected read failure surfaces as
    /// [`CcqError::CheckpointIo`] without touching the file; an injected
    /// read corruption XORs one mid-file byte in memory before parsing,
    /// so the format's integrity checks reject the primary generation and
    /// the loader falls back to `<path>.prev` exactly as with real bit
    /// rot.
    ///
    /// # Errors
    ///
    /// Same contract as [`RunState::load_with_fallback`], plus the
    /// injected failures.
    #[cfg(feature = "fault-inject")]
    pub fn load_with_fallback_faulted(
        path: &Path,
        plan: Option<&crate::FaultPlan>,
    ) -> Result<Self> {
        let Some(plan) = plan else {
            return Self::load_with_fallback(path);
        };
        if plan.take_read_failure() {
            return Err(CcqError::CheckpointIo(format!(
                "injected read failure for {}",
                path.display()
            )));
        }
        if plan.take_read_corruption() {
            let mut primary = true;
            return durable::load_with_fallback(path, |p| {
                if std::mem::take(&mut primary) {
                    Self::load_corrupted(p)
                } else {
                    Self::load(p)
                }
            });
        }
        Self::load_with_fallback(path)
    }

    /// Loads `path` with one mid-file byte flipped in memory — the
    /// injected-corruption read path.
    #[cfg(feature = "fault-inject")]
    fn load_corrupted(path: &Path) -> Result<Self> {
        let mut bytes = fs::read(path)
            .map_err(|e| CcqError::CheckpointIo(format!("read {}: {e}", path.display())))?;
        if !bytes.is_empty() {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xA5;
        }
        Self::from_bytes(&bytes).map_err(|e| {
            CcqError::CheckpointIo(format!(
                "injected read corruption for {}: {e}",
                path.display()
            ))
        })
    }

    /// Loads the state from exactly `path` (no fallback).
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::CheckpointIo`] on a read failure or malformed
    /// contents.
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = fs::read(path)
            .map_err(|e| CcqError::CheckpointIo(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

fn invalid(msg: String) -> DurableError {
    DurableError::Format(msg)
}

fn kind_code(k: ExpertKind) -> u8 {
    match k {
        ExpertKind::Layer => 0,
        ExpertKind::Weights => 1,
        ExpertKind::Activations => 2,
    }
}

fn kind_from_code(c: u8) -> std::result::Result<ExpertKind, DurableError> {
    Ok(match c {
        0 => ExpertKind::Layer,
        1 => ExpertKind::Weights,
        2 => ExpertKind::Activations,
        other => return Err(invalid(format!("unknown expert kind {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_models::mlp;
    use ccq_quant::{BitWidth, PolicyKind};
    use proptest::prelude::*;

    fn sample() -> RunState {
        let mut net = mlp(&[4, 8, 2], PolicyKind::Pact, 0);
        RunState {
            seed: 7,
            gamma: 0.5,
            ladder: vec![8, 4, 2],
            granularity_code: 0,
            regime_code: 0,
            targets: Some(vec![32, 4]),
            next_step: 3,
            epoch: 11,
            baseline_accuracy: 0.91,
            last_accuracy: 0.88,
            lr: 0.01,
            base_lr: 0.02,
            rng: [1, 2, 3, 4],
            plateau: (0.9, 1, Some(2)),
            searcher: SearcherState::Hedge { pi: vec![1.0, 0.5] },
            rollbacks: 2,
            velocities: crate::guard::capture_velocities(&mut net),
            ckpt: Checkpoint::capture(&mut net),
            trace: vec![
                TracePoint {
                    epoch: 0,
                    val_accuracy: 0.91,
                    lr: 0.02,
                    event: TraceEvent::Baseline,
                },
                TracePoint {
                    epoch: 1,
                    val_accuracy: 0.85,
                    lr: 0.02,
                    event: TraceEvent::QuantStep {
                        layer: 1,
                        to_bits: BitWidth::of(4),
                    },
                },
            ],
            steps: vec![StepRecord {
                step: 1,
                layer: 1,
                kind: ExpertKind::Layer,
                label: "fc1".into(),
                from_bits: BitWidth::of(8),
                to_bits: BitWidth::of(4),
                accuracy_before: 0.9,
                accuracy_after_quant: 0.85,
                accuracy_after_recovery: 0.89,
                recovery_epochs: 4,
                compression: 7.5,
                lambda: 0.3,
            }],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let s = sample();
        let bytes = s.to_bytes();
        // Byte pin: any drift in the CCQRUNS v2 encoding changes this digest.
        assert_eq!(
            (durable::fnv1a(&bytes), bytes.len()),
            (0xd5e6_d48d_4103_3ea5, 883)
        );
        let restored = RunState::from_bytes(&bytes).unwrap();
        assert_eq!(restored, s);
    }

    #[test]
    fn every_searcher_state_round_trips() {
        let states = [
            SearcherState::Hedge {
                pi: vec![1.0, 0.25, 1e-30],
            },
            SearcherState::ZeroBit { pi: vec![0.5, 1.0] },
            SearcherState::ReleqRl {
                theta: vec![0.1, -0.2, 0.3, 0.0, 1.5, -9.0],
                baseline: -0.73,
                updates: 41,
            },
            SearcherState::OneShot {
                order: vec![2, 0, 1],
                sensitivities: vec![0.3, 0.9, 0.1],
            },
            // Pristine states (pre-first-competition autosaves).
            SearcherState::ReleqRl {
                theta: vec![],
                baseline: 0.0,
                updates: 0,
            },
            SearcherState::OneShot {
                order: vec![],
                sensitivities: vec![],
            },
        ];
        for state in states {
            let mut s = sample();
            s.searcher = state.clone();
            s.rollbacks = 7;
            let restored = RunState::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(restored.searcher, state);
            assert_eq!(restored.rollbacks, 7);
            assert_eq!(restored, s);
        }
    }

    #[test]
    fn zero_bit_widths_survive_the_round_trip() {
        let mut s = sample();
        s.searcher = SearcherState::ZeroBit { pi: vec![1.0, 1.0] };
        s.steps[0].to_bits = BitWidth::ZERO;
        s.trace[1].event = TraceEvent::QuantStep {
            layer: 1,
            to_bits: BitWidth::ZERO,
        };
        let restored = RunState::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(restored, s);
        assert!(restored.steps[0].to_bits.is_pruned());
    }

    #[test]
    fn legacy_v1_files_load_as_hedge_state() {
        let s = sample(); // sample() uses Hedge π = [1.0, 0.5], rollbacks = 2
        let v1 = s.to_legacy_v1_bytes();
        let restored = RunState::from_bytes(&v1).unwrap();
        assert_eq!(
            restored.searcher,
            SearcherState::Hedge { pi: vec![1.0, 0.5] }
        );
        assert_eq!(restored.rollbacks, 0, "v1 predates the rollback counter");
        // Everything else is identical to the v2 reading of the same run.
        let mut expect = s.clone();
        expect.rollbacks = 0;
        assert_eq!(restored, expect);
        // Truncated v1 prefixes are still rejected at every length.
        for keep in 0..v1.len() {
            assert!(RunState::from_bytes(&v1[..keep]).is_err());
        }
    }

    #[test]
    fn rejects_bad_magic_wrong_version_and_truncation() {
        let mut bytes = sample().to_bytes();
        assert!(matches!(
            RunState::from_bytes(b"NOTRUNS!"),
            Err(CcqError::CheckpointIo(_))
        ));
        for keep in 0..bytes.len() {
            assert!(
                RunState::from_bytes(&bytes[..keep]).is_err(),
                "prefix of {keep} bytes must not parse"
            );
        }
        bytes[7] = 99;
        match RunState::from_bytes(&bytes).unwrap_err() {
            CcqError::CheckpointIo(msg) => assert!(msg.contains("version 99"), "{msg}"),
            other => panic!("expected CheckpointIo, got {other:?}"),
        }
        // Hostile velocity headers after a valid prefix: a rank-3 tensor
        // whose element count overflows, and a 16384x16384 tensor with
        // no data behind it (must not reserve 1 GiB first).
        let s = sample();
        let SearcherState::Hedge { pi } = &s.searcher else {
            unreachable!("sample() is Hedge")
        };
        let velocities_at = s.header_len() + 1 + 4 + 4 * pi.len() + 8;
        for dims in [&[u32::MAX; 3][..], &[16384, 16384]] {
            let mut hostile = s.to_bytes()[..velocities_at].to_vec();
            hostile.extend(1u32.to_le_bytes());
            hostile.extend((dims.len() as u32).to_le_bytes());
            dims.iter().for_each(|d| hostile.extend(d.to_le_bytes()));
            assert!(matches!(
                RunState::from_bytes(&hostile),
                Err(CcqError::CheckpointIo(_))
            ));
        }
    }

    #[test]
    fn atomic_write_retains_previous_generation() {
        let dir = std::env::temp_dir().join("ccq_run_state_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("state.ccqruns");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(durable::prev_path(&path));

        let a = sample();
        a.write_atomic(&path).unwrap();
        let mut b = a.clone();
        b.next_step = 4;
        b.write_atomic(&path).unwrap();

        assert_eq!(RunState::load(&path).unwrap().next_step, 4);
        assert_eq!(
            RunState::load(&durable::prev_path(&path))
                .unwrap()
                .next_step,
            3
        );

        // Corrupt the current generation: the loader falls back.
        fs::write(&path, b"torn write").unwrap();
        assert_eq!(RunState::load_with_fallback(&path).unwrap().next_step, 3);

        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(durable::prev_path(&path));
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
            let mut headed = b"CCQRUNS\x02".to_vec();
            headed.extend(&body);
            let mut mutated = sample().to_bytes();
            mutate(&mut mutated, &edits);
            for bytes in [body, headed, mutated] {
                let decoded = RunState::from_bytes(&bytes);
                prop_assert!(matches!(decoded, Ok(_) | Err(CcqError::CheckpointIo(_))));
            }
        }
    }
}

//! The job wire format: a deterministic, human-editable `key = value`
//! text file describing everything a worker needs to run one CCQ
//! quantization job from scratch — architecture, policy, data recipe,
//! pre-training budget, ladder, and descent budget.
//!
//! The format round-trips exactly: [`JobSpec::render`] emits keys in a
//! fixed order with shortest round-trip floats, and [`JobSpec::parse`]
//! is its strict inverse (unknown keys, duplicates, and missing required
//! keys are errors). Two byte-identical spec files therefore describe
//! bit-identical runs — the foundation of the daemon's restart-resume
//! contract.

use crate::error::{Result, ServeError};
use ccq::{CcqConfig, GuardPolicy, LambdaSchedule, RecoveryMode, SearcherKind};
use ccq_data::{gaussian_blobs, BlobsConfig};
use ccq_models::mlp;
use ccq_nn::train::Batch;
use ccq_nn::Network;
use ccq_quant::{BitLadder, PolicyKind};
use std::fmt::Write as _;

const HEADER: &str = "ccq-job v1";

/// A fully-specified quantization job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job id: unique within a queue, used as the artifact file stem.
    pub name: String,
    /// MLP layer dims, input to classes (the only architecture the
    /// daemon currently serves).
    pub mlp_dims: Vec<usize>,
    /// Quantization policy for every layer.
    pub policy: PolicyKind,
    /// Weight-init seed for the model.
    pub model_seed: u64,
    /// Gaussian-blobs data recipe.
    pub data: BlobsConfig,
    /// Train/validation split point (first `split` samples train).
    pub split: usize,
    /// Full-precision pre-training epochs before quantization starts.
    pub pretrain_epochs: usize,
    /// Pre-training learning rate.
    pub pretrain_lr: f32,
    /// Pre-training SGD momentum.
    pub pretrain_momentum: f32,
    /// Pre-training shuffle/augment seed.
    pub pretrain_seed: u64,
    /// Minibatch size for both pre-training and recovery.
    pub batch_size: usize,
    /// CCQ master seed.
    pub seed: u64,
    /// Hedge learning rate γ.
    pub gamma: f32,
    /// Compete-phase search strategy (hedge, zero-bit, releq, one-shot).
    pub searcher: SearcherKind,
    /// Bit ladder, top to floor.
    pub ladder: Vec<u32>,
    /// Competition rounds per step (0 = the default two).
    pub probe_rounds: usize,
    /// Validation batches per probe (0 = all).
    pub probe_val_batches: usize,
    /// Constant λ override; `None` keeps the default decaying schedule.
    pub lambda: Option<f32>,
    /// Recovery mode for the collaboration stage.
    pub recovery: RecoveryMode,
    /// Divergence guard policy.
    pub guard: GuardPolicy,
    /// Recovery fine-tuning learning rate.
    pub lr: f32,
    /// Safety cap on quantization steps.
    pub max_steps: usize,
    /// Stop once this compression ratio is reached.
    pub target_compression: Option<f64>,
}

impl JobSpec {
    /// A small, fast demo job — the `ccq-serve demo-spec` payload and
    /// the smoke-gate workload. `variant` perturbs the seeds and ladder
    /// so two demo jobs exercise distinct trajectories.
    pub fn demo(name: &str, variant: u64) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            mlp_dims: vec![8, 16, 16, 4],
            policy: PolicyKind::Pact,
            model_seed: 5 + variant,
            data: BlobsConfig {
                classes: 4,
                dim: 8,
                samples_per_class: 64,
                std: 0.4,
                seed: 20 + variant,
            },
            split: 192,
            pretrain_epochs: 15,
            pretrain_lr: 0.05,
            pretrain_momentum: 0.9,
            pretrain_seed: 2 + variant,
            batch_size: 16,
            seed: 5 + variant,
            gamma: 0.5,
            searcher: SearcherKind::Hedge,
            ladder: if variant.is_multiple_of(2) {
                vec![8, 4]
            } else {
                vec![8, 4, 2]
            },
            probe_rounds: 3,
            probe_val_batches: 0,
            lambda: Some(0.3),
            recovery: RecoveryMode::Manual { epochs: 2 },
            guard: GuardPolicy::Quarantine { max_retries: 2 },
            lr: 0.02,
            max_steps: 6,
            target_compression: None,
        }
    }

    /// Renders the spec in the canonical key order. `parse(render(s))`
    /// reproduces `s` exactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(
            out,
            "model = mlp:{}",
            self.mlp_dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x")
        );
        let _ = writeln!(out, "policy = {}", render_policy(self.policy));
        let _ = writeln!(out, "model_seed = {}", self.model_seed);
        let _ = writeln!(
            out,
            "data = blobs:{}x{}x{}",
            self.data.classes, self.data.dim, self.data.samples_per_class
        );
        let _ = writeln!(out, "data_std = {}", self.data.std);
        let _ = writeln!(out, "data_seed = {}", self.data.seed);
        let _ = writeln!(out, "split = {}", self.split);
        let _ = writeln!(out, "pretrain_epochs = {}", self.pretrain_epochs);
        let _ = writeln!(out, "pretrain_lr = {}", self.pretrain_lr);
        let _ = writeln!(out, "pretrain_momentum = {}", self.pretrain_momentum);
        let _ = writeln!(out, "pretrain_seed = {}", self.pretrain_seed);
        let _ = writeln!(out, "batch_size = {}", self.batch_size);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "gamma = {}", self.gamma);
        let _ = writeln!(out, "searcher = {}", self.searcher.as_str());
        let _ = writeln!(
            out,
            "ladder = {}",
            self.ladder
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(out, "probe_rounds = {}", self.probe_rounds);
        let _ = writeln!(out, "probe_val_batches = {}", self.probe_val_batches);
        match self.lambda {
            Some(l) => {
                let _ = writeln!(out, "lambda = {l}");
            }
            None => {
                let _ = writeln!(out, "lambda = default");
            }
        }
        let _ = writeln!(out, "recovery = {}", render_recovery(self.recovery));
        let _ = writeln!(out, "guard = {}", render_guard(self.guard));
        let _ = writeln!(out, "lr = {}", self.lr);
        let _ = writeln!(out, "max_steps = {}", self.max_steps);
        match self.target_compression {
            Some(t) => {
                let _ = writeln!(out, "target_compression = {t}");
            }
            None => {
                let _ = writeln!(out, "target_compression = none");
            }
        }
        out
    }

    /// Parses a spec file rendered by [`JobSpec::render`] (or written by
    /// hand in the same `key = value` format).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Spec`] naming the offending line for a bad
    /// header, an unknown or duplicate key, a malformed value, or a
    /// missing required key.
    pub fn parse(text: &str) -> Result<JobSpec> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == HEADER => {}
            other => {
                return Err(ServeError::Spec(format!(
                    "expected header \"{HEADER}\", found {other:?}"
                )))
            }
        }
        // Each entry carries the 1-based line it came from so late
        // diagnostics (unknown key) can point at the source line just
        // like the early ones (malformed line, duplicate key).
        let mut kv: Vec<(String, String, usize)> = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(ServeError::Spec(format!(
                    "line {}: expected \"key = value\", found {line:?}",
                    i + 2
                )));
            };
            let k = k.trim().to_string();
            if kv.iter().any(|(seen, _, _)| *seen == k) {
                return Err(ServeError::Spec(format!(
                    "line {}: duplicate key {k:?}",
                    i + 2
                )));
            }
            kv.push((k, v.trim().to_string(), i + 2));
        }
        let mut taken: Vec<bool> = vec![false; kv.len()];
        let mut get = |key: &str| -> Option<String> {
            kv.iter().position(|(k, _, _)| k == key).map(|i| {
                taken[i] = true;
                kv[i].1.clone()
            })
        };
        let req = |v: Option<String>, key: &str| -> Result<String> {
            v.ok_or_else(|| ServeError::Spec(format!("missing required key {key:?}")))
        };
        let name = req(get("name"), "name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(ServeError::Spec(format!(
                "name {name:?} must be non-empty [A-Za-z0-9_-]"
            )));
        }
        let model = req(get("model"), "model")?;
        let mlp_dims = parse_model(&model)?;
        let policy = parse_policy(&req(get("policy"), "policy")?)?;
        let model_seed = parse_num::<u64>(get("model_seed"), "model_seed", 0)?;
        let data = parse_data(
            &req(get("data"), "data")?,
            parse_num::<f32>(get("data_std"), "data_std", 0.4)?,
            parse_num::<u64>(get("data_seed"), "data_seed", 0)?,
        )?;
        // The default split trains on the first three quarters; the
        // quarter is taken before the multiply so it cannot overflow.
        let total = total_samples(&data)?;
        let split = parse_num::<usize>(get("split"), "split", total / 4 * 3 + total % 4 * 3 / 4)?;
        let spec = JobSpec {
            name,
            mlp_dims,
            policy,
            model_seed,
            data,
            split,
            pretrain_epochs: parse_num(get("pretrain_epochs"), "pretrain_epochs", 10)?,
            pretrain_lr: parse_num(get("pretrain_lr"), "pretrain_lr", 0.05)?,
            pretrain_momentum: parse_num(get("pretrain_momentum"), "pretrain_momentum", 0.9)?,
            pretrain_seed: parse_num(get("pretrain_seed"), "pretrain_seed", 0)?,
            batch_size: parse_num(get("batch_size"), "batch_size", 16)?,
            seed: parse_num(get("seed"), "seed", 0)?,
            gamma: parse_num(get("gamma"), "gamma", 0.5)?,
            searcher: parse_searcher(get("searcher"))?,
            ladder: parse_ladder(&req(get("ladder"), "ladder")?)?,
            probe_rounds: parse_num(get("probe_rounds"), "probe_rounds", 0)?,
            probe_val_batches: parse_num(get("probe_val_batches"), "probe_val_batches", 0)?,
            lambda: parse_lambda(get("lambda"))?,
            recovery: parse_recovery(&req(get("recovery"), "recovery")?)?,
            guard: parse_guard(get("guard"))?,
            lr: parse_num(get("lr"), "lr", 0.02)?,
            max_steps: parse_num(get("max_steps"), "max_steps", 500)?,
            target_compression: parse_target(get("target_compression"))?,
        };
        if let Some((i, _)) = taken.iter().enumerate().find(|(_, t)| !**t) {
            return Err(ServeError::Spec(format!(
                "line {}: unknown key {:?}",
                kv[i].2, kv[i].0
            )));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the cross-field invariants a worker relies on.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Spec`] on an inconsistent spec.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(ServeError::Spec(msg));
        if self.mlp_dims.len() < 2 {
            return bad("model needs at least input and output dims".into());
        }
        if self.mlp_dims[0] != self.data.dim {
            return bad(format!(
                "model input dim {} != data dim {}",
                self.mlp_dims[0], self.data.dim
            ));
        }
        if *self.mlp_dims.last().unwrap_or(&0) != self.data.classes {
            return bad(format!(
                "model output dim {} != data classes {}",
                self.mlp_dims.last().unwrap_or(&0),
                self.data.classes
            ));
        }
        let total = total_samples(&self.data)?;
        if self.split == 0 || self.split >= total {
            return bad(format!(
                "split {} must be in 1..{total} (total samples)",
                self.split
            ));
        }
        if self.batch_size == 0 {
            return bad("batch_size must be >= 1".into());
        }
        if self.ladder.is_empty() {
            return bad("ladder must have at least one rung".into());
        }
        Ok(())
    }

    /// The [`CcqConfig`] this job runs under. The caller sets
    /// `autosave` to the job's spool path before building an engine.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Spec`] for a ladder the quantizer rejects.
    pub fn to_config(&self) -> Result<CcqConfig> {
        let ladder =
            BitLadder::new(&self.ladder).map_err(|e| ServeError::Spec(format!("ladder: {e}")))?;
        Ok(CcqConfig {
            ladder,
            gamma: self.gamma,
            searcher: self.searcher,
            probe_rounds: self.probe_rounds,
            probe_val_batches: self.probe_val_batches,
            lambda: match self.lambda {
                Some(l) => LambdaSchedule::constant(l),
                None => LambdaSchedule::default(),
            },
            recovery: self.recovery,
            lr: self.lr,
            max_steps: self.max_steps,
            target_compression: self.target_compression,
            batch_size: self.batch_size,
            seed: self.seed,
            guard: self.guard,
            ..CcqConfig::default()
        })
    }

    /// Builds the job's network at its init weights (pre-training is the
    /// worker's job — resume paths skip it).
    pub fn build_net(&self) -> Network {
        mlp(&self.mlp_dims, self.policy, self.model_seed)
    }

    /// Materializes the train/validation batches, deterministically.
    pub fn build_batches(&self) -> (Vec<Batch>, Vec<Batch>) {
        let (train, val) = gaussian_blobs(&self.data).split_at(self.split);
        (
            train.batches(self.batch_size),
            val.batches(self.batch_size.max(32)),
        )
    }
}

fn parse_num<T: std::str::FromStr>(v: Option<String>, key: &str, default: T) -> Result<T> {
    match v {
        None => Ok(default),
        Some(s) => s
            .parse::<T>()
            .map_err(|_| ServeError::Spec(format!("key {key:?}: cannot parse {s:?}"))),
    }
}

fn parse_model(v: &str) -> Result<Vec<usize>> {
    let Some(dims) = v.strip_prefix("mlp:") else {
        return Err(ServeError::Spec(format!(
            "model {v:?}: only \"mlp:<d0>x<d1>x…\" is supported"
        )));
    };
    dims.split('x')
        .map(|d| {
            d.parse::<usize>()
                .map_err(|_| ServeError::Spec(format!("model dim {d:?} is not an integer")))
        })
        .collect()
}

fn parse_data(v: &str, std: f32, seed: u64) -> Result<BlobsConfig> {
    let Some(shape) = v.strip_prefix("blobs:") else {
        return Err(ServeError::Spec(format!(
            "data {v:?}: only \"blobs:<classes>x<dim>x<per_class>\" is supported"
        )));
    };
    let parts: Vec<&str> = shape.split('x').collect();
    if parts.len() != 3 {
        return Err(ServeError::Spec(format!(
            "data {v:?}: expected blobs:<classes>x<dim>x<per_class>"
        )));
    }
    let n = |s: &str| -> Result<usize> {
        s.parse::<usize>()
            .map_err(|_| ServeError::Spec(format!("data dim {s:?} is not an integer")))
    };
    Ok(BlobsConfig {
        classes: n(parts[0])?,
        dim: n(parts[1])?,
        samples_per_class: n(parts[2])?,
        std,
        seed,
    })
}

/// The recipe's sample count, `classes × samples_per_class`, or a
/// typed error when the product does not fit in a `usize`.
fn total_samples(data: &BlobsConfig) -> Result<usize> {
    data.classes
        .checked_mul(data.samples_per_class)
        .ok_or_else(|| {
            ServeError::Spec(format!(
                "data blobs:{}x{}x{}: sample count overflows",
                data.classes, data.dim, data.samples_per_class
            ))
        })
}

fn parse_ladder(v: &str) -> Result<Vec<u32>> {
    v.split(',')
        .map(|b| {
            b.trim()
                .parse::<u32>()
                .map_err(|_| ServeError::Spec(format!("ladder rung {b:?} is not an integer")))
        })
        .collect()
}

fn parse_searcher(v: Option<String>) -> Result<SearcherKind> {
    match v {
        None => Ok(SearcherKind::Hedge),
        Some(s) => SearcherKind::parse(&s).map_err(|e| ServeError::Spec(format!("searcher: {e}"))),
    }
}

fn parse_lambda(v: Option<String>) -> Result<Option<f32>> {
    match v.as_deref() {
        None | Some("default") => Ok(None),
        Some(s) => s.parse::<f32>().map(Some).map_err(|_| {
            ServeError::Spec(format!("lambda {s:?}: expected a number or \"default\""))
        }),
    }
}

fn parse_target(v: Option<String>) -> Result<Option<f64>> {
    match v.as_deref() {
        None | Some("none") => Ok(None),
        Some(s) => s.parse::<f64>().map(Some).map_err(|_| {
            ServeError::Spec(format!(
                "target_compression {s:?}: expected a number or \"none\""
            ))
        }),
    }
}

fn render_policy(p: PolicyKind) -> &'static str {
    match p {
        PolicyKind::Dorefa => "dorefa",
        PolicyKind::Wrpn => "wrpn",
        PolicyKind::Pact => "pact",
        PolicyKind::Sawb => "sawb",
        PolicyKind::UniformAffine => "uniform_affine",
        PolicyKind::MaxAbs => "maxabs",
        PolicyKind::Aciq => "aciq",
        PolicyKind::Lsq => "lsq",
    }
}

fn parse_policy(v: &str) -> Result<PolicyKind> {
    Ok(match v {
        "dorefa" => PolicyKind::Dorefa,
        "wrpn" => PolicyKind::Wrpn,
        "pact" => PolicyKind::Pact,
        "sawb" => PolicyKind::Sawb,
        "uniform_affine" => PolicyKind::UniformAffine,
        "maxabs" => PolicyKind::MaxAbs,
        "aciq" => PolicyKind::Aciq,
        "lsq" => PolicyKind::Lsq,
        other => return Err(ServeError::Spec(format!("unknown policy {other:?}"))),
    })
}

fn render_recovery(r: RecoveryMode) -> String {
    match r {
        RecoveryMode::Manual { epochs } => format!("manual:{epochs}"),
        RecoveryMode::Adaptive {
            tolerance,
            max_epochs,
        } => format!("adaptive:{tolerance}:{max_epochs}"),
    }
}

fn parse_recovery(v: &str) -> Result<RecoveryMode> {
    let bad = || {
        ServeError::Spec(format!(
            "recovery {v:?}: expected manual:<epochs> or adaptive:<tolerance>:<max_epochs>"
        ))
    };
    let parts: Vec<&str> = v.split(':').collect();
    match parts.as_slice() {
        ["manual", e] => Ok(RecoveryMode::Manual {
            epochs: e.parse().map_err(|_| bad())?,
        }),
        ["adaptive", t, m] => Ok(RecoveryMode::Adaptive {
            tolerance: t.parse().map_err(|_| bad())?,
            max_epochs: m.parse().map_err(|_| bad())?,
        }),
        _ => Err(bad()),
    }
}

fn render_guard(g: GuardPolicy) -> String {
    match g {
        GuardPolicy::Off => "off".to_string(),
        GuardPolicy::RollbackRetry {
            max_retries,
            lr_factor,
        } => format!("rollback:{max_retries}:{lr_factor}"),
        GuardPolicy::Quarantine { max_retries } => format!("quarantine:{max_retries}"),
    }
}

fn parse_guard(v: Option<String>) -> Result<GuardPolicy> {
    let Some(v) = v else {
        return Ok(GuardPolicy::default());
    };
    let bad = || {
        ServeError::Spec(format!(
            "guard {v:?}: expected off, rollback:<retries>:<lr_factor>, or quarantine:<retries>"
        ))
    };
    let parts: Vec<&str> = v.split(':').collect();
    match parts.as_slice() {
        ["off"] => Ok(GuardPolicy::Off),
        ["rollback", r, f] => Ok(GuardPolicy::RollbackRetry {
            max_retries: r.parse().map_err(|_| bad())?,
            lr_factor: f.parse().map_err(|_| bad())?,
        }),
        ["quarantine", r] => Ok(GuardPolicy::Quarantine {
            max_retries: r.parse().map_err(|_| bad())?,
        }),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trips_exactly() {
        for variant in 0..2 {
            let spec = JobSpec::demo(&format!("demo-{variant}"), variant);
            let text = spec.render();
            let back = JobSpec::parse(&text).expect("canonical render parses");
            assert_eq!(back, spec);
            assert_eq!(back.render(), text, "render is a fixed point");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        let spec = JobSpec::demo("ok", 0);
        let text = spec.render();
        assert!(JobSpec::parse("not a header\n").is_err());
        assert!(JobSpec::parse(&text.replace("policy = pact", "policy = magic")).is_err());
        assert!(JobSpec::parse(&format!("{text}bogus_key = 1\n")).is_err());
        assert!(
            JobSpec::parse(&format!("{text}name = twice\n")).is_err(),
            "duplicate key"
        );
        assert!(
            JobSpec::parse(&text.replace("model = mlp:8x16x16x4", "model = mlp:9x16x16x4"))
                .is_err(),
            "input dim must match data dim"
        );
        assert!(JobSpec::parse(&text.replace("ladder = 8,4", "ladder = ")).is_err());
        assert!(JobSpec::parse(&text.replace("split = 192", "split = 0")).is_err());
    }

    #[test]
    fn defaults_fill_optional_keys() {
        let minimal = "ccq-job v1\nname = tiny\nmodel = mlp:8x4\npolicy = pact\n\
                       data = blobs:4x8x32\nladder = 8,4\nrecovery = manual:1\n";
        let spec = JobSpec::parse(minimal).expect("minimal spec");
        assert_eq!(spec.split, 96, "3/4 of 128 samples");
        assert_eq!(spec.guard, GuardPolicy::default());
        assert_eq!(spec.searcher, SearcherKind::Hedge, "missing key -> hedge");
        assert!(spec.lambda.is_none());
        assert!(spec.target_compression.is_none());
        let cfg = spec.to_config().expect("config");
        cfg.validate().expect("valid ccq config");
    }

    #[test]
    fn searcher_key_round_trips_every_kind() {
        for (word, kind) in [
            ("hedge", SearcherKind::Hedge),
            ("zero-bit", SearcherKind::ZeroBit),
            ("releq", SearcherKind::ReleqRl),
            ("one-shot", SearcherKind::OneShot),
        ] {
            let mut spec = JobSpec::demo("s", 0);
            spec.searcher = kind;
            let text = spec.render();
            assert!(text.contains(&format!("searcher = {word}\n")));
            let back = JobSpec::parse(&text).expect("searcher spec parses");
            assert_eq!(back.searcher, kind);
            assert_eq!(back.to_config().expect("config").searcher, kind);
        }
        let bad = JobSpec::demo("s", 0)
            .render()
            .replace("searcher = hedge", "searcher = oracle");
        let err = JobSpec::parse(&bad).expect_err("unknown searcher rejected");
        assert!(err.to_string().contains("oracle"), "{err}");
    }

    #[test]
    fn overflowing_sample_count_is_a_typed_error() {
        // 2^32 classes × 2^32 samples per class overflows a 64-bit
        // usize; with no split line the default split multiplies them.
        let hostile = "ccq-job v1\nname = tiny\nmodel = mlp:8x4294967296\npolicy = pact\n\
                       data = blobs:4294967296x8x4294967296\nladder = 8,4\nrecovery = manual:1\n";
        let err = JobSpec::parse(hostile).expect_err("overflow rejected");
        assert!(matches!(err, ServeError::Spec(_)), "{err:?}");
        assert!(err.to_string().contains("overflows"), "{err}");
        let with_split = hostile.replace("ladder", "split = 4\nladder");
        let err = JobSpec::parse(&with_split).expect_err("validate rejects it too");
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn unknown_key_error_names_the_line() {
        // Fixture with the stray key pinned mid-file: header is line 1,
        // so `mystery_knob` below sits on line 5.
        let fixture = "ccq-job v1\n\
                       name = tiny\n\
                       model = mlp:8x4\n\
                       policy = pact\n\
                       mystery_knob = 7\n\
                       data = blobs:4x8x32\n\
                       ladder = 8,4\n\
                       recovery = manual:1\n";
        let err = JobSpec::parse(fixture).expect_err("unknown key rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("line 5: unknown key \"mystery_knob\""),
            "diagnostic must cite the source line: {msg}"
        );
    }

    #[test]
    fn demo_specs_differ_across_variants() {
        let a = JobSpec::demo("a", 0);
        let b = JobSpec::demo("b", 1);
        assert_ne!(a.ladder, b.ladder);
        assert_ne!(a.seed, b.seed);
    }
}

//! The image workloads' shared inputs: SynthCIFAR data and a pre-trained
//! ResNet20-style network, all generated from the workload seed.

use crate::{secs, Scale};
use ccq_data::{synth_cifar, Augment, ImageDataset, SynthCifarConfig};
use ccq_models::{resnet20, ModelConfig};
use ccq_nn::train::{evaluate, train_epoch, Batch};
use ccq_nn::{Network, Sgd};
use ccq_quant::PolicyKind;
use ccq_tensor::rng;
use std::time::Instant;

/// Data and a pre-trained full-precision network.
#[derive(Debug, Clone)]
pub struct ImageTask {
    /// Training images.
    pub train: ImageDataset,
    /// Validation images, batched.
    pub val: Vec<Batch>,
    /// A separate held-out draw, batched: the inference stream and the
    /// searches' quality measure.
    pub test: Vec<Batch>,
    /// The pre-trained network.
    pub net: Network,
    /// Full-precision validation accuracy after pre-training.
    pub baseline: f32,
    /// Seconds spent generating the data.
    pub synth_s: f64,
}

/// SynthCIFAR with `images` samples split evenly over the classes.
fn synth(s: &Scale, images: usize, seed: u64) -> ImageDataset {
    synth_cifar(&SynthCifarConfig {
        classes: s.classes,
        samples_per_class: images.div_ceil(s.classes),
        image_size: s.image,
        noise_std: 0.1,
        jitter: 0.15,
        monochrome: true,
        seed,
    })
}

/// The benchmark's ResNet20-style network at its init weights.
pub fn resnet(s: &Scale, seed: u64) -> Network {
    resnet20(&ModelConfig {
        classes: s.classes,
        width: s.width,
        policy: PolicyKind::Pact,
        seed,
    })
}

/// Generates the data and pre-trains the network: the search and
/// inference workloads' set-up.
///
/// # Errors
///
/// Propagates training and evaluation errors.
pub fn build(s: &Scale, seed: u64) -> ccq_nn::Result<ImageTask> {
    let t0 = Instant::now();
    let data = synth(s, s.train_images + s.val_images, seed);
    let test = synth(s, s.test_images, seed.wrapping_add(1000)).batches(s.batch);
    let synth_s = secs(t0);
    let (train, val) = data.split_at(s.train_images);
    let val = val.batches(s.batch);
    let mut net = resnet(s, seed);
    let mut opt = Sgd::new(0.02).momentum(0.9).weight_decay(5e-4);
    let mut r = rng(seed.wrapping_add(1));
    let aug = Augment::standard();
    for _ in 0..s.pretrain_epochs {
        let batches = train.augmented_batches(s.batch, &aug, &mut r);
        train_epoch(&mut net, &batches, &mut opt, &mut r)?;
    }
    let baseline = evaluate(&mut net, &val)?.accuracy;
    Ok(ImageTask {
        train,
        val,
        test,
        net,
        baseline,
        synth_s,
    })
}

/// The architecture string that rebuilds [`resnet`] for packing.
pub fn arch(s: &Scale) -> String {
    ccq_infer::arch::model_arch("resnet20", s.classes, s.width)
}

/// Index of the largest logit in each row of `[batch, classes]` logits.
pub fn argmax_rows(logits: &ccq_tensor::Tensor) -> Vec<usize> {
    let classes = logits.shape().last().copied().unwrap_or(1).max(1);
    logits
        .as_slice()
        .chunks(classes)
        .map(|row| {
            row.iter()
                .enumerate()
                .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                    if v > bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                })
                .0
        })
        .collect()
}

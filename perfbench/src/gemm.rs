//! The GEMMs a network's conv and linear layers issue, derived from the
//! model geometry: weight shapes, per-sample MAC counts and the channel
//! flow between layers.
//!
//! A conv with weight `[O, C, kh, kw]` lowers to `matmul(W[O, C·kh·kw],
//! cols[C·kh·kw, N·OH·OW])`; a linear layer with weight `[out, in]` to
//! `matmul_a_bt(x[N, in], W[out, in])`. Every kernel row of the layer
//! pass is labelled `<m>x<k>x<n>` by that forward product, so the
//! backward kernels of one layer share its label.

use ccq_nn::{Mode, Network};
use ccq_tensor::ops::Conv2dGeometry;
use ccq_tensor::Tensor;
use std::collections::BTreeMap;

/// How a layer feeds its GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lowering {
    /// im2col over an `[N, C, H, W]` input.
    Conv {
        /// Input channels.
        c: usize,
        /// Input height (= width; the benchmark's images are square).
        h: usize,
        /// Kernel geometry.
        geom: Conv2dGeometry,
    },
    /// A plain `[N, in]` input.
    Linear,
}

/// One layer's forward GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemm {
    /// Output rows.
    pub m: usize,
    /// Reduction length.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Batch size the shape was derived at.
    pub batch: usize,
    /// Input lowering.
    pub lowering: Lowering,
}

impl Gemm {
    /// The `<m>x<k>x<n>` label.
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.m, self.k, self.n)
    }

    /// Floating-point operations of one product.
    pub fn flops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }

    /// The layer's input activation shape.
    pub fn input_dims(&self) -> Vec<usize> {
        match self.lowering {
            Lowering::Conv { c, h, .. } => vec![self.batch, c, h, h],
            Lowering::Linear => vec![self.m, self.k],
        }
    }
}

/// The forward GEMM of every quantizable layer, in layer order, for a
/// batch shaped like `input`. Runs one `Eval` forward on a clone to
/// populate the MAC counts.
///
/// # Errors
///
/// Propagates the forward pass's error.
pub fn layer_gemms(net: &Network, input: &Tensor) -> ccq_nn::Result<Vec<Gemm>> {
    let mut probe = net.clone();
    probe.forward(input, Mode::Eval)?;
    let batch = input.shape()[0];
    let mut spatial = input.shape().get(2).copied().unwrap_or(1);
    // Latest output side per channel count: a conv reads the most recent
    // activation with as many channels as it has inputs.
    let mut side_of: BTreeMap<usize, usize> = BTreeMap::new();
    if let Some(&c) = input.shape().get(1) {
        side_of.insert(c, spatial);
    }
    let mut out = Vec::new();
    probe.visit_quant(&mut |h| {
        let dims = h.weight.value.shape().to_vec();
        match *dims.as_slice() {
            [o, c, kh, kw] => {
                let ckk = c * kh * kw;
                let ohw = (h.macs as usize) / (ckk * o).max(1);
                let oh = (ohw as f64).sqrt().round() as usize;
                let h_in = side_of.get(&c).copied().unwrap_or(spatial);
                let padding = kh / 2;
                let stride = (1..=4)
                    .find(|&s| (h_in + 2 * padding).saturating_sub(kh) / s + 1 == oh)
                    .unwrap_or(1);
                out.push(Gemm {
                    m: o,
                    k: ckk,
                    n: batch * ohw,
                    batch,
                    lowering: Lowering::Conv {
                        c,
                        h: h_in,
                        geom: Conv2dGeometry {
                            kernel_h: kh,
                            kernel_w: kw,
                            stride,
                            padding,
                        },
                    },
                });
                side_of.insert(o, oh);
                spatial = oh;
            }
            [o, i] => out.push(Gemm {
                m: batch,
                k: i,
                n: o,
                batch,
                lowering: Lowering::Linear,
            }),
            _ => {}
        }
    });
    Ok(out)
}

/// The distinct GEMMs among `gemms`, first occurrence kept.
pub fn distinct(gemms: &[Gemm]) -> Vec<Gemm> {
    let mut seen = std::collections::BTreeSet::new();
    gemms
        .iter()
        .filter(|g| seen.insert((g.label(), matches!(g.lowering, Lowering::Linear))))
        .copied()
        .collect()
}

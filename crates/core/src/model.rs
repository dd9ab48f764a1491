//! Fixed-point quantization of the (public) model under dispute.
//!
//! The extraction circuit takes the suspect model's weights as *public
//! inputs* (the verifier knows which model is in dispute), so the float
//! model is quantized once into the circuit's fixed-point representation.
//! Only the layers up to the watermarked layer are needed — Algorithm 1
//! runs `zkFeedForward(M)` "until layer l_wm".

use alloc::vec::Vec;
use zkrownn_gadgets::conv::ConvShape;
use zkrownn_gadgets::fixed::FixedConfig;
#[cfg(feature = "std")]
use zkrownn_nn::{Layer, Network};

/// One quantized layer (integer weights at scale `2^frac_bits`).
#[derive(Clone, Debug, PartialEq)]
pub enum QuantLayer {
    /// Fully connected: `w` is `out×in` row-major, `b` has length `out`.
    Dense {
        /// Input dimension.
        in_dim: usize,
        /// Output dimension.
        out_dim: usize,
        /// Quantized weights.
        w: Vec<i128>,
        /// Quantized bias.
        b: Vec<i128>,
    },
    /// Element-wise ReLU.
    ReLU,
    /// Shape-only layer (e.g. Flatten) — a no-op on the flat representation.
    Identity,
    /// Max pooling over a `C×H×W` volume (square window).
    MaxPool {
        /// Channels (inferred from the preceding layer).
        channels: usize,
        /// Input height (inferred).
        height: usize,
        /// Input width (inferred).
        width: usize,
        /// Window side length.
        size: usize,
        /// Stride.
        stride: usize,
    },
    /// 3-D convolution: `w` is `oc × (ic·k·k)` row-major, `b` has length `oc`.
    Conv {
        /// Geometry.
        shape: ConvShape,
        /// Quantized kernels.
        w: Vec<i128>,
        /// Quantized bias.
        b: Vec<i128>,
    },
}

impl QuantLayer {
    /// Number of weight/bias parameters (= public inputs contributed).
    pub fn num_params(&self) -> usize {
        match self {
            QuantLayer::Dense { w, b, .. } | QuantLayer::Conv { w, b, .. } => w.len() + b.len(),
            QuantLayer::ReLU | QuantLayer::Identity | QuantLayer::MaxPool { .. } => 0,
        }
    }

    /// Output length given an input length.
    ///
    /// # Panics
    /// Panics if the layer does not fit `in_len` (see
    /// [`Self::checked_out_len`], which does not).
    pub fn out_len(&self, in_len: usize) -> usize {
        self.checked_out_len(in_len)
            .expect("layer shape does not fit its input length")
    }

    /// Output length given an input length, or `None` if this layer cannot
    /// be applied to `in_len` values: a dimension is zero, a kernel or
    /// pooling window is larger than the extent it slides over, a stride
    /// is zero, the parameter vectors are not the size the shape says, the
    /// declared input volume is not `in_len`, or a product wraps `usize`.
    /// Everything downstream (the circuit, the fixed-point reference)
    /// indexes and divides by these numbers unchecked, so this is the one
    /// place a layer read off the wire gets checked against its input.
    pub fn checked_out_len(&self, in_len: usize) -> Option<usize> {
        // output extent of a `window` sliding by `stride` over `extent`
        let slide = |extent: usize, window: usize, stride: usize| {
            (window >= 1 && window <= extent && stride >= 1).then(|| (extent - window) / stride + 1)
        };
        let volume = |c: usize, h: usize, w: usize| c.checked_mul(h)?.checked_mul(w);
        let out_len = match self {
            QuantLayer::Dense {
                in_dim,
                out_dim,
                w,
                b,
            } => {
                let sized = Some(w.len()) == in_dim.checked_mul(*out_dim) && b.len() == *out_dim;
                (sized && in_len == *in_dim).then_some(*out_dim)?
            }
            QuantLayer::ReLU | QuantLayer::Identity => in_len,
            QuantLayer::MaxPool {
                channels,
                height,
                width,
                size,
                stride,
            } => {
                if volume(*channels, *height, *width)? != in_len {
                    return None;
                }
                // no larger than the input volume, so it cannot wrap
                channels * slide(*height, *size, *stride)? * slide(*width, *size, *stride)?
            }
            QuantLayer::Conv { shape, w, b } => {
                let patch = volume(shape.in_channels, shape.kernel, shape.kernel)?;
                let sized = Some(w.len()) == patch.checked_mul(shape.out_channels)
                    && b.len() == shape.out_channels;
                if !sized || volume(shape.in_channels, shape.height, shape.width)? != in_len {
                    return None;
                }
                volume(
                    shape.out_channels,
                    slide(shape.height, shape.kernel, shape.stride)?,
                    slide(shape.width, shape.kernel, shape.stride)?,
                )?
            }
        };
        (out_len >= 1).then_some(out_len)
    }
}

/// A quantized prefix of a network (layers up to the watermarked layer).
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedModel {
    /// Quantized layers, applied in order.
    pub layers: Vec<QuantLayer>,
    /// Flat input length.
    pub input_len: usize,
    /// Fixed-point configuration the quantization used.
    pub cfg: FixedConfig,
}

impl QuantizedModel {
    /// Quantizes layers `0..=up_to_layer` of a float network.
    ///
    /// # Panics
    /// Panics on layer kinds the extraction circuit does not support before
    /// the watermarked layer (MaxPool/Flatten — the paper's benchmarks
    /// place the watermark before any pooling).
    ///
    /// (`std`-only: quantizes a float [`Network`] from `zkrownn-nn`.)
    #[cfg(feature = "std")]
    pub fn from_network(
        net: &Network,
        up_to_layer: usize,
        input_len: usize,
        cfg: &FixedConfig,
    ) -> Self {
        let q = |v: f32| cfg.encode(v as f64);
        let layers = net.layers[..=up_to_layer]
            .iter()
            .map(|l| match l {
                Layer::Dense(d) => QuantLayer::Dense {
                    in_dim: d.w.shape()[1],
                    out_dim: d.w.shape()[0],
                    w: d.w.data().iter().map(|&v| q(v)).collect(),
                    b: d.b.data().iter().map(|&v| q(v)).collect(),
                },
                Layer::ReLU => QuantLayer::ReLU,
                Layer::Flatten => QuantLayer::Identity,
                Layer::MaxPool2d { size, stride } => QuantLayer::MaxPool {
                    channels: 0,
                    height: 0,
                    width: 0,
                    size: *size,
                    stride: *stride,
                },
                Layer::Conv2d(c) => QuantLayer::Conv {
                    shape: ConvShape {
                        in_channels: c.in_channels,
                        // height/width are data-dependent; patched below
                        height: 0,
                        width: 0,
                        out_channels: c.out_channels,
                        kernel: c.kernel,
                        stride: c.stride,
                    },
                    w: c.w.data().iter().map(|&v| q(v)).collect(),
                    b: c.b.data().iter().map(|&v| q(v)).collect(),
                },
                #[allow(unreachable_patterns)]
                other => panic!("unsupported layer kind: {other:?}"),
            })
            .collect();
        let mut model = Self {
            layers,
            input_len,
            cfg: *cfg,
        };
        model.infer_conv_geometry();
        model
    }

    /// Fills in conv/pool geometry by propagating the input shape through
    /// the stack. Assumes square spatial dimensions (as in the paper's
    /// benchmarks).
    #[cfg(feature = "std")]
    fn infer_conv_geometry(&mut self) {
        let mut len = self.input_len;
        // (channels, height, width) once a conv establishes a spatial shape
        let mut spatial: Option<(usize, usize, usize)> = None;
        for layer in self.layers.iter_mut() {
            match layer {
                QuantLayer::Conv { shape, .. } => {
                    let hw = ((len / shape.in_channels) as f64).sqrt() as usize;
                    assert_eq!(shape.in_channels * hw * hw, len, "conv input is not square");
                    shape.height = hw;
                    shape.width = hw;
                    spatial = Some((shape.out_channels, shape.out_height(), shape.out_width()));
                }
                QuantLayer::MaxPool {
                    channels,
                    height,
                    width,
                    size,
                    stride,
                } => {
                    let (c, h, w) = spatial.expect("maxpool requires a preceding conv layer");
                    *channels = c;
                    *height = h;
                    *width = w;
                    let oh = (h - *size) / *stride + 1;
                    let ow = (w - *size) / *stride + 1;
                    spatial = Some((c, oh, ow));
                }
                QuantLayer::Dense { .. } => spatial = None,
                QuantLayer::ReLU | QuantLayer::Identity => {}
            }
            len = layer.out_len(len);
        }
    }

    /// Flat output length of the final (watermarked) layer.
    pub fn output_len(&self) -> usize {
        let mut len = self.input_len;
        for l in &self.layers {
            len = l.out_len(len);
        }
        len
    }

    /// Total number of public weight parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// All parameters in the canonical instance order (layer by layer,
    /// weights then bias).
    pub fn params_in_order(&self) -> Vec<i128> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            match l {
                QuantLayer::Dense { w, b, .. } | QuantLayer::Conv { w, b, .. } => {
                    out.extend_from_slice(w);
                    out.extend_from_slice(b);
                }
                QuantLayer::ReLU | QuantLayer::Identity | QuantLayer::MaxPool { .. } => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use zkrownn_nn::{Conv2d, Dense};

    #[test]
    fn quantizes_mlp_prefix() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(261);
        let net = Network::new(vec![
            Layer::Dense(Dense::new(20, 8, &mut rng)),
            Layer::ReLU,
            Layer::Dense(Dense::new(8, 4, &mut rng)),
        ]);
        let cfg = FixedConfig::default();
        let q = QuantizedModel::from_network(&net, 1, 20, &cfg);
        assert_eq!(q.layers.len(), 2);
        assert_eq!(q.num_params(), 20 * 8 + 8);
        assert_eq!(q.output_len(), 8);
    }

    #[test]
    fn quantizes_conv_prefix_with_geometry() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(262);
        let net = Network::new(vec![Layer::Conv2d(Conv2d::new(3, 8, 3, 2, &mut rng))]);
        let cfg = FixedConfig::default();
        let q = QuantizedModel::from_network(&net, 0, 3 * 32 * 32, &cfg);
        match &q.layers[0] {
            QuantLayer::Conv { shape, .. } => {
                assert_eq!(shape.height, 32);
                assert_eq!(shape.out_height(), 15);
            }
            _ => panic!("expected conv"),
        }
        assert_eq!(q.output_len(), 8 * 15 * 15);
    }

    #[test]
    fn quantization_roundtrips_small_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(263);
        let net = Network::new(vec![Layer::Dense(Dense::new(4, 2, &mut rng))]);
        let cfg = FixedConfig::default();
        let q = QuantizedModel::from_network(&net, 0, 4, &cfg);
        if let QuantLayer::Dense { w, .. } = &q.layers[0] {
            if let Layer::Dense(d) = &net.layers[0] {
                for (qi, fi) in w.iter().zip(d.w.data()) {
                    assert!((cfg.decode(*qi) - *fi as f64).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn params_in_order_is_stable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(264);
        let net = Network::new(vec![Layer::Dense(Dense::new(3, 2, &mut rng)), Layer::ReLU]);
        let cfg = FixedConfig::default();
        let q = QuantizedModel::from_network(&net, 1, 3, &cfg);
        let p1 = q.params_in_order();
        let p2 = q.params_in_order();
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 8);
    }
}

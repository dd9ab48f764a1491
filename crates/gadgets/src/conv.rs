//! Zero-knowledge 3D convolution (§III-B.2).
//!
//! As in the paper, the input volume and kernels are flattened and the
//! convolution is reduced to inner products over im2col patches ("1D
//! convolution between the processed input vector and the flattened
//! kernel"). Layout is channels-first (`C × H × W`); no padding (valid
//! convolution), configurable stride.

use crate::num::Num;
use alloc::vec::Vec;
use zkrownn_ff::Fr;
use zkrownn_r1cs::{ConstraintSystem, SynthesisError};

/// Shape of a convolution.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Output channels (number of kernels).
    pub out_channels: usize,
    /// Kernel side length (square kernels).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
}

impl ConvShape {
    /// Output spatial height.
    pub fn out_height(&self) -> usize {
        (self.height - self.kernel) / self.stride + 1
    }
    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        (self.width - self.kernel) / self.stride + 1
    }
    /// Total number of output activations.
    pub fn out_len(&self) -> usize {
        self.out_channels * self.out_height() * self.out_width()
    }
    /// Elements per im2col patch.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
    /// Total input length (`C·H·W`).
    pub fn in_len(&self) -> usize {
        self.in_channels * self.height * self.width
    }
    /// Total kernel parameter count.
    pub fn kernel_len(&self) -> usize {
        self.out_channels * self.patch_len()
    }
}

/// 3D convolution over circuit values.
///
/// `input` is `C·H·W` row-major; `kernels` is `OC × (C·k·k)` row-major.
/// Output is `OC·OH·OW` row-major.
pub fn conv3d<CS: ConstraintSystem<Fr>>(
    input: &[Num],
    kernels: &[Num],
    shape: &ConvShape,
    cs: &mut CS,
) -> Result<Vec<Num>, SynthesisError> {
    assert_eq!(input.len(), shape.in_len(), "input length mismatch");
    assert_eq!(kernels.len(), shape.kernel_len(), "kernel length mismatch");
    let (oh, ow) = (shape.out_height(), shape.out_width());
    let k = shape.kernel;
    let mut out = Vec::with_capacity(shape.out_len());
    for oc in 0..shape.out_channels {
        let kern = &kernels[oc * shape.patch_len()..(oc + 1) * shape.patch_len()];
        for y in 0..oh {
            for x in 0..ow {
                // the im2col patch (flattening, as in the paper), as a view
                // into `input`: element `i` of the patch is channel
                // `i / k²`, row `i / k mod k`, column `i mod k`
                let patch = (0..shape.patch_len()).map(|i| {
                    let (c, iy, ix) = (
                        i / (k * k),
                        y * shape.stride + i / k % k,
                        x * shape.stride + i % k,
                    );
                    &input[(c * shape.height + iy) * shape.width + ix]
                });
                out.push(Num::inner_product(patch, kern, cs)?);
            }
        }
    }
    Ok(out)
}

/// The standalone Table I "Conv3D" circuit: private input and kernels,
/// public outputs. Returns the reference output activations (computed out
/// of circuit, so the helper works under every driver).
pub fn conv3d_circuit<CS: ConstraintSystem<Fr>>(
    input: &[i128],
    kernels: &[i128],
    shape: &ConvShape,
    bits: u32,
    cs: &mut CS,
) -> Result<Vec<i128>, SynthesisError> {
    use zkrownn_ff::PrimeField;
    let input_nums: Vec<Num> = input
        .iter()
        .map(|&v| Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), bits))
        .collect::<Result<_, _>>()?;
    let kernel_nums: Vec<Num> = kernels
        .iter()
        .map(|&v| Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), bits))
        .collect::<Result<_, _>>()?;
    let outs = conv3d(&input_nums, &kernel_nums, shape, cs)?;
    for o in &outs {
        o.expose_as_output(cs)?;
    }
    Ok(conv3d_reference(input, kernels, shape))
}

/// Reference integer convolution for cross-checking.
pub fn conv3d_reference(input: &[i128], kernels: &[i128], shape: &ConvShape) -> Vec<i128> {
    let (oh, ow) = (shape.out_height(), shape.out_width());
    let mut out = Vec::with_capacity(shape.out_len());
    for oc in 0..shape.out_channels {
        let kern = &kernels[oc * shape.patch_len()..(oc + 1) * shape.patch_len()];
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0i128;
                let mut ki = 0;
                for c in 0..shape.in_channels {
                    for ky in 0..shape.kernel {
                        for kx in 0..shape.kernel {
                            let iy = y * shape.stride + ky;
                            let ix = x * shape.stride + kx;
                            acc += input[c * shape.height * shape.width + iy * shape.width + ix]
                                * kern[ki];
                            ki += 1;
                        }
                    }
                }
                out.push(acc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;
    use rand::Rng;
    use rand::SeedableRng;
    use zkrownn_r1cs::{CountingSynthesizer, ProvingSynthesizer};

    fn small_shape() -> ConvShape {
        ConvShape {
            in_channels: 2,
            height: 5,
            width: 5,
            out_channels: 3,
            kernel: 3,
            stride: 1,
        }
    }

    #[test]
    fn conv_matches_reference() {
        let shape = small_shape();
        let mut rng = rand::rngs::StdRng::seed_from_u64(151);
        let input: Vec<i128> = (0..shape.in_len())
            .map(|_| rng.gen_range(-20..20))
            .collect();
        let kernels: Vec<i128> = (0..shape.kernel_len())
            .map(|_| rng.gen_range(-20..20))
            .collect();
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let got = conv3d_circuit(&input, &kernels, &shape, 8, &mut cs).unwrap();
        assert_eq!(got, conv3d_reference(&input, &kernels, &shape));
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn strided_conv_shapes() {
        let shape = ConvShape {
            in_channels: 3,
            height: 32,
            width: 32,
            out_channels: 4,
            kernel: 3,
            stride: 2,
        };
        // matches the paper's Conv3D benchmark geometry: (32-3)/2+1 = 15
        assert_eq!(shape.out_height(), 15);
        assert_eq!(shape.out_width(), 15);
        let input = vec![1i128; shape.in_len()];
        let kernels = vec![1i128; shape.kernel_len()];
        let r = conv3d_reference(&input, &kernels, &shape);
        assert_eq!(r.len(), shape.out_len());
        // all-ones: every output = patch size
        assert!(r.iter().all(|&v| v == shape.patch_len() as i128));
    }

    #[test]
    fn constraint_count_formula() {
        let shape = small_shape();
        let input = vec![1i128; shape.in_len()];
        let kernels = vec![1i128; shape.kernel_len()];
        let mut cs = CountingSynthesizer::<Fr>::new();
        conv3d_circuit(&input, &kernels, &shape, 6, &mut cs).unwrap();
        // patch_len multiplications per output + 1 exposure per output
        assert_eq!(
            cs.num_constraints(),
            shape.out_len() * (shape.patch_len() + 1)
        );
    }
}

//! Zero-knowledge max pooling.
//!
//! Not one of the paper's seven benchmarked circuits, but required to push
//! the watermark past a pooling layer ("ZKROWNN still works when the
//! watermark is embedded in deeper layers, at the cost of higher prover
//! complexity" — §III-B.6). Each pairwise max costs one signed comparison
//! plus one multiplexer.

use crate::cmp::is_negative;
use crate::num::Num;
use alloc::vec::Vec;
use zkrownn_ff::Fr;
use zkrownn_r1cs::{ConstraintSystem, SynthesisError};

/// `max(a, b)` on signed values.
pub fn max<CS: ConstraintSystem<Fr>>(a: &Num, b: &Num, cs: &mut CS) -> Result<Num, SynthesisError> {
    let mut diff = a.sub(b);
    diff.bits = a.bits.max(b.bits) + 1;
    let a_lt_b = is_negative(&diff, cs)?;
    let mut out = a_lt_b.select(b, a, cs)?;
    out.bits = a.bits.max(b.bits);
    Ok(out)
}

/// `max` over a non-empty sequence of borrowed values (a slice, or a view
/// into a larger buffer).
pub fn max_many<'a, CS: ConstraintSystem<Fr>>(
    vals: impl IntoIterator<Item = &'a Num>,
    cs: &mut CS,
) -> Result<Num, SynthesisError> {
    let mut vals = vals.into_iter();
    let mut acc = vals.next().expect("max of empty slice").clone();
    for v in vals {
        acc = max(&acc, v, cs)?;
    }
    Ok(acc)
}

/// 2-D max pooling over a channel-first `C×H×W` volume with a square
/// window. Matches [`maxpool2d_reference`] and the float layer in
/// `zkrownn-nn`.
#[allow(clippy::too_many_arguments)]
pub fn maxpool2d<CS: ConstraintSystem<Fr>>(
    input: &[Num],
    channels: usize,
    height: usize,
    width: usize,
    size: usize,
    stride: usize,
    cs: &mut CS,
) -> Result<Vec<Num>, SynthesisError> {
    assert_eq!(
        input.len(),
        channels * height * width,
        "maxpool input shape"
    );
    let oh = (height - size) / stride + 1;
    let ow = (width - size) / stride + 1;
    let mut out = Vec::with_capacity(channels * oh * ow);
    for c in 0..channels {
        for oy in 0..oh {
            for ox in 0..ow {
                // the window, row-major, as a view into `input`
                let window = (0..size * size).map(|i| {
                    let (iy, ix) = (oy * stride + i / size, ox * stride + i % size);
                    &input[(c * height + iy) * width + ix]
                });
                out.push(max_many(window, cs)?);
            }
        }
    }
    Ok(out)
}

/// Reference integer max pooling.
pub fn maxpool2d_reference(
    input: &[i128],
    channels: usize,
    height: usize,
    width: usize,
    size: usize,
    stride: usize,
) -> Vec<i128> {
    let oh = (height - size) / stride + 1;
    let ow = (width - size) / stride + 1;
    let mut out = Vec::with_capacity(channels * oh * ow);
    for c in 0..channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i128::MIN;
                for ky in 0..size {
                    for kx in 0..size {
                        let iy = oy * stride + ky;
                        let ix = ox * stride + kx;
                        best = best.max(input[(c * height + iy) * width + ix]);
                    }
                }
                out.push(best);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;
    use zkrownn_ff::PrimeField;
    use zkrownn_r1cs::ProvingSynthesizer;

    fn wit(cs: &mut ProvingSynthesizer<Fr>, v: i128, bits: u32) -> Num {
        Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), bits).unwrap()
    }

    #[test]
    fn pairwise_max_on_samples() {
        for (a, b) in [(3i128, 5i128), (5, 3), (-2, -7), (0, 0), (-1, 1)] {
            let mut cs = ProvingSynthesizer::<Fr>::new();
            let na = wit(&mut cs, a, 8);
            let nb = wit(&mut cs, b, 8);
            let m = max(&na, &nb, &mut cs).unwrap();
            assert_eq!(m.value_i128(), a.max(b), "({a}, {b})");
            assert!(cs.is_satisfied().is_ok());
        }
    }

    #[test]
    fn max_many_matches_iterator_max() {
        let vals = [-4i128, 9, 0, 9, -100, 3];
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let nums: Vec<Num> = vals.iter().map(|&v| wit(&mut cs, v, 8)).collect();
        let m = max_many(&nums, &mut cs).unwrap();
        assert_eq!(m.value_i128(), 9);
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn maxpool_circuit_matches_reference() {
        let (c, h, w) = (2usize, 4usize, 4usize);
        let input: Vec<i128> = (0..(c * h * w) as i128)
            .map(|i| (i * 7) % 23 - 11)
            .collect();
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let nums: Vec<Num> = input.iter().map(|&v| wit(&mut cs, v, 8)).collect();
        let pooled = maxpool2d(&nums, c, h, w, 2, 2, &mut cs).unwrap();
        let reference = maxpool2d_reference(&input, c, h, w, 2, 2);
        assert_eq!(pooled.len(), reference.len());
        for (p, r) in pooled.iter().zip(&reference) {
            assert_eq!(p.value_i128(), *r);
        }
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn overlapping_stride_pooling() {
        // MP(2,1) as in the paper's CNN
        let input: Vec<i128> = vec![1, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let nums: Vec<Num> = input.iter().map(|&v| wit(&mut cs, v, 6)).collect();
        let pooled = maxpool2d(&nums, 1, 3, 3, 2, 1, &mut cs).unwrap();
        let vals: Vec<i128> = pooled.iter().map(|p| p.value_i128()).collect();
        assert_eq!(vals, vec![5, 6, 8, 9]);
        assert!(cs.is_satisfied().is_ok());
    }
}

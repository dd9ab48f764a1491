//! Zero-knowledge hard thresholding: `f(x) = 1 if x ≥ β else 0` (§III-B.4).
//!
//! Applied to the sigmoid outputs with `β = 0.5` to binarize the extracted
//! watermark.

use crate::bits::Bit;
use crate::cmp::is_negative;
use crate::num::Num;
use alloc::vec::Vec;
use zkrownn_ff::Fr;
use zkrownn_r1cs::{ConstraintSystem, SynthesisError};

/// `x ≥ β` as a circuit bit (`β` is a circuit constant).
pub fn hard_threshold<CS: ConstraintSystem<Fr>>(
    x: &Num,
    beta: Fr,
    cs: &mut CS,
) -> Result<Bit, SynthesisError> {
    let mut diff = x.sub(&Num::constant(beta));
    diff.bits = x.bits + 1;
    Ok(is_negative(&diff, cs)?.not())
}

/// Element-wise hard thresholding; the outputs concatenate to the extracted
/// watermark bits.
pub fn hard_threshold_vec<CS: ConstraintSystem<Fr>>(
    xs: &[Num],
    beta: Fr,
    cs: &mut CS,
) -> Result<Vec<Bit>, SynthesisError> {
    xs.iter().map(|x| hard_threshold(x, beta, cs)).collect()
}

/// The standalone Table I circuit: private inputs, public 0/1 outputs.
/// Returns the reference verdicts (computed out of circuit, so the helper
/// works under every driver).
pub fn threshold_circuit<CS: ConstraintSystem<Fr>>(
    inputs: &[i128],
    beta: i128,
    bits: u32,
    cs: &mut CS,
) -> Result<Vec<bool>, SynthesisError> {
    use zkrownn_ff::PrimeField;
    let nums: Vec<Num> = inputs
        .iter()
        .map(|&v| Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), bits))
        .collect::<Result<_, _>>()?;
    let outs = hard_threshold_vec(&nums, Fr::from_i128(beta), cs)?;
    for b in &outs {
        b.num.expose_as_output(cs)?;
    }
    Ok(inputs.iter().map(|&v| v >= beta).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;
    use zkrownn_ff::PrimeField;
    use zkrownn_r1cs::ProvingSynthesizer;

    #[test]
    fn threshold_matches_reference() {
        let beta = 50i128;
        for v in [-100i128, 0, 49, 50, 51, 1000] {
            let mut cs = ProvingSynthesizer::<Fr>::new();
            let x = Num::alloc_witness(&mut cs, || Ok(Fr::from_i128(v)), 12).unwrap();
            let b = hard_threshold(&x, Fr::from_i128(beta), &mut cs).unwrap();
            assert_eq!(b.value(), Some(v >= beta), "v = {v}");
            assert!(cs.is_satisfied().is_ok());
        }
    }

    #[test]
    fn vector_threshold_binarizes() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let outs = threshold_circuit(&[10, 20, 30, 40], 25, 8, &mut cs).unwrap();
        assert_eq!(outs, vec![false, false, true, true]);
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn negative_threshold_works() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let outs = threshold_circuit(&[-10, -2, 0], -5, 8, &mut cs).unwrap();
        assert_eq!(outs, vec![false, true, true]);
        assert!(cs.is_satisfied().is_ok());
    }
}

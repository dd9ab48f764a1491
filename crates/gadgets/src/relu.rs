//! Zero-knowledge ReLU: `f(x) = max(0, x)`.

use crate::bits::Bit;
use crate::cmp::is_negative;
use crate::num::Num;
use alloc::vec::Vec;
use zkrownn_ff::Fr;
use zkrownn_r1cs::{ConstraintSystem, SynthesisError};

/// ReLU on a single value: one sign decomposition plus one multiplexer.
pub fn relu<CS: ConstraintSystem<Fr>>(x: &Num, cs: &mut CS) -> Result<Num, SynthesisError> {
    let neg = is_negative(x, cs)?;
    let mut out = neg.select(&Num::zero(), x, cs)?;
    out.bits = x.bits;
    Ok(out)
}

/// ReLU applied element-wise.
pub fn relu_vec<CS: ConstraintSystem<Fr>>(
    xs: &[Num],
    cs: &mut CS,
) -> Result<Vec<Num>, SynthesisError> {
    xs.iter().map(|x| relu(x, cs)).collect()
}

/// The "zkReLU" circuit of Table I: a private input vector passed through
/// ReLU with public outputs. Returns the output values (computed out of
/// circuit from `inputs`, so the helper works under every driver) for the
/// verifier.
pub fn relu_circuit<CS: ConstraintSystem<Fr>>(
    inputs: &[i128],
    bits: u32,
    cs: &mut CS,
) -> Result<Vec<i128>, SynthesisError> {
    use zkrownn_ff::PrimeField;
    let nums: Vec<Num> = inputs
        .iter()
        .map(|&v| Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), bits))
        .collect::<Result<_, _>>()?;
    let outs = relu_vec(&nums, cs)?;
    for o in &outs {
        o.expose_as_output(cs)?;
    }
    Ok(inputs.iter().map(|&v| v.max(0)).collect())
}

/// Boolean-output helper shared with hard thresholding: `x ≥ 0`.
pub fn is_non_negative<CS: ConstraintSystem<Fr>>(
    x: &Num,
    cs: &mut CS,
) -> Result<Bit, SynthesisError> {
    Ok(is_negative(x, cs)?.not())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;
    use zkrownn_ff::PrimeField;
    use zkrownn_r1cs::{CountingSynthesizer, ProvingSynthesizer};

    #[test]
    fn relu_matches_reference() {
        for v in [-1000i128, -1, 0, 1, 5, 999] {
            let mut cs = ProvingSynthesizer::<Fr>::new();
            let x = Num::alloc_witness(&mut cs, || Ok(Fr::from_i128(v)), 12).unwrap();
            let y = relu(&x, &mut cs).unwrap();
            assert_eq!(y.value_i128(), v.max(0), "v = {v}");
            assert!(cs.is_satisfied().is_ok());
        }
    }

    #[test]
    fn relu_vec_preserves_order() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let vals = [-3i128, 7, -1, 0, 2];
        let outs = relu_circuit(&vals, 8, &mut cs).unwrap();
        assert_eq!(outs, vec![0, 7, 0, 0, 2]);
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn relu_constraint_count_scales_linearly() {
        let mut cs1 = CountingSynthesizer::<Fr>::new();
        relu_circuit(&[1; 10], 32, &mut cs1).unwrap();
        let mut cs2 = CountingSynthesizer::<Fr>::new();
        relu_circuit(&[1; 20], 32, &mut cs2).unwrap();
        assert_eq!(cs2.num_constraints(), 2 * cs1.num_constraints());
    }
}

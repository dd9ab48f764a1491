//! Zero-knowledge bit error rate (§III-B.5).
//!
//! Compares the extracted watermark against the owner's private signature
//! bit-by-bit (XOR), counts mismatches, and outputs 1 iff the count is at
//! most the public threshold `θ·N`.

use crate::bits::Bit;
use crate::cmp::is_negative;
use crate::num::Num;
use alloc::vec::Vec;
use zkrownn_ff::{Field, Fr};
use zkrownn_r1cs::{ConstraintSystem, SynthesisError};

/// Counts mismatching bit positions (one XOR constraint per position).
pub fn bit_errors<CS: ConstraintSystem<Fr>>(
    a: &[Bit],
    b: &[Bit],
    cs: &mut CS,
) -> Result<Num, SynthesisError> {
    assert_eq!(a.len(), b.len(), "signature length mismatch");
    let flips: Vec<Bit> = a
        .iter()
        .zip(b)
        .map(|(x, y)| x.xor(y, cs))
        .collect::<Result<_, _>>()?;
    let mut sum = Num::sum(flips.iter().map(|flip| &flip.num));
    sum.bits = usize::BITS - a.len().leading_zeros() + 1;
    Ok(sum)
}

/// `1` iff the number of bit errors is ≤ `max_errors` (i.e. BER ≤ θ).
pub fn ber_check<CS: ConstraintSystem<Fr>>(
    wm: &[Bit],
    extracted: &[Bit],
    max_errors: u64,
    cs: &mut CS,
) -> Result<Bit, SynthesisError> {
    let errors = bit_errors(wm, extracted, cs)?;
    // errors − max_errors − 1 < 0  ⟺  errors ≤ max_errors
    let mut diff = errors.sub(&Num::constant(Fr::from_u64(max_errors + 1)));
    diff.bits = errors.bits + 1;
    is_negative(&diff, cs)
}

/// The standalone Table I "BER" circuit: two private bit strings, a public
/// 0/1 verdict. Returns the reference verdict (computed out of circuit, so
/// the helper works under every driver).
pub fn ber_circuit<CS: ConstraintSystem<Fr>>(
    wm: &[bool],
    extracted: &[bool],
    max_errors: u64,
    cs: &mut CS,
) -> Result<bool, SynthesisError> {
    let wm_bits: Vec<Bit> = wm
        .iter()
        .map(|&b| Bit::alloc(cs, || Ok(b)))
        .collect::<Result<_, _>>()?;
    let ex_bits: Vec<Bit> = extracted
        .iter()
        .map(|&b| Bit::alloc(cs, || Ok(b)))
        .collect::<Result<_, _>>()?;
    let ok = ber_check(&wm_bits, &ex_bits, max_errors, cs)?;
    ok.num.expose_as_output(cs)?;
    Ok(ber_reference(wm, extracted) as u64 <= max_errors)
}

/// Reference BER computation.
pub fn ber_reference(wm: &[bool], extracted: &[bool]) -> usize {
    wm.iter()
        .zip(extracted.iter())
        .filter(|(a, b)| a != b)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;
    use rand::Rng;
    use rand::SeedableRng;
    use zkrownn_r1cs::ProvingSynthesizer;

    #[test]
    fn exact_match_passes_zero_threshold() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(171);
        let wm: Vec<bool> = (0..32).map(|_| rng.gen()).collect();
        let mut cs = ProvingSynthesizer::<Fr>::new();
        assert!(ber_circuit(&wm, &wm, 0, &mut cs).unwrap());
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn single_flip_fails_zero_threshold_but_passes_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(172);
        let wm: Vec<bool> = (0..32).map(|_| rng.gen()).collect();
        let mut flipped = wm.clone();
        flipped[17] = !flipped[17];
        let mut cs = ProvingSynthesizer::<Fr>::new();
        assert!(!ber_circuit(&wm, &flipped, 0, &mut cs).unwrap());
        assert!(cs.is_satisfied().is_ok());
        let mut cs2 = ProvingSynthesizer::<Fr>::new();
        assert!(ber_circuit(&wm, &flipped, 1, &mut cs2).unwrap());
        assert!(cs2.is_satisfied().is_ok());
    }

    #[test]
    fn error_count_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(173);
        for _ in 0..5 {
            let a: Vec<bool> = (0..64).map(|_| rng.gen()).collect();
            let b: Vec<bool> = (0..64).map(|_| rng.gen()).collect();
            let mut cs = ProvingSynthesizer::<Fr>::new();
            let ab: Vec<Bit> = a
                .iter()
                .map(|&v| Bit::alloc(&mut cs, || Ok(v)).unwrap())
                .collect();
            let bb: Vec<Bit> = b
                .iter()
                .map(|&v| Bit::alloc(&mut cs, || Ok(v)).unwrap())
                .collect();
            let errs = bit_errors(&ab, &bb, &mut cs).unwrap();
            assert_eq!(errs.value_i128() as usize, ber_reference(&a, &b));
            assert!(cs.is_satisfied().is_ok());
        }
    }

    #[test]
    fn threshold_boundary_inclusive() {
        // exactly max_errors mismatches → accept
        let wm = vec![false; 16];
        let mut ex = vec![false; 16];
        ex[0] = true;
        ex[1] = true;
        let mut cs = ProvingSynthesizer::<Fr>::new();
        assert!(ber_circuit(&wm, &ex, 2, &mut cs).unwrap());
        let mut cs2 = ProvingSynthesizer::<Fr>::new();
        assert!(!ber_circuit(&wm, &ex, 1, &mut cs2).unwrap());
    }
}

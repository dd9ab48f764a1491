//! Sign tests, comparisons and fixed-point rescaling (truncation/division).

use crate::bits::{to_bits, Bit};
use crate::num::{Num, MAX_BITS};
use zkrownn_ff::{Field, Fr, PrimeField};
use zkrownn_r1cs::{assignment, ConstraintSystem, LinearCombination, SynthesisError};

/// Returns the bit `x < 0`, assuming `|x| < 2^x.bits`.
///
/// Implementation: decompose `x + 2^n` (guaranteed in `[0, 2^(n+1))`) and
/// read the top bit — it is 1 exactly when `x ≥ 0`.
pub fn is_negative<CS: ConstraintSystem<Fr>>(x: &Num, cs: &mut CS) -> Result<Bit, SynthesisError> {
    let n = x.bits;
    assert!(n < MAX_BITS, "comparison width exceeds MAX_BITS");
    let mut shifted = x.add(&Num::constant(Fr::from_u128(1u128 << n)));
    shifted.bits = n + 1;
    let bits = to_bits(&shifted, n + 1, cs)?;
    Ok(bits[n as usize].not())
}

/// Returns the bit `a ≥ b`.
pub fn is_ge<CS: ConstraintSystem<Fr>>(
    a: &Num,
    b: &Num,
    cs: &mut CS,
) -> Result<Bit, SynthesisError> {
    Ok(is_negative(&a.sub(b), cs)?.not())
}

/// Returns the bit `a < b`.
pub fn is_lt<CS: ConstraintSystem<Fr>>(
    a: &Num,
    b: &Num,
    cs: &mut CS,
) -> Result<Bit, SynthesisError> {
    is_negative(&a.sub(b), cs)
}

/// Enforces `x − q·d − r == 0`, the recomposition both division gadgets
/// end on. `x` may be a long sum (a whole inner product), so the left-hand
/// side is assembled in one buffer of the right size, not by chaining `-`
/// over clones.
fn enforce_division<CS: ConstraintSystem<Fr>>(x: &Num, q: &Num, d: Fr, r: &Num, cs: &mut CS) {
    let len = x.lc.terms().len() + q.lc.terms().len() + r.lc.terms().len();
    let mut recompose = LinearCombination::with_capacity(len);
    recompose += &x.lc;
    recompose.add_scaled(&q.lc, -d);
    recompose -= &r.lc;
    cs.enforce(
        recompose,
        LinearCombination::constant(Fr::one()),
        LinearCombination::zero(),
    );
}

/// Floor-divides a signed value by `2^k` (fixed-point truncation).
///
/// Constrains `x = q·2^k + r` with `r ∈ [0, 2^k)` and `q` range-checked to
/// `(x.bits − k + 1)` signed bits; floor semantics match
/// [`crate::fixed::floor_div_pow2`].
pub fn truncate<CS: ConstraintSystem<Fr>>(
    x: &Num,
    k: u32,
    cs: &mut CS,
) -> Result<Num, SynthesisError> {
    assert!(k > 0 && k < MAX_BITS);
    assert!(x.bits < MAX_BITS, "truncation input too wide");
    let v = x.value.map(|f| {
        f.to_i128()
            .expect("Num value exceeded i128 range; bounds tracking violated")
    });
    let q_val = v.map(|v| v >> k);
    let r_val = v.map(|v| v - ((v >> k) << k));
    if let Some(r) = r_val {
        debug_assert!((0..(1i128 << k)).contains(&r));
    }

    let q_bits = x.bits.saturating_sub(k).max(1);
    let q = Num::alloc_witness(cs, || assignment(q_val.map(Fr::from_i128)), q_bits)?;
    let r = Num::alloc_witness(cs, || assignment(r_val.map(Fr::from_i128)), k)?;
    // range checks
    let _ = to_bits(&r, k, cs)?;
    let mut q_shifted = q.add(&Num::constant(Fr::from_u128(1u128 << q_bits)));
    q_shifted.bits = q_bits + 1;
    let _ = to_bits(&q_shifted, q_bits + 1, cs)?;
    // recomposition: x − q·2^k − r == 0
    enforce_division(x, &q, Fr::from_u128(1u128 << k), &r, cs);
    Ok(q)
}

/// Floor-divides a signed value by a small positive constant `d` (used for
/// activation averaging). Matches [`crate::fixed::floor_div`].
pub fn div_by_const<CS: ConstraintSystem<Fr>>(
    x: &Num,
    d: u64,
    cs: &mut CS,
) -> Result<Num, SynthesisError> {
    assert!(d > 0, "division by zero");
    if d.is_power_of_two() && d > 1 {
        return truncate(x, d.trailing_zeros(), cs);
    }
    if d == 1 {
        return Ok(x.clone());
    }
    let d_bits = 64 - d.leading_zeros();
    assert!(x.bits < MAX_BITS);
    let v = x.value.map(|f| {
        f.to_i128()
            .expect("Num value exceeded i128 range; bounds tracking violated")
    });
    let q_val = v.map(|v| v.div_euclid(d as i128));
    let r_val = v.map(|v| v - v.div_euclid(d as i128) * d as i128);
    let q_bits = x.bits; // |q| ≤ |x|
    let q = Num::alloc_witness(cs, || assignment(q_val.map(Fr::from_i128)), q_bits)?;
    let r = Num::alloc_witness(cs, || assignment(r_val.map(Fr::from_i128)), d_bits)?;
    // r ∈ [0, 2^d_bits) …
    let _ = to_bits(&r, d_bits, cs)?;
    // … and r ≤ d − 1: decompose (d − 1 − r) too
    let mut dd = Num::constant(Fr::from_u64(d - 1)).sub(&r);
    dd.bits = d_bits;
    let _ = to_bits(&dd, d_bits, cs)?;
    // signed range check on q
    let mut q_shifted = q.add(&Num::constant(Fr::from_u128(1u128 << q_bits)));
    q_shifted.bits = q_bits + 1;
    let _ = to_bits(&q_shifted, q_bits + 1, cs)?;
    // x − q·d − r == 0
    enforce_division(x, &q, Fr::from_u64(d), &r, cs);
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{floor_div, floor_div_pow2};
    use alloc::vec::Vec;
    use zkrownn_r1cs::ProvingSynthesizer;

    fn num(cs: &mut ProvingSynthesizer<Fr>, v: i128, bits: u32) -> Num {
        Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), bits).unwrap()
    }

    #[test]
    fn is_negative_on_samples() {
        for v in [-100i128, -1, 0, 1, 100] {
            let mut cs = ProvingSynthesizer::<Fr>::new();
            let x = num(&mut cs, v, 8);
            let neg = is_negative(&x, &mut cs).unwrap();
            assert_eq!(neg.value(), Some(v < 0), "v = {v}");
            assert!(cs.is_satisfied().is_ok());
        }
    }

    #[test]
    fn comparisons() {
        let cases = [(3i128, 5i128), (5, 3), (4, 4), (-2, 2), (-7, -3)];
        for (a, b) in cases {
            let mut cs = ProvingSynthesizer::<Fr>::new();
            let na = num(&mut cs, a, 6);
            let nb = num(&mut cs, b, 6);
            assert_eq!(is_ge(&na, &nb, &mut cs).unwrap().value(), Some(a >= b));
            assert_eq!(is_lt(&na, &nb, &mut cs).unwrap().value(), Some(a < b));
            assert!(cs.is_satisfied().is_ok());
        }
    }

    #[test]
    fn truncate_matches_reference_semantics() {
        for v in [-1000i128, -17, -16, -1, 0, 1, 15, 16, 1000] {
            let mut cs = ProvingSynthesizer::<Fr>::new();
            let x = num(&mut cs, v, 12);
            let q = truncate(&x, 4, &mut cs).unwrap();
            assert_eq!(q.value_i128(), floor_div_pow2(v, 4), "v = {v}");
            assert!(cs.is_satisfied().is_ok(), "v = {v}");
        }
    }

    #[test]
    fn div_by_const_matches_reference_semantics() {
        for d in [1u64, 3, 5, 7, 10, 128] {
            for v in [-99i128, -10, -1, 0, 1, 9, 100] {
                let mut cs = ProvingSynthesizer::<Fr>::new();
                let x = num(&mut cs, v, 9);
                let q = div_by_const(&x, d, &mut cs).unwrap();
                assert_eq!(q.value_i128(), floor_div(v, d as i128), "v={v}, d={d}");
                assert!(cs.is_satisfied().is_ok(), "v={v}, d={d}");
            }
        }
    }

    #[test]
    fn truncate_rejects_cheating_quotient() {
        // A forged quotient/remainder pair violating the range checks must
        // not satisfy the system: emulate by rebuilding with a bad witness.
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let x = num(&mut cs, 33, 8);
        // honest: q = 2, r = 1 (33 = 2·16 + 1). Forge q = 1, r = 17.
        let q = num(&mut cs, 1, 4);
        let r = num(&mut cs, 17, 4);
        // r decomposition into 4 bits cannot represent 17 — any bit
        // assignment fails either booleanity or recomposition. Use the
        // honest-looking bits of 17 mod 16 = 1 to show recomposition fails.
        let b: Vec<_> = (0..4)
            .map(|i| Bit::alloc(&mut cs, || Ok((1u64 >> i) & 1 == 1)).unwrap())
            .collect();
        let recompose_r = b
            .iter()
            .enumerate()
            .fold(LinearCombination::<Fr>::zero(), |acc, (i, bit)| {
                acc + bit.num.lc.clone().scale(Fr::from_u64(1 << i))
            });
        cs.enforce(
            recompose_r - r.lc.clone(),
            LinearCombination::constant(Fr::one()),
            LinearCombination::zero(),
        );
        let recompose = x.lc.clone() - q.lc.clone().scale(Fr::from_u64(16)) - r.lc.clone();
        cs.enforce(
            recompose,
            LinearCombination::constant(Fr::one()),
            LinearCombination::zero(),
        );
        assert!(cs.is_satisfied().is_err());
    }
}

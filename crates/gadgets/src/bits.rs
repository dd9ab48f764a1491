//! Boolean variables and bit decomposition.
//!
//! Bit decomposition is the workhorse behind every non-linear gadget
//! (comparison, ReLU, thresholding, truncation): a value known to lie in
//! `[0, 2^n)` is split into `n` boolean witnesses whose weighted sum is
//! constrained to equal it. For `n ≪ 253` the decomposition is unique, so
//! the booleans faithfully represent the value's binary expansion.
//!
//! Like every gadget in this crate, the decomposition is mode-aware: the
//! *structure* (`n` booleanity constraints + 1 recomposition) depends only
//! on the tracked bound, while the bit *values* are derived inside witness
//! closures that setup-mode drivers never evaluate.

use crate::num::Num;
use alloc::vec::Vec;
use zkrownn_ff::{Field, Fr, PrimeField};
use zkrownn_r1cs::{assignment, ConstraintSystem, LinearCombination, SynthesisError};

/// A boolean circuit value (guaranteed 0 or 1 by a constraint).
#[derive(Clone, Debug)]
pub struct Bit {
    /// The underlying 0/1 number.
    pub num: Num,
}

impl Bit {
    /// Allocates a boolean witness and adds the constraint `b·(b−1) = 0`.
    /// The value closure is only evaluated by witnessing drivers.
    pub fn alloc<CS: ConstraintSystem<Fr>>(
        cs: &mut CS,
        value: impl FnOnce() -> Result<bool, SynthesisError>,
    ) -> Result<Self, SynthesisError> {
        let num = Num::alloc_witness(cs, || Ok(if value()? { Fr::one() } else { Fr::zero() }), 1)?;
        // b·b = b
        cs.enforce(num.lc.clone(), num.lc.clone(), num.lc.clone());
        Ok(Self { num })
    }

    /// Wraps an existing `Num` already known (constrained elsewhere) to be
    /// boolean. Internal use by the decomposition gadget.
    fn from_constrained(num: Num) -> Self {
        Self { num }
    }

    /// A constant bit (no constraints).
    pub fn constant(value: bool) -> Self {
        Self {
            num: if value {
                Num::constant(Fr::one())
            } else {
                Num::zero()
            },
        }
    }

    /// The boolean value under the current assignment (`None` under a
    /// non-witnessing driver).
    pub fn value(&self) -> Option<bool> {
        self.num.value.map(|v| !v.is_zero())
    }

    /// Logical NOT (free).
    pub fn not(&self) -> Self {
        Self {
            num: Num::constant(Fr::one()).sub(&self.num),
        }
    }

    /// Logical AND (one constraint).
    pub fn and<CS: ConstraintSystem<Fr>>(
        &self,
        other: &Self,
        cs: &mut CS,
    ) -> Result<Self, SynthesisError> {
        let mut n = self.num.mul(&other.num, cs)?;
        n.bits = 1;
        Ok(Self::from_constrained(n))
    }

    /// Logical OR (one constraint): `a + b − a·b`.
    pub fn or<CS: ConstraintSystem<Fr>>(
        &self,
        other: &Self,
        cs: &mut CS,
    ) -> Result<Self, SynthesisError> {
        let ab = self.num.mul(&other.num, cs)?;
        let mut n = self.num.add(&other.num).sub(&ab);
        n.bits = 1;
        Ok(Self::from_constrained(n))
    }

    /// Logical XOR (one constraint): `a + b − 2·a·b`.
    pub fn xor<CS: ConstraintSystem<Fr>>(
        &self,
        other: &Self,
        cs: &mut CS,
    ) -> Result<Self, SynthesisError> {
        let ab = self.num.mul(&other.num, cs)?;
        let mut n = self
            .num
            .add(&other.num)
            .sub(&ab.mul_constant(Fr::from_u64(2), 2));
        n.bits = 1;
        Ok(Self::from_constrained(n))
    }

    /// Multiplexer `if self { a } else { b }` (one constraint):
    /// `out = b + self·(a − b)`.
    pub fn select<CS: ConstraintSystem<Fr>>(
        &self,
        a: &Num,
        b: &Num,
        cs: &mut CS,
    ) -> Result<Num, SynthesisError> {
        let diff = a.sub(b);
        let scaled = self.num.mul(&diff, cs)?;
        let mut out = b.add(&scaled);
        out.bits = a.bits.max(b.bits) + 1;
        Ok(out)
    }
}

/// Decomposes a *non-negative* value into `n` little-endian bits.
///
/// Adds `n` booleanity constraints plus one recomposition constraint. The
/// caller must guarantee `0 ≤ value < 2^n` (gadgets arrange this via the
/// `Num::bits` bound plus an offset); the constraint system itself enforces
/// it — an out-of-range witness has no satisfying assignment for `n < 253`.
///
/// # Panics
/// Panics (during a *witnessing* synthesis only) if the assignment value is
/// negative or too wide — an internal bug or a malicious witness; setup
/// never sees values at all.
pub fn to_bits<CS: ConstraintSystem<Fr>>(
    num: &Num,
    n: u32,
    cs: &mut CS,
) -> Result<Vec<Bit>, SynthesisError> {
    assert!(
        n < 253,
        "decomposition width must stay below the field size"
    );
    let v = num.value.map(|f| {
        let v = f
            .to_i128()
            .expect("Num value exceeded i128 range; bounds tracking violated");
        assert!(v >= 0, "to_bits requires a non-negative value, got {v}");
        assert!(
            n >= 127 || v < (1i128 << n),
            "value {v} does not fit in {n} bits"
        );
        v
    });
    let mut bits = Vec::with_capacity(n as usize);
    // Σ 2^i·bᵢ − num, built in one buffer; `num` goes first because its
    // variables were allocated before the bits and so sort before them
    let mut recompose = LinearCombination::<Fr>::with_capacity(num.lc.terms().len() + n as usize);
    recompose -= &num.lc;
    let mut weight = Fr::one();
    for i in 0..n {
        let bit = Bit::alloc(cs, || Ok((assignment(v)? >> i) & 1 == 1))?;
        recompose.add_scaled(&bit.num.lc, weight);
        weight = weight.double();
        bits.push(bit);
    }
    // Σ 2^i·bᵢ == num
    cs.enforce(
        recompose,
        LinearCombination::constant(Fr::one()),
        LinearCombination::zero(),
    );
    Ok(bits)
}

/// Packs little-endian bits back into a `Num` (free; pure LC manipulation).
pub fn from_bits(bits: &[Bit]) -> Num {
    let mut lc = LinearCombination::with_capacity(bits.len());
    let mut value = Some(Fr::zero());
    let mut weight = Fr::one();
    for b in bits {
        lc.add_scaled(&b.num.lc, weight);
        value = value.zip(b.num.value).map(|(acc, v)| acc + v * weight);
        weight = weight.double();
    }
    Num {
        lc,
        value,
        bits: bits.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkrownn_r1cs::{ProvingSynthesizer, SetupSynthesizer};

    #[test]
    fn bit_ops_truth_tables() {
        for a in [false, true] {
            for b in [false, true] {
                let mut cs = ProvingSynthesizer::<Fr>::new();
                let ba = Bit::alloc(&mut cs, || Ok(a)).unwrap();
                let bb = Bit::alloc(&mut cs, || Ok(b)).unwrap();
                assert_eq!(ba.and(&bb, &mut cs).unwrap().value(), Some(a && b));
                assert_eq!(ba.or(&bb, &mut cs).unwrap().value(), Some(a || b));
                assert_eq!(ba.xor(&bb, &mut cs).unwrap().value(), Some(a ^ b));
                assert_eq!(ba.not().value(), Some(!a));
                assert!(cs.is_satisfied().is_ok());
            }
        }
    }

    #[test]
    fn select_chooses_correct_branch() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let x = Num::alloc_witness(&mut cs, || Ok(Fr::from_u64(11)), 4).unwrap();
        let y = Num::alloc_witness(&mut cs, || Ok(Fr::from_u64(22)), 5).unwrap();
        let t = Bit::alloc(&mut cs, || Ok(true)).unwrap();
        let f = Bit::alloc(&mut cs, || Ok(false)).unwrap();
        assert_eq!(
            t.select(&x, &y, &mut cs).unwrap().value,
            Some(Fr::from_u64(11))
        );
        assert_eq!(
            f.select(&x, &y, &mut cs).unwrap().value,
            Some(Fr::from_u64(22))
        );
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn to_bits_roundtrip() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let v = 0b1011_0110u64;
        let num = Num::alloc_witness(&mut cs, || Ok(Fr::from_u64(v)), 8).unwrap();
        let bits = to_bits(&num, 8, &mut cs).unwrap();
        assert!(cs.is_satisfied().is_ok());
        for (i, bit) in bits.iter().enumerate() {
            assert_eq!(bit.value(), Some((v >> i) & 1 == 1));
        }
        let packed = from_bits(&bits);
        assert_eq!(packed.value, Some(Fr::from_u64(v)));
    }

    #[test]
    fn to_bits_constraint_count() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let num = Num::alloc_witness(&mut cs, || Ok(Fr::from_u64(5)), 4).unwrap();
        let base = cs.num_constraints();
        let _ = to_bits(&num, 4, &mut cs).unwrap();
        // 4 booleanity + 1 recomposition
        assert_eq!(cs.num_constraints() - base, 5);
    }

    #[test]
    fn setup_mode_decomposition_matches_proving_shape() {
        let mut setup = SetupSynthesizer::<Fr>::new();
        let num = Num::alloc_witness(&mut setup, || panic!("evaluated"), 4).unwrap();
        let bits = to_bits(&num, 4, &mut setup).unwrap();
        assert_eq!(setup.num_constraints(), 5); // 4 booleanity + 1 recomposition
        assert_eq!(bits.len(), 4);
        assert!(bits.iter().all(|b| b.value().is_none()));
    }

    #[test]
    fn forged_bit_witness_is_unsatisfiable() {
        // If a prover lies about a bit, the recomposition constraint fails.
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let num = Num::alloc_witness(&mut cs, || Ok(Fr::from_u64(3)), 2).unwrap();
        let _ = to_bits(&num, 2, &mut cs).unwrap();
        assert!(cs.is_satisfied().is_ok());
        // rebuild with a corrupted value in place of the allocated bit:
        let mut cs2 = ProvingSynthesizer::<Fr>::new();
        let num2 = Num::alloc_witness(&mut cs2, || Ok(Fr::from_u64(3)), 2).unwrap();
        let b0 = cs2.alloc_witness(|| Ok(Fr::zero())).unwrap(); // claims bit0 = 0 (lie)
        let b1 = cs2.alloc_witness(|| Ok(Fr::one())).unwrap();
        for b in [b0, b1] {
            let lc: LinearCombination<Fr> = b.into();
            cs2.enforce(lc.clone(), lc.clone(), lc.clone());
        }
        let recompose = LinearCombination::<Fr>::zero()
            .add_term(Fr::one(), b0)
            .add_term(Fr::from_u64(2), b1);
        cs2.enforce(
            recompose - num2.lc.clone(),
            LinearCombination::constant(Fr::one()),
            LinearCombination::zero(),
        );
        assert!(cs2.is_satisfied().is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let num = Num::alloc_witness(&mut cs, || Ok(Fr::from_u64(16)), 5).unwrap();
        let _ = to_bits(&num, 4, &mut cs);
    }
}

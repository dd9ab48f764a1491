//! `Num` — a signed fixed-point value inside the circuit.
//!
//! A `Num` carries a linear combination over circuit variables, the value it
//! evaluates to under the current assignment (when the driver is witnessing
//! — `None` under setup/counting synthesis), and a conservative bound
//! `|value| < 2^bits` that downstream gadgets (comparisons, truncations) use
//! to size their bit decompositions. Linear operations are free (pure LC
//! manipulation); multiplication allocates one witness and one constraint.
//!
//! "Free" is about constraints. About memory: a `Num` owns its
//! combination, and a combination of one term — a fresh allocation, a
//! product, a truncation's quotient: almost every `Num` a circuit holds —
//! lives inline, so cloning such a `Num` copies a hundred bytes and
//! touches no heap. The methods taking `&self` and returning a `Num`
//! ([`Num::add`], [`Num::sub`], [`Num::mul_constant`], [`Num::shl`]) clone
//! `self`'s combination once and extend the copy in place (the other
//! operand is only read); [`Num::mul`], [`Num::enforce_equal`] and
//! [`Num::expose_as_output`] clone what they hand to `enforce`, which
//! takes its combinations by value. That is one copy per call and fine for
//! a step — but a *loop* of `acc = acc.add(&term)` re-copies the growing
//! sum every round. Sums go through [`Num::sum`] and
//! [`Num::inner_product`], which take borrowed operands (any iterator of
//! `&Num`: a slice, a strided column, an im2col patch), size the result
//! once and accumulate in place.
//!
//! The bound tracking is *structural*: it depends only on how a value was
//! built, never on the assignment, which is what keeps the synthesized
//! constraint shape identical across setup, proving and counting drivers.

use zkrownn_ff::{Field, Fr, PrimeField};
use zkrownn_r1cs::{assignment, ConstraintSystem, LinearCombination, SynthesisError, Variable};

/// Maximum tracked magnitude (in bits) before gadgets refuse to continue.
/// Keeps every intermediate far below the ~254-bit field and within the
/// `i128` range used by witness computation helpers.
pub const MAX_BITS: u32 = 120;

/// A signed value in the circuit with magnitude bound `|v| < 2^bits`.
#[derive(Clone, Debug)]
pub struct Num {
    /// Symbolic linear combination.
    pub lc: LinearCombination<Fr>,
    /// Assignment value — `Some` under a witnessing driver, `None` under
    /// setup/counting synthesis (circuit constants are always `Some`).
    pub value: Option<Fr>,
    /// Conservative magnitude bound: `|value| < 2^bits` as a signed integer.
    pub bits: u32,
}

impl Num {
    /// Allocates a fresh private witness. `value` is only evaluated by
    /// witnessing drivers — setup synthesis never calls it.
    pub fn alloc_witness<CS: ConstraintSystem<Fr>>(
        cs: &mut CS,
        value: impl FnOnce() -> Result<Fr, SynthesisError>,
        bits: u32,
    ) -> Result<Self, SynthesisError> {
        assert!(bits <= MAX_BITS, "witness bound {bits} exceeds MAX_BITS");
        let mut evaluated = None;
        let var = cs.alloc_witness(|| {
            let v = value()?;
            evaluated = Some(v);
            Ok(v)
        })?;
        Ok(Self {
            lc: var.into(),
            value: evaluated,
            bits,
        })
    }

    /// Allocates a fresh public input (value closure evaluated only by
    /// witnessing drivers, like [`Num::alloc_witness`]).
    pub fn alloc_instance<CS: ConstraintSystem<Fr>>(
        cs: &mut CS,
        value: impl FnOnce() -> Result<Fr, SynthesisError>,
        bits: u32,
    ) -> Result<Self, SynthesisError> {
        assert!(bits <= MAX_BITS, "instance bound {bits} exceeds MAX_BITS");
        let mut evaluated = None;
        let var = cs.alloc_instance(|| {
            let v = value()?;
            evaluated = Some(v);
            Ok(v)
        })?;
        Ok(Self {
            lc: var.into(),
            value: evaluated,
            bits,
        })
    }

    /// A circuit constant (known in every synthesis mode).
    pub fn constant(value: Fr) -> Self {
        let bits = value
            .to_i128()
            .map(|v| 128 - v.unsigned_abs().leading_zeros())
            .unwrap_or(MAX_BITS);
        Self {
            lc: LinearCombination::constant(value),
            value: Some(value),
            bits: bits.min(MAX_BITS),
        }
    }

    /// The constant zero.
    pub fn zero() -> Self {
        Self {
            lc: LinearCombination::zero(),
            value: Some(Fr::zero()),
            bits: 0,
        }
    }

    /// The assignment value, or [`SynthesisError::AssignmentMissing`] under
    /// a non-witnessing driver — the building block for derived-witness
    /// closures.
    pub fn val(&self) -> Result<Fr, SynthesisError> {
        assignment(self.value)
    }

    /// The signed integer assignment value, as [`Num::val`] (panics only if
    /// the value exceeds `i128` — prevented by the `MAX_BITS` discipline).
    pub fn val_i128(&self) -> Result<i128, SynthesisError> {
        Ok(self
            .val()?
            .to_i128()
            .expect("Num value exceeded i128 range; bounds tracking violated"))
    }

    /// The signed integer value (panics when no assignment is present —
    /// only call on values produced by a witnessing synthesis).
    pub fn value_i128(&self) -> i128 {
        self.val_i128()
            .expect("Num has no assignment (setup/counting synthesis)")
    }

    /// Addition (free).
    pub fn add(&self, other: &Self) -> Self {
        let mut lc = self.lc.clone();
        lc += &other.lc;
        Self {
            lc,
            value: self.value.zip(other.value).map(|(a, b)| a + b),
            bits: (self.bits.max(other.bits) + 1).min(MAX_BITS + 1),
        }
    }

    /// Subtraction (free).
    pub fn sub(&self, other: &Self) -> Self {
        let mut lc = self.lc.clone();
        lc -= &other.lc;
        Self {
            lc,
            value: self.value.zip(other.value).map(|(a, b)| a - b),
            bits: (self.bits.max(other.bits) + 1).min(MAX_BITS + 1),
        }
    }

    /// Multiplication by a constant (free). `const_bits` must bound the
    /// constant's magnitude.
    pub fn mul_constant(&self, c: Fr, const_bits: u32) -> Self {
        Self {
            lc: self.lc.clone().scale(c),
            value: self.value.map(|v| v * c),
            bits: (self.bits + const_bits).min(MAX_BITS + 1),
        }
    }

    /// Multiplication by a power of two (free, exact bound bookkeeping).
    pub fn shl(&self, k: u32) -> Self {
        let c = Fr::from_u128(1u128 << k.min(127));
        Self {
            lc: self.lc.clone().scale(c),
            value: self.value.map(|v| v * c),
            bits: self.bits + k,
        }
    }

    /// Multiplication (allocates the product and one constraint).
    pub fn mul<CS: ConstraintSystem<Fr>>(
        &self,
        other: &Self,
        cs: &mut CS,
    ) -> Result<Self, SynthesisError> {
        let bits = self.bits + other.bits;
        assert!(
            bits <= MAX_BITS,
            "product bound {bits} exceeds MAX_BITS — truncate earlier"
        );
        let value = self.value.zip(other.value).map(|(a, b)| a * b);
        let var = cs.alloc_witness(|| assignment(value))?;
        cs.enforce(self.lc.clone(), other.lc.clone(), var.into());
        Ok(Self {
            lc: var.into(),
            value,
            bits,
        })
    }

    /// Enforces `self == other` (one linear constraint).
    pub fn enforce_equal<CS: ConstraintSystem<Fr>>(&self, other: &Self, cs: &mut CS) {
        let mut diff = self.lc.clone();
        diff -= &other.lc;
        cs.enforce(
            diff,
            LinearCombination::constant(Fr::one()),
            LinearCombination::zero(),
        );
    }

    /// Exposes the value as a public output: allocates an instance variable
    /// carrying the same value and constrains it equal (one constraint).
    pub fn expose_as_output<CS: ConstraintSystem<Fr>>(
        &self,
        cs: &mut CS,
    ) -> Result<Variable, SynthesisError> {
        let value = self.value;
        let var = cs.alloc_instance(|| assignment(value))?;
        cs.enforce(
            self.lc.clone(),
            LinearCombination::constant(Fr::one()),
            var.into(),
        );
        Ok(var)
    }

    /// Sum of many values with a *tight* magnitude bound
    /// (`max(bits) + ⌈log₂ n⌉` instead of `max(bits) + n` from chained
    /// [`Num::add`]). Free — pure linear-combination concatenation, into
    /// one buffer, over operands that are only borrowed.
    pub fn sum<'a>(terms: impl IntoIterator<Item = &'a Self>) -> Self {
        let terms = terms.into_iter();
        let mut lc = LinearCombination::with_capacity(terms.size_hint().0);
        let mut value = Some(Fr::zero());
        let mut max_bits = 0u32;
        let mut n = 0usize;
        for t in terms {
            lc += &t.lc;
            value = value.zip(t.value).map(|(a, b)| a + b);
            max_bits = max_bits.max(t.bits);
            n += 1;
        }
        if n == 0 {
            return Self::zero();
        }
        let log_n = usize::BITS - (n - 1).leading_zeros();
        Self {
            lc,
            value,
            bits: (max_bits + log_n).min(MAX_BITS + 1),
        }
    }

    /// Inner product `Σ aᵢ·bᵢ` (one constraint per term). The operands
    /// are borrowed — pass slices, or an index view over a larger buffer
    /// (a matrix column, a convolution patch) rather than a gathered copy
    /// — and the sum of products is accumulated in place.
    ///
    /// # Panics
    /// Panics if the operands have different lengths or are empty.
    pub fn inner_product<'a, CS: ConstraintSystem<Fr>>(
        a: impl IntoIterator<Item = &'a Self>,
        b: impl IntoIterator<Item = &'a Self>,
        cs: &mut CS,
    ) -> Result<Self, SynthesisError> {
        let (mut a, mut b) = (a.into_iter(), b.into_iter());
        let mut lc = LinearCombination::with_capacity(a.size_hint().0);
        let mut value = Some(Fr::zero());
        let mut term_bits = 0u32;
        let mut n = 0usize;
        loop {
            let (x, y) = match (a.next(), b.next()) {
                (Some(x), Some(y)) => (x, y),
                (None, None) => break,
                _ => panic!("inner product arity mismatch"),
            };
            let product = x.mul(y, cs)?;
            lc += &product.lc;
            value = value.zip(product.value).map(|(a, b)| a + b);
            term_bits = term_bits.max(product.bits);
            n += 1;
        }
        assert!(n > 0, "empty inner product");
        // tight bound: the sum of n products, each < 2^(ba+bb)
        let sum_bits = term_bits + (usize::BITS - n.leading_zeros());
        Ok(Self {
            lc,
            value,
            bits: sum_bits.min(MAX_BITS + 1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec::Vec;
    use zkrownn_r1cs::{ProvingSynthesizer, SetupSynthesizer};

    fn wit(cs: &mut ProvingSynthesizer<Fr>, v: i128, bits: u32) -> Num {
        Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), bits).unwrap()
    }

    #[test]
    fn linear_ops_are_constraint_free() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let a = wit(&mut cs, 5, 4);
        let b = wit(&mut cs, 7, 4);
        let c = a.add(&b).sub(&Num::constant(Fr::from_u64(2)));
        assert_eq!(c.value, Some(Fr::from_u64(10)));
        assert_eq!(cs.num_constraints(), 0);
    }

    #[test]
    fn mul_allocates_one_constraint() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let a = wit(&mut cs, -5, 4);
        let b = wit(&mut cs, 7, 4);
        let c = a.mul(&b, &mut cs).unwrap();
        assert_eq!(c.value_i128(), -35);
        assert_eq!(c.bits, 8);
        assert_eq!(cs.num_constraints(), 1);
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn setup_mode_tracks_no_values_but_same_shape() {
        let mut setup = SetupSynthesizer::<Fr>::new();
        let a = Num::alloc_witness(&mut setup, || panic!("evaluated"), 4).unwrap();
        let b = Num::alloc_witness(&mut setup, || panic!("evaluated"), 4).unwrap();
        let c = a.mul(&b, &mut setup).unwrap();
        assert_eq!(c.value, None);
        assert_eq!(c.bits, 8);
        assert_eq!(setup.num_constraints(), 1);
        // and the derived-value accessors report the missing assignment
        assert_eq!(c.val(), Err(SynthesisError::AssignmentMissing));
    }

    #[test]
    fn inner_product_value_and_count() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let a: Vec<Num> = (1..=4).map(|i| wit(&mut cs, i, 3)).collect();
        let b: Vec<Num> = (1..=4).map(|i| wit(&mut cs, i + 1, 3)).collect();
        let ip = Num::inner_product(&a, &b, &mut cs).unwrap();
        // 1·2 + 2·3 + 3·4 + 4·5 = 40
        assert_eq!(ip.value, Some(Fr::from_u64(40)));
        assert_eq!(cs.num_constraints(), 4);
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn expose_as_output_adds_instance() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let a = wit(&mut cs, 9, 4);
        let before = cs.num_instance_variables();
        a.expose_as_output(&mut cs).unwrap();
        assert_eq!(cs.num_instance_variables(), before + 1);
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn enforce_equal_detects_mismatch() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let a = wit(&mut cs, 3, 3);
        let b = wit(&mut cs, 4, 3);
        a.enforce_equal(&b, &mut cs);
        assert!(cs.is_satisfied().is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_BITS")]
    fn oversized_product_panics() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let a = wit(&mut cs, 1, 100);
        let b = wit(&mut cs, 1, 100);
        let _ = a.mul(&b, &mut cs);
    }

    #[test]
    fn shl_scales_value_and_bits() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let a = wit(&mut cs, -3, 3);
        let b = a.shl(10);
        assert_eq!(b.value.and_then(|v| v.to_i128()), Some(-3 << 10));
        assert_eq!(b.bits, 13);
    }
}

//! Generic Montgomery-form prime field over a 256-bit modulus.
//!
//! The only hand-transcribed datum per field is the modulus itself (plus a
//! small generator hint); `R`, `R²` and `-p⁻¹ mod 2⁶⁴` are derived by
//! `const fn` evaluation, and the 2-adic root of unity is derived at runtime.

use crate::backend::{ActiveBackend, FieldBackend};
use crate::bigint::{mont_inv64, mont_r, mont_r2, BigInt256};
use crate::traits::{Field, PrimeField, SquareRootField};
use core::marker::PhantomData;

/// Compile-time parameters describing a prime field.
pub trait FpParams:
    'static + Copy + Clone + Send + Sync + Eq + core::hash::Hash + core::fmt::Debug
{
    /// The prime modulus.
    const MODULUS: BigInt256;
    /// A small generator of the multiplicative group (hint; validated where
    /// it matters).
    const GENERATOR: u64;
    /// Largest `s` with `2^s | MODULUS - 1`.
    const TWO_ADICITY: u32;
    /// How many factors of three evaluation domains may use (`3^s` must
    /// divide `MODULUS − 1`); the default 0 keeps the field radix-2 only.
    const THREE_ADICITY: u32 = 0;

    /// Montgomery constant `R = 2^256 mod p` (derived — do not override).
    const R: BigInt256 = mont_r(&Self::MODULUS);
    /// Montgomery constant `R² mod p` (derived — do not override).
    const R2: BigInt256 = mont_r2(&Self::MODULUS);
    /// `-p⁻¹ mod 2^64` (derived — do not override).
    const INV: u64 = mont_inv64(&Self::MODULUS);
}

/// An element of the prime field defined by `P`, stored in Montgomery form.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Fp<P: FpParams>(BigInt256, PhantomData<P>);

impl<P: FpParams> Fp<P> {
    /// Montgomery multiplication via the compile-time-selected
    /// [`FieldBackend`] (see [`crate::backend`] for the kernel menu).
    #[inline]
    fn mul_repr(a: &BigInt256, b: &BigInt256) -> BigInt256 {
        ActiveBackend::mul_reduce::<P>(a, b)
    }

    /// Montgomery squaring via the selected backend.
    #[inline]
    fn square_repr(a: &BigInt256) -> BigInt256 {
        ActiveBackend::square_reduce::<P>(a)
    }

    /// Returns the canonical (non-Montgomery) representation.
    #[inline]
    fn to_canonical(self) -> BigInt256 {
        let mut t = [0u64; 8];
        t[..4].copy_from_slice(&(self.0).0);
        ActiveBackend::reduce_wide::<P>(t)
    }

    /// Number of bits in the modulus.
    pub const fn modulus_bits() -> u32 {
        P::MODULUS.num_bits()
    }

    /// Halves the element (multiplies by 2⁻¹).
    pub fn halve(&self) -> Self {
        let mut r = self.0;
        let mut carry = 0u64;
        if r.is_odd() {
            let (s, c) = r.add_with_carry(&P::MODULUS);
            r = s;
            carry = c;
        }
        let mut out = r.shr(1);
        if carry == 1 {
            out.0[3] |= 1 << 63;
        }
        Self(out, PhantomData)
    }
}

impl<P: FpParams> Default for Fp<P> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<P: FpParams> core::fmt::Debug for Fp<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp({})", self.to_canonical())
    }
}

impl<P: FpParams> core::fmt::Display for Fp<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_canonical())
    }
}

impl<P: FpParams> core::ops::Add for Fp<P> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let (sum, carry) = self.0.add_with_carry(&rhs.0);
        Self(sum.csub(carry, &P::MODULUS), PhantomData)
    }
}

impl<P: FpParams> core::ops::Sub for Fp<P> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        // A borrow left `a − b + 2²⁵⁶`; adding `p` and dropping the carry
        // lands in `[0, p)`. Masking `p` instead of branching on the borrow
        // keeps the coin flip out of the branch predictor.
        let (diff, borrow) = self.0.sub_with_borrow(&rhs.0);
        let mask = borrow.wrapping_neg();
        let p = P::MODULUS.0;
        let fix = BigInt256([p[0] & mask, p[1] & mask, p[2] & mask, p[3] & mask]);
        Self(diff.add_with_carry(&fix).0, PhantomData)
    }
}

impl<P: FpParams> core::ops::Mul for Fp<P> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(Self::mul_repr(&self.0, &rhs.0), PhantomData)
    }
}

impl<P: FpParams> core::ops::Neg for Fp<P> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::zero() - self
    }
}

impl<P: FpParams> core::ops::AddAssign for Fp<P> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<P: FpParams> core::ops::SubAssign for Fp<P> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<P: FpParams> core::ops::MulAssign for Fp<P> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<P: FpParams> Field for Fp<P> {
    #[inline]
    fn zero() -> Self {
        Self(BigInt256::ZERO, PhantomData)
    }

    #[inline]
    fn one() -> Self {
        Self(P::R, PhantomData)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    #[inline]
    fn square(&self) -> Self {
        Self(Self::square_repr(&self.0), PhantomData)
    }

    fn inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        // Fermat: a^(p-2); hot paths batch their inversions.
        let exp = P::MODULUS.sub_with_borrow(&BigInt256::from_u64(2)).0;
        let inv = self.pow(&exp.0);
        debug_assert!((inv * *self).is_one());
        Some(inv)
    }

    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let bits = P::MODULUS.num_bits();
        let top_mask = if bits % 64 == 0 {
            u64::MAX
        } else {
            (1u64 << (bits % 64)) - 1
        };
        loop {
            let mut limbs = [0u64; 4];
            for l in limbs.iter_mut() {
                *l = rng.gen();
            }
            let top_limb = (bits.div_ceil(64) - 1) as usize;
            limbs[top_limb] &= top_mask;
            for l in limbs.iter_mut().skip(top_limb + 1) {
                *l = 0;
            }
            let candidate = BigInt256(limbs);
            if candidate.const_cmp(&P::MODULUS) < 0 {
                // Interpret the sample directly as a Montgomery representation;
                // the map x ↦ x·R⁻¹ is a bijection so uniformity is preserved.
                return Self(candidate, PhantomData);
            }
        }
    }

    #[inline]
    fn from_u64(v: u64) -> Self {
        Self(Self::mul_repr(&BigInt256::from_u64(v), &P::R2), PhantomData)
    }
}

impl<P: FpParams> PartialOrd for Fp<P> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<P: FpParams> Ord for Fp<P> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.to_canonical().cmp(&other.to_canonical())
    }
}

impl<P: FpParams> PrimeField for Fp<P> {
    const MODULUS: BigInt256 = P::MODULUS;
    const MODULUS_BIT_SIZE: u32 = P::MODULUS.num_bits();
    const TWO_ADICITY: u32 = P::TWO_ADICITY;
    const THREE_ADICITY: u32 = P::THREE_ADICITY;

    fn from_bigint(v: BigInt256) -> Option<Self> {
        if v.const_cmp(&P::MODULUS) >= 0 {
            None
        } else {
            Some(Self(Self::mul_repr(&v, &P::R2), PhantomData))
        }
    }

    fn into_bigint(self) -> BigInt256 {
        self.to_canonical()
    }

    fn multiplicative_generator() -> Self {
        // Validate the hint: we need a quadratic non-residue so the derived
        // 2^s-th root of unity is primitive — and, where domains use factors
        // of three, a cubic non-residue for the 3^t-th root. Fall back to a
        // search if the hint is a residue (cheap, happens once per call
        // site).
        let p_minus_1 = P::MODULUS.sub_with_borrow(&BigInt256::ONE).0;
        let half = p_minus_1.shr(1);
        let third = p_minus_1.div_rem_u64(3).0;
        let mut g = P::GENERATOR;
        loop {
            let cand = Self::from_u64(g);
            let cubic_non_residue = P::THREE_ADICITY == 0 || !cand.pow(&third.0).is_one();
            if !cand.is_zero() && !cand.pow(&half.0).is_one() && cubic_non_residue {
                return cand;
            }
            g += 1;
        }
    }
}

impl<P: FpParams> SquareRootField for Fp<P> {
    fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(*self);
        }
        assert!(
            P::MODULUS.0[0] & 3 == 3,
            "sqrt is implemented only for p ≡ 3 (mod 4)"
        );
        // candidate = a^((p+1)/4)
        let exp = P::MODULUS.add_with_carry(&BigInt256::ONE).0.shr(2);
        let cand = self.pow(&exp.0);
        if cand.square() == *self {
            Some(cand)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A small-prime field for targeted unit tests: p = 2^61 - 1 won't work
    // (not ≡ 3 mod 4 requirements aside, we want realistic 4-limb flows), so
    // use the BN254 base field modulus directly via the crate's Fq params in
    // integration tests; here we test the reduction path with a tiny prime.
    #[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
    struct P23;
    impl FpParams for P23 {
        const MODULUS: BigInt256 = BigInt256([23, 0, 0, 0]);
        const GENERATOR: u64 = 5;
        const TWO_ADICITY: u32 = 1;
    }
    type F23 = Fp<P23>;

    impl<P: FpParams> Fp<P> {
        /// Wraps a raw representative (`v < p`) without a Montgomery
        /// conversion.
        fn from_repr(v: BigInt256) -> Self {
            assert!(v < P::MODULUS);
            Self(v, PhantomData)
        }
    }

    #[test]
    fn small_field_table() {
        for a in 0..23u64 {
            for b in 0..23u64 {
                let fa = F23::from_u64(a);
                let fb = F23::from_u64(b);
                assert_eq!((fa + fb).into_bigint().0[0], (a + b) % 23);
                assert_eq!((fa * fb).into_bigint().0[0], (a * b) % 23);
                assert_eq!((fa - fb).into_bigint().0[0], (a + 23 - b) % 23);
            }
        }
    }

    #[test]
    fn small_field_inverse() {
        for a in 1..23u64 {
            let fa = F23::from_u64(a);
            let inv = fa.inverse().unwrap();
            assert!((fa * inv).is_one());
        }
        assert!(F23::zero().inverse().is_none());
    }

    #[test]
    fn small_field_sqrt() {
        // 23 ≡ 3 mod 4
        let mut roots = 0;
        for a in 0..23u64 {
            if let Some(r) = F23::from_u64(a).sqrt() {
                assert_eq!(r.square(), F23::from_u64(a));
                roots += 1;
            }
        }
        // 0 plus (p-1)/2 quadratic residues
        assert_eq!(roots, 1 + 11);
    }

    /// `2²⁵⁶ − 189`, the largest prime below 2²⁵⁶. Its top bit is set, so
    /// the sum of two residues can overflow 256 bits: the carry arm of
    /// `add`, which neither 254-bit BN254 modulus ever takes. Add and sub
    /// do not care about Montgomery form, so the test drives them on raw
    /// representatives (the multiply kernels do not support this modulus).
    #[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
    struct PTop;
    impl FpParams for PTop {
        const MODULUS: BigInt256 = BigInt256([u64::MAX - 188, u64::MAX, u64::MAX, u64::MAX]);
        const GENERATOR: u64 = 2;
        const TWO_ADICITY: u32 = 1;
    }
    type FTop = Fp<PTop>;

    #[test]
    fn top_bit_modulus_add_sub_match_the_integer_oracle() {
        use crate::biguint::BigUint;
        let p = PTop::MODULUS;
        let m = BigUint::from_limbs(&p.0);
        let below_p = |k: u64| p.sub_with_borrow(&BigInt256::from_u64(k)).0;
        let mut values = alloc::vec![
            BigInt256::ZERO,
            BigInt256::ONE,
            BigInt256::from_u64(188),
            BigInt256::from_u64(189),
            BigInt256::from_u64(190),
            below_p(1),
            below_p(2),
            below_p(189),
            p.shr(1),
            p.shr(1).add_with_carry(&BigInt256::ONE).0,
            BigInt256([0, 0, 0, 1 << 63]),
            BigInt256([u64::MAX, u64::MAX, u64::MAX, (1 << 63) - 1]),
        ];
        // xorshift-spread values across the whole range
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..8 {
            let mut limbs = [0u64; 4];
            for l in limbs.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *l = x;
            }
            let v = BigInt256(limbs);
            values.push(if v < p { v } else { v.sub_with_borrow(&p).0 });
        }
        let big = |v: FTop| BigUint::from_limbs(&v.0 .0);
        let (mut carried, mut borrowed) = (0, 0);
        for &a in &values {
            for &b in &values {
                carried += a.add_with_carry(&b).1;
                borrowed += a.sub_with_borrow(&b).1;
                let (fa, fb) = (FTop::from_repr(a), FTop::from_repr(b));
                let (ba, bb) = (big(fa), big(fb));
                assert_eq!(big(fa + fb), ba.add(&bb).div_rem(&m).1, "{a} + {b}");
                assert_eq!(big(fa - fb), ba.add(&m).sub(&bb).div_rem(&m).1, "{a} - {b}");
            }
            let fa = FTop::from_repr(a);
            assert_eq!(big(fa.double()), big(fa).add(&big(fa)).div_rem(&m).1);
            assert_eq!(big(-fa), m.sub(&big(fa)).div_rem(&m).1, "-{a}");
        }
        // both fix-up arms ran: sums past 2²⁵⁶ and differences below zero
        assert!(carried > 0 && borrowed > 0);
    }

    #[test]
    fn halve_matches_inverse_of_two() {
        let two_inv = F23::from_u64(2).inverse().unwrap();
        for a in 0..23u64 {
            let fa = F23::from_u64(a);
            assert_eq!(fa.halve(), fa * two_inv);
        }
    }
}

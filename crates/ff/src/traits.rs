//! Abstract field traits shared by the base field, scalar field and the
//! extension tower.

use crate::bigint::BigInt256;
use alloc::vec::Vec;
use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A finite field.
///
/// All implementations in this workspace are `Copy` value types with
/// by-value operator overloads; elements are at most 384 bytes (Fq12), so
/// copying is cheap relative to the arithmetic itself.
pub trait Field:
    'static
    + Copy
    + Clone
    + Eq
    + PartialEq
    + Hash
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Returns true if `self` is the additive identity.
    fn is_zero(&self) -> bool;
    /// Returns true if `self` is the multiplicative identity.
    fn is_one(&self) -> bool {
        *self == Self::one()
    }
    /// Returns `2·self`.
    fn double(&self) -> Self {
        *self + *self
    }
    /// Returns `self²`.
    fn square(&self) -> Self {
        *self * *self
    }
    /// Returns the multiplicative inverse, or `None` for zero.
    fn inverse(&self) -> Option<Self>;
    /// Exponentiation by a little-endian limb-encoded exponent.
    fn pow(&self, exp: &[u64]) -> Self {
        let mut res = Self::one();
        let mut started = false;
        for i in (0..exp.len() * 64).rev() {
            if started {
                res = res.square();
            }
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                res *= *self;
                started = true;
            }
        }
        res
    }
    /// Samples a uniformly random element.
    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self;
    /// Embeds a small integer into the field.
    fn from_u64(v: u64) -> Self;

    /// Inverts a slice of elements in place using Montgomery's batch trick
    /// (one inversion + 3n multiplications). Zero entries are left untouched.
    fn batch_inverse(elems: &mut [Self]) {
        Self::batch_inverse_with_scratch(elems, &mut Vec::with_capacity(elems.len()));
    }

    /// [`Field::batch_inverse`] reusing a caller-provided prefix buffer —
    /// hot loops calling this repeatedly (the MSM's batch-affine rounds)
    /// avoid one allocation per call. `scratch` is cleared on entry.
    fn batch_inverse_with_scratch(elems: &mut [Self], scratch: &mut Vec<Self>) {
        // prefix[i] = product of all non-zero elems[..=i]
        scratch.clear();
        let prefix = scratch;
        let mut acc = Self::one();
        for e in elems.iter() {
            if !e.is_zero() {
                acc *= *e;
            }
            prefix.push(acc);
        }
        let mut inv = match acc.inverse() {
            Some(i) => i,
            None => return, // all elements zero
        };
        for i in (0..elems.len()).rev() {
            if elems[i].is_zero() {
                continue;
            }
            let prev = if i == 0 { Self::one() } else { prefix[i - 1] };
            let e_inv = inv * prev;
            inv *= elems[i];
            elems[i] = e_inv;
        }
    }
}

/// A prime-order field with a canonical integer representation.
pub trait PrimeField: Field + Ord + PartialOrd {
    /// The field modulus.
    const MODULUS: BigInt256;
    /// Number of bits in the modulus.
    const MODULUS_BIT_SIZE: u32;
    /// Largest `s` such that `2^s` divides `modulus − 1`.
    const TWO_ADICITY: u32;
    /// How many factors of three evaluation domains may use: `3^s` divides
    /// `modulus − 1` (0 keeps the field's domains radix-2).
    const THREE_ADICITY: u32;

    /// Converts a canonical integer below the modulus into a field element.
    /// Returns `None` if `v ≥ modulus`.
    fn from_bigint(v: BigInt256) -> Option<Self>;
    /// Returns the canonical integer representation in `[0, modulus)`.
    fn into_bigint(self) -> BigInt256;

    /// A generator of the full multiplicative group (used to derive roots of
    /// unity; verified at runtime to be a quadratic non-residue).
    fn multiplicative_generator() -> Self;

    /// A primitive `2^TWO_ADICITY`-th root of unity.
    fn two_adic_root_of_unity() -> Self {
        let exp = Self::MODULUS
            .sub_with_borrow(&BigInt256::ONE)
            .0
            .shr(Self::TWO_ADICITY);
        Self::multiplicative_generator().pow(&exp.0)
    }

    /// A primitive `3^THREE_ADICITY`-th root of unity (one when the
    /// adicity is 0).
    fn three_adic_root_of_unity() -> Self {
        let mut exp = Self::MODULUS.sub_with_borrow(&BigInt256::ONE).0;
        for _ in 0..Self::THREE_ADICITY {
            let (q, rem) = exp.div_rem_u64(3);
            debug_assert_eq!(rem, 0, "THREE_ADICITY overstates the modulus");
            exp = q;
        }
        Self::multiplicative_generator().pow(&exp.0)
    }

    /// Little-endian canonical byte encoding.
    fn to_le_bytes(self) -> [u8; 32] {
        self.into_bigint().to_le_bytes()
    }

    /// Parses the canonical little-endian encoding; `None` if ≥ modulus.
    fn from_le_bytes(bytes: &[u8; 32]) -> Option<Self> {
        Self::from_bigint(BigInt256::from_le_bytes(bytes))
    }

    /// Embeds a signed 128-bit integer (negative values map to `p − |v|`).
    fn from_i128(v: i128) -> Self {
        if v >= 0 {
            Self::from_u128(v as u128)
        } else {
            -Self::from_u128(v.unsigned_abs())
        }
    }

    /// Embeds an unsigned 128-bit integer.
    fn from_u128(v: u128) -> Self {
        Self::from_u64((v >> 64) as u64) * Self::from_u64(1u64 << 32).square()
            + Self::from_u64(v as u64)
    }

    /// Interprets the element as a signed integer in `(-p/2, p/2]`,
    /// returning `None` if its magnitude exceeds 127 bits.
    ///
    /// This is the inverse of [`PrimeField::from_i128`] for in-range values
    /// and is used pervasively by the fixed-point gadget layer.
    fn to_i128(self) -> Option<i128> {
        let repr = self.into_bigint();
        let half = Self::MODULUS.shr(1);
        let (mag, neg) = if repr.const_cmp(&half) > 0 {
            (Self::MODULUS.sub_with_borrow(&repr).0, true)
        } else {
            (repr, false)
        };
        if mag.num_bits() > 127 {
            return None;
        }
        let v = (mag.0[1] as u128) << 64 | mag.0[0] as u128;
        Some(if neg { -(v as i128) } else { v as i128 })
    }
}

/// Fields in which square roots can be computed.
pub trait SquareRootField: Field {
    /// Returns a square root of `self` if one exists.
    fn sqrt(&self) -> Option<Self>;
}

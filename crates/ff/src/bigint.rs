//! Fixed-width 256-bit little-endian unsigned integers.
//!
//! [`BigInt256`] is the backing representation for the BN254 prime fields.
//! All helper arithmetic is written as `const fn` so that Montgomery
//! constants (`R`, `R²`, `-p⁻¹ mod 2⁶⁴`) can be *derived* from the modulus at
//! compile time instead of being transcribed by hand.

/// Add with carry: returns `(sum, carry_out)` for `a + b + carry`.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let tmp = (a as u128) + (b as u128) + (carry as u128);
    (tmp as u64, (tmp >> 64) as u64)
}

/// Subtract with borrow: returns `(diff, borrow_out)` for `a - b - borrow`.
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let tmp = (a as u128).wrapping_sub((b as u128) + (borrow as u128));
    (tmp as u64, ((tmp >> 64) as u64) & 1)
}

/// Multiply-accumulate: returns `(lo, hi)` of `a + b * c + carry`.
#[inline(always)]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let tmp = (a as u128) + (b as u128) * (c as u128) + (carry as u128);
    (tmp as u64, (tmp >> 64) as u64)
}

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs.
///
/// This is a plain fixed-width integer (no modular semantics); the modular
/// arithmetic lives in [`crate::fp::Fp`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct BigInt256(pub [u64; 4]);

impl BigInt256 {
    /// The integer 0.
    pub const ZERO: Self = Self([0; 4]);
    /// The integer 1.
    pub const ONE: Self = Self([1, 0, 0, 0]);

    /// Creates a `BigInt256` from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        Self([v, 0, 0, 0])
    }

    /// Returns true if the value is zero.
    #[inline]
    pub const fn is_zero(&self) -> bool {
        self.0[0] == 0 && self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0
    }

    /// Returns true if the value is odd.
    #[inline]
    pub const fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Returns bit `i` (little-endian numbering). Bits ≥ 256 are zero.
    #[inline]
    pub const fn bit(&self, i: u32) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for the value 0).
    pub const fn num_bits(&self) -> u32 {
        let mut i = 3;
        loop {
            if self.0[i] != 0 {
                return 64 * (i as u32) + (64 - self.0[i].leading_zeros());
            }
            if i == 0 {
                return 0;
            }
            i -= 1;
        }
    }

    /// Constant-friendly comparison: returns -1, 0, or 1.
    pub const fn const_cmp(&self, other: &Self) -> i8 {
        let mut i = 3;
        loop {
            if self.0[i] < other.0[i] {
                return -1;
            }
            if self.0[i] > other.0[i] {
                return 1;
            }
            if i == 0 {
                return 0;
            }
            i -= 1;
        }
    }

    /// Wrapping addition, returning `(result, carry_out)`.
    pub const fn add_with_carry(&self, other: &Self) -> (Self, u64) {
        let (l0, c) = adc(self.0[0], other.0[0], 0);
        let (l1, c) = adc(self.0[1], other.0[1], c);
        let (l2, c) = adc(self.0[2], other.0[2], c);
        let (l3, c) = adc(self.0[3], other.0[3], c);
        (Self([l0, l1, l2, l3]), c)
    }

    /// Wrapping subtraction, returning `(result, borrow_out)`.
    pub const fn sub_with_borrow(&self, other: &Self) -> (Self, u64) {
        let (l0, b) = sbb(self.0[0], other.0[0], 0);
        let (l1, b) = sbb(self.0[1], other.0[1], b);
        let (l2, b) = sbb(self.0[2], other.0[2], b);
        let (l3, b) = sbb(self.0[3], other.0[3], b);
        (Self([l0, l1, l2, l3]), b)
    }

    /// Shift left by one bit, returning `(result, carry_out)`.
    pub const fn shl1(&self) -> (Self, u64) {
        let carry = self.0[3] >> 63;
        let l3 = (self.0[3] << 1) | (self.0[2] >> 63);
        let l2 = (self.0[2] << 1) | (self.0[1] >> 63);
        let l1 = (self.0[1] << 1) | (self.0[0] >> 63);
        let l0 = self.0[0] << 1;
        (Self([l0, l1, l2, l3]), carry)
    }

    /// Logical shift right by `n` bits (`n` < 256).
    pub const fn shr(&self, n: u32) -> Self {
        if n == 0 {
            return *self;
        }
        let limbs = (n / 64) as usize;
        let bits = n % 64;
        let mut out = [0u64; 4];
        let mut i = 0;
        while i + limbs < 4 {
            let mut v = self.0[i + limbs] >> bits;
            if bits > 0 && i + limbs + 1 < 4 {
                v |= self.0[i + limbs + 1] << (64 - bits);
            }
            out[i] = v;
            i += 1;
        }
        Self(out)
    }

    /// Division by a non-zero word, returning `(quotient, remainder)`.
    pub const fn div_rem_u64(&self, d: u64) -> (Self, u64) {
        let mut out = [0u64; 4];
        let mut rem = 0u128;
        let mut i = 4;
        while i > 0 {
            i -= 1;
            let cur = (rem << 64) | self.0[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Self(out), rem as u64)
    }

    /// Full 256×256 → 512-bit schoolbook multiplication.
    pub const fn mul_wide(&self, other: &Self) -> [u64; 8] {
        let mut t = [0u64; 8];
        let mut i = 0;
        while i < 4 {
            let mut carry = 0u64;
            let mut j = 0;
            while j < 4 {
                let (lo, hi) = mac(t[i + j], self.0[i], other.0[j], carry);
                t[i + j] = lo;
                carry = hi;
                j += 1;
            }
            t[i + 4] = carry;
            i += 1;
        }
        t
    }

    /// Full 256-bit → 512-bit squaring: off-diagonal partial products are
    /// computed once and doubled (10 word multiplications instead of the
    /// 16 a general [`Self::mul_wide`] pays).
    pub const fn square_wide(&self) -> [u64; 8] {
        let a = self.0;
        let mut t = [0u64; 8];
        // off-diagonal products a_i·a_j (i < j) accumulated at limb i+j
        let mut i = 0;
        while i < 4 {
            let mut carry = 0u64;
            let mut j = i + 1;
            while j < 4 {
                let (lo, hi) = mac(t[i + j], a[i], a[j], carry);
                t[i + j] = lo;
                carry = hi;
                j += 1;
            }
            t[i + 4] = carry;
            i += 1;
        }
        // double the cross terms (left shift by one across the 512 bits;
        // t[0] holds no cross term and t[7] at most the shifted-in bit)
        t[7] = t[6] >> 63;
        let mut k = 6;
        while k > 1 {
            t[k] = (t[k] << 1) | (t[k - 1] >> 63);
            k -= 1;
        }
        t[1] <<= 1;
        // add the diagonal a_i² terms
        let mut carry = 0u64;
        let mut i = 0;
        while i < 4 {
            let (lo, hi) = mac(t[2 * i], a[i], a[i], carry);
            t[2 * i] = lo;
            let (lo, c) = adc(t[2 * i + 1], 0, hi);
            t[2 * i + 1] = lo;
            carry = c;
            i += 1;
        }
        t
    }

    /// Reads up to 64 bits starting at bit `shift` (little-endian). Bits at
    /// or beyond 256 read as zero. Shared by the windowed scalar recoders
    /// (Pippenger MSM, fixed-base keygen): `width ≤ 64`.
    #[inline]
    pub const fn bits64(&self, shift: usize, width: usize) -> u64 {
        if shift >= 256 {
            return 0;
        }
        let limb = shift / 64;
        let bit = shift % 64;
        let mut out = self.0[limb] >> bit;
        if bit + width > 64 && limb + 1 < 4 {
            out |= self.0[limb + 1] << (64 - bit);
        }
        if width >= 64 {
            out
        } else {
            out & ((1u64 << width) - 1)
        }
    }

    /// Little-endian byte encoding (32 bytes).
    pub fn to_le_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Parses a little-endian 32-byte encoding.
    pub fn from_le_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *limb = u64::from_le_bytes(chunk);
        }
        Self(limbs)
    }
}

impl Ord for BigInt256 {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        match self.const_cmp(other) {
            -1 => core::cmp::Ordering::Less,
            0 => core::cmp::Ordering::Equal,
            _ => core::cmp::Ordering::Greater,
        }
    }
}

impl PartialOrd for BigInt256 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl core::fmt::Display for BigInt256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}",
            crate::biguint::BigUint::from_limbs(&self.0).to_decimal()
        )
    }
}

/// Doubles `v` modulo `modulus` (requires `v < modulus`).
pub const fn mod_double(v: BigInt256, modulus: &BigInt256) -> BigInt256 {
    let (d, carry) = v.shl1();
    if carry == 1 || d.const_cmp(modulus) >= 0 {
        d.sub_with_borrow(modulus).0
    } else {
        d
    }
}

/// Computes the Montgomery constant `R = 2^256 mod modulus`.
pub const fn mont_r(modulus: &BigInt256) -> BigInt256 {
    let mut r = BigInt256::ONE;
    let mut i = 0;
    while i < 256 {
        r = mod_double(r, modulus);
        i += 1;
    }
    r
}

/// Computes the Montgomery constant `R² = 2^512 mod modulus`.
pub const fn mont_r2(modulus: &BigInt256) -> BigInt256 {
    let mut r = mont_r(modulus);
    let mut i = 0;
    while i < 256 {
        r = mod_double(r, modulus);
        i += 1;
    }
    r
}

/// Computes `-modulus⁻¹ mod 2^64` (requires an odd modulus).
pub const fn mont_inv64(modulus: &BigInt256) -> u64 {
    // Newton iteration doubles the number of correct bits each round.
    let m0 = modulus.0[0];
    let mut inv = 1u64;
    let mut i = 0;
    while i < 63 {
        inv = inv.wrapping_mul(inv);
        inv = inv.wrapping_mul(m0);
        i += 1;
    }
    inv.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = BigInt256([u64::MAX, 5, 0, 123]);
        let b = BigInt256([17, u64::MAX, 42, 9]);
        let (sum, carry) = a.add_with_carry(&b);
        assert_eq!(carry, 0);
        let (diff, borrow) = sum.sub_with_borrow(&b);
        assert_eq!(borrow, 0);
        assert_eq!(diff, a);
    }

    #[test]
    fn sub_underflow_borrows() {
        let (r, borrow) = BigInt256::ZERO.sub_with_borrow(&BigInt256::ONE);
        assert_eq!(borrow, 1);
        assert_eq!(r, BigInt256([u64::MAX; 4]));
    }

    #[test]
    fn shl1_carries_across_limbs() {
        let v = BigInt256([1 << 63, 0, 0, 1 << 63]);
        let (r, carry) = v.shl1();
        assert_eq!(carry, 1);
        assert_eq!(r, BigInt256([0, 1, 0, 0]));
    }

    #[test]
    fn shr_across_limbs() {
        let v = BigInt256([0, 2, 0, 0]); // 2^65
        assert_eq!(v.shr(1), BigInt256([0, 1, 0, 0]));
        assert_eq!(v.shr(2), BigInt256([1 << 63, 0, 0, 0]));
        assert_eq!(v.shr(65), BigInt256::ONE);
        assert_eq!(v.shr(66), BigInt256::ZERO);
    }

    #[test]
    fn num_bits_examples() {
        assert_eq!(BigInt256::ZERO.num_bits(), 0);
        assert_eq!(BigInt256::ONE.num_bits(), 1);
        assert_eq!(BigInt256([0, 1, 0, 0]).num_bits(), 65);
        assert_eq!(BigInt256([0, 0, 0, 1 << 63]).num_bits(), 256);
    }

    #[test]
    fn ordering_is_big_endian_on_limbs() {
        let lo = BigInt256([u64::MAX, 0, 0, 0]);
        let hi = BigInt256([0, 1, 0, 0]);
        assert!(lo < hi);
        assert!(hi > lo);
        assert_eq!(hi.cmp(&hi), core::cmp::Ordering::Equal);
    }

    #[test]
    fn mul_wide_small_values() {
        let a = BigInt256::from_u64(u64::MAX);
        let t = a.mul_wide(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(t[0], 1);
        assert_eq!(t[1], u64::MAX - 1);
        assert_eq!(t[2], 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let v = BigInt256([1, 2, 3, 4]);
        assert_eq!(BigInt256::from_le_bytes(&v.to_le_bytes()), v);
    }

    #[test]
    fn mont_inv64_is_negative_inverse() {
        let m = BigInt256([0x3c208c16d87cfd47, 0, 0, 0]);
        let inv = mont_inv64(&m);
        assert_eq!(m.0[0].wrapping_mul(inv), u64::MAX /* -1 mod 2^64 */);
        assert_eq!(m.0[0].wrapping_mul(inv).wrapping_add(1), 0);
    }
}

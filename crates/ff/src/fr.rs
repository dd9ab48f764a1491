//! The BN254 scalar field `Fr` (the SNARK "constraint field").
//!
//! `r = 21888242871839275222246405745257275088548364400416034343698204186575808495617`
//!
//! `r − 1 = 2²⁸·3²·13·…`: 2-adicity 28 and 3-adicity 2, so evaluation
//! domains come in every size `3ᵇ·2ᵏ` with `b ≤ 2` and `k ≤ 28`. The factor
//! of three lets a circuit just past a power of two run on `3·2ᵏ⁻¹` points
//! instead of `2ᵏ⁺¹` (the quick CIFAR-CNN: 98 304 rather than 131 072). The
//! paper's largest circuit, the 2 093 648-constraint MNIST-MLP, fits 2²¹
//! either way.

use crate::bigint::BigInt256;
use crate::fp::{Fp, FpParams};

/// Parameters of the BN254 scalar field.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct FrParams;

impl FpParams for FrParams {
    /// 0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001
    const MODULUS: BigInt256 = BigInt256([
        0x43e1f593f0000001,
        0x2833e84879b97091,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ]);
    const GENERATOR: u64 = 5;
    const TWO_ADICITY: u32 = 28;
    const THREE_ADICITY: u32 = 2;
}

/// An element of the BN254 scalar field.
pub type Fr = Fp<FrParams>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biguint::BigUint;
    use crate::traits::{Field, PrimeField};
    use rand::SeedableRng;

    const R_DEC: &str =
        "21888242871839275222246405745257275088548364400416034343698204186575808495617";

    #[test]
    fn modulus_matches_published_decimal() {
        let r = BigUint::from_limbs(&FrParams::MODULUS.0);
        assert_eq!(r.to_decimal(), R_DEC);
    }

    #[test]
    fn two_adicity_is_28() {
        let r_min_1 = BigUint::from_limbs(&FrParams::MODULUS.0).sub(&BigUint::one());
        let mut v = r_min_1;
        let mut s = 0;
        loop {
            let (q, rem) = v.div_rem_u64(2);
            if rem != 0 {
                break;
            }
            v = q;
            s += 1;
        }
        assert_eq!(s, 28);
    }

    #[test]
    fn three_adicity_is_2() {
        let mut v = BigUint::from_limbs(&FrParams::MODULUS.0).sub(&BigUint::one());
        let mut s = 0;
        loop {
            let (q, rem) = v.div_rem_u64(3);
            if rem != 0 {
                break;
            }
            v = q;
            s += 1;
        }
        assert_eq!(s, 2);
        assert_eq!(FrParams::THREE_ADICITY, s);
    }

    #[test]
    fn three_adic_root_has_exact_order() {
        let w = Fr::three_adic_root_of_unity();
        // w^9 == 1 but w^3 != 1: exact order 3² = 3^THREE_ADICITY
        assert!(w.pow(&[9]).is_one());
        assert!(!w.pow(&[3]).is_one());
        // its cube is the primitive cube root radix-3 butterflies use
        let cube_root = w.pow(&[3]);
        assert!(!cube_root.is_one());
        assert!(cube_root.pow(&[3]).is_one());
        assert_eq!(cube_root.square() + cube_root + Fr::one(), Fr::zero());
    }

    #[test]
    fn div_rem_u64_matches_biguint() {
        let m = FrParams::MODULUS;
        for d in [1u64, 2, 3, 9, 0xffff_ffff_ffff_fffb] {
            let (q, rem) = m.div_rem_u64(d);
            let (bq, brem) = BigUint::from_limbs(&m.0).div_rem_u64(d);
            assert_eq!(
                BigUint::from_limbs(&q.0).to_decimal(),
                bq.to_decimal(),
                "d = {d}"
            );
            assert_eq!(rem, brem, "d = {d}");
        }
    }

    #[test]
    fn two_adic_root_has_exact_order() {
        let w = Fr::two_adic_root_of_unity();
        // w^(2^28) == 1
        let mut x = w;
        for _ in 0..28 {
            x = x.square();
        }
        assert!(x.is_one());
        // w^(2^27) != 1 (primitivity)
        let mut y = w;
        for _ in 0..27 {
            y = y.square();
        }
        assert!(!y.is_one());
    }

    #[test]
    fn generator_is_nonresidue() {
        let g = Fr::multiplicative_generator();
        let half = FrParams::MODULUS.sub_with_borrow(&BigInt256::ONE).0.shr(1);
        assert_eq!(g.pow(&half.0), -Fr::one());
    }

    #[test]
    fn field_axioms_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let a = Fr::random(&mut rng);
            let b = Fr::random(&mut rng);
            assert_eq!((a + b) - b, a);
            assert_eq!(
                a * b * b.inverse().unwrap_or(Fr::one()),
                if b.is_zero() { a * b } else { a }
            );
        }
    }

    #[test]
    fn batch_inverse_matches_individual() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut v: Vec<Fr> = (0..33).map(|_| Fr::random(&mut rng)).collect();
        v[7] = Fr::zero(); // zeros must be skipped
        let expected: Vec<Fr> = v
            .iter()
            .map(|x| x.inverse().unwrap_or(Fr::zero()))
            .collect();
        Fr::batch_inverse(&mut v);
        for (got, want) in v.iter().zip(expected.iter()) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn from_u128_matches_composition() {
        let v: u128 = (1u128 << 100) + 12345;
        let direct = Fr::from_u128(v);
        let composed =
            Fr::from_u64((v >> 64) as u64) * Fr::from_u64(2).pow(&[64]) + Fr::from_u64(v as u64);
        assert_eq!(direct, composed);
    }
}

//! Concrete BN254 (alt_bn128) curve configurations.
//!
//! * `G1`: `y² = x³ + 3` over `Fq`, generator `(1, 2)`, cofactor 1.
//! * `G2`: `y² = x³ + 3/ξ` over `Fq2` (D-type twist, `ξ = 9 + u`), with the
//!   standard generator from EIP-197; cofactor > 1, so deserialization
//!   performs a subgroup check.
//!
//! The G2 generator coordinates are parsed from their published decimal
//! expansions and validated (curve equation + subgroup membership) in tests.

use crate::curve::{Affine, Projective, SwCurveConfig};
use zkrownn_ff::{BigUint, Cached, Field, Fq, Fq2, PrimeField};

/// BN254 G1 configuration.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct G1Config;

impl SwCurveConfig for G1Config {
    type BaseField = Fq;

    fn coeff_b() -> Fq {
        Fq::from_u64(3)
    }

    fn generator() -> Affine<Self> {
        Affine::new_unchecked(Fq::from_u64(1), Fq::from_u64(2))
    }

    const HAS_COFACTOR: bool = false;
    const NAME: &'static str = "G1";
}

/// BN254 G2 configuration (sextic twist over `Fq2`).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct G2Config;

fn fq_from_decimal(s: &str) -> Fq {
    let v = BigUint::from_decimal(s);
    Fq::from_bigint(zkrownn_ff::BigInt256(v.to_limbs::<4>())).expect("below modulus")
}

impl SwCurveConfig for G2Config {
    type BaseField = Fq2;

    fn coeff_b() -> Fq2 {
        static B: Cached<Fq2> = Cached::new();
        B.get_or_init(|| {
            // b' = 3/ξ  (D-type twist)
            Fq2::from_u64(3) * Fq2::xi().inverse().expect("ξ != 0")
        })
    }

    fn generator() -> Affine<Self> {
        static G: Cached<Affine<G2Config>> = Cached::new();
        G.get_or_init(|| {
            let x = Fq2::new(
                fq_from_decimal(
                    "10857046999023057135944570762232829481370756359578518086990519993285655852781",
                ),
                fq_from_decimal(
                    "11559732032986387107991004021392285783925812861821192530917403151452391805634",
                ),
            );
            let y = Fq2::new(
                fq_from_decimal(
                    "8495653923123431417604973247489272438418190587263600148770280649306958101930",
                ),
                fq_from_decimal(
                    "4082367875863433681332203403145435568316851327593401208105741076214120093531",
                ),
            );
            Affine::new_unchecked(x, y)
        })
    }

    const HAS_COFACTOR: bool = true;
    const NAME: &'static str = "G2";
}

/// A BN254 G1 point in affine coordinates.
pub type G1Affine = Affine<G1Config>;
/// A BN254 G1 point in Jacobian coordinates.
pub type G1Projective = Projective<G1Config>;
/// A BN254 G2 point in affine coordinates.
pub type G2Affine = Affine<G2Config>;
/// A BN254 G2 point in Jacobian coordinates.
pub type G2Projective = Projective<G2Config>;

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec::Vec;
    use rand::SeedableRng;
    use zkrownn_ff::Fr;

    #[test]
    fn g1_generator_on_curve() {
        assert!(G1Config::generator().is_on_curve());
    }

    #[test]
    fn g2_generator_on_curve() {
        assert!(G2Config::generator().is_on_curve());
    }

    #[test]
    fn generators_have_order_r() {
        let g1 = G1Config::generator().mul_bigint(&Fr::MODULUS.0);
        assert!(g1.is_identity());
        let g2 = G2Config::generator().mul_bigint(&Fr::MODULUS.0);
        assert!(g2.is_identity());
    }

    #[test]
    fn group_law_consistency_g1() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let g = G1Projective::generator();
        for _ in 0..10 {
            let a = Fr::random(&mut rng);
            let b = Fr::random(&mut rng);
            let lhs = g.mul_scalar(a) + g.mul_scalar(b);
            let rhs = g.mul_scalar(a + b);
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn group_law_consistency_g2() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let g = G2Projective::generator();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(g.mul_scalar(a) + g.mul_scalar(b), g.mul_scalar(a + b));
    }

    #[test]
    fn double_matches_add_self() {
        let g = G1Projective::generator();
        assert_eq!(g.double(), g.add(&g));
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let p = g.mul_scalar(Fr::random(&mut rng));
        assert_eq!(p.double(), p.add(&p));
    }

    #[test]
    fn mixed_add_matches_general_add() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(54);
        let g = G1Projective::generator();
        let p = g.mul_scalar(Fr::random(&mut rng));
        let q = g.mul_scalar(Fr::random(&mut rng));
        let q_aff = q.into_affine();
        let mut acc = p;
        acc.add_assign_mixed(&q_aff);
        assert_eq!(acc, p + q);
    }

    #[test]
    fn identity_edge_cases() {
        let id = G1Projective::identity();
        let g = G1Projective::generator();
        assert_eq!(id + g, g);
        assert_eq!(g + id, g);
        assert_eq!(g - g, id);
        assert_eq!(id.double(), id);
        let mut acc = G1Projective::identity();
        acc.add_assign_mixed(&G1Affine::identity());
        assert!(acc.is_identity());
    }

    #[test]
    fn batch_into_affine_matches_individual() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let g = G1Projective::generator();
        let mut pts: Vec<G1Projective> =
            (0..9).map(|_| g.mul_scalar(Fr::random(&mut rng))).collect();
        pts.push(G1Projective::identity());
        let batch = G1Projective::batch_into_affine(&pts);
        for (p, a) in pts.iter().zip(batch.iter()) {
            assert_eq!(p.into_affine(), *a);
        }
    }

    #[test]
    fn negation_in_affine_and_projective_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(56);
        let p = G1Projective::generator().mul_scalar(Fr::random(&mut rng));
        assert_eq!(p.neg().into_affine(), p.into_affine().neg());
        assert!((p + p.neg()).is_identity());
    }
}

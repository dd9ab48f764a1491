//! Property-based tests of the field axioms and encodings, across the full
//! tower (`Fq`, `Fr`, `Fq2`, `Fq6`, `Fq12`).

use proptest::prelude::*;
use zkrownn_ff::{BigInt256, BigUint, Field, Fq, Fq12, Fq2, Fq6, Fr, PrimeField, SquareRootField};

/// Strategy: a field element from four arbitrary limbs (reduced mod p by
/// multiplication in the field — `from_u64` products spread over the range).
fn arb_fq() -> impl Strategy<Value = Fq> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c, d)| {
        Fq::from_u64(a) * Fq::from_u64(b) + Fq::from_u64(c) * Fq::from_u64(d) + Fq::from_u64(1)
    })
}

fn arb_fr() -> impl Strategy<Value = Fr> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c, d)| {
        Fr::from_u64(a) * Fr::from_u64(b) + Fr::from_u64(c) * Fr::from_u64(d)
    })
}

fn arb_fq2() -> impl Strategy<Value = Fq2> {
    (arb_fq(), arb_fq()).prop_map(|(c0, c1)| Fq2::new(c0, c1))
}

fn arb_fq6() -> impl Strategy<Value = Fq6> {
    (arb_fq2(), arb_fq2(), arb_fq2()).prop_map(|(c0, c1, c2)| Fq6::new(c0, c1, c2))
}

fn arb_fq12() -> impl Strategy<Value = Fq12> {
    (arb_fq6(), arb_fq6()).prop_map(|(c0, c1)| Fq12::new(c0, c1))
}

macro_rules! field_axioms {
    ($name:ident, $strat:expr, $ty:ty) => {
        proptest! {
            #[test]
            fn $name((a, b, c) in ($strat, $strat, $strat)) {
                // additive/multiplicative commutativity & associativity
                prop_assert_eq!(a + b, b + a);
                prop_assert_eq!(a * b, b * a);
                prop_assert_eq!((a + b) + c, a + (b + c));
                prop_assert_eq!((a * b) * c, a * (b * c));
                // distributivity
                prop_assert_eq!(a * (b + c), a * b + a * c);
                // identities & inverses
                prop_assert_eq!(a + <$ty>::zero(), a);
                prop_assert_eq!(a * <$ty>::one(), a);
                prop_assert_eq!(a - a, <$ty>::zero());
                prop_assert_eq!(a + (-a), <$ty>::zero());
                if !a.is_zero() {
                    prop_assert_eq!(a * a.inverse().unwrap(), <$ty>::one());
                }
                // squaring consistency
                prop_assert_eq!(a.square(), a * a);
                prop_assert_eq!(a.double(), a + a);
            }
        }
    };
}

field_axioms!(fq_axioms, arb_fq(), Fq);
field_axioms!(fr_axioms, arb_fr(), Fr);
field_axioms!(fq2_axioms, arb_fq2(), Fq2);
field_axioms!(fq6_axioms, arb_fq6(), Fq6);
field_axioms!(fq12_axioms, arb_fq12(), Fq12);

proptest! {
    #[test]
    fn fq_bytes_roundtrip(a in arb_fq()) {
        prop_assert_eq!(Fq::from_le_bytes(&a.to_le_bytes()), Some(a));
    }

    #[test]
    fn fr_bigint_roundtrip(a in arb_fr()) {
        prop_assert_eq!(Fr::from_bigint(a.into_bigint()), Some(a));
    }

    #[test]
    fn fr_signed_embedding_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(Fr::from_i128(v as i128).to_i128(), Some(v as i128));
    }

    #[test]
    fn fq_sqrt_of_square(a in arb_fq()) {
        let r = a.square().sqrt().expect("squares have roots");
        prop_assert!(r == a || r == -a);
    }

    #[test]
    fn fq2_sqrt_of_square(a in arb_fq2()) {
        let sq = a.square();
        let r = sq.sqrt().expect("squares have roots");
        prop_assert_eq!(r.square(), sq);
    }

    #[test]
    fn fq12_frobenius_additivity(a in arb_fq12(), b in arb_fq12()) {
        // Frobenius is a field homomorphism
        prop_assert_eq!((a + b).frobenius_map(1), a.frobenius_map(1) + b.frobenius_map(1));
        prop_assert_eq!((a * b).frobenius_map(1), a.frobenius_map(1) * b.frobenius_map(1));
    }

    #[test]
    fn fr_pow_addition_law(a in arb_fr(), x in any::<u32>(), y in any::<u32>()) {
        // a^x · a^y = a^(x+y)
        let lhs = a.pow(&[x as u64]) * a.pow(&[y as u64]);
        let rhs = a.pow(&[x as u64 + y as u64]);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn bigint_add_sub_roundtrip(a in any::<[u64; 4]>(), b in any::<[u64; 4]>()) {
        let x = BigInt256(a);
        let y = BigInt256(b);
        let (sum, carry) = x.add_with_carry(&y);
        let (back, borrow) = sum.sub_with_borrow(&y);
        prop_assert_eq!(back, x);
        prop_assert_eq!(carry, borrow);
    }

    #[test]
    fn halve_is_inverse_of_double(a in arb_fr()) {
        prop_assert_eq!(a.double().halve(), a);
        prop_assert_eq!(a.halve().double(), a);
    }
}

/// `a^exp` by `BigUint::modpow` on the canonical integers: right-to-left,
/// no Montgomery form, nothing shared with `Field::pow`.
fn modpow_oracle<F: PrimeField>(a: F, exp: &[u64]) -> F {
    let m = BigUint::from_limbs(&F::MODULUS.0);
    let r = BigUint::from_limbs(&a.into_bigint().0).modpow(&BigUint::from_limbs(exp), &m);
    F::from_bigint(BigInt256(r.to_limbs::<4>())).expect("modpow reduces mod p")
}

/// Plain left-to-right square-and-multiply over every bit of `exp`: the
/// reference for the extension fields, which have no integer oracle.
fn square_and_multiply<F: Field>(a: F, exp: &[u64]) -> F {
    let mut acc = F::one();
    for i in (0..64 * exp.len()).rev() {
        acc = acc.square();
        if (exp[i / 64] >> (i % 64)) & 1 == 1 {
            acc *= a;
        }
    }
    acc
}

/// Exponent lengths on either side of each limb boundary and of the
/// moduli's 254 bits.
const EXP_BITS: [usize; 18] = [
    0, 1, 2, 5, 6, 63, 64, 65, 127, 128, 129, 191, 192, 193, 253, 254, 255, 256,
];

/// An exponent of exactly `bits` significant bits: the low bits from
/// `limbs`, the top one set.
fn exponent_of(bits: usize, limbs: [u64; 4]) -> [u64; 4] {
    let mut e = [0u64; 4];
    for (i, limb) in e.iter_mut().enumerate() {
        let keep = bits.saturating_sub(64 * i).min(64);
        *limb = match keep {
            0 => 0,
            64 => limbs[i],
            k => limbs[i] & ((1u64 << k) - 1),
        };
    }
    if bits > 0 {
        e[(bits - 1) / 64] |= 1 << ((bits - 1) % 64);
    }
    e
}

/// Exponents whose shape sits on a limb edge or is unusually sparse or
/// dense: all-ones limbs, zero limbs above and below the set ones, lone top
/// bits, a set bit every five or six positions, and the exponents the crate
/// itself uses.
fn edge_exponents() -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = vec![
        vec![],
        vec![0],
        vec![0, 0, 0, 0],
        vec![u64::MAX],
        vec![u64::MAX; 2],
        vec![u64::MAX; 3],
        vec![u64::MAX; 4],
        vec![u64::MAX, 0, u64::MAX],
        vec![1, 0, 0, 0, 0],
        vec![u64::MAX, 0, 0, 0, 0, 0],
        vec![0, 1],
        vec![0, 0, 1],
        vec![0, 0, 0, 1 << 63],
        vec![1 << 63, 1 << 63, 1 << 63, 1 << 63],
        vec![0x8421_0842_1084_2108; 4],
        vec![0x0410_4104_1041_0410; 4],
        vec![0, 0, 0x1f, 0],
        vec![0x1f, 0, 0, 1],
    ];
    for m in [Fq::MODULUS, Fr::MODULUS] {
        out.push(m.0.to_vec());
        out.push(m.sub_with_borrow(&BigInt256::ONE).0 .0.to_vec());
        out.push(m.sub_with_borrow(&BigInt256::from_u64(2)).0 .0.to_vec());
        out.push(m.add_with_carry(&BigInt256::ONE).0.shr(2).0.to_vec());
    }
    out
}

#[test]
fn pow_matches_the_oracles_on_edge_exponents() {
    let fq = Fq::from_u64(0x1234_5678_9abc_def0).square() + Fq::from_u64(7);
    let fr = Fr::from_u64(0x0fed_cba9_8765_4321).square() + Fr::from_u64(11);
    let fq2 = Fq2::new(fq, fq.square() + Fq::one());
    let fq12 = Fq12::new(
        Fq6::new(fq2, fq2.square(), fq2 + Fq2::one()),
        Fq6::new(fq2.double(), -fq2, fq2 * fq2.square()),
    );
    for exp in edge_exponents() {
        assert_eq!(fq.pow(&exp), modpow_oracle(fq, &exp), "Fq, exp {exp:x?}");
        assert_eq!(fr.pow(&exp), modpow_oracle(fr, &exp), "Fr, exp {exp:x?}");
        assert_eq!(
            fq2.pow(&exp),
            square_and_multiply(fq2, &exp),
            "Fq2, exp {exp:x?}"
        );
        assert_eq!(
            fq12.pow(&exp),
            square_and_multiply(fq12, &exp),
            "Fq12, exp {exp:x?}"
        );
        assert_eq!(
            Fq::zero().pow(&exp),
            modpow_oracle(Fq::zero(), &exp),
            "0^{exp:x?}"
        );
    }
}

proptest! {
    #[test]
    fn fq_pow_matches_modpow(a in arb_fq(), limbs in any::<[u64; 4]>()) {
        for bits in EXP_BITS {
            let e = exponent_of(bits, limbs);
            prop_assert_eq!(a.pow(&e), modpow_oracle(a, &e));
        }
        prop_assert_eq!(a.pow(&limbs), modpow_oracle(a, &limbs));
    }

    #[test]
    fn fr_pow_matches_modpow(a in arb_fr(), limbs in any::<[u64; 4]>()) {
        for bits in EXP_BITS {
            let e = exponent_of(bits, limbs);
            prop_assert_eq!(a.pow(&e), modpow_oracle(a, &e));
        }
        prop_assert_eq!(a.pow(&limbs), modpow_oracle(a, &limbs));
    }

    #[test]
    fn fq2_pow_matches_square_and_multiply(a in arb_fq2(), limbs in any::<[u64; 4]>()) {
        for bits in EXP_BITS {
            let e = exponent_of(bits, limbs);
            prop_assert_eq!(a.pow(&e), square_and_multiply(a, &e));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fq12_pow_matches_square_and_multiply(a in arb_fq12(), limbs in any::<[u64; 4]>()) {
        for bits in [63, 64, 65, 128, 254, 256] {
            let e = exponent_of(bits, limbs);
            prop_assert_eq!(a.pow(&e), square_and_multiply(a, &e));
        }
    }
}

fn big<F: PrimeField>(a: F) -> BigUint {
    BigUint::from_limbs(&a.into_bigint().0)
}

/// Checks `+`, `−`, `double` and `neg` on one pair against plain integer
/// arithmetic mod p on the canonical values.
fn check_add_sub_oracle<F: PrimeField>(a: F, b: F) {
    let m = BigUint::from_limbs(&F::MODULUS.0);
    let (x, y) = (big(a), big(b));
    assert_eq!(big(a + b), x.add(&y).div_rem(&m).1, "{a} + {b}");
    assert_eq!(big(a - b), x.add(&m).sub(&y).div_rem(&m).1, "{a} - {b}");
    assert_eq!(big(a.double()), x.add(&x).div_rem(&m).1, "2·{a}");
    assert_eq!(big(-a), m.sub(&x).div_rem(&m).1, "-{a}");
}

/// Canonical `v` as a field element (`v < p`).
fn canonical<F: PrimeField>(v: BigInt256) -> F {
    F::from_bigint(v).expect("below the modulus")
}

/// Pairs whose sum lands exactly at `p − 1`, `p`, `p + 1` and `2p − 2`,
/// and differences with `a < b`, `0 − 0` and `0 − (p − 1)`: the values on
/// either side of each reduction's subtract-or-not decision.
fn add_sub_edges<F: PrimeField>() {
    let p = F::MODULUS;
    let minus = |k: u64| p.sub_with_borrow(&BigInt256::from_u64(k)).0;
    let half = p.shr(1);
    let half_up = half.add_with_carry(&BigInt256::ONE).0;
    // (a, b) with a + b = p − 1, p, p + 1 and 2p − 2, then 0 − 0 and a < b
    let pairs: [(BigInt256, BigInt256); 10] = [
        (BigInt256::ZERO, minus(1)),
        (half, half),
        (BigInt256::ONE, minus(1)),
        (half, half_up),
        (BigInt256::from_u64(2), minus(1)),
        (half_up, half_up),
        (minus(1), minus(1)),
        (minus(2), BigInt256::ONE),
        (BigInt256::ZERO, BigInt256::ZERO),
        (BigInt256::from_u64(5), BigInt256([7, 0, 0, 1])),
    ];
    for (a, b) in pairs {
        let (a, b) = (canonical::<F>(a), canonical::<F>(b));
        check_add_sub_oracle(a, b);
        check_add_sub_oracle(b, a);
    }
    let zero = F::zero();
    check_add_sub_oracle(zero, canonical::<F>(minus(1)));
    assert_eq!(big(zero - canonical::<F>(minus(1))), BigUint::one());
    assert_eq!(big(canonical::<F>(minus(1)) + F::one()), BigUint::zero());
}

#[test]
fn add_sub_match_the_integer_oracle_at_the_reduction_edges() {
    add_sub_edges::<Fq>();
    add_sub_edges::<Fr>();
}

proptest! {
    #[test]
    fn fq_add_sub_match_the_integer_oracle(a in arb_fq(), b in arb_fq()) {
        check_add_sub_oracle(a, b);
    }

    #[test]
    fn fr_add_sub_match_the_integer_oracle(a in arb_fr(), b in arb_fr()) {
        check_add_sub_oracle(a, b);
    }
}

//! Pins the signed-digit batch-affine fixed-base kernel to the naive
//! double-and-add reference: for any window width, scalar count (so even
//! and uneven splits across cores) and scalar mix (including the
//! adversarial encodings the setup produces), every point of `mul_many`
//! must equal `scalar · base` computed bit by bit.

use proptest::prelude::*;
use rand::SeedableRng;
use zkrownn_curves::{FixedBaseTable, G1Affine, G1Projective, G2Projective};
use zkrownn_ff::{Field, Fr};

/// Deterministic but varied scalar soup: random field elements seasoned
/// with the edge encodings (0, ±1, small, r−small, all-window-boundaries).
fn scalar_soup(n: usize, seed: u64) -> Vec<Fr> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    let edges = [
        Fr::zero(),
        Fr::one(),
        -Fr::one(),
        Fr::from_u64(2),
        -Fr::from_u64(2),
        Fr::from_u64(u64::MAX),
        -Fr::from_u64(u64::MAX),
    ];
    for (i, e) in edges.iter().enumerate() {
        if i < out.len() {
            out[i] = *e;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mul_many_matches_double_and_add(
        log_n in 0u32..7,
        window in 2usize..15,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let g = G1Projective::generator();
        let table = FixedBaseTable::new(g, window);
        let scalars = scalar_soup(n, seed);
        let got = table.mul_many(&scalars);
        prop_assert_eq!(got.len(), scalars.len());
        for (s, p) in scalars.iter().zip(got.iter()) {
            // double-and-add over the canonical bigint — the reference
            prop_assert_eq!(*p, g.mul_scalar(*s).into_affine());
        }
    }

    #[test]
    fn single_mul_matches_double_and_add(window in 2usize..17, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = G1Projective::generator();
        let table = FixedBaseTable::new(g, window);
        let s = Fr::random(&mut rng);
        prop_assert_eq!(table.mul(s), g.mul_scalar(s));
    }
}

#[test]
fn mul_many_matches_double_and_add_n4096() {
    // the full-size deterministic case the proptest shrinks around: 4096
    // scalars at the setup's own suggested window, parallel split
    let g = G1Projective::generator();
    let n = 4096usize;
    let window = FixedBaseTable::<zkrownn_curves::G1Config>::suggested_window(n);
    let table = FixedBaseTable::new(g, window);
    let scalars = scalar_soup(n, 0x5e7);
    let got = table.mul_many(&scalars);
    let expected: Vec<G1Affine> = scalars
        .iter()
        .map(|s| g.mul_scalar(*s).into_affine())
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn g2_mul_many_matches_double_and_add() {
    let g = G2Projective::generator();
    let table = FixedBaseTable::new(g, 6);
    let scalars = scalar_soup(64, 0x9e2);
    let got = table.mul_many(&scalars);
    for (s, p) in scalars.iter().zip(got.iter()) {
        assert_eq!(*p, g.mul_scalar(*s).into_affine());
    }
}

//! Pins the signed-digit batch-affine Pippenger MSM to the naive
//! `Σ sᵢ·Pᵢ` reference, across sizes (up to 4096 in G1), both groups, and
//! adversarial scalar/point patterns that stress the recoding carry chain
//! and the batch-affine doubling/cancellation branches.

use proptest::prelude::*;
use zkrownn_curves::msm::msm;
use zkrownn_curves::{Affine, G1Projective, Projective, SwCurveConfig};
use zkrownn_ff::{Field, Fr};

fn naive<C: SwCurveConfig>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
    bases
        .iter()
        .zip(scalars)
        .fold(Projective::identity(), |acc, (b, s)| acc + b.mul_scalar(*s))
}

/// Deterministic pseudo-random scalars mixing full-width values with the
/// edge cases signed recoding must absorb: 0, ±1, single set bits at window
/// boundaries, and all-ones runs that maximize carry propagation.
fn stress_scalars(n: usize, seed: u64) -> Vec<Fr> {
    (0..n)
        .map(|i| match i % 7 {
            0 => Fr::zero(),
            1 => Fr::one(),
            2 => -Fr::one(),
            3 => Fr::from_u64(1u64 << (i % 64)),
            4 => -Fr::from_u64(u64::MAX),
            5 => Fr::from_u64(seed.wrapping_mul(i as u64) | 1).pow(&[257]),
            _ => Fr::from_u64(seed ^ i as u64) * Fr::from_u64(0x9e37_79b9_7f4a_7c15),
        })
        .collect()
}

/// Small multiples of the generator with duplicates and negations mixed in,
/// so buckets collect equal and opposite points.
fn stress_bases<C: SwCurveConfig>(n: usize, seed: u64) -> Vec<Affine<C>> {
    let g = Projective::<C>::generator();
    (0..n)
        .map(|i| {
            let k = (seed ^ (i as u64 / 3)) % 13 + 1;
            let p = g.mul_scalar(Fr::from_u64(k)).into_affine();
            if i % 5 == 4 {
                p.neg()
            } else {
                p
            }
        })
        .collect()
}

#[test]
fn g1_matches_naive_up_to_4096() {
    for (n, seed) in [(33usize, 1u64), (257, 2), (1024, 3), (4096, 4)] {
        let bases = stress_bases::<zkrownn_curves::G1Config>(n, seed);
        let scalars = stress_scalars(n, seed);
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars), "n = {n}");
    }
}

#[test]
fn g2_matches_naive_up_to_512() {
    for (n, seed) in [(17usize, 5u64), (130, 6), (512, 7)] {
        let bases = stress_bases::<zkrownn_curves::G2Config>(n, seed);
        let scalars = stress_scalars(n, seed);
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars), "n = {n}");
    }
}

#[test]
fn all_identical_points_hit_the_doubling_tree() {
    // every point equal: bucket reduction is pure doubling rounds
    let g = G1Projective::generator().into_affine();
    let n = 64;
    let bases = vec![g; n];
    let scalars = vec![Fr::from_u64(3); n];
    assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
}

#[test]
fn perfectly_cancelling_inputs_sum_to_identity() {
    let g = G1Projective::generator().into_affine();
    let bases = vec![g, g.neg(), g, g.neg()];
    let s = Fr::from_u64(41);
    let scalars = vec![s, s, s, s];
    assert!(msm(&bases, &scalars).is_identity());
}

/// Manual tuning harness for the window-size heuristic (not a correctness
/// test): `cargo test --release -p zkrownn-curves --test msm_reference -- \
/// --ignored --nocapture window_tuning_sweep`. The largest size is the quick
/// CNN's H query (98 303 terms); the 16-bit set is shaped like a quantized
/// network's assignment, which fills only the low windows.
#[test]
#[ignore]
fn window_tuning_sweep() {
    use std::time::Instant;
    use zkrownn_curves::msm::msm_bigint_with_window;
    use zkrownn_ff::{BigInt256, PrimeField};
    let g = G1Projective::generator();
    let max_n = 98_303usize;
    let mut multiples = Vec::with_capacity(max_n);
    let mut acc = g;
    for _ in 0..max_n {
        multiples.push(acc);
        acc += g;
    }
    let bases = Projective::batch_into_affine(&multiples);
    for (bits, n) in [(254, 4096), (254, 32768), (254, max_n), (16, max_n)] {
        let pairs: Vec<(zkrownn_curves::G1Affine, BigInt256)> = (0..n)
            .map(|i| {
                let s = if bits == 16 {
                    Fr::from_u64((i as u64).wrapping_mul(0x9e37_79b9) & 0xffff | 1)
                } else {
                    Fr::from_u64(i as u64 + 1).pow(&[0x1234_5678_9abc_def1])
                };
                (bases[i], s.into_bigint())
            })
            .collect();
        let mut reference = None;
        for c in 8..=16 {
            let t = Instant::now();
            let got = msm_bigint_with_window(&pairs, c);
            let dt = t.elapsed();
            println!("{bits:3}-bit  n = {n:6}  c = {c:2}  {dt:?}");
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(*r, got, "c = {c}"),
            }
        }
    }
}

fn arb_fr() -> impl Strategy<Value = Fr> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c, d)| {
        Fr::from_u64(a) * Fr::from_u64(b).pow(&[65537]) + Fr::from_u64(c) - Fr::from_u64(d)
    })
}

/// Scalars of one random width (1–64 bits) and either sign, like a
/// quantized network's assignment: the MSM recodes only the windows the
/// widest one fills.
fn arb_narrow_frs() -> impl Strategy<Value = Vec<Fr>> {
    (
        1u32..65,
        prop::collection::vec((any::<u64>(), any::<bool>()), 1..96),
    )
        .prop_map(|(width, raw)| {
            raw.into_iter()
                .map(|(v, negative)| {
                    let s = Fr::from_u64(v >> (64 - width));
                    if negative {
                        -s
                    } else {
                        s
                    }
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn g1_random_matches_naive(
        wide in prop::collection::vec(arb_fr(), 1..96),
        narrow in arb_narrow_frs(),
        seed in any::<u64>(),
    ) {
        for scalars in [wide, narrow] {
            let bases = stress_bases::<zkrownn_curves::G1Config>(scalars.len(), seed);
            prop_assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
        }
    }

    #[test]
    fn g2_random_matches_naive(
        scalars in prop::collection::vec(arb_fr(), 1..48),
        seed in any::<u64>(),
    ) {
        let bases = stress_bases::<zkrownn_curves::G2Config>(scalars.len(), seed);
        prop_assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
    }
}

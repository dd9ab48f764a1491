//! Pins the cached-[`ProverContext`] hot path to a throwaway context: under
//! fixed randomness the two must produce byte-identical proofs, and a
//! context reused across many proofs must keep doing so.

use proptest::prelude::*;
use rand::SeedableRng;
use zkrownn_ff::{Field, Fr};
use zkrownn_groth16::{
    create_proof_with_context_and_randomness, verify_proof, ProverContext, SetupContext, ToxicWaste,
};
use zkrownn_r1cs::{ConstraintSystem, ProvingSynthesizer};

/// A small but FFT-non-trivial system: a chain of `n` multiplications
/// `x_{i+1} = x_i · x_i + i`, with the last value public.
fn chain_system(n: usize, x0: u64) -> ProvingSynthesizer<Fr> {
    let mut cs = ProvingSynthesizer::<Fr>::new();
    let mut cur_val = Fr::from_u64(x0);
    let mut cur = cs.alloc_witness(|| Ok(cur_val)).unwrap();
    for i in 0..n {
        let next_val = cur_val * cur_val + Fr::from_u64(i as u64);
        let next = cs.alloc_witness(|| Ok(next_val)).unwrap();
        use zkrownn_r1cs::LinearCombination;
        let rhs =
            LinearCombination::from(next) + LinearCombination::constant(-Fr::from_u64(i as u64));
        cs.enforce(cur.into(), cur.into(), rhs);
        cur = next;
        cur_val = next_val;
    }
    let out = cs.alloc_instance(|| Ok(cur_val)).unwrap();
    cs.enforce(
        cur.into(),
        zkrownn_r1cs::LinearCombination::constant(Fr::one()),
        out.into(),
    );
    cs
}

fn toxic(seed: u64) -> ToxicWaste {
    ToxicWaste {
        alpha: Fr::from_u64(seed | 1),
        beta: Fr::from_u64(seed.wrapping_mul(3) | 1),
        gamma: Fr::from_u64(seed.wrapping_mul(5) | 1),
        delta: Fr::from_u64(seed.wrapping_mul(7) | 1),
        tau: Fr::from_u64(seed.wrapping_mul(11) | 1),
    }
}

#[test]
fn cached_context_is_byte_identical_to_uncached() {
    let cs = chain_system(37, 3);
    assert!(cs.is_satisfied().is_ok());
    let matrices = cs.to_matrices();
    let (pk, _) = SetupContext::new(matrices.clone()).generate_timed(&toxic(0xc0ffee));
    let z = cs.full_assignment();
    let ctx = ProverContext::for_cs(&cs);

    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for round in 0..5 {
        let r = Fr::random(&mut rng);
        let s = Fr::random(&mut rng);
        let throwaway = ProverContext::new(matrices.clone());
        let uncached = create_proof_with_context_and_randomness(&pk, &throwaway, &z, r, s);
        let cached = create_proof_with_context_and_randomness(&pk, &ctx, &z, r, s);
        assert_eq!(
            uncached.to_bytes(),
            cached.to_bytes(),
            "round {round}: cached context diverged from the uncached prover"
        );
        let publics = cs.instance_assignment()[1..].to_vec();
        assert!(verify_proof(&pk.vk, &cached, &publics).is_ok());
    }
}

#[test]
fn context_accessors_describe_the_circuit() {
    let cs = chain_system(10, 2);
    let ctx = ProverContext::for_cs(&cs);
    assert_eq!(ctx.matrices().num_constraints(), cs.num_constraints());
    // domain covers constraints + instance padding rows
    assert!(ctx.domain().size >= cs.num_constraints() + cs.num_instance_variables());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cached_and_uncached_agree_for_random_shapes(
        n in 1usize..48,
        x0 in 1u64..1000,
        seed in any::<u64>(),
    ) {
        let cs = chain_system(n, x0);
        prop_assert!(cs.is_satisfied().is_ok());
        let matrices = cs.to_matrices();
        let (pk, _) = SetupContext::new(matrices.clone()).generate_timed(&toxic(seed | 1));
        let z = cs.full_assignment();
        let ctx = ProverContext::for_cs(&cs);
        let r = Fr::from_u64(seed ^ 0xaaaa) + Fr::one();
        let s = Fr::from_u64(seed ^ 0x5555) + Fr::one();
        let throwaway = ProverContext::new(matrices.clone());
        let uncached = create_proof_with_context_and_randomness(&pk, &throwaway, &z, r, s);
        let cached = create_proof_with_context_and_randomness(&pk, &ctx, &z, r, s);
        prop_assert_eq!(uncached.to_bytes(), cached.to_bytes());
    }
}

#[test]
#[should_panic(expected = "assignment length mismatch")]
fn in_memory_adapters_reject_a_wrong_length_assignment() {
    // the one kernel's shape check, as the infallible adapters surface it:
    // a panic before the witness map or any MSM sees the short vector
    let cs = chain_system(5, 2);
    let (pk, _) = SetupContext::new(cs.to_matrices()).generate_timed(&toxic(0xbad));
    let ctx = ProverContext::for_cs(&cs);
    let mut z = cs.full_assignment();
    z.pop();
    create_proof_with_context_and_randomness(&pk, &ctx, &z, Fr::one(), Fr::one());
}

#[test]
#[should_panic(expected = "assignment length mismatch")]
fn the_public_witness_map_rejects_a_wrong_length_assignment() {
    // in release too, and for a long `z` as well as a short one: past the
    // check a short vector is an out-of-bounds index on a scoped thread
    // and a long one's tail is never read
    let cs = chain_system(5, 2);
    let mut z = cs.full_assignment();
    z.push(Fr::one());
    ProverContext::for_cs(&cs).witness_map(&z);
}

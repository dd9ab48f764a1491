//! Pins the cached-[`ProverContext`] hot path to a throwaway context: under
//! fixed randomness the two must produce byte-identical proofs, and a
//! context reused across many proofs must keep doing so.

use proptest::prelude::*;
use rand::SeedableRng;
use zkrownn_ff::{Field, Fr};
use zkrownn_groth16::{
    create_proof_with_context_and_randomness, verify_proof, ProverContext, ToxicWaste,
};
use zkrownn_r1cs::{
    Circuit, ConstraintSystem, LinearCombination, ProvingSynthesizer, SynthesisError,
};

/// A small but FFT-non-trivial system: a chain of `n` multiplications
/// `x_{i+1} = x_i · x_i + i`, with the last value public.
struct Chain {
    n: usize,
    x0: u64,
}

impl Circuit<Fr> for Chain {
    type Output = ();
    fn synthesize<CS: ConstraintSystem<Fr>>(&self, cs: &mut CS) -> Result<(), SynthesisError> {
        let mut cur_val = Fr::from_u64(self.x0);
        let mut cur = cs.alloc_witness(|| Ok(cur_val))?;
        for i in 0..self.n {
            let next_val = cur_val * cur_val + Fr::from_u64(i as u64);
            let next = cs.alloc_witness(|| Ok(next_val))?;
            let rhs = LinearCombination::from(next)
                + LinearCombination::constant(-Fr::from_u64(i as u64));
            cs.enforce(cur.into(), cur.into(), rhs);
            cur = next;
            cur_val = next_val;
        }
        let out = cs.alloc_instance(|| Ok(cur_val))?;
        cs.enforce(
            cur.into(),
            LinearCombination::constant(Fr::one()),
            out.into(),
        );
        Ok(())
    }
}

/// The chain's proving synthesis: its assignment, checked row by row.
fn witnessed(chain: &Chain) -> ProvingSynthesizer<Fr> {
    let mut cs = ProvingSynthesizer::new();
    chain.synthesize(&mut cs).unwrap();
    assert!(cs.is_satisfied().is_ok());
    cs
}

/// The chain's prover context, lowered through setup synthesis.
fn context(chain: &Chain) -> ProverContext {
    ProverContext::for_circuit(chain).unwrap()
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
    let chain = Chain { n: 37, x0: 3 };
    let cs = witnessed(&chain);
    let ctx = context(&chain);
    let matrices = ctx.matrices().clone();
    let (pk, _) = ctx.generate_timed(&toxic(0xc0ffee));
    let z = cs.full_assignment();

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
    let chain = Chain { n: 10, x0: 2 };
    let cs = witnessed(&chain);
    let ctx = context(&chain);
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
        let chain = Chain { n, x0 };
        let z = witnessed(&chain).full_assignment();
        let ctx = context(&chain);
        let matrices = ctx.matrices().clone();
        let (pk, _) = ctx.generate_timed(&toxic(seed | 1));
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
    let chain = Chain { n: 5, x0: 2 };
    let ctx = context(&chain);
    let (pk, _) = ctx.generate_timed(&toxic(0xbad));
    let mut z = witnessed(&chain).full_assignment();
    z.pop();
    create_proof_with_context_and_randomness(&pk, &ctx, &z, Fr::one(), Fr::one());
}

#[test]
#[should_panic(expected = "assignment length mismatch")]
fn the_public_witness_map_rejects_a_wrong_length_assignment() {
    // in release too, and for a long `z` as well as a short one: past the
    // check a short vector is an out-of-bounds index on a scoped thread
    // and a long one's tail is never read
    let chain = Chain { n: 5, x0: 2 };
    let mut z = witnessed(&chain).full_assignment();
    z.push(Fr::one());
    context(&chain).witness_map(&z);
}

#[test]
fn every_key_family_is_checked_before_any_msm() {
    // a key whose family lengths disagree with the circuit — e.g. an H
    // query generated over another evaluation domain — is refused by name
    // on the calling thread, not by `msm`'s generic length panic
    let chain = Chain { n: 5, x0: 2 };
    let ctx = context(&chain);
    let (pk, _) = ctx.generate_timed(&toxic(0x5a9e));
    let z = witnessed(&chain).full_assignment();
    assert_eq!(pk.h_query.len(), ctx.domain().size - 1);
    type Mutation = fn(&mut zkrownn_groth16::ProvingKey);
    let mutations: [(&str, Mutation); 5] = [
        ("a_query", |pk| pk.a_query.truncate(pk.a_query.len() - 1)),
        ("b_g1_query", |pk| pk.b_g1_query.push(pk.b_g1_query[0])),
        ("b_g2_query", |pk| {
            pk.b_g2_query.truncate(pk.b_g2_query.len() - 1)
        }),
        ("l_query", |pk| pk.l_query.push(pk.l_query[0])),
        ("h_query", |pk| pk.h_query.push(pk.h_query[0])),
    ];
    for (family, mutate) in mutations {
        let mut bad = pk.clone();
        mutate(&mut bad);
        let panic = std::panic::catch_unwind(|| {
            create_proof_with_context_and_randomness(&bad, &ctx, &z, Fr::one(), Fr::one())
        })
        .expect_err("a mis-shaped key must not prove");
        let message = panic
            .downcast_ref::<String>()
            .expect("a formatted assertion message");
        assert!(
            message.contains("proving key shape mismatch") && message.contains(family),
            "{family}: {message}"
        );
    }
}

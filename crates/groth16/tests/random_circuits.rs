//! Completeness and soundness checks over *randomly generated* R1CS
//! instances: any satisfiable system proves and verifies; mismatched
//! instances are rejected.

use proptest::prelude::*;
use rand::SeedableRng;
use zkrownn_ff::{Field, Fr};
use zkrownn_groth16::{create_proof, generate_parameters, verify_proof};
use zkrownn_r1cs::{
    Circuit, ConstraintSystem, LinearCombination, ProvingSynthesizer, SynthesisError, Variable,
};

/// A random satisfiable circuit: a chain of multiply/add gates over a mix
/// of instance and witness variables. Each draw from the seeded generator
/// is the same in every driver, so setup and proving synthesize one
/// circuit; the values ride beside the variables.
struct RandomCircuit {
    seed: u64,
    gates: usize,
    publics: usize,
}

impl RandomCircuit {
    /// The public inputs, from a proving synthesis.
    fn publics(&self) -> Vec<Fr> {
        let mut cs = ProvingSynthesizer::new();
        self.synthesize(&mut cs).unwrap();
        cs.instance_assignment()[1..].to_vec()
    }
}

impl Circuit<Fr> for RandomCircuit {
    type Output = ();
    fn synthesize<CS: ConstraintSystem<Fr>>(&self, cs: &mut CS) -> Result<(), SynthesisError> {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut pool: Vec<(Variable, Fr)> = Vec::new();
        for _ in 0..self.publics {
            let v = Fr::from_u64(rng.gen_range(0..1000));
            pool.push((cs.alloc_instance(|| Ok(v))?, v));
        }
        for _ in 0..3 {
            let v = Fr::from_u64(rng.gen_range(0..1000));
            pool.push((cs.alloc_witness(|| Ok(v))?, v));
        }
        for _ in 0..self.gates {
            let (a, a_val) = pool[rng.gen_range(0..pool.len())];
            let (b, b_val) = pool[rng.gen_range(0..pool.len())];
            let coeff = Fr::from_u64(rng.gen_range(1..50));
            let offset = Fr::from_u64(rng.gen_range(0..10));
            let a_lc =
                LinearCombination::from(a).scale(coeff) + LinearCombination::constant(offset);
            let product = (a_val * coeff + offset) * b_val;
            let out = cs.alloc_witness(|| Ok(product))?;
            cs.enforce(a_lc, b.into(), out.into());
            pool.push((out, product));
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_satisfiable_circuits_prove_and_verify(
        seed in 0u64..1000,
        gates in 1usize..12,
        publics in 0usize..4,
    ) {
        let circuit = RandomCircuit { seed, gates, publics };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcd);
        let pk = generate_parameters(&circuit, &mut rng).unwrap();
        // refused with the row if any gate were unsatisfied
        let proof = create_proof(&pk, &circuit, &mut rng).unwrap();
        prop_assert!(verify_proof(&pk.vk, &proof, &circuit.publics()).is_ok());
    }

    #[test]
    fn perturbed_public_inputs_are_rejected(seed in 0u64..1000) {
        let circuit = RandomCircuit { seed, gates: 4, publics: 2 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1234);
        let pk = generate_parameters(&circuit, &mut rng).unwrap();
        let proof = create_proof(&pk, &circuit, &mut rng).unwrap();
        let mut publics = circuit.publics();
        publics[0] += Fr::one();
        prop_assert!(verify_proof(&pk.vk, &proof, &publics).is_err());
    }

    #[test]
    fn proofs_do_not_transfer_between_circuits(seed in 0u64..500) {
        // a proof for circuit A must not verify under circuit B's key
        let circuit_a = RandomCircuit { seed, gates: 3, publics: 1 };
        let circuit_b = RandomCircuit { seed: seed + 1, gates: 3, publics: 1 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x77);
        let pk_a = generate_parameters(&circuit_a, &mut rng).unwrap();
        let pk_b = generate_parameters(&circuit_b, &mut rng).unwrap();
        let proof_a = create_proof(&pk_a, &circuit_a, &mut rng).unwrap();
        prop_assert!(verify_proof(&pk_b.vk, &proof_a, &circuit_b.publics()).is_err());
    }
}

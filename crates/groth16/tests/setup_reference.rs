//! Pins the parallel batch-affine keygen to a serial per-point reference:
//! under fixed toxic randomness, the proving key produced through the
//! `ProverContext` hot path (signed-digit fixed-base tables, batch-affine
//! accumulation, chunks split across cores) must be *byte-identical* to keys
//! assembled one `scalar · G` double-and-add at a time. Mirrors
//! `prover_context.rs` on the prover side.

use proptest::prelude::*;
use rand::SeedableRng;
use zkrownn_curves::{Affine, G1Affine, G1Projective, G2Affine, G2Projective, SwCurveConfig};
use zkrownn_ff::{Field, Fr};
use zkrownn_groth16::qap;
use zkrownn_groth16::{
    create_proof_with_context_and_randomness, verify_proof, ProverContext, ProvingKey, ToxicWaste,
    VerifyingKey,
};
use zkrownn_r1cs::{
    Circuit, ConstraintSystem, LinearCombination, Matrix, ProvingSynthesizer, R1csMatrices,
    SetupSynthesizer, SynthesisError,
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

/// The chain's matrices, as setup synthesis lowers them.
fn matrices(chain: &Chain) -> R1csMatrices<Fr> {
    let mut cs = SetupSynthesizer::new();
    chain.synthesize(&mut cs).unwrap();
    cs.into_parts().0
}

/// The chain's proving synthesis: its assignment, checked row by row.
fn witnessed(chain: &Chain) -> ProvingSynthesizer<Fr> {
    let mut cs = ProvingSynthesizer::new();
    chain.synthesize(&mut cs).unwrap();
    assert!(cs.is_satisfied().is_ok());
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

/// One scalar at a time: generator double-and-add, per-point `into_affine`
/// — exactly the structure keygen had before the batch-affine overhaul.
fn serial_fixed_base<C: SwCurveConfig>(
    base: zkrownn_curves::Projective<C>,
    scalars: &[Fr],
) -> Vec<Affine<C>> {
    scalars
        .iter()
        .map(|s| base.mul_scalar(*s).into_affine())
        .collect()
}

/// The QAP polynomials at `τ` from their definition, a term at a time:
/// column `i` of a matrix interpolates to `Σⱼ M[j][i]·Lⱼ(τ)`, and `A`
/// carries one padding row per instance variable below the constraints.
fn reference_qap(matrices: &R1csMatrices<Fr>, tau: Fr) -> qap::QapEvaluations {
    let domain = qap::qap_domain(matrices);
    let lagrange = domain.lagrange_coefficients_at(tau);
    let columns = |matrix: Matrix<'_, Fr>| {
        let mut evals = vec![Fr::zero(); matrices.num_variables()];
        for (row, weight) in matrix.rows().zip(&lagrange) {
            for (col, coeff) in row.iter() {
                evals[col] += coeff * *weight;
            }
        }
        evals
    };
    let mut u = columns(matrices.a());
    for (i, padded) in u[..matrices.num_instance()].iter_mut().enumerate() {
        *padded += lagrange[matrices.num_constraints() + i];
    }
    qap::QapEvaluations {
        u,
        v: columns(matrices.b()),
        w: columns(matrices.c()),
        zt: domain.evaluate_vanishing_polynomial(tau),
    }
}

/// The pre-overhaul serial keygen, reconstructed from the QAP definition.
fn reference_keygen(matrices: &R1csMatrices<Fr>, toxic: &ToxicWaste) -> ProvingKey {
    let domain = qap::qap_domain(matrices);
    let qap = reference_qap(matrices, toxic.tau);
    let num_vars = matrices.num_variables();
    let ninstance = matrices.num_instance();
    let gamma_inv = toxic.gamma.inverse().unwrap();
    let delta_inv = toxic.delta.inverse().unwrap();

    let mut gamma_abc_scalars = Vec::new();
    let mut l_scalars = Vec::new();
    for i in 0..num_vars {
        let combined = toxic.beta * qap.u[i] + toxic.alpha * qap.v[i] + qap.w[i];
        if i < ninstance {
            gamma_abc_scalars.push(combined * gamma_inv);
        } else {
            l_scalars.push(combined * delta_inv);
        }
    }
    let mut h_scalars = Vec::new();
    let mut cur = qap.zt * delta_inv;
    for _ in 0..domain.size - 1 {
        h_scalars.push(cur);
        cur *= toxic.tau;
    }

    let g1 = G1Projective::generator();
    let g2 = G2Projective::generator();
    let one_g1 = |s: Fr| -> G1Affine { g1.mul_scalar(s).into_affine() };
    let one_g2 = |s: Fr| -> G2Affine { g2.mul_scalar(s).into_affine() };

    ProvingKey {
        vk: VerifyingKey {
            alpha_g1: one_g1(toxic.alpha),
            beta_g2: one_g2(toxic.beta),
            gamma_g2: one_g2(toxic.gamma),
            delta_g2: one_g2(toxic.delta),
            gamma_abc_g1: serial_fixed_base(g1, &gamma_abc_scalars),
        },
        beta_g1: one_g1(toxic.beta),
        delta_g1: one_g1(toxic.delta),
        a_query: serial_fixed_base(g1, &qap.u),
        b_g1_query: serial_fixed_base(g1, &qap.v),
        b_g2_query: serial_fixed_base(g2, &qap.v),
        h_query: serial_fixed_base(g1, &h_scalars),
        l_query: serial_fixed_base(g1, &l_scalars),
    }
}

#[test]
fn batch_affine_keygen_is_byte_identical_to_serial() {
    let matrices = matrices(&Chain { n: 37, x0: 3 });
    let reference = reference_keygen(&matrices, &toxic(0xdecade));
    let (fast, _) = ProverContext::new(matrices).generate_timed(&toxic(0xdecade));
    assert_eq!(
        fast.to_bytes(),
        reference.to_bytes(),
        "parallel batch-affine keygen diverged from the serial reference"
    );
}

#[test]
fn setup_context_feeds_both_keygen_and_prover() {
    // one lowered circuit generates the key and then proves, and a proof
    // through it verifies under the key it generated
    let chain = Chain { n: 25, x0: 4 };
    let cs = witnessed(&chain);
    let ctx = ProverContext::for_circuit(&chain).unwrap();
    let (pk, _) = ctx.generate_timed(&toxic(0xfeed));
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let (r, s) = (Fr::random(&mut rng), Fr::random(&mut rng));
    let proof = create_proof_with_context_and_randomness(&pk, &ctx, &cs.full_assignment(), r, s);
    let publics = cs.instance_assignment()[1..].to_vec();
    assert!(verify_proof(&pk.vk, &proof, &publics).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn keygen_matches_serial_for_random_shapes(
        n in 1usize..40,
        x0 in 1u64..1000,
        seed in any::<u64>(),
    ) {
        let matrices = matrices(&Chain { n, x0 });
        let tox = toxic(seed | 1);
        let reference = reference_keygen(&matrices, &tox);
        let (fast, _) = ProverContext::new(matrices).generate_timed(&tox);
        prop_assert_eq!(fast.to_bytes(), reference.to_bytes());
    }
}

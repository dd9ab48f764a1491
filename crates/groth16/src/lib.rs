//! # zkrownn-groth16 — the Groth16 zkSNARK over BN254
//!
//! A from-scratch implementation of the proof system the paper builds on
//! (the same one libsnark provides): circuit-specific trusted [`setup`],
//! a [`prover`] with constant-size (128-byte) proofs, and a millisecond
//! [`verifier`]. The R1CS→QAP reduction follows libsnark's instance-padding
//! construction.
//!
//! Both [`generate_parameters`] and [`create_proof`] take an
//! `impl Circuit<Fr>`: setup drives it through the witness-free
//! `SetupSynthesizer` (no value closure is ever evaluated; the one writer
//! of the matrices), proving through the `ProvingSynthesizer` too (the
//! dense assignment, checked row by row) — one circuit definition, two
//! modes, structurally identical by construction.
//!
//! Between them sits one value, the [`ProverContext`]: the lowered
//! circuit — what setup synthesis produces, and what keygen and every
//! proof read (the matrices, the evaluation domain with its twiddle tables,
//! the coset vanishing constant). An authority builds it once, generates
//! the key from it ([`ProverContext::generate_timed`]), and proves against
//! that key from the same value; the two wrappers above each build a
//! throwaway one.
//!
//! ```
//! use zkrownn_groth16::{generate_parameters, create_proof, verify_proof};
//! use zkrownn_r1cs::{assignment, Circuit, ConstraintSystem, SynthesisError};
//! use zkrownn_ff::{Field, Fr};
//! use rand::SeedableRng;
//!
//! // prove knowledge of a factorization of n without revealing it
//! struct Factors { n: u64, pq: Option<(u64, u64)> }
//! impl Circuit<Fr> for Factors {
//!     type Output = ();
//!     fn synthesize<CS: ConstraintSystem<Fr>>(
//!         &self,
//!         cs: &mut CS,
//!     ) -> Result<(), SynthesisError> {
//!         let n = cs.alloc_instance(|| Ok(Fr::from_u64(self.n)))?;
//!         let pq = self.pq;
//!         let p = cs.alloc_witness(|| assignment(pq.map(|(p, _)| Fr::from_u64(p))))?;
//!         let q = cs.alloc_witness(|| assignment(pq.map(|(_, q)| Fr::from_u64(q))))?;
//!         cs.enforce(p.into(), q.into(), n.into());
//!         Ok(())
//!     }
//! }
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // the setup side needs no witness at all…
//! let pk = generate_parameters(&Factors { n: 35, pq: None }, &mut rng)?;
//! // …the proving side supplies it
//! let proof = create_proof(&pk, &Factors { n: 35, pq: Some((5, 7)) }, &mut rng)?;
//! assert!(verify_proof(&pk.vk, &proof, &[Fr::from_u64(35)]).is_ok());
//! assert!(verify_proof(&pk.vk, &proof, &[Fr::from_u64(36)]).is_err());
//! # Ok::<(), zkrownn_r1cs::SynthesisError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(feature = "std"), no_std)]

extern crate alloc;

pub mod keys;
#[cfg(feature = "std")]
pub mod prover;
#[cfg(feature = "std")]
pub mod qap;
#[cfg(feature = "std")]
pub mod setup;
pub mod verifier;

pub use keys::{DecodeError, PreparedVerifyingKey, Proof, ProvingKey, VerifyingKey};
#[cfg(feature = "std")]
pub use prover::{
    assemble_proof, create_proof, create_proof_timed, create_proof_with_context_and_randomness,
    prove, KeySource, ProofSums, ProverContext, ProverTimings,
};
#[cfg(feature = "std")]
pub use setup::{
    generate_parameters, KeyCollector, KeyConstants, KeyFamily, KeySink, SetupContext,
    SetupTimings, ToxicWaste,
};
pub use verifier::{
    prepare_inputs, verify_proof, verify_proof_prepared, verify_proof_with_prepared_inputs,
    verify_proofs_batch_prepared, PreparedInputs, VerificationError,
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use zkrownn_ff::{Field, Fr};
    use zkrownn_r1cs::{assignment, Circuit, ConstraintSystem, LinearCombination, SynthesisError};

    /// A toy circuit: prove knowledge of x with x³ + x + 5 = y (y public).
    /// (The classic "cubic" example from the Pinocchio/Groth16 literature.)
    struct Cubic {
        /// The public evaluation y.
        y: u64,
        /// The witness x (absent on the setup side).
        x: Option<u64>,
    }

    impl Circuit<Fr> for Cubic {
        type Output = ();
        fn synthesize<CS: ConstraintSystem<Fr>>(&self, cs: &mut CS) -> Result<(), SynthesisError> {
            let y = cs.alloc_instance(|| Ok(Fr::from_u64(self.y)))?;
            let xv = self.x;
            let x = cs.alloc_witness(|| assignment(xv.map(Fr::from_u64)))?;
            let x2 = cs.alloc_witness(|| assignment(xv.map(|x| Fr::from_u64(x * x))))?;
            let x3 = cs.alloc_witness(|| assignment(xv.map(|x| Fr::from_u64(x * x * x))))?;
            cs.enforce(x.into(), x.into(), x2.into());
            cs.enforce(x2.into(), x.into(), x3.into());
            // (x3 + x + 5) * 1 = y
            let lhs = LinearCombination::from(x3).add_term(Fr::one(), x)
                + LinearCombination::constant(Fr::from_u64(5));
            cs.enforce(lhs, LinearCombination::constant(Fr::one()), y.into());
            Ok(())
        }
    }

    fn cubic(x_val: u64) -> Cubic {
        Cubic {
            y: x_val * x_val * x_val + x_val + 5,
            x: Some(x_val),
        }
    }

    #[test]
    fn prove_and_verify_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(131);
        // the setup side runs with no witness at all
        let pk = generate_parameters(
            &Cubic {
                y: 3 * 3 * 3 + 3 + 5,
                x: None,
            },
            &mut rng,
        )
        .unwrap();
        let proof = create_proof(&pk, &cubic(3), &mut rng).unwrap();
        let y = Fr::from_u64(3 * 3 * 3 + 3 + 5);
        assert!(verify_proof(&pk.vk, &proof, &[y]).is_ok());
    }

    #[test]
    fn setup_never_evaluates_any_value_closure() {
        // A circuit whose closures all panic: setup must complete, because
        // the SetupSynthesizer never calls them.
        struct Bomb;
        impl Circuit<Fr> for Bomb {
            type Output = ();
            fn synthesize<CS: ConstraintSystem<Fr>>(
                &self,
                cs: &mut CS,
            ) -> Result<(), SynthesisError> {
                let y = cs.alloc_instance(|| panic!("instance closure evaluated at setup"))?;
                let x = cs.alloc_witness(|| panic!("witness closure evaluated at setup"))?;
                cs.enforce(x.into(), x.into(), y.into());
                Ok(())
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(144);
        let pk = generate_parameters(&Bomb, &mut rng).unwrap();
        assert_eq!(pk.a_query.len(), 3); // 1 + y + x
    }

    #[test]
    fn proving_without_witness_errors_instead_of_panicking() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(145);
        let shape = Cubic { y: 35, x: None };
        let pk = generate_parameters(&shape, &mut rng).unwrap();
        assert_eq!(
            create_proof(&pk, &shape, &mut rng),
            Err(SynthesisError::AssignmentMissing)
        );
    }

    #[test]
    fn an_unsatisfied_circuit_is_refused_not_proved() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(146);
        let pk = generate_parameters(&Cubic { y: 35, x: None }, &mut rng).unwrap();
        // 3³ + 3 + 5 = 35: the last row, (x³ + x + 5) · 1 = y, fails
        assert_eq!(
            create_proof(&pk, &Cubic { y: 36, x: Some(3) }, &mut rng),
            Err(SynthesisError::Unsatisfied(2))
        );
    }

    #[test]
    fn wrong_public_input_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(132);
        let pk = generate_parameters(&cubic(3), &mut rng).unwrap();
        let proof = create_proof(&pk, &cubic(3), &mut rng).unwrap();
        assert_eq!(
            verify_proof(&pk.vk, &proof, &[Fr::from_u64(999)]),
            Err(VerificationError::InvalidProof)
        );
    }

    #[test]
    fn input_length_mismatch_detected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(133);
        let pk = generate_parameters(&cubic(2), &mut rng).unwrap();
        let proof = create_proof(&pk, &cubic(2), &mut rng).unwrap();
        assert!(matches!(
            verify_proof(&pk.vk, &proof, &[]),
            Err(VerificationError::InputLengthMismatch { .. })
        ));
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(134);
        let pk = generate_parameters(&cubic(4), &mut rng).unwrap();
        let proof = create_proof(&pk, &cubic(4), &mut rng).unwrap();
        let y = Fr::from_u64(4 * 4 * 4 + 4 + 5);
        // swap A and C (both G1): still valid points, wrong equation
        let tampered = Proof {
            a: proof.c,
            b: proof.b,
            c: proof.a,
        };
        assert!(verify_proof(&pk.vk, &tampered, &[y]).is_err());
    }

    #[test]
    fn proofs_are_randomized_but_both_verify() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(135);
        let pk = generate_parameters(&cubic(5), &mut rng).unwrap();
        let p1 = create_proof(&pk, &cubic(5), &mut rng).unwrap();
        let p2 = create_proof(&pk, &cubic(5), &mut rng).unwrap();
        assert_ne!(p1, p2, "zero-knowledge randomization");
        let y = Fr::from_u64(5 * 5 * 5 + 5 + 5);
        assert!(verify_proof(&pk.vk, &p1, &[y]).is_ok());
        assert!(verify_proof(&pk.vk, &p2, &[y]).is_ok());
    }

    #[test]
    fn proof_serialization_roundtrip_is_128_bytes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(136);
        let pk = generate_parameters(&cubic(6), &mut rng).unwrap();
        let proof = create_proof(&pk, &cubic(6), &mut rng).unwrap();
        let bytes = proof.to_bytes();
        assert_eq!(bytes.len(), Proof::SIZE);
        assert_eq!(Proof::from_bytes(&bytes), Ok(proof));
    }

    #[test]
    fn vk_serialization_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(137);
        let pk = generate_parameters(&cubic(2), &mut rng).unwrap();
        let bytes = pk.vk.to_bytes();
        assert_eq!(bytes.len(), pk.vk.serialized_size());
        assert_eq!(VerifyingKey::from_bytes(&bytes), Ok(pk.vk.clone()));
    }

    #[test]
    fn pk_serialization_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(138);
        let pk = generate_parameters(&cubic(2), &mut rng).unwrap();
        let bytes = pk.to_bytes();
        assert_eq!(bytes.len(), pk.serialized_size());
        assert_eq!(ProvingKey::from_bytes(&bytes), Ok(pk.clone()));
    }

    #[test]
    fn serialized_size_is_consistent_for_all_artifacts() {
        // `to_bytes().len() == serialized_size()` for the proof and both
        // keys, before and after a decode round-trip.
        let mut rng = rand::rngs::StdRng::seed_from_u64(141);
        let pk = generate_parameters(&cubic(5), &mut rng).unwrap();
        let proof = create_proof(&pk, &cubic(5), &mut rng).unwrap();

        assert_eq!(proof.to_bytes().len(), proof.serialized_size());
        assert_eq!(pk.vk.to_bytes().len(), pk.vk.serialized_size());
        assert_eq!(pk.to_bytes().len(), pk.serialized_size());

        let proof2 = Proof::from_bytes(&proof.to_bytes()).unwrap();
        let vk2 = VerifyingKey::from_bytes(&pk.vk.to_bytes()).unwrap();
        let pk2 = ProvingKey::from_bytes(&pk.to_bytes()).unwrap();
        assert_eq!(proof2.to_bytes().len(), proof2.serialized_size());
        assert_eq!(vk2.to_bytes().len(), vk2.serialized_size());
        assert_eq!(pk2.to_bytes().len(), pk2.serialized_size());
    }

    #[test]
    fn decode_errors_are_specific() {
        use zkrownn_curves::PointDecodeError;
        let mut rng = rand::rngs::StdRng::seed_from_u64(142);
        let pk = generate_parameters(&cubic(3), &mut rng).unwrap();
        let proof = create_proof(&pk, &cubic(3), &mut rng).unwrap();

        // truncation
        let bytes = proof.to_bytes();
        assert_eq!(
            Proof::from_bytes(&bytes[..100]),
            Err(DecodeError::LengthMismatch {
                expected: Proof::SIZE,
                got: 100
            })
        );
        assert_eq!(
            VerifyingKey::from_bytes(&[0u8; 3]),
            Err(DecodeError::Truncated { needed: 8, got: 3 })
        );

        // a proof whose B element is replaced by a valid-length chunk of
        // garbage fails with a point error at offset 32
        let mut bad = bytes.clone();
        bad[32..96].copy_from_slice(&[0xff; 64]);
        match Proof::from_bytes(&bad) {
            Err(DecodeError::Point { offset: 32, .. }) => {}
            other => panic!("expected point error at offset 32, got {other:?}"),
        }

        // a non-canonical infinity flag on A is named precisely
        let mut inf = bytes.clone();
        inf[31] = 0x80; // infinity flag, but x-limbs are non-zero
        assert_eq!(
            Proof::from_bytes(&inf),
            Err(DecodeError::Point {
                offset: 0,
                source: PointDecodeError::NonCanonicalInfinity
            })
        );

        // trailing bytes on a proving key are a length mismatch
        let mut pk_bytes = pk.to_bytes();
        let expected = pk_bytes.len();
        pk_bytes.push(0);
        assert_eq!(
            ProvingKey::from_bytes(&pk_bytes),
            Err(DecodeError::LengthMismatch {
                expected,
                got: expected + 1
            })
        );
    }

    #[test]
    fn hostile_lengths_error_instead_of_panicking() {
        // a VK header claiming 2^60 commitment points must not overflow the
        // size arithmetic or abort on allocation — just report a mismatch
        let mut vk_bytes = vec![0u8; 16];
        vk_bytes[0..8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            VerifyingKey::from_bytes(&vk_bytes),
            Err(DecodeError::LengthMismatch { .. })
        ));

        // same for a PK whose query-length headers are absurd
        let mut rng = rand::rngs::StdRng::seed_from_u64(143);
        let pk = generate_parameters(&cubic(2), &mut rng).unwrap();
        let mut pk_bytes = pk.to_bytes();
        pk_bytes[0..8].copy_from_slice(&(1u64 << 60).to_le_bytes()); // a_query len
        assert!(ProvingKey::from_bytes(&pk_bytes).is_err());
        pk_bytes[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ProvingKey::from_bytes(&pk_bytes).is_err());
    }

    #[test]
    fn batch_verification_accepts_valid_and_rejects_corrupt() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(140);
        let pk = generate_parameters(&cubic(3), &mut rng).unwrap();
        let pvk = pk.vk.prepare();
        let inputs = |y: u64| prepare_inputs(&pvk, &[Fr::from_u64(y)]).unwrap();
        let y = inputs(3 * 3 * 3 + 3 + 5);
        let batch: Vec<(Proof, PreparedInputs)> = (0..4)
            .map(|_| (create_proof(&pk, &cubic(3), &mut rng).unwrap(), y.clone()))
            .collect();
        assert!(verify_proofs_batch_prepared(&pvk, &batch, &mut rng).is_ok());
        // one corrupted proof poisons the batch
        let mut bad = batch.clone();
        bad[2].0.a = bad[0].0.c; // valid point, wrong proof element
        assert!(verify_proofs_batch_prepared(&pvk, &bad, &mut rng).is_err());
        // and a wrong public input does too
        let mut bad2 = batch.clone();
        bad2[1].1 = inputs(999);
        assert!(verify_proofs_batch_prepared(&pvk, &bad2, &mut rng).is_err());
        // empty batch is trivially fine
        assert!(verify_proofs_batch_prepared(&pvk, &[], &mut rng).is_ok());
    }

    /// The first RLC coefficient is fixed at 1: a batch of one draws
    /// nothing and is the plain check, and a bad proof is caught wherever
    /// it sits — in the undrawn slot as surely as in a drawn one.
    #[test]
    fn the_first_batch_coefficient_is_one() {
        struct Undrawn;
        impl rand::RngCore for Undrawn {
            fn next_u64(&mut self) -> u64 {
                panic!("a batch of one drew an RLC coefficient")
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(141);
        let pk = generate_parameters(&cubic(3), &mut rng).unwrap();
        let pvk = pk.vk.prepare();
        let inputs = prepare_inputs(&pvk, &[Fr::from_u64(3 * 3 * 3 + 3 + 5)]).unwrap();
        let batch: Vec<(Proof, PreparedInputs)> = (0..4)
            .map(|_| {
                let proof = create_proof(&pk, &cubic(3), &mut rng).unwrap();
                (proof, inputs.clone())
            })
            .collect();
        let negated = |i: usize| {
            let mut bad = batch.clone();
            bad[i].0.a = bad[i].0.a.neg();
            bad
        };
        for single in [&batch[..1], &negated(0)[..1]] {
            assert_eq!(
                verify_proofs_batch_prepared(&pvk, single, &mut Undrawn),
                verify_proof_with_prepared_inputs(&pvk, &single[0].0, &single[0].1)
            );
        }
        assert!(verify_proofs_batch_prepared(&pvk, &batch[..1], &mut Undrawn).is_ok());
        assert!(verify_proofs_batch_prepared(&pvk, &batch, &mut rng).is_ok());
        for i in [0, 2, 3] {
            assert!(
                verify_proofs_batch_prepared(&pvk, &negated(i), &mut rng).is_err(),
                "negated A at {i}"
            );
        }
    }

    #[test]
    fn deterministic_setup_is_reproducible() {
        let toxic = ToxicWaste {
            alpha: Fr::from_u64(11),
            beta: Fr::from_u64(12),
            gamma: Fr::from_u64(13),
            delta: Fr::from_u64(14),
            tau: Fr::from_u64(15),
        };
        // witness-free and witnessed shapes must yield identical keys
        let setup = |circuit: &Cubic| ProverContext::for_circuit(circuit).unwrap();
        let (pk1, _) = setup(&Cubic { y: 35, x: None }).generate_timed(&toxic);
        let (pk2, _) = setup(&cubic(3)).generate_timed(&toxic);
        assert_eq!(pk1, pk2);
    }

    #[test]
    fn streaming_keygen_reassembles_the_in_memory_key() {
        use setup::{KeyConstants, KeyFamily, KeySink};
        use zkrownn_curves::{G1Affine, G2Affine, MemoryBudget};

        /// A sink that just collects everything back into vectors.
        #[derive(Default)]
        struct Collector {
            constants: Option<KeyConstants>,
            families: Vec<(KeyFamily, Vec<G1Affine>, Vec<G2Affine>)>,
            announced: usize,
        }
        impl KeySink for Collector {
            type Error = core::convert::Infallible;
            fn constants(&mut self, c: &KeyConstants) -> Result<(), Self::Error> {
                self.constants = Some(*c);
                Ok(())
            }
            fn begin_family(&mut self, family: KeyFamily, len: usize) -> Result<(), Self::Error> {
                self.families.push((family, Vec::new(), Vec::new()));
                self.announced = len;
                Ok(())
            }
            fn g1_chunk(&mut self, points: &[G1Affine]) -> Result<(), Self::Error> {
                self.families
                    .last_mut()
                    .unwrap()
                    .1
                    .extend_from_slice(points);
                Ok(())
            }
            fn g2_chunk(&mut self, points: &[G2Affine]) -> Result<(), Self::Error> {
                self.families
                    .last_mut()
                    .unwrap()
                    .2
                    .extend_from_slice(points);
                Ok(())
            }
            fn end_family(&mut self, family: KeyFamily) -> Result<(), Self::Error> {
                let last = self.families.last().unwrap();
                assert_eq!(last.0, family);
                let got = if family.is_g2() {
                    last.2.len()
                } else {
                    last.1.len()
                };
                assert_eq!(got, self.announced, "family {:?} length", family);
                Ok(())
            }
        }

        let toxic = ToxicWaste {
            alpha: Fr::from_u64(21),
            beta: Fr::from_u64(22),
            gamma: Fr::from_u64(23),
            delta: Fr::from_u64(24),
            tau: Fr::from_u64(25),
        };
        let ctx = ProverContext::for_circuit(&Cubic { y: 35, x: None }).unwrap();
        let (pk, _) = ctx.generate_timed(&toxic);
        // a tiny budget forces many chunks (MIN_CHUNK floor: still ≥ 2
        // chunks for any family longer than 256)
        let mut sink = Collector::default();
        let timings = ctx
            .generate_into(&toxic, &mut sink, MemoryBudget::from_bytes(1))
            .unwrap();
        assert!(timings.total >= timings.commit);

        let c = sink.constants.expect("constants emitted first");
        assert_eq!(c.alpha_g1, pk.vk.alpha_g1);
        assert_eq!(c.beta_g1, pk.beta_g1);
        assert_eq!(c.delta_g1, pk.delta_g1);
        assert_eq!(c.beta_g2, pk.vk.beta_g2);
        assert_eq!(c.gamma_g2, pk.vk.gamma_g2);
        assert_eq!(c.delta_g2, pk.vk.delta_g2);
        let order: Vec<KeyFamily> = sink.families.iter().map(|f| f.0).collect();
        assert_eq!(order, KeyFamily::ALL.to_vec());
        for (family, g1, g2) in &sink.families {
            match family {
                KeyFamily::Ic => assert_eq!(g1, &pk.vk.gamma_abc_g1),
                KeyFamily::AQuery => assert_eq!(g1, &pk.a_query),
                KeyFamily::BG1Query => assert_eq!(g1, &pk.b_g1_query),
                KeyFamily::BG2Query => assert_eq!(g2, &pk.b_g2_query),
                KeyFamily::HQuery => assert_eq!(g1, &pk.h_query),
                KeyFamily::LQuery => assert_eq!(g1, &pk.l_query),
            }
        }
    }

    #[test]
    fn proof_with_instance_only_circuit() {
        // A circuit with no witness at all: 1 * y = y (tautology on input)
        struct Echo;
        impl Circuit<Fr> for Echo {
            type Output = ();
            fn synthesize<CS: ConstraintSystem<Fr>>(
                &self,
                cs: &mut CS,
            ) -> Result<(), SynthesisError> {
                let y = cs.alloc_instance(|| Ok(Fr::from_u64(9)))?;
                cs.enforce(LinearCombination::constant(Fr::one()), y.into(), y.into());
                Ok(())
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(139);
        let pk = generate_parameters(&Echo, &mut rng).unwrap();
        let proof = create_proof(&pk, &Echo, &mut rng).unwrap();
        assert!(verify_proof(&pk.vk, &proof, &[Fr::from_u64(9)]).is_ok());
    }
}

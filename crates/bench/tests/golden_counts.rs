//! Golden constraint-count regression tests for the Table I end-to-end
//! extraction circuits, via the counting synthesizer.
//!
//! The exact numbers below were captured from the quick-scale MNIST-MLP and
//! CIFAR10-CNN extraction circuits and must not drift silently: a gadget
//! edit that bloats (or shrinks) the circuits has to update these constants
//! *deliberately*, with the cost change called out in review. The counting
//! pass never evaluates a witness closure, so this also pins the shape the
//! witness-free setup driver sees.
//!
//! The evaluation domain each circuit's prover runs on is pinned too, with
//! the H query keygen sizes from it: the smallest `3ᵇ·2ᵏ` over the QAP's
//! rows (32 768 for the MLP's 30 659, 98 304 — not 2¹⁷ — for the CNN's
//! 88 355). These are the box-independent count behind the prover's FFT
//! and H-query MSM cost; like the constraint counts they move only
//! deliberately.
//!
//! The two `CircuitId`s are pinned beside the counts. They are the digest
//! of the `v1` setup trace — what every issued key, `.zkst` store and
//! ledger leaf is filed under — so unlike the counts they may **not** be
//! re-recorded by a change that only means to make the id cheaper to
//! compute: a different value here orphans every registered circuit and
//! needs a `trace.v2`.

use rand::SeedableRng;
use zkrownn::{Authority, ExtractionSpec};
use zkrownn_bench::{quick_cnn_spec, quick_mlp_spec};
use zkrownn_ff::Fr;
use zkrownn_r1cs::{Circuit, CountingSynthesizer};

/// (constraints, instance variables incl. the leading 1, witness variables)
const GOLDEN_MLP: (usize, usize, usize) = (27_553, 3_106, 27_767);
const GOLDEN_CNN: (usize, usize, usize) = (88_129, 226, 91_943);

/// The prover's evaluation-domain size.
const GOLDEN_MLP_DOMAIN: usize = 32_768;
const GOLDEN_CNN_DOMAIN: usize = 98_304;

const GOLDEN_MLP_ID: &str = "f62003b3255e63e594f34f6bb2fe173903a875636c0dab1ad8c5e745935fe849";
const GOLDEN_CNN_ID: &str = "faa37498f6c0279068b1e5d0a2d4f0fc43ce92d25966db19be7fc48db05996ca";

/// The id by every route a party takes to it: the owner's spec, the
/// public statement a verifier decodes, and the authority's setup — whose
/// prover kit also pins the evaluation domain and the H query sized by it.
fn assert_id_is_golden(spec: &ExtractionSpec, golden: &str, golden_domain: usize) {
    assert_eq!(spec.circuit_id().to_hex(), golden, "spec");
    assert_eq!(spec.statement().circuit_id().to_hex(), golden, "statement");
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let (prover, verifier) = Authority::setup(spec, &mut rng);
    assert_eq!(verifier.circuit_id().to_hex(), golden, "verifier kit");
    assert_eq!(prover.circuit_id().to_hex(), golden, "prover kit");
    let size = prover.context().domain().size;
    assert_eq!(size, golden_domain, "evaluation domain");
    assert_eq!(prover.proving_key().h_query.len(), size - 1, "H query");
}

fn count(circuit: &impl Circuit<Fr>) -> (usize, usize, usize) {
    let mut cs = CountingSynthesizer::<Fr>::new();
    circuit.synthesize(&mut cs).expect("counting never fails");
    (
        cs.num_constraints(),
        cs.num_instance_variables(),
        cs.num_witness_variables(),
    )
}

#[test]
fn mlp_extraction_circuit_counts_are_golden() {
    let spec = quick_mlp_spec();
    // the shape circuit carries no witness — counting must not need one
    assert_eq!(count(&spec.shape_circuit()), GOLDEN_MLP);
}

#[test]
fn cnn_extraction_circuit_counts_are_golden() {
    let spec = quick_cnn_spec();
    assert_eq!(count(&spec.shape_circuit()), GOLDEN_CNN);
}

#[test]
fn mlp_circuit_id_is_golden() {
    assert_id_is_golden(&quick_mlp_spec(), GOLDEN_MLP_ID, GOLDEN_MLP_DOMAIN);
}

#[test]
fn cnn_circuit_id_is_golden() {
    assert_id_is_golden(&quick_cnn_spec(), GOLDEN_CNN_ID, GOLDEN_CNN_DOMAIN);
}

#[test]
fn proving_mode_matches_the_golden_shape() {
    // the dense proving synthesis must agree with the counting pass
    let spec = quick_mlp_spec();
    let built = spec.build().expect("witnessed build");
    assert_eq!(
        (
            built.cs.num_constraints(),
            built.cs.num_instance_variables(),
            built.cs.num_witness_variables(),
        ),
        GOLDEN_MLP
    );
}

//! Verdict equivalence across every library entry point: one claim corpus,
//! one expected-verdict table (`support/verdict_corpus.rs`), and every way
//! of asking "is this claim valid?" — unbound and bound `VerifierKit`,
//! `KeyRegistry::verify`, `KeyRegistry::verify_batch` in several orders and
//! as singletons, and `zkrownn_verify` from bytes — must answer each claim
//! with the table's class. The coalescer's columns are checked against the
//! same table in `crates/service/tests/chaos.rs`.

#[path = "support/verdict_corpus.rs"]
mod verdict_corpus;

use rand::{Rng, SeedableRng};
use verdict_corpus::{corpus, unsynthesizable, Case, Class, Column};
use zkrownn::{Artifact, KeyRegistry, SignedClaim, VerifierKit, WireError, ZkrownnError};
use zkrownn_verifier::{zkrownn_verify, VerifyError};

/// Maps the byte-level verifier's error back onto the library's classes.
fn class_of_verify_error(result: Result<(), VerifyError>) -> Class {
    match result {
        Ok(()) => Class::Accepted,
        Err(VerifyError::NegativeVerdict) => Class::NegativeVerdict,
        Err(VerifyError::InvalidProof) => Class::InvalidProof,
        Err(VerifyError::CircuitMismatch { .. }) => Class::CircuitMismatch,
        Err(VerifyError::StatementMismatch) => Class::StatementMismatch,
        Err(decode) => panic!("corpus artifacts are well-formed, got {decode:?}"),
    }
}

fn assert_column(
    entry_point: &str,
    column: Column,
    cases: &[&Case],
    results: &[Result<(), ZkrownnError>],
) {
    assert_eq!(cases.len(), results.len(), "{entry_point}");
    for (case, result) in cases.iter().zip(results) {
        assert_eq!(
            Class::of(result),
            case.expected(column),
            "{entry_point} on the {} claim answered {result:?}",
            case.name
        );
    }
}

#[test]
fn every_entry_point_answers_the_table() {
    let corpus = corpus();
    let cases: Vec<&Case> = corpus.cases.iter().collect();
    let verify_each = |verify: &dyn Fn(&SignedClaim) -> Result<(), ZkrownnError>| {
        cases.iter().map(|c| verify(&c.claim)).collect::<Vec<_>>()
    };

    // the kits: a bound kit that drops the "proof names this circuit" check
    // would accept the wrong-registered-circuit claim (its statement is the
    // bound one and its pairing equation holds) — caught here
    let bound = &corpus.disputed;
    assert!(bound.expected_statement().is_some());
    assert_column(
        "bound VerifierKit::verify",
        Column::Bound,
        &cases,
        &verify_each(&|c| bound.verify(c)),
    );
    let unbound = VerifierKit::from_parts(bound.verifying_key().clone(), bound.circuit_id());
    assert_column(
        "unbound VerifierKit::verify",
        Column::Unbound,
        &cases,
        &verify_each(&|c| unbound.verify(c)),
    );

    // the byte-level verifier, from the disputed statement as trust anchor
    let vk_bytes = Artifact::to_bytes(bound.verifying_key());
    let honest = cases.iter().find(|c| c.name == "honest").unwrap();
    let statement_bytes = Artifact::to_bytes(&honest.claim.statement);
    for case in &cases {
        let verdict = zkrownn_verify(&vk_bytes, &statement_bytes, &case.claim.to_bytes());
        assert_eq!(
            class_of_verify_error(verdict.map(|_| ())),
            case.expected(Column::Bound),
            "zkrownn_verify on the {} claim",
            case.name
        );
    }

    // the registry: single claims, singleton batches, and whole batches
    let registry = KeyRegistry::new();
    assert!(registry.register_kit(&corpus.disputed));
    assert!(registry.register_kit(&corpus.bystander));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1302);
    assert_column(
        "KeyRegistry::verify",
        Column::Registry,
        &cases,
        &verify_each(&|c| registry.verify(c)),
    );
    let singletons: Vec<_> = cases
        .iter()
        .flat_map(|c| registry.verify_batch(std::slice::from_ref(&c.claim), &mut rng))
        .collect();
    assert_column("verify_batch of one", Column::Registry, &cases, &singletons);

    // the corpus in its own order (forgeries first), then three seeded
    // shuffles: the combined check fails and the fallback pinpoints
    let mut order: Vec<&Case> = cases.clone();
    for seed in 0..4u64 {
        let claims: Vec<SignedClaim> = order.iter().map(|c| c.claim.clone()).collect();
        let results = registry.verify_batch(&claims, &mut rng);
        assert_column(
            &format!("verify_batch, order {seed}"),
            Column::Registry,
            &order,
            &results,
        );
        let mut shuffle = rand::rngs::StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle.gen_range(0..=i));
        }
    }

    // without the forged positive the combined check clears its members
    order.retain(|c| c.name != "forged-positive");
    let claims: Vec<SignedClaim> = order.iter().map(|c| c.claim.clone()).collect();
    assert_column(
        "verify_batch, combined check clears",
        Column::Registry,
        &order,
        &registry.verify_batch(&claims, &mut rng),
    );
    assert_eq!(registry.preparations(), 2);
}

/// A claim whose statement cannot be synthesized is a *decode* error at
/// every byte-level entry point — never a verdict, never a panic in the
/// shape synthesis a verifier runs next (which is where each of these
/// used to land: they decoded field by field).
#[test]
fn unsynthesizable_statements_do_not_decode() {
    let corpus = corpus();
    let honest = corpus.cases.iter().find(|c| c.name == "honest").unwrap();
    let vk_bytes = Artifact::to_bytes(corpus.disputed.verifying_key());
    let statement_bytes = Artifact::to_bytes(&honest.claim.statement);
    for (name, claim) in unsynthesizable(&honest.claim) {
        let decoded = SignedClaim::from_bytes(&claim.to_bytes());
        assert!(
            matches!(decoded, Err(WireError::Malformed(_))),
            "{name}: {decoded:?}"
        );
        // the third party: as the claim, and as its own trust anchor
        let as_claim = zkrownn_verify(&vk_bytes, &statement_bytes, &claim.to_bytes());
        assert!(
            matches!(as_claim, Err(VerifyError::Claim(WireError::Malformed(_)))),
            "{name}: {as_claim:?}"
        );
        let own_statement = Artifact::to_bytes(&claim.statement);
        let as_anchor = zkrownn_verify(&vk_bytes, &own_statement, &claim.to_bytes());
        assert!(
            matches!(
                as_anchor,
                Err(VerifyError::Statement(WireError::Malformed(_)))
            ),
            "{name}: {as_anchor:?}"
        );
    }
}

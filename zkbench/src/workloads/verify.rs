//! `verify-cold` and `verify-warm`: one thread checking the corpus's
//! claims, 2 MLP : 1 CNN in the seeded order.
//!
//! Cold is the paper's third party with no state: `zkrownn_verify` from
//! the three artifacts' bytes, a pure function, so every claim pays key
//! decode, statement synthesis and the pairing check again and no cache
//! can act. Warm is the statement-bound kit built once in set-up: claim
//! decode plus the Groth16 check, no synthesis.

use std::time::Instant;

use zkrownn::{Artifact, OwnershipStatement, SignedClaim, ZkrownnError};
use zkrownn_bench::{peak_rss_bytes, reset_peak_rss};
use zkrownn_groth16::{PreparedVerifyingKey, VerifyingKey};
use zkrownn_verifier::{zkrownn_verify, VerifyError};

use super::{check_decomposed, tail_floor, warm_verify, Config, SetupCosts, Timed, Workload};
use crate::corpus::{about_another_model, tampered, Corpus, Dispute, Order, CYCLE};
use crate::trace::Tracer;

/// The workload; `cold` selects the stateless byte-level verifier.
pub struct Verify {
    /// Verify from bytes with no state instead of through a prepared kit.
    pub cold: bool,
}

impl Verify {
    /// The plain operation on one corpus claim.
    fn verify(&self, d: &Dispute, claim: &[u8]) -> bool {
        if self.cold {
            zkrownn_verify(&d.vk_bytes, &d.statement_bytes, claim)
                .is_ok_and(|verdict| verdict.ownership_established())
        } else {
            warm_verify(&d.verifier, claim).is_ok()
        }
    }
}

impl Workload for Verify {
    type Fixture = Corpus;

    fn name(&self) -> &'static str {
        if self.cold {
            "verify-cold"
        } else {
            "verify-warm"
        }
    }

    fn setup(&self, cfg: &Config) -> Corpus {
        let corpus = Corpus::build(cfg.seed);
        for d in [&corpus.mlp, &corpus.cnn] {
            assert!(self.verify(d, &d.claims[0]), "the warm-up claim verifies");
        }
        corpus
    }

    fn setup_costs(&self, corpus: &Corpus) -> SetupCosts {
        SetupCosts {
            keygen: corpus.cnn.keygen,
            prove: corpus.cnn.prove.clone(),
            pk_bytes: corpus.cnn.prover.proving_key().serialized_size() as u64,
            comm_bytes: corpus.comm_bytes(),
        }
    }

    fn timed(&self, corpus: &mut Corpus, cfg: &Config) -> Timed {
        let mut out = Timed::default();
        let budget = cfg.budget(tail_floor().next_multiple_of(CYCLE), 2 * CYCLE);
        let mut order = Order::new(cfg.seed, 0);
        reset_peak_rss();
        let start = Instant::now();
        // whole cycles only, so every sample holds the exact 2 : 1 mix
        while !budget.spent(start, out.verify_ms.len()) {
            for _ in 0..CYCLE {
                let (circuit, index) = order.next_claim();
                let d = corpus.dispute(circuit);
                let op = Instant::now();
                let ok = self.verify(d, &d.claims[index]);
                out.verify_ms
                    .push((circuit, op.elapsed().as_secs_f64() * 1e3));
                out.failed += u64::from(!ok);
            }
        }
        out.verify_elapsed_s = start.elapsed().as_secs_f64();
        out.peak_rss_bytes = peak_rss_bytes();
        out.attempted = out.verify_ms.len() as u64;
        out
    }

    fn gate_checks(&self) -> u64 {
        4
    }

    fn gate(&self, corpus: &mut Corpus) -> Vec<String> {
        let mut failures = Vec::new();
        for d in [&corpus.mlp, &corpus.cnn] {
            let tag = d.circuit.tag();
            let (forged, readdressed) = (tampered(&d.claims[0]), about_another_model(&d.claims[0]));
            if self.cold {
                let cold = |claim: &[u8]| zkrownn_verify(&d.vk_bytes, &d.statement_bytes, claim);
                if cold(&forged) != Err(VerifyError::InvalidProof) {
                    failures.push(format!("{tag}: negated A was not InvalidProof"));
                }
                if cold(&readdressed) != Err(VerifyError::StatementMismatch) {
                    failures.push(format!("{tag}: another model was not StatementMismatch"));
                }
            } else {
                if !matches!(
                    warm_verify(&d.verifier, &forged),
                    Err(ZkrownnError::InvalidProof(_))
                ) {
                    failures.push(format!("{tag}: negated A was not InvalidProof"));
                }
                if warm_verify(&d.verifier, &readdressed) != Err(ZkrownnError::StatementMismatch) {
                    failures.push(format!("{tag}: another model was not StatementMismatch"));
                }
            }
        }
        failures
    }

    fn traced(&self, corpus: &mut Corpus, cfg: &Config, tracer: &mut Tracer) -> (u64, u64) {
        // what the warm kit holds: the prepared key and the bound digest
        let warm: Vec<(PreparedVerifyingKey, Option<[u8; 32]>)> = [&corpus.mlp, &corpus.cnn]
            .map(|d| {
                (
                    d.verifier.verifying_key().prepare(),
                    d.verifier.expected_statement(),
                )
            })
            .into();
        let budget = cfg.budget(4 * CYCLE, 2 * CYCLE);
        let mut order = Order::new(cfg.seed, 0);
        let (mut attempted, mut failed) = (0u64, 0u64);
        let start = Instant::now();
        while !budget.spent(start, attempted as usize) {
            for _ in 0..CYCLE {
                let (circuit, index) = order.next_claim();
                let d = corpus.dispute(circuit);
                let claim_bytes = &d.claims[index];
                let ok = tracer.op(self.name(), circuit.tag(), |t| {
                    if self.cold {
                        cold_decomposed(t, d, claim_bytes)
                    } else {
                        let (pvk, bound) = &warm[circuit as usize];
                        let claim = t.span("core.decode_claim_ms", |_| {
                            SignedClaim::from_bytes(claim_bytes)
                        });
                        let Ok(claim) = claim else { return false };
                        let digest = t.span("core.statement_digest_ms", |_| {
                            claim.statement.content_digest()
                        });
                        Some(digest) == *bound
                            && claim.circuit_id() == d.verifier.circuit_id()
                            && check_decomposed(t, pvk, &claim)
                    }
                });
                attempted += 1;
                failed += u64::from(!ok);
            }
        }
        (attempted, failed)
    }

    fn corpus<'a>(&self, corpus: &'a Corpus) -> Option<&'a Corpus> {
        Some(corpus)
    }
}

/// `zkrownn_verify`, call by call.
fn cold_decomposed(t: &mut Tracer, d: &Dispute, claim_bytes: &[u8]) -> bool {
    let vk = t.span("core.decode_vk_ms", |_| {
        <VerifyingKey as Artifact>::from_bytes(&d.vk_bytes)
    });
    let statement = t.span("core.decode_statement_ms", |_| {
        OwnershipStatement::from_bytes(&d.statement_bytes)
    });
    let claim = t.span("core.decode_claim_ms", |_| {
        SignedClaim::from_bytes(claim_bytes)
    });
    let (Ok(vk), Ok(statement), Ok(claim)) = (vk, statement, claim) else {
        return false;
    };
    let id = t.span("core.statement_id_ms", |_| statement.circuit_id());
    let digest = t.span("core.statement_digest_ms", |_| statement.content_digest());
    let pvk = t.span("groth16.vk_prepare_ms", |_| vk.prepare());
    let claimed = t.span("core.statement_digest_ms", |_| {
        claim.statement.content_digest()
    });
    claimed == digest && claim.circuit_id() == id && check_decomposed(t, &pvk, &claim)
}

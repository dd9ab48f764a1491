//! `serve-closed`: the operator's view. An in-process authority
//! (`serve(ServerConfig::default(), …)`) answers two closed-loop claimants
//! over loopback, each blocking on its verdict before sending the next
//! claim, both drawing from the corpus in their own seeded 2 : 1 order.
//!
//! Two claimants because the box has two cores: the claimants, not the
//! scheduler, are what the latency should show. An open-loop rate sweep
//! would need more connections than cores and is left out on purpose.
//!
//! Nothing inside the service is instrumented, so the traced pass replays
//! what the server does for one `VERIFY` frame — codec, claim decode, the
//! registry's batch-of-one check — call by call in this thread, plus one
//! real `STATS` round trip for the transport and dispatch floor.

use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkrownn::{Artifact, SignedClaim};
use zkrownn_bench::{peak_rss_bytes, reset_peak_rss};
use zkrownn_groth16::{prepare_inputs, verify_proofs_batch_prepared, PreparedVerifyingKey};
use zkrownn_service::{
    encode_request, read_request, serve, Client, LedgeredRegistry, MetricsSnapshot, Request,
    RetryPolicy, RetryingClient, ServerConfig, ServerHandle, Status,
};

use super::{tail_floor, Config, ServerRows, SetupCosts, Timed, Workload};
use crate::corpus::{tampered, Circuit, Corpus, Order, CYCLE};
use crate::trace::Tracer;

/// Closed-loop claimants: one per core of the 2-core reference box.
pub const CLIENTS: usize = 2;

/// The workload.
pub struct Serve;

/// The corpus, and an authority serving its two circuits.
pub struct Fixture {
    corpus: Corpus,
    handle: ServerHandle,
}

impl Fixture {
    fn addr(&self) -> String {
        self.handle.addr().to_string()
    }
}

/// The CNN proof under the MLP statement: well-formed, but its parts
/// disagree about their circuit.
fn hybrid(corpus: &Corpus) -> Vec<u8> {
    let mut claim = SignedClaim::from_bytes(&corpus.cnn.claims[0]).expect("corpus claims decode");
    claim.statement = corpus.mlp.spec.statement();
    claim.to_bytes()
}

fn server_rows(before: &MetricsSnapshot, after: &MetricsSnapshot, retries: u64) -> ServerRows {
    let delta = |f: fn(&MetricsSnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    let served = delta(|m| m.latency_count());
    let batches = delta(|m| m.batches);
    ServerRows {
        latency_mean_ms: if served > 0.0 {
            delta(|m| m.latency_sum_us) / served / 1e3
        } else {
            0.0
        },
        mean_batch: if batches > 0.0 {
            delta(|m| m.batched_claims) / batches
        } else {
            0.0
        },
        // a maximum cannot be diffed; the warm-up's batches are of one
        batch_max: after.batch_max as f64,
        sheds: delta(|m| m.sheds),
        retries: retries as f64,
        degradations: delta(|m| m.degradations),
    }
}

impl Workload for Serve {
    type Fixture = Fixture;

    fn name(&self) -> &'static str {
        "serve-closed"
    }

    fn setup(&self, cfg: &Config) -> Fixture {
        let corpus = Corpus::build(cfg.seed);
        let registry = Arc::new(LedgeredRegistry::new());
        for d in [&corpus.mlp, &corpus.cnn] {
            registry.register_kit(&d.verifier);
        }
        let handle = serve(ServerConfig::default(), registry).expect("binding a loopback port");
        let fx = Fixture { corpus, handle };
        // warm the registry's statement path and the connection code
        let mut client = Client::connect(fx.handle.addr()).expect("the server just bound");
        for d in [&fx.corpus.mlp, &fx.corpus.cnn] {
            let response = client
                .verify_bytes(d.claims[0].clone())
                .expect("warm-up round trip");
            assert_eq!(response.status, Status::Ok, "the warm-up claim verifies");
        }
        fx
    }

    fn setup_costs(&self, fx: &Fixture) -> SetupCosts {
        let cnn = &fx.corpus.cnn;
        SetupCosts {
            keygen: cnn.keygen,
            prove: cnn.prove.clone(),
            pk_bytes: cnn.prover.proving_key().serialized_size() as u64,
            comm_bytes: fx.corpus.comm_bytes(),
        }
    }

    fn timed(&self, fx: &mut Fixture, cfg: &Config) -> Timed {
        let per_client = tail_floor().div_ceil(CLIENTS).next_multiple_of(CYCLE);
        let budget = cfg.budget(per_client, CYCLE);
        let addr = fx.addr();
        let corpus = &fx.corpus;
        let before = fx.handle.metrics().snapshot();
        reset_peak_rss();
        let start = Instant::now();
        // per claimant: latencies by circuit, wrong verdicts, retries taken
        type Claimant = (Vec<(Circuit, f64)>, u64, u64);
        let claimants: Vec<Claimant> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS as u64)
                .map(|c| {
                    let addr = addr.as_str();
                    scope.spawn(move || {
                        let mut client = RetryingClient::new(
                            addr,
                            RetryPolicy {
                                seed: cfg.seed ^ (0xb0b0 + c), // decorrelate backoffs
                                ..RetryPolicy::default()
                            },
                        );
                        let mut order = Order::new(cfg.seed, c + 1);
                        let (mut latencies, mut wrong) = (Vec::new(), 0u64);
                        while !budget.spent(start, latencies.len()) {
                            for _ in 0..CYCLE {
                                let (circuit, index) = order.next_claim();
                                let claim = corpus.dispute(circuit).claims[index].clone();
                                let op = Instant::now();
                                let response = client.verify_bytes(claim);
                                latencies.push((circuit, op.elapsed().as_secs_f64() * 1e3));
                                if !response.is_ok_and(|r| r.status == Status::Ok) {
                                    wrong += 1;
                                }
                            }
                        }
                        (latencies, wrong, client.retries())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a claimant panicked"))
                .collect()
        });
        let elapsed = start.elapsed();
        let after = fx.handle.metrics().snapshot();

        let mut out = Timed {
            verify_elapsed_s: elapsed.as_secs_f64(),
            peak_rss_bytes: peak_rss_bytes(),
            ..Timed::default()
        };
        let mut retries = 0;
        for (latencies, wrong, retried) in claimants {
            out.verify_ms.extend(latencies);
            out.failed += wrong;
            retries += retried;
        }
        out.attempted = out.verify_ms.len() as u64;
        out.server = Some(server_rows(&before, &after, retries));
        out
    }

    fn gate_checks(&self) -> u64 {
        2
    }

    fn gate(&self, fx: &mut Fixture) -> Vec<String> {
        let mut failures = Vec::new();
        let mut client = match Client::connect(fx.handle.addr()) {
            Ok(client) => client,
            Err(e) => return vec![format!("connecting for the gate: {e}")],
        };
        for (what, claim, expected) in [
            (
                "negated A",
                tampered(&fx.corpus.cnn.claims[0]),
                Status::InvalidProof,
            ),
            (
                "CNN proof under the MLP statement",
                hybrid(&fx.corpus),
                Status::CircuitMismatch,
            ),
        ] {
            match client.verify_bytes(claim) {
                Ok(r) if r.status == expected => {}
                other => failures.push(format!("{what}: expected {expected:?}, got {other:?}")),
            }
        }
        failures
    }

    fn traced(&self, fx: &mut Fixture, cfg: &Config, tracer: &mut Tracer) -> (u64, u64) {
        // what the registry holds per circuit
        let prepared: Vec<PreparedVerifyingKey> = [&fx.corpus.mlp, &fx.corpus.cnn]
            .map(|d| d.verifier.verifying_key().prepare())
            .into();
        let mut client = Client::connect(fx.handle.addr()).expect("the server is up");
        let mut rlc = StdRng::seed_from_u64(cfg.seed ^ 0x0072_6c63);
        let budget = cfg.budget(4 * CYCLE, 2 * CYCLE);
        let mut order = Order::new(cfg.seed, 0);
        let (mut attempted, mut failed) = (0u64, 0u64);
        let start = Instant::now();
        while !budget.spent(start, attempted as usize) {
            for _ in 0..CYCLE {
                let (circuit, index) = order.next_claim();
                let d = fx.corpus.dispute(circuit);
                let pvk = &prepared[circuit as usize];
                let ok = tracer.op(self.name(), circuit.tag(), |t| {
                    // the claimant's side: own the bytes, frame them
                    let frame = t.span("service.encode_request_us", |_| {
                        encode_request(&Request::Verify(d.claims[index].clone()))
                    });
                    // socket, worker wake-up, dispatch and the reply
                    let stats = t.span("service.stats_roundtrip_us", |_| client.stats_json());
                    // the worker's side: unframe, decode, verify as a batch of one
                    let request = t.span("service.read_request_us", |_| {
                        read_request(&mut Cursor::new(&frame))
                    });
                    let Ok(Some(Request::Verify(payload))) = request else {
                        return false;
                    };
                    let claim = t.span("core.decode_claim_ms", |_| {
                        SignedClaim::from_bytes(&payload)
                    });
                    let Ok(claim) = claim else { return false };
                    // the registry keys its per-batch statement cache by digest
                    t.span("core.statement_digest_ms", |_| {
                        claim.statement.content_digest()
                    });
                    let id = t.span("core.statement_id_ms", |_| claim.statement.circuit_id());
                    let inputs = t.span("core.public_inputs_ms", |_| {
                        claim.statement.public_inputs(claim.proof.verdict)
                    });
                    let folded = t.span("groth16.prepare_inputs_ms", |_| {
                        prepare_inputs(pvk, &inputs)
                    });
                    let Ok(folded) = folded else { return false };
                    let batch = [(claim.proof.proof.clone(), folded)];
                    let sound = t.span("groth16.batch_verify_ms", |_| {
                        verify_proofs_batch_prepared(pvk, &batch, &mut rlc)
                    });
                    stats.is_ok()
                        && id == claim.circuit_id()
                        && id == d.verifier.circuit_id()
                        && sound.is_ok()
                        && claim.verdict()
                });
                attempted += 1;
                failed += u64::from(!ok);
            }
        }
        (attempted, failed)
    }

    fn corpus<'a>(&self, fx: &'a Fixture) -> Option<&'a Corpus> {
        Some(&fx.corpus)
    }

    fn teardown(&self, fx: Fixture) {
        fx.handle.shutdown_and_join();
    }
}

//! Chaos and recovery tests for the daemon: crash-recovery key loading,
//! load shedding with client-side retry, batch-poisoning degradation,
//! graceful drain of in-flight frames, and a seeded sweep of socket
//! fault plans. The robustness contract under test, per ISSUE: no panic,
//! no incorrect verdict under faults, and the daemon restarts cleanly
//! after every plan.

#[path = "../../../tests/support/verdict_corpus.rs"]
mod verdict_corpus;

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rand::SeedableRng;
use zkrownn::{
    Artifact, Authority, CircuitId, ExtractionSpec, MemoryBudget, QuantLayer, QuantizedModel,
    SignedClaim, ZkrownnError,
};
use zkrownn_faults::FaultPlan;
use zkrownn_gadgets::FixedConfig;
use zkrownn_groth16::VerifyingKey;
use zkrownn_service::{
    encode_request, load_keys_dir, read_response, registration_bytes, serve, Client, Coalescer,
    CoalescerConfig, LedgeredRegistry, Metrics, Request, RetryPolicy, RetryingClient, ServerConfig,
    ServerHandle, Status,
};

/// Same tiny deterministic extraction circuit the e2e suite uses.
fn tiny_spec(signature: Vec<bool>) -> ExtractionSpec {
    let cfg = FixedConfig::default();
    let model = QuantizedModel {
        layers: vec![
            QuantLayer::Dense {
                in_dim: 2,
                out_dim: 2,
                w: vec![cfg.encode(0.5); 4],
                b: vec![0; 2],
            },
            QuantLayer::ReLU,
        ],
        input_len: 2,
        cfg,
    };
    ExtractionSpec {
        model,
        triggers: vec![vec![cfg.encode(1.0); 2]; 2],
        projection: vec![cfg.encode(0.25); 2 * signature.len()],
        signature,
        max_errors: 0,
        fold_average: false,
        cfg,
    }
}

struct Fixture {
    id: [u8; 32],
    statement_digest: [u8; 32],
    vk_bytes: Vec<u8>,
    /// Honest claims (verdict 1, verify under `vk`).
    claims: Vec<SignedClaim>,
    /// Same circuit id, different toxic waste — fails the pairing check.
    forged: Vec<SignedClaim>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let spec = tiny_spec(vec![true; 4]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(901);
        let (prover, verifier) = Authority::setup(&spec, &mut rng);
        let claims = (0..6)
            .map(|_| prover.prove(&mut rng).expect("honest claim"))
            .collect();

        let mut rng2 = rand::rngs::StdRng::seed_from_u64(88_888);
        let (forged_prover, forged_verifier) = Authority::setup(&spec, &mut rng2);
        assert_eq!(forged_verifier.circuit_id(), verifier.circuit_id());
        let forged = (0..4)
            .map(|_| forged_prover.prove(&mut rng2).expect("forged claim proves"))
            .collect();

        Fixture {
            id: *verifier.circuit_id().as_bytes(),
            statement_digest: prover.statement().content_digest(),
            vk_bytes: Artifact::to_bytes(verifier.verifying_key()),
            claims,
            forged,
        }
    })
}

fn fixture_vk() -> VerifyingKey {
    Artifact::from_bytes(&fixture().vk_bytes).expect("fixture vk decodes")
}

fn test_registry() -> Arc<LedgeredRegistry> {
    let f = fixture();
    let registry = Arc::new(LedgeredRegistry::new());
    registry.register(
        CircuitId::from_bytes(f.id),
        f.statement_digest,
        &fixture_vk(),
    );
    registry
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        frame_deadline: Duration::from_millis(300),
        poll_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    }
}

fn join_within(handle: ServerHandle, timeout: Duration) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(timeout)
        .expect("server threads did not exit in time");
}

/// Crash-recovery e2e: a key directory holding good `.vk` files, a good
/// `.zkst` store, one *truncated* store (the crash), and a stale staging
/// file. Startup must serve the survivors, quarantine the corpse, and
/// produce the exact ledger root a clean directory of only-survivors
/// yields — on the first start and again on the "restarted" second start.
#[test]
fn startup_recovers_from_a_truncated_store_and_serves_survivors() {
    let base = std::env::temp_dir().join(format!("zkrownn-chaos-keys-{}", std::process::id()));
    let dir = base.join("crashed");
    let clean = base.join("clean");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::create_dir_all(&clean).unwrap();

    let vk = fixture_vk();
    for i in 0..3u8 {
        let bytes = registration_bytes(CircuitId::from_bytes([0x50 + i; 32]), [i; 32], &vk);
        std::fs::write(dir.join(format!("key-{i}.vk")), &bytes).unwrap();
        std::fs::write(clean.join(format!("key-{i}.vk")), &bytes).unwrap();
    }
    let statement = tiny_spec(vec![true; 4]).statement();
    let store_path = dir.join("key-4.zkst");
    let mut rng = rand::rngs::StdRng::seed_from_u64(733);
    Authority::setup_statement_stored(&statement, &store_path, &mut rng, MemoryBudget::from_mb(8))
        .expect("streaming setup writes the store");
    std::fs::copy(&store_path, clean.join("key-4.zkst")).unwrap();

    // the crash victims: a store truncated mid-file, and a staging file
    // an interrupted writer left behind
    let good_bytes = std::fs::read(&store_path).unwrap();
    std::fs::write(dir.join("key-3.zkst"), &good_bytes[..good_bytes.len() / 2]).unwrap();
    std::fs::write(dir.join("key-9.zkst.tmp"), &good_bytes[..64]).unwrap();

    let registry = test_registry();
    let report = load_keys_dir(&registry, &dir, false).unwrap();
    assert_eq!(report.loaded, 4, "3 vk files + 1 good store");
    assert_eq!(report.quarantined.len(), 1);
    assert!(report.quarantined[0].0.ends_with("key-3.zkst"));
    assert_eq!(report.stale_tmp, 1);
    assert!(
        dir.join("key-3.zkst.corrupt").exists(),
        "the corpse was renamed out of the load path"
    );
    assert!(!dir.join("key-3.zkst").exists());

    // root over survivors must equal a clean load of only the survivors
    let clean_registry = test_registry();
    let clean_report = load_keys_dir(&clean_registry, &clean, false).unwrap();
    assert_eq!(clean_report.loaded, 4);
    assert!(clean_report.quarantined.is_empty());
    assert_eq!(
        registry.current_root().root,
        clean_registry.current_root().root,
        "a quarantined file must not perturb the survivors' ledger root"
    );

    // the recovered registry actually serves claims over the socket
    let handle = serve(test_config(), Arc::clone(&registry)).expect("server binds");
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.verify(&fixture().claims[0]).unwrap();
    assert_eq!(response.status, Status::Ok);
    handle.shutdown_and_join();

    // "restart": a second boot of the same directory finds the corpse
    // already quarantined and reproduces the identical root
    let second = test_registry();
    let report2 = load_keys_dir(&second, &dir, false).unwrap();
    assert_eq!(report2.loaded, 4);
    assert!(report2.quarantined.is_empty(), "quarantine is sticky");
    assert_eq!(second.current_root().root, registry.current_root().root);

    // strict mode refuses the same directory outright
    let strict_dir = base.join("strict");
    std::fs::create_dir_all(&strict_dir).unwrap();
    std::fs::write(strict_dir.join("bad.zkst"), &good_bytes[..40]).unwrap();
    assert!(
        load_keys_dir(&test_registry(), &strict_dir, true).is_err(),
        "--strict-keys must abort on the first bad file"
    );
    assert!(
        strict_dir.join("bad.zkst").exists(),
        "strict mode must not quarantine"
    );

    std::fs::remove_dir_all(&base).ok();
}

/// Load shedding end to end: a saturated server (one worker, accept
/// queue of one) sheds the third connection with a `Busy` frame, and a
/// retrying client absorbs the shed invisibly once capacity frees up.
#[test]
fn saturated_server_sheds_with_busy_and_retries_absorb_it() {
    let config = ServerConfig {
        workers: 1,
        accept_queue: 1,
        ..test_config()
    };
    let handle = serve(config, test_registry()).expect("server binds");
    let addr = handle.addr();

    // occupy the only worker, then the only queue slot
    let mut parked = Client::connect(addr).unwrap();
    let stats = parked.stats_json(); // proves the worker owns this connection
    assert!(stats.is_ok());
    let queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the acceptor enqueue it

    // the next connection must be shed with a one-frame Busy response
    let mut shed = TcpStream::connect(addr).unwrap();
    let response = read_response(&mut shed).expect("shed connections get a Busy frame");
    assert_eq!(response.status, Status::Busy);
    assert!(handle.metrics().snapshot().sheds >= 1);

    // a retrying client sees no error: capacity frees while it backs off
    let dropper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        drop(parked);
        drop(queued);
    });
    let mut retrying = RetryingClient::new(
        addr.to_string(),
        RetryPolicy {
            max_attempts: 12,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(200),
            deadline: Duration::from_secs(20),
            seed: 7,
        },
    );
    let response = retrying
        .verify(&fixture().claims[0])
        .expect("retries must absorb Busy sheds");
    assert_eq!(response.status, Status::Ok, "no client-visible error");
    dropper.join().unwrap();

    handle.shutdown_and_join();
}

/// Batch poisoning: forged claims riding multi-claim batches force the
/// expensive batch-then-fallback path; after `poison_threshold`
/// consecutive poisoned batches the circuit degrades to per-claim
/// verification — where verdicts stay exactly correct.
#[test]
fn poisoned_batches_degrade_the_circuit_without_wrong_verdicts() {
    let f = fixture();
    let registry = test_registry();
    let metrics = Arc::new(Metrics::new());
    let coalescer = Coalescer::new(
        Arc::clone(registry.keys()),
        Arc::clone(&metrics),
        CoalescerConfig {
            max_drainers: 1, // serialize drains so claims actually coalesce
            poison_threshold: 1,
            degrade_cooldown: Duration::from_secs(30),
            ..CoalescerConfig::default()
        },
    );

    // A poisoned *multi-claim* batch needs the forged claim to coalesce
    // behind an in-flight drain: an honest claim goes first and becomes
    // the (only) drainer, and while its pairing check runs the forged and
    // a second honest claim pile up behind it — the drain loop then takes
    // both as one batch. The stagger is timing-dependent, so bound the
    // rounds and grow the stagger until the batch lands.
    let mut degraded = false;
    for round in 0..50u32 {
        std::thread::scope(|scope| {
            let co = &coalescer;
            scope.spawn(move || {
                co.verify(f.claims[0].clone())
                    .expect("leading honest claim verifies");
            });
            // let the leader enter its pairing check before the pile-up
            std::thread::sleep(Duration::from_micros(200 * u64::from(round + 1)));
            scope.spawn(move || {
                let r = co.verify(f.forged[0].clone());
                assert!(
                    matches!(r, Err(ZkrownnError::InvalidProof(_))),
                    "forged claim must be rejected, got {r:?}"
                );
            });
            scope.spawn(move || {
                co.verify(f.claims[1].clone())
                    .expect("honest claim stays verified alongside a poisoner");
            });
        });
        if metrics.snapshot().degradations >= 1 {
            degraded = true;
            break;
        }
    }
    assert!(degraded, "no multi-claim batch was ever poisoned");

    // inside the cooldown window the circuit verifies per-claim: honest
    // and forged claims still get exactly the right verdicts
    let before = metrics.snapshot();
    coalescer
        .verify(f.claims[3].clone())
        .expect("degraded path verifies honest claims");
    assert!(matches!(
        coalescer.verify(f.forged[1].clone()),
        Err(ZkrownnError::InvalidProof(_))
    ));
    let after = metrics.snapshot();
    assert_eq!(
        after.batches - before.batches,
        2,
        "degraded claims are batches of one"
    );
    assert_eq!(after.batched_claims - before.batched_claims, 2);
}

/// Verdict equivalence, coalescer columns: the corpus and expected table of
/// the root `tests/verdict_equivalence.rs`, asked through the coalescer
/// with batching on (one at a time, then all at once so claims coalesce
/// into whatever batches the scheduler cuts), through a second coalescer
/// configured with `max_batch = 1` (coalescing off), and on a circuit
/// degraded by a poisoned batch. Every column answers as a registry does.
#[test]
fn coalescer_verdicts_match_the_equivalence_table() {
    use verdict_corpus::{Class, Column};
    let corpus = verdict_corpus::corpus();
    let registry = Arc::new(LedgeredRegistry::new());
    registry.register_kit(&corpus.disputed);
    registry.register_kit(&corpus.bystander);
    let metrics = Arc::new(Metrics::new());
    let config = CoalescerConfig {
        max_drainers: 1,
        poison_threshold: 1,
        degrade_cooldown: Duration::from_secs(600),
        ..CoalescerConfig::default()
    };
    let keys = Arc::clone(registry.keys());
    let coalescer = Coalescer::new(Arc::clone(&keys), Arc::clone(&metrics), config.clone());
    let check_with = |co: &Coalescer, column: &str, case: &verdict_corpus::Case| {
        let result = co.verify(case.claim.clone());
        assert_eq!(
            Class::of(&result),
            case.expected(Column::Registry),
            "coalescer ({column}) on the {} claim answered {result:?}",
            case.name
        );
    };
    let check = |column, case| check_with(&coalescer, column, case);
    let check_one_by_one = |column| corpus.cases.iter().for_each(|case| check(column, case));

    check_one_by_one("batching on");

    // coalescing off is a configuration: the same registry behind a
    // coalescer whose batches hold one claim, however many pile up
    let unbatched_metrics = Arc::new(Metrics::new());
    let unbatched_config = CoalescerConfig {
        max_batch: 1,
        ..config
    };
    let unbatched = Coalescer::new(keys, Arc::clone(&unbatched_metrics), unbatched_config);
    std::thread::scope(|scope| {
        for case in &corpus.cases {
            let unbatched = &unbatched;
            scope.spawn(move || check_with(unbatched, "max_batch = 1", case));
        }
    });
    let unbatched = unbatched_metrics.snapshot();
    assert_eq!(unbatched.batches, corpus.cases.len() as u64);
    assert_eq!(unbatched.batch_max, 1);

    // all at once, until a batch with the forged positive in it has
    // degraded the disputed circuit (the corpus holds three sound
    // positives, so any coalesced batch containing it is poisoned)
    for round in 0.. {
        assert!(round < 50, "no multi-claim batch was ever poisoned");
        std::thread::scope(|scope| {
            // sound claims lead (the corpus lists its forgeries first), so
            // the forged positive piles up behind a drain in progress
            for case in corpus.cases.iter().rev() {
                scope.spawn(move || check("concurrent", case));
            }
        });
        if metrics.snapshot().degradations >= 1 {
            break;
        }
    }
    let before = metrics.snapshot();
    check_one_by_one("degraded");
    let after = metrics.snapshot();
    assert_eq!(
        after.batches - before.batches,
        corpus.cases.len() as u64,
        "degraded claims are batches of one"
    );
}

/// A checksummed claim whose statement cannot be synthesized — 150 bytes
/// from anyone, naming a registered circuit — used to decode, reach the
/// verdict kernel and kill the worker holding it (the pool is fixed, and
/// the circuit lost a drainer slot each time). Over the socket every row
/// of the hand-broken table is now `MalformedClaim`, on one connection
/// that stays usable and in front of a circuit that still verifies.
#[test]
fn unsynthesizable_claims_are_malformed_and_cost_the_daemon_nothing() {
    let corpus = verdict_corpus::corpus();
    let honest = corpus.cases.iter().find(|c| c.name == "honest").unwrap();
    let registry = Arc::new(LedgeredRegistry::new());
    registry.register_kit(&corpus.disputed);
    let workers = 2;
    let config = ServerConfig {
        workers,
        ..test_config()
    };
    let handle = serve(config, registry).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let table = verdict_corpus::unsynthesizable(&honest.claim);
    assert!(
        table.len() > workers,
        "enough to empty the pool, were they fatal"
    );
    for (name, claim) in &table {
        let response = client.verify(claim).expect("the connection survives");
        assert_eq!(response.status, Status::MalformedClaim, "{name}");
    }
    let response = client
        .verify(&honest.claim)
        .expect("the connection survives");
    assert_eq!(response.status, Status::Ok, "{}", response.text());

    let snapshot = handle.metrics().snapshot();
    assert_eq!(snapshot.latency_count(), table.len() as u64 + 1);
    assert_eq!(
        snapshot.batches, 1,
        "only the honest claim reached the kernel"
    );
    handle.shutdown();
    join_within(handle, Duration::from_secs(10));
}

/// Graceful drain: a frame already in flight when shutdown is requested
/// is read to completion, dispatched, and answered before the worker
/// exits — the peer sees a verdict, not a cut connection.
#[test]
fn shutdown_drains_the_in_flight_frame() {
    let handle = serve(test_config(), test_registry()).expect("server binds");
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    let wire = encode_request(&Request::Verify(fixture().claims[0].to_bytes()));
    let split = 9; // opcode + length + the first payload bytes
    stream.write_all(&wire[..split]).unwrap();
    std::thread::sleep(Duration::from_millis(60)); // worker is now mid-frame
    handle.shutdown();
    std::thread::sleep(Duration::from_millis(30)); // flag observed while draining
    stream.write_all(&wire[split..]).unwrap();

    let response = read_response(&mut stream).expect("the drained frame gets its response");
    assert_eq!(response.status, Status::Ok);
    join_within(handle, Duration::from_secs(5));
}

/// The seeded sweep (ISSUE acceptance: ≥ 8 plans): for every seed, a
/// fresh daemon faces a client whose socket is wrapped in that seed's
/// fault plan. Required invariants, with the seed in every assertion:
/// no panic, no incorrect verdict (a fully delivered honest claim that
/// gets a decoded verify verdict gets `Ok`), a clean follow-up
/// connection works, and the daemon shuts down and a new one starts for
/// the next plan.
#[test]
fn seeded_socket_fault_plans_never_corrupt_verdicts_or_the_daemon() {
    let f = fixture();
    let wire = encode_request(&Request::Verify(f.claims[0].to_bytes()));

    for seed in 0..12u64 {
        let plan = FaultPlan::from_seed(seed, wire.len() as u64 + 64);
        let label = plan.label().to_string();
        let armed = plan.arm();

        let handle = serve(test_config(), test_registry()).expect("server binds");
        let addr = handle.addr();

        let stream = TcpStream::connect(addr).unwrap();
        let mut tx = armed.write(&stream);
        let sent_fully = tx.write_all(&wire).and_then(|()| tx.flush()).is_ok();
        let mut rx = armed.read(&stream);
        // an Err here is just an injected client-side fault; the one
        // forbidden outcome is an intact honest claim answered with a
        // wrong verdict
        if let Ok(response) = read_response(&mut rx) {
            if sent_fully && response.status != Status::Protocol {
                assert_eq!(
                    response.status,
                    Status::Ok,
                    "[{label}] intact honest claim got a wrong verdict"
                );
            }
        }
        drop(rx);

        // the daemon took no damage: a clean connection verifies
        let mut clean = Client::connect(addr).unwrap();
        let response = clean
            .verify(&f.claims[1])
            .unwrap_or_else(|e| panic!("[{label}] clean connection after faults: {e}"));
        assert_eq!(response.status, Status::Ok, "[{label}]");
        drop(clean);
        drop(stream);

        // ...and restarts cleanly for the next plan
        join_within(
            {
                handle.shutdown();
                handle
            },
            Duration::from_secs(5),
        );
    }
}

//! Socket-level integration tests for the authority daemon: real TCP
//! connections against an in-process server, covering verdict mapping,
//! malformed input, concurrency + coalescing, the `max_batch = 1`
//! ablation configuration, and all three shutdown triggers.
//!
//! One proving fixture is built lazily and shared by every test: four
//! variants of the same tiny extraction circuit (honest, wrong-watermark,
//! forged-under-different-toxic-waste, different-shape) exercise each
//! response status without any network training.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rand::SeedableRng;
use zkrownn::{
    Artifact, Authority, CircuitId, ExtractionSpec, KeyStore, MemoryBudget, QuantLayer,
    QuantizedModel,
};
use zkrownn_gadgets::FixedConfig;
use zkrownn_groth16::VerifyingKey;
use zkrownn_ledger::{verify_consistency, verify_membership, LedgerLeaf, LedgerRoot};
use zkrownn_service::{
    load_keys_dir, parse_registration, read_response, registration_bytes, serve, stats_field_u64,
    Client, CoalescerConfig, LedgeredRegistry, Request, ServerConfig, ServerHandle, Status,
};

/// A tiny, deterministic extraction spec (no training). Projections come
/// out positive, so every extracted bit is 1: with `max_errors = 0` the
/// verdict is exactly "is the signature all-ones".
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
    /// Registered circuit + key for the honest claims.
    id: [u8; 32],
    /// Content digest of the statement the circuit was set up for — the
    /// second half of its ledger leaf.
    statement_digest: [u8; 32],
    vk_bytes: Vec<u8>,
    /// Distinct honest claims (verdict 1, verify under `vk`).
    claims: Vec<Vec<u8>>,
    /// Sound proof of verdict 0 under the *same* keys.
    negative: Vec<u8>,
    /// Same circuit id, different toxic waste — cryptographically wrong.
    forged: Vec<u8>,
    /// A different circuit shape, never registered.
    unknown: Vec<u8>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let spec = tiny_spec(vec![true; 4]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(601);
        let (prover, verifier) = Authority::setup(&spec, &mut rng);
        let claims = (0..8)
            .map(|_| prover.prove(&mut rng).expect("honest claim").to_bytes())
            .collect();

        // same seed + same circuit shape ⇒ identical keys; the flipped
        // signature bit only changes the private witness, so this prover
        // produces a *sound* proof of verdict 0 under the registered key
        let mut neg_spec = tiny_spec(vec![true; 4]);
        neg_spec.signature[0] = false;
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(601);
        let (neg_prover, neg_verifier) = Authority::setup(&neg_spec, &mut rng2);
        assert_eq!(neg_verifier.circuit_id(), verifier.circuit_id());
        let negative = neg_prover.prove(&mut rng2).expect("sound negative claim");
        assert!(!negative.verdict());

        // different seed ⇒ different toxic waste, same circuit id — the
        // claim decodes fine but fails the pairing check
        let mut rng3 = rand::rngs::StdRng::seed_from_u64(77_777);
        let (forged_prover, forged_verifier) = Authority::setup(&spec, &mut rng3);
        assert_eq!(forged_verifier.circuit_id(), verifier.circuit_id());
        let forged = forged_prover.prove(&mut rng3).expect("forged claim proves");

        // a different signature width is a different synthesis trace ⇒ a
        // circuit id the server has never seen
        let mut rng4 = rand::rngs::StdRng::seed_from_u64(42);
        let (unknown_prover, unknown_verifier) =
            Authority::setup(&tiny_spec(vec![true; 2]), &mut rng4);
        assert_ne!(unknown_verifier.circuit_id(), verifier.circuit_id());
        let unknown = unknown_prover
            .prove(&mut rng4)
            .expect("unknown-circuit claim");

        Fixture {
            id: *verifier.circuit_id().as_bytes(),
            statement_digest: prover.statement().content_digest(),
            vk_bytes: Artifact::to_bytes(verifier.verifying_key()),
            claims,
            negative: negative.to_bytes(),
            forged: forged.to_bytes(),
            unknown: unknown.to_bytes(),
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
        workers: 8,
        frame_deadline: Duration::from_millis(500),
        poll_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    }
}

fn start_server(config: ServerConfig) -> ServerHandle {
    serve(config, test_registry()).expect("server binds")
}

/// Joins a handle on a helper thread so a hung shutdown fails the test
/// instead of wedging the suite.
fn join_within(handle: ServerHandle, timeout: Duration) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(timeout)
        .expect("server threads did not exit in time");
}

#[test]
fn happy_path_claim_verifies_over_the_socket() {
    let handle = start_server(test_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.verify_bytes(fixture().claims[0].clone()).unwrap();
    assert_eq!(response.status, Status::Ok);

    let stats = client.stats_json().unwrap();
    assert_eq!(stats_field_u64(&stats, "requests"), Some(1));
    assert_eq!(stats_field_u64(&stats, "ok"), Some(1));
    assert_eq!(stats_field_u64(&stats, "registered_circuits"), Some(1));
    assert_eq!(stats_field_u64(&stats, "ledger_size"), Some(1));
    assert_eq!(stats_field_u64(&stats, "max_batch"), Some(64));
    assert_eq!(stats.matches('{').count(), stats.matches('}').count());

    handle.shutdown_and_join();
}

#[test]
fn verdicts_map_to_typed_statuses_and_the_connection_survives() {
    let handle = start_server(test_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    let f = fixture();

    let cases = [
        (&f.negative, Status::NegativeVerdict),
        (&f.forged, Status::InvalidProof),
        (&f.unknown, Status::UnknownCircuit),
    ];
    for (claim, expected) in cases {
        let response = client.verify_bytes(claim.clone()).unwrap();
        assert_eq!(response.status, expected, "{expected:?}");
        assert!(!response.payload.is_empty(), "errors carry a message");
    }
    // the same connection still serves honest claims after every rejection
    let response = client.verify_bytes(f.claims[1].clone()).unwrap();
    assert_eq!(response.status, Status::Ok);

    handle.shutdown_and_join();
}

#[test]
fn malformed_claim_bytes_are_a_typed_error_not_a_dead_connection() {
    let handle = start_server(test_config());
    let mut client = Client::connect(handle.addr()).unwrap();

    for garbage in [vec![], vec![0u8; 3], vec![0xa5u8; 600]] {
        let response = client.verify_bytes(garbage).unwrap();
        assert_eq!(response.status, Status::MalformedClaim);
    }
    // a truncated *valid* claim prefix is also caught by the envelope
    let truncated = fixture().claims[0][..40].to_vec();
    let response = client.verify_bytes(truncated).unwrap();
    assert_eq!(response.status, Status::MalformedClaim);

    let response = client.verify_bytes(fixture().claims[0].clone()).unwrap();
    assert_eq!(response.status, Status::Ok);
    assert!(handle.metrics().snapshot().outcome(Status::MalformedClaim) == 4);

    handle.shutdown_and_join();
}

#[test]
fn framing_violations_get_a_protocol_response_and_close_the_connection() {
    let handle = start_server(test_config());

    // unknown opcode
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&[0x7f, 0, 0, 0, 0]).unwrap();
    let response = read_response(&mut raw).unwrap();
    assert_eq!(response.status, Status::Protocol);

    // oversized frame length
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    let mut frame = vec![0x01];
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    raw.write_all(&frame).unwrap();
    let response = read_response(&mut raw).unwrap();
    assert_eq!(response.status, Status::Protocol);

    // a well-formed v3 "batching off" frame: opcode 0x03 is retired, so
    // it is an unknown byte like any other and switches nothing
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&[0x03, 1, 0, 0, 0, 0]).unwrap();
    let response = read_response(&mut raw).unwrap();
    assert_eq!(response.status, Status::Protocol);
    // the server hangs up (a reset, if it closed with the frame's tail unread)
    assert!(matches!(raw.read(&mut [0u8; 1]), Ok(0) | Err(_)));

    // a frame that starts but never finishes trips the deadline instead of
    // wedging the worker
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&[0x01, 64, 0, 0, 0, 1, 2, 3]).unwrap(); // 3 of 64 bytes
    let response = read_response(&mut raw).unwrap();
    assert_eq!(response.status, Status::Protocol);

    // the server took no damage: a fresh connection verifies fine
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.verify_bytes(fixture().claims[0].clone()).unwrap();
    assert_eq!(response.status, Status::Ok);
    assert!(handle.metrics().snapshot().protocol_errors >= 4);
    let stats = client.stats_json().unwrap();
    assert_eq!(stats_field_u64(&stats, "max_batch"), Some(64), "{stats}");

    handle.shutdown_and_join();
}

/// Eight concurrent clients, each submitting `per_client` honest claims
/// over its own connection and expecting `Ok` for every one.
fn hammer(handle: &ServerHandle, per_client: usize) {
    let addr = handle.addr();
    let f = fixture();
    std::thread::scope(|scope| {
        for t in 0..8 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..per_client {
                    let claim = &f.claims[(t + i) % f.claims.len()];
                    let response = client.verify_bytes(claim.clone()).unwrap();
                    assert_eq!(response.status, Status::Ok, "client {t} claim {i}");
                }
            });
        }
    });
}

#[test]
fn concurrent_clients_all_get_their_own_verdict() {
    let handle = start_server(test_config());
    hammer(&handle, 4);

    let snapshot = handle.metrics().snapshot();
    assert_eq!(snapshot.outcome(Status::Ok), 32);
    assert_eq!(snapshot.batched_claims, 32);
    assert!(snapshot.batches >= 1 && snapshot.batches <= 32);
    assert!(snapshot.connections >= 8);

    handle.shutdown_and_join();
}

/// The coalescing ablation is a configuration, not a switch: a server
/// started at `max_batch = 1` verifies every claim as a batch of one,
/// however many clients pile up, and says so in `STATS`.
#[test]
fn max_batch_one_is_the_coalescing_off_configuration() {
    let config = ServerConfig {
        coalescer: CoalescerConfig {
            max_batch: 1,
            ..CoalescerConfig::default()
        },
        ..test_config()
    };
    let handle = start_server(config);
    hammer(&handle, 3);

    let snapshot = handle.metrics().snapshot();
    assert_eq!(snapshot.outcome(Status::Ok), 24);
    assert_eq!(snapshot.batch_max, 1);
    assert_eq!(snapshot.batches, snapshot.batched_claims);
    let stats = Client::connect(handle.addr())
        .unwrap()
        .stats_json()
        .unwrap();
    assert_eq!(stats_field_u64(&stats, "max_batch"), Some(1));
    assert!(stats.contains("\"schema\": \"zkrownn-service-stats/v4\""));

    handle.shutdown_and_join();
}

#[test]
fn shutdown_opcode_acknowledges_then_stops_the_server() {
    let handle = start_server(test_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.request(&Request::Shutdown).unwrap();
    assert_eq!(response.status, Status::Ok);
    join_within(handle, Duration::from_secs(5));
}

#[test]
fn idle_server_shuts_itself_down() {
    let config = ServerConfig {
        idle_shutdown: Some(Duration::from_millis(200)),
        ..test_config()
    };
    let handle = start_server(config);
    // one real request, then silence
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.verify_bytes(fixture().claims[0].clone()).unwrap();
    assert_eq!(response.status, Status::Ok);
    drop(client);
    join_within(handle, Duration::from_secs(10));
}

#[test]
fn handle_shutdown_stops_a_server_with_open_connections() {
    let handle = start_server(test_config());
    let _parked = TcpStream::connect(handle.addr()).unwrap(); // idle client
    handle.shutdown();
    join_within(handle, Duration::from_secs(5));
}

/// The tentpole acceptance path: register N keys, fetch the root and a
/// membership proof for each over the socket, *shut the authority down*,
/// and verify every registration offline from bytes alone.
#[test]
fn membership_proofs_verify_offline_after_the_authority_is_gone() {
    let vk = fixture_vk();
    let registry = Arc::new(LedgeredRegistry::new());
    let leaves: Vec<LedgerLeaf> = (0..9u8)
        .map(|i| {
            let leaf = LedgerLeaf {
                circuit_id: CircuitId::from_bytes([i + 1; 32]),
                statement_digest: [0x40 + i; 32],
            };
            let reg = registry.register(leaf.circuit_id, leaf.statement_digest, &vk);
            assert_eq!(reg.appended_at, Some(u64::from(i)));
            leaf
        })
        .collect();

    let handle = serve(test_config(), Arc::clone(&registry)).expect("server binds");
    let mut client = Client::connect(handle.addr()).unwrap();

    let root_response = client.ledger_root().unwrap();
    assert_eq!(root_response.status, Status::Ok);
    let root_bytes = root_response.payload;

    let proofs: Vec<Vec<u8>> = leaves
        .iter()
        .map(|leaf| {
            let response = client.prove_member(leaf).unwrap();
            assert_eq!(response.status, Status::Ok);
            response.payload
        })
        .collect();

    // a pair that was never registered is a typed miss, not a protocol kill
    let stranger = LedgerLeaf {
        circuit_id: CircuitId::from_bytes([0xEE; 32]),
        statement_digest: [0; 32],
    };
    let response = client.prove_member(&stranger).unwrap();
    assert_eq!(response.status, Status::NotInLedger);

    let stats = client.stats_json().unwrap();
    assert_eq!(stats_field_u64(&stats, "registered_circuits"), Some(9));
    assert_eq!(stats_field_u64(&stats, "ledger_size"), Some(9));
    assert_eq!(stats_field_u64(&stats, "ledger_roots"), Some(1));
    assert_eq!(stats_field_u64(&stats, "ledger_membership_proofs"), Some(9));
    assert_eq!(stats_field_u64(&stats, "ledger_membership_misses"), Some(1));

    // the authority is gone for good...
    handle.shutdown_and_join();
    drop(registry);

    // ...yet every registration checks out from the captured bytes alone
    for (leaf, proof_bytes) in leaves.iter().zip(&proofs) {
        verify_membership(&root_bytes, &leaf.to_bytes(), proof_bytes)
            .expect("offline verification needs no authority");
    }
    // and each proof is pinned to its own leaf
    assert!(verify_membership(&root_bytes, &leaves[0].to_bytes(), &proofs[1]).is_err());
}

/// Root at size K must be provably a prefix of the root at size N after
/// the embedding process registers more circuits at runtime.
#[test]
fn consistency_proofs_link_roots_across_runtime_registrations() {
    let vk = fixture_vk();
    let registry = Arc::new(LedgeredRegistry::new());
    for i in 0..3u8 {
        registry.register(CircuitId::from_bytes([i + 1; 32]), [i; 32], &vk);
    }

    let handle = serve(test_config(), Arc::clone(&registry)).expect("server binds");
    let mut client = Client::connect(handle.addr()).unwrap();

    let old_root_bytes = client.ledger_root().unwrap().payload;
    let old_root: LedgerRoot = Artifact::from_bytes(&old_root_bytes).unwrap();
    assert_eq!(old_root.size, 3);

    // the registry keeps growing while the server runs
    for i in 3..8u8 {
        registry.register(CircuitId::from_bytes([i + 1; 32]), [i; 32], &vk);
    }

    let new_root_bytes = client.ledger_root().unwrap().payload;
    let response = client.consistency(old_root.size).unwrap();
    assert_eq!(response.status, Status::Ok);
    let proof_bytes = response.payload;

    // an old size beyond the tree is a typed miss
    let miss = client.consistency(999).unwrap();
    assert_eq!(miss.status, Status::NotInLedger);

    let stats = client.stats_json().unwrap();
    assert_eq!(
        stats_field_u64(&stats, "ledger_consistency_proofs"),
        Some(1)
    );
    assert_eq!(
        stats_field_u64(&stats, "ledger_consistency_misses"),
        Some(1)
    );

    handle.shutdown_and_join();

    verify_consistency(&old_root_bytes, &new_root_bytes, &proof_bytes)
        .expect("the old registry is a prefix of the new one");
    // swapped roots must not verify
    assert!(verify_consistency(&new_root_bytes, &old_root_bytes, &proof_bytes).is_err());
}

/// `zkrownn-authority --keys DIR` loads registrations in sorted path
/// order, so the published ledger root is reproducible no matter what
/// order the filesystem hands back directory entries. Segmented key
/// stores (`*.zkst`) participate in the *same* sorted sequence as `*.vk`
/// registration files.
#[test]
fn key_directory_loading_is_deterministic_and_sorted() {
    let vk = fixture_vk();
    let files: Vec<(String, Vec<u8>)> = (0..6u8)
        .map(|i| {
            let id = CircuitId::from_bytes([0x30 + i; 32]);
            (format!("key-{i}.vk"), registration_bytes(id, [i; 32], &vk))
        })
        .collect();

    let base = std::env::temp_dir().join(format!("zkrownn-e2e-keys-{}", std::process::id()));
    let dir_a = base.join("a");
    let dir_b = base.join("b");
    std::fs::create_dir_all(&dir_a).unwrap();
    std::fs::create_dir_all(&dir_b).unwrap();
    for (name, bytes) in &files {
        std::fs::write(dir_a.join(name), bytes).unwrap();
    }
    for (name, bytes) in files.iter().rev() {
        std::fs::write(dir_b.join(name), bytes).unwrap();
    }

    // a store-backed key, named to land mid-sequence ("key-2.vk" <
    // "key-2a.zkst" < "key-3.vk"); the authority registers it from the
    // store's embedded metadata + verifying-key segments
    let statement = tiny_spec(vec![true; 4]).statement();
    let store_path = base.join("key-2a.zkst");
    let mut rng = rand::rngs::StdRng::seed_from_u64(733);
    Authority::setup_statement_stored(&statement, &store_path, &mut rng, MemoryBudget::from_mb(8))
        .expect("streaming setup writes the store");
    std::fs::copy(&store_path, dir_a.join("key-2a.zkst")).unwrap();
    std::fs::copy(&store_path, dir_b.join("key-2a.zkst")).unwrap();

    let reg_a = LedgeredRegistry::new();
    let reg_b = LedgeredRegistry::new();
    assert_eq!(load_keys_dir(&reg_a, &dir_a, false).unwrap().loaded, 7);
    assert_eq!(load_keys_dir(&reg_b, &dir_b, false).unwrap().loaded, 7);
    assert_eq!(reg_a.current_root().root, reg_b.current_root().root);

    // ...and that order is exactly sorted-by-name, store included
    let store = KeyStore::open(&store_path).unwrap();
    let by_hand = LedgeredRegistry::new();
    for (name, bytes) in &files {
        let (id, digest, parsed_vk) = parse_registration(bytes).unwrap();
        by_hand.register(id, digest, &parsed_vk);
        if name == "key-2.vk" {
            by_hand.register(
                statement.circuit_id(),
                statement.content_digest(),
                &store.verifying_key().unwrap(),
            );
        }
    }
    assert_eq!(reg_a.current_root().root, by_hand.current_root().root);

    std::fs::remove_dir_all(&base).ok();
}

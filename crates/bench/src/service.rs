//! Load-generation harness for `zkrownn-service` — the `BENCH_service.json`
//! producer.
//!
//! Three pieces:
//!
//! 1. a **corpus builder**: runs [`Authority::setup`] + [`zkrownn::ProverKit::prove`]
//!    for the quick-MLP and quick-CNN circuits once and writes the results
//!    to disk (`.vk` key registrations + `.claim` artifacts), so the server
//!    and the load generator never pay proving cost inside a measurement;
//! 2. a **scenario runner**: `N` client threads hammer a running authority
//!    with corpus claims over independent connections, measuring
//!    client-observed round-trip latency and throughput, and diffing the
//!    server's stats endpoint around the run to recover the mean coalesced
//!    batch size;
//! 3. a **JSON writer** for the `zkrownn-bench-service/v1` document the CI
//!    perf gate consumes.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use zkrownn::{Artifact, Authority, SignedClaim};
use zkrownn_groth16::VerifyingKey;
use zkrownn_service::{
    registration_bytes, stats_field_u64, Client, RetryPolicy, RetryingClient, Status,
};
use zkrownn_store::write_file_atomic;

use crate::{quick_cnn_spec, quick_mlp_spec};

/// Claims per scenario in `--smoke` mode (CI).
pub const SMOKE_CLAIMS: usize = 96;
/// Claims per scenario in full mode.
pub const FULL_CLAIMS: usize = 384;

/// A generated claim corpus: key registrations plus signed claims.
pub struct Corpus {
    /// `(circuit id, statement digest, verifying key)` registrations, one
    /// per circuit — the digest is the second half of the circuit's
    /// registration-ledger leaf.
    pub keys: Vec<([u8; 32], [u8; 32], VerifyingKey)>,
    /// Serialized [`SignedClaim`] artifacts, mixed across circuits.
    pub claims: Vec<Vec<u8>>,
}

/// Builds the benchmark corpus in memory: quick-MLP and quick-CNN setups
/// (deterministic seeds, so reruns regenerate byte-identical keys) with
/// `mlp`/`cnn` distinct proofs each. Claims are interleaved across the two
/// circuits so concurrent clients exercise both circuits' coalescer queues.
pub fn build_corpus(mlp: usize, cnn: usize) -> Corpus {
    let mut keys = Vec::new();
    let mut per_circuit: Vec<Vec<Vec<u8>>> = Vec::new();
    for (spec, seed, count) in [
        (quick_mlp_spec(), 0x5eed_u64, mlp),
        (quick_cnn_spec(), 0xc0de_u64, cnn),
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (prover, verifier) = Authority::setup(&spec, &mut rng);
        keys.push((
            *verifier.circuit_id().as_bytes(),
            prover.statement().content_digest(),
            verifier.verifying_key().clone(),
        ));
        let claims = (0..count)
            .map(|_| {
                prover
                    .prove(&mut rng)
                    .expect("corpus circuits carry a valid witness")
                    .to_bytes()
            })
            .collect();
        per_circuit.push(claims);
    }
    // interleave so a round-robin load generator alternates circuits
    let mut claims = Vec::new();
    let longest = per_circuit.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for circuit in &per_circuit {
            if let Some(c) = circuit.get(i) {
                claims.push(c.clone());
            }
        }
    }
    Corpus { keys, claims }
}

/// Writes a corpus to `dir` as `key-N.vk` registration files and
/// `claim-NNN.claim` artifacts.
///
/// Every file is committed atomically (temp file + rename), so a corpus
/// regeneration interrupted mid-write never leaves a half-written `.vk`
/// or `.claim` at a path a later `--keys`/`--corpus` load would trust.
pub fn write_corpus(corpus: &Corpus, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (i, (id, digest, vk)) in corpus.keys.iter().enumerate() {
        let bytes = registration_bytes(zkrownn::CircuitId::from_bytes(*id), *digest, vk);
        write_file_atomic(&dir.join(format!("key-{i}.vk")), &bytes)?;
    }
    for (i, claim) in corpus.claims.iter().enumerate() {
        write_file_atomic(&dir.join(format!("claim-{i:03}.claim")), claim)?;
    }
    Ok(())
}

/// Loads a corpus written by [`write_corpus`] (files sorted by name, so the
/// interleaving order is preserved).
pub fn load_corpus(dir: &Path) -> std::io::Result<Corpus> {
    let mut vk_paths = Vec::new();
    let mut claim_paths = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("vk") => vk_paths.push(path),
            Some("claim") => claim_paths.push(path),
            _ => {}
        }
    }
    vk_paths.sort();
    claim_paths.sort();
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut keys = Vec::new();
    for path in vk_paths {
        let bytes = std::fs::read(&path)?;
        let (id, digest, vk) = zkrownn_service::parse_registration(&bytes)
            .map_err(|e| bad(format!("{}: {e}", path.display())))?;
        keys.push((*id.as_bytes(), digest, vk));
    }
    let mut claims = Vec::new();
    for path in claim_paths {
        let bytes = std::fs::read(&path)?;
        // validate eagerly so a corrupt corpus fails loudly, not as a
        // mysteriously slow all-errors benchmark
        SignedClaim::from_bytes(&bytes).map_err(|e| bad(format!("{}: {e}", path.display())))?;
        claims.push(bytes);
    }
    if keys.is_empty() || claims.is_empty() {
        return Err(bad(format!("{}: empty corpus", dir.display())));
    }
    Ok(Corpus { keys, claims })
}

/// One measured load scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario tag, e.g. `clients-16` / `clients-16-nobatch`.
    pub name: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Whether server-side claim coalescing was enabled — the server's
    /// `STATS` reported a `max_batch` above 1.
    pub batching: bool,
    /// Claims submitted across all clients.
    pub total_claims: usize,
    /// Responses that were not `Ok` (every corpus claim should verify).
    pub errors: usize,
    /// Wall time of the client phase.
    pub elapsed_s: f64,
    /// Throughput over the whole run.
    pub claims_per_s: f64,
    /// Median client-observed round-trip latency.
    pub p50_ms: f64,
    /// 99th-percentile client-observed round-trip latency.
    pub p99_ms: f64,
    /// Mean RLC batch size the server formed during this scenario (from
    /// stats-endpoint diffs; 1.0 when batching is off).
    pub mean_batch: f64,
    /// Largest batch the server has formed so far (cumulative across
    /// scenarios — a max can't be diffed from the stats endpoint).
    pub batch_max: u64,
    /// Reconnect-and-retry cycles the clients performed (absorbed `Busy`
    /// sheds and transport hiccups; invisible in `errors` by design).
    pub retries: u64,
}

fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// Runs one scenario against a running authority at `addr`: fires
/// `clients` threads submitting `total` corpus claims round-robin, and
/// reports throughput / latency / batch occupancy. No control frame is
/// sent: whether the server coalesces is its own configuration, read back
/// from the `max_batch` its `STATS` reports, and the row is labelled from
/// that (`-nobatch` when it is 1).
pub fn run_scenario(
    addr: &str,
    corpus: &Corpus,
    clients: usize,
    total: usize,
) -> Result<ScenarioResult, String> {
    let io = |stage: &'static str| move |e: zkrownn_service::ProtocolError| format!("{stage}: {e}");
    let mut control =
        Client::connect_with_retry(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;

    // warm the registry's pairing preparation and the input-MSM cache so
    // the measurement sees steady-state service cost, then snapshot stats
    for claim in corpus.claims.iter().take(corpus.keys.len()) {
        let r = control.verify_bytes(claim.clone()).map_err(io("warmup"))?;
        if r.status != Status::Ok {
            return Err(format!("warmup claim rejected: {:?}", r.status));
        }
    }
    let before = control.stats_json().map_err(io("stats"))?;

    let per_client = total / clients;
    let start = Instant::now();
    // per-client outcome: (verified claims, retries taken, latencies)
    type ClientOutcome = Result<(usize, u64, Vec<Duration>), String>;
    let results: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let claims = &corpus.claims;
                scope.spawn(move || {
                    // retrying client: a Busy shed from a saturated server
                    // or a dropped connection is absorbed by backoff and
                    // reconnect, never surfaced as a scenario error
                    let mut client = RetryingClient::new(
                        addr,
                        RetryPolicy {
                            seed: 0xb0b0 + c as u64, // decorrelate client backoffs
                            ..RetryPolicy::default()
                        },
                    );
                    let mut errors = 0usize;
                    let mut latencies = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let claim = &claims[(c + i * clients) % claims.len()];
                        let sent = Instant::now();
                        let response = client
                            .verify_bytes(claim.clone())
                            .map_err(|e| format!("client {c}: {e}"))?;
                        latencies.push(sent.elapsed());
                        if response.status != Status::Ok {
                            errors += 1;
                        }
                    }
                    Ok((errors, client.retries(), latencies))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let after = control.stats_json().map_err(io("stats"))?;

    let mut errors = 0usize;
    let mut retries = 0u64;
    let mut latencies = Vec::new();
    for r in results {
        let (e, rt, l) = r?;
        errors += e;
        retries += rt;
        latencies.extend(l);
    }
    latencies.sort();

    let field = |json: &str, key: &str| stats_field_u64(json, key).unwrap_or(0);
    let batches = field(&after, "batches").saturating_sub(field(&before, "batches"));
    let batched = field(&after, "batched_claims").saturating_sub(field(&before, "batched_claims"));
    let mean_batch = if batches == 0 {
        1.0
    } else {
        batched as f64 / batches as f64
    };
    let batch_max = stats_field_u64(&after, "batch_max").unwrap_or(0);
    let batching = stats_field_u64(&before, "max_batch")
        .ok_or("the server's STATS reports no max_batch (pre-v4 authority?)")?
        > 1;

    let submitted = per_client * clients;
    let elapsed_s = elapsed.as_secs_f64();
    Ok(ScenarioResult {
        name: format!(
            "clients-{clients}{}",
            if batching { "" } else { "-nobatch" }
        ),
        clients,
        batching,
        total_claims: submitted,
        errors,
        elapsed_s,
        claims_per_s: submitted as f64 / elapsed_s,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        mean_batch,
        batch_max,
        retries,
    })
}

/// The standard scenario sweep: client-count scaling. Pointed at an
/// authority started with `--max-batch 1` the same sweep is the
/// coalescing-off ablation (rows `clients-N-nobatch`).
pub fn standard_scenarios(
    addr: &str,
    corpus: &Corpus,
    total: usize,
) -> Result<Vec<ScenarioResult>, String> {
    [1usize, 4, 16]
        .into_iter()
        .map(|clients| run_scenario(addr, corpus, clients, total))
        .collect()
}

/// Serializes scenario results as the `BENCH_service.json` document
/// (`zkrownn-bench-service/v1`). The `service-batching` ablation pair is
/// the `clients-16` row of a default authority and the `clients-16-nobatch`
/// row of one started with `--max-batch 1`.
pub fn service_json(results: &[ScenarioResult], smoke: bool, corpus_claims: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"zkrownn-bench-service/v1\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!(
        "  \"threads\": {},\n",
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!("  \"corpus_claims\": {corpus_claims},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"clients\": {}, \"batching\": {}, \
             \"total_claims\": {}, \"errors\": {}, \"retries\": {}, \"elapsed_s\": {:.6}, \
             \"claims_per_s\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"mean_batch\": {:.3}, \"batch_max\": {}}}{}\n",
            r.name,
            r.clients,
            r.batching,
            r.total_claims,
            r.errors,
            r.retries,
            r.elapsed_s,
            r.claims_per_s,
            r.p50_ms,
            r.p99_ms,
            r.mean_batch,
            r.batch_max,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Formats scenario results as a human-readable table on `w`.
pub fn print_results(
    w: &mut impl std::io::Write,
    results: &[ScenarioResult],
) -> std::io::Result<()> {
    writeln!(
        w,
        "| scenario | claims | claims/s | p50 (ms) | p99 (ms) | mean batch | errors | retries |"
    )?;
    writeln!(w, "|---|---:|---:|---:|---:|---:|---:|---:|")?;
    for r in results {
        writeln!(
            w,
            "| {} | {} | {:.1} | {:.2} | {:.2} | {:.2} | {} | {} |",
            r.name,
            r.total_claims,
            r.claims_per_s,
            r.p50_ms,
            r.p99_ms,
            r.mean_batch,
            r.errors,
            r.retries
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_index_correctly() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&sorted, 0.50), 50.0);
        assert_eq!(percentile_ms(&sorted, 0.99), 99.0);
        assert_eq!(percentile_ms(&sorted, 1.0), 100.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn service_json_is_well_formed() {
        let row = ScenarioResult {
            name: "clients-4".into(),
            clients: 4,
            batching: true,
            total_claims: 96,
            errors: 0,
            elapsed_s: 1.5,
            claims_per_s: 64.0,
            p50_ms: 20.0,
            p99_ms: 55.5,
            mean_batch: 3.2,
            batch_max: 7,
            retries: 1,
        };
        let json = service_json(&[row.clone(), row], true, 6);
        assert_eq!(json.matches("\"retries\": 1").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"schema\": \"zkrownn-bench-service/v1\""));
        assert!(json.contains("\"smoke\": true"));
        assert_eq!(json.matches("\"name\": \"clients-4\"").count(), 2);
        assert!(json.trim_end().ends_with("]\n}"));
    }
}

//! The workloads and the two ways of running one: the plain run that
//! yields the end-to-end metrics, and the traced run that yields the
//! per-layer rows.
//!
//! A workload is a fixture (everything built before the first timed
//! operation), a timed phase over it, a correctness gate outside the timed
//! operations, and the same operation decomposed into public calls under
//! spans. The drivers here — [`measure`] and [`trace`] — are the same for
//! every workload; `prove`, `verify` and `serve` supply the parts.

pub mod prove;
pub mod serve;
pub mod verify;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use zkrownn::{Artifact, SignedClaim, VerifierKit, ZkrownnError};

use crate::corpus::{Circuit, Corpus};
use crate::defs::{from_ns, Source, END_TO_END, PER_LAYER, TAIL_METRIC, TAIL_Q};
use crate::probes;
use crate::report::{Reading, RunResult};
use crate::stats::{min_count_for, Sample};
use crate::trace::Tracer;

/// Set-up repetitions per plain run; `setup_s` and `keygen_s` are medians
/// over them.
pub const SETUP_REPS: usize = 3;

/// Everything a run is told.
#[derive(Debug, Clone)]
pub struct Config {
    /// Drives toxic waste, proof randomness and claim order.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Tiny fixed counts instead of a timed phase; never comparable.
    pub smoke: bool,
    /// Whether the timed loops must collect enough operations to support
    /// the tail percentile; the traced run's passes need medians only.
    pub tails: bool,
    /// This process's scratch directory inside the build directory (key
    /// stores); removed when the run ends.
    pub work_dir: PathBuf,
    /// Where the traced run leaves its span list.
    pub trace_dir: PathBuf,
}

/// Operations a loop that needs only a median makes at the least.
const MEDIAN_FLOOR: usize = 12;

/// How long a timed loop runs: until `seconds` have passed *and* at least
/// `min_ops` operations are in — the floor keeps the tail percentile
/// supported on a slower machine.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Time box.
    pub seconds: f64,
    /// Operation floor.
    pub min_ops: usize,
}

impl Budget {
    /// Whether a loop started at `start` with `ops` operations done may stop.
    pub fn spent(&self, start: Instant, ops: usize) -> bool {
        ops >= self.min_ops && start.elapsed().as_secs_f64() >= self.seconds
    }
}

impl Config {
    /// The budget of a timed loop that needs `floor` operations for its
    /// statistics; smoke runs do `smoke_ops` and stop.
    pub fn budget(&self, floor: usize, smoke_ops: usize) -> Budget {
        if self.smoke {
            Budget {
                seconds: 0.0,
                min_ops: smoke_ops,
            }
        } else {
            Budget {
                seconds: self.seconds,
                min_ops: if self.tails {
                    floor
                } else {
                    floor.min(MEDIAN_FLOOR)
                },
            }
        }
    }

    /// One pass of the traced run: `share` of the time box, and no
    /// operation floor beyond what a median needs.
    pub fn pass(&self, share: f64) -> Self {
        Self {
            seconds: self.seconds * share,
            tails: false,
            ..self.clone()
        }
    }
}

/// Operations a verify sample needs for [`TAIL_Q`] to be supported.
pub fn tail_floor() -> usize {
    min_count_for(TAIL_Q)
}

/// What a fixture's set-up observed about itself.
#[derive(Debug, Clone)]
pub struct SetupCosts {
    /// The quick-CNN trusted setup.
    pub keygen: Duration,
    /// CNN claims proven during set-up (warm-up or corpus).
    pub prove: Vec<Duration>,
    /// CNN proving key bytes, in memory or on disk.
    pub pk_bytes: u64,
    /// Verifying key + statement + claim bytes per claim over the
    /// workload's claim mix.
    pub comm_bytes: f64,
}

/// Counters the running server keeps, diffed around the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerRows {
    /// Mean server-side `VERIFY` latency.
    pub latency_mean_ms: f64,
    /// Mean claims per coalesced batch.
    pub mean_batch: f64,
    /// Largest batch formed.
    pub batch_max: f64,
    /// Connections shed with `Busy`.
    pub sheds: f64,
    /// Reconnect-and-retry cycles the clients performed.
    pub retries: f64,
    /// Circuits degraded to per-claim verification.
    pub degradations: f64,
}

/// What a timed phase produced.
#[derive(Default)]
pub struct Timed {
    /// Claim-out times in seconds (prove workloads; empty elsewhere).
    pub prove_s: Vec<f64>,
    /// Verifications: circuit and latency in milliseconds.
    pub verify_ms: Vec<(Circuit, f64)>,
    /// Wall time the verifications took.
    pub verify_elapsed_s: f64,
    /// `VmHWM` after a reset: over the first proof where the workload
    /// proves, over the whole phase elsewhere.
    pub peak_rss_bytes: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were wrongly judged.
    pub failed: u64,
    /// The server's own counters (serve-closed only).
    pub server: Option<ServerRows>,
    /// Lines for the run's header.
    pub notes: Vec<String>,
}

impl Timed {
    /// The phase's primary operation per circuit, in milliseconds: proofs
    /// where the workload proves, verifications elsewhere.
    fn primary_ms(&self, circuit: Circuit) -> Sample {
        if !self.prove_s.is_empty() {
            let proofs = if circuit == Circuit::Cnn {
                &self.prove_s[..]
            } else {
                &[]
            };
            return Sample::new(proofs.iter().map(|s| s * 1e3).collect());
        }
        Sample::new(
            self.verify_ms
                .iter()
                .filter(|(c, _)| *c == circuit)
                .map(|(_, ms)| *ms)
                .collect(),
        )
    }
}

/// The parts a workload supplies.
pub trait Workload {
    /// Everything built before the first timed operation.
    type Fixture;

    /// Name of the root span of a traced operation.
    fn name(&self) -> &'static str;

    /// One complete set-up, warm-up included.
    fn setup(&self, cfg: &Config) -> Self::Fixture;

    /// What that set-up cost.
    fn setup_costs(&self, fx: &Self::Fixture) -> SetupCosts;

    /// The timed phase.
    fn timed(&self, fx: &mut Self::Fixture, cfg: &Config) -> Timed;

    /// The correctness gate, outside the timed operations: one message per
    /// check that did not come out as it must.
    fn gate(&self, fx: &mut Self::Fixture) -> Vec<String>;

    /// Number of checks [`Self::gate`] makes.
    fn gate_checks(&self) -> u64;

    /// The operation decomposed into public calls under spans, repeated
    /// within `cfg`'s budget; returns (attempted, failed).
    fn traced(&self, fx: &mut Self::Fixture, cfg: &Config, tracer: &mut Tracer) -> (u64, u64);

    /// The full corpus, where the fixture holds one; the traced run's
    /// probes then need not build their own.
    fn corpus<'a>(&self, _fx: &'a Self::Fixture) -> Option<&'a Corpus> {
        None
    }

    /// Stops what the fixture started and removes what it wrote.
    fn teardown(&self, fx: Self::Fixture) {
        drop(fx);
    }
}

/// Decodes a claim and checks it with a statement-bound kit: the operation
/// of `verify-warm`, and the check `prove-*` applies to what it produced.
pub fn warm_verify(kit: &VerifierKit, claim_bytes: &[u8]) -> Result<(), ZkrownnError> {
    kit.verify(&SignedClaim::from_bytes(claim_bytes)?)
}

fn seconds(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median_or_fail(values: Vec<f64>, what: &str) -> f64 {
    Sample::new(values)
        .median()
        .unwrap_or_else(|| panic!("no {what} sample"))
}

/// The plain run: a set-up, the timed phase over it, the gate — then the
/// remaining [`SETUP_REPS`] − 1 set-ups, torn down at once, for the median.
/// The repetitions come last so that the timed phase, and the `VmHWM` it
/// reads, see one set-up's heap and not three.
pub fn measure<W: Workload>(w: &W, cfg: &Config) -> RunResult {
    let reps = if cfg.smoke { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut keygen_s = Vec::new();
    let mut setup_prove_s = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let fx = w.setup(cfg);
        setup_s.push(seconds(start.elapsed()));
        let costs = w.setup_costs(&fx);
        keygen_s.push(seconds(costs.keygen));
        setup_prove_s.extend(costs.prove.iter().copied().map(seconds));
        (fx, costs)
    };
    let (mut fx, costs) = set_up();
    let timed = w.timed(&mut fx, cfg);
    let gate = w.gate(&mut fx);
    w.teardown(fx);
    for _ in 1..reps {
        w.teardown(set_up().0);
    }

    let proofs = if timed.prove_s.is_empty() {
        setup_prove_s
    } else {
        timed.prove_s.clone()
    };
    let verify = Sample::new(timed.verify_ms.iter().map(|(_, ms)| *ms).collect());
    let mut notes = vec![
        format!("set-up repetitions: {reps}"),
        format!("proofs in prove_p50_s: {}", proofs.len()),
        format!(
            "verifications: {} ({} beyond p{:.0}; quartiles {:.3?} ms; the sample supports up to {})",
            verify.count(),
            verify.beyond(TAIL_Q),
            TAIL_Q * 100.0,
            verify.quartiles().expect("a verify sample"),
            verify
                .supported_tail()
                .map_or("no percentile".to_string(), |q| format!("p{:.0}", q * 100.0)),
        ),
        format!("gate checks: {} ({} failed)", w.gate_checks(), gate.len()),
    ];
    notes.extend(timed.notes.iter().cloned());
    notes.extend(gate.iter().map(|m| format!("GATE FAILED: {m}")));
    // a smoke sample supports no tail; it prints the bare percentile and is
    // flagged as never comparable
    let tail = if cfg.smoke {
        verify.percentile(TAIL_Q).expect("a verify sample")
    } else {
        verify
            .tail(TAIL_Q)
            .unwrap_or_else(|refused| panic!("{TAIL_METRIC}: {refused}"))
    };

    let value = |name: &str| match name {
        "setup_s" => median_or_fail(setup_s.clone(), "set-up"),
        "keygen_s" => median_or_fail(keygen_s.clone(), "keygen"),
        "prove_p50_s" => median_or_fail(proofs.clone(), "proof"),
        "peak_rss_mb" => timed.peak_rss_bytes as f64 / 1e6,
        "pk_mb" => costs.pk_bytes as f64 / 1e6,
        "comm_kb" => costs.comm_bytes / 1e3,
        "verify_p50_ms" => verify.median().expect("a verify sample"),
        TAIL_METRIC => tail,
        "claims_per_s" => verify.count() as f64 / timed.verify_elapsed_s,
        other => unreachable!("{other} is not an end-to-end metric"),
    };
    RunResult {
        attempted: timed.attempted + w.gate_checks(),
        failed: timed.failed + gate.len() as u64,
        readings: END_TO_END
            .iter()
            .map(|d| Reading {
                name: d.name,
                value: value(d.name),
                unit: d.unit,
            })
            .collect(),
        notes,
    }
}

/// The traced run: one set-up, the plain operation for half the time box
/// (the base of the shares), the decomposed operation for the other half,
/// then the stand-alone probes; the span list is written when it ends.
pub fn trace<W: Workload>(w: &W, cfg: &Config) -> RunResult {
    let half = cfg.pass(0.5);
    let mut fx = w.setup(cfg);
    let plain = w.timed(&mut fx, &half);
    let mut tracer = Tracer::new();
    let (attempted, failed) = w.traced(&mut fx, &half, &mut tracer);
    let built;
    let corpus = match w.corpus(&fx) {
        Some(corpus) => corpus,
        None => {
            built = Corpus::build(cfg.seed);
            &built
        }
    };
    let probed = probes::run(corpus, cfg);
    w.teardown(fx);

    // the shares, per circuit against that circuit's plain median, then
    // weighted by how many operations of each circuit were traced
    let totals = tracer.op_totals_ns();
    let (mut ops, mut base, mut attributed, mut overhead) = (0.0, 0.0, 0.0, 0.0);
    for circuit in [Circuit::Mlp, Circuit::Cnn] {
        let (Some(t), Some(plain_ms)) = (
            totals.get(circuit.tag()),
            plain.primary_ms(circuit).median(),
        ) else {
            continue;
        };
        let n = t.ops as f64;
        ops += n;
        base += n * plain_ms;
        attributed += n * from_ns(t.attributed_ns, "ms") / plain_ms;
        overhead += n * (from_ns(t.total_ns, "ms") / plain_ms - 1.0);
    }
    assert!(ops > 0.0, "the traced pass decomposed no operation");

    let own = tracer.self_per_op();
    let server = plain.server.unwrap_or_default();
    let value = |name: &'static str, source: Source, unit: &str| match source {
        Source::Span { circuit } => {
            let def = PER_LAYER.iter().find(|r| r.name == name).expect("declared");
            from_ns(own.median_ns(def.span_name(), circuit), unit)
        }
        Source::Probe => probed.get(name),
        Source::Server => match name {
            "service.server_latency_mean_ms" => server.latency_mean_ms,
            "service.mean_batch" => server.mean_batch,
            "service.batch_max" => server.batch_max,
            "service.sheds" => server.sheds,
            "service.retries" => server.retries,
            "service.degradations" => server.degradations,
            other => unreachable!("{other} is not a server row"),
        },
        Source::Trace => match name {
            "trace.ops" => ops,
            "trace.untraced_p50_ms" => base / ops,
            "trace.attributed_share" => attributed / ops,
            "trace.overhead_share" => overhead / ops,
            "trace.spans" => tracer.spans().len() as f64,
            other => unreachable!("{other} is not a trace row"),
        },
    };
    let readings = PER_LAYER
        .iter()
        .map(|d| Reading {
            name: d.name,
            value: value(d.name, d.source, d.unit),
            unit: d.unit,
        })
        .collect();

    let path = cfg.trace_dir.join(format!("trace-{}.json", w.name()));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut f = std::io::BufWriter::new(f);
        tracer.write_json(&mut f, w.name(), cfg.seed)?;
        std::io::Write::flush(&mut f)
    });
    let notes = vec![
        format!(
            "plain pass: {} operations; traced pass: {ops} operations, {} spans",
            plain.prove_s.len().max(plain.verify_ms.len()),
            tracer.spans().len()
        ),
        match written {
            Ok(()) => format!("span list: {}", path.display()),
            Err(e) => format!("span list not written to {}: {e}", path.display()),
        },
    ];
    RunResult {
        attempted: plain.attempted + attempted,
        failed: plain.failed + failed,
        readings,
        notes,
    }
}

/// Runs `workload` by name, plain or traced. `None` for an unknown name.
pub fn run(workload: &str, cfg: &Config, traced: bool) -> Option<RunResult> {
    fn go<W: Workload>(w: W, cfg: &Config, traced: bool) -> RunResult {
        if traced {
            trace(&w, cfg)
        } else {
            measure(&w, cfg)
        }
    }
    Some(match workload {
        "prove-cnn" => go(prove::Prove { streamed: false }, cfg, traced),
        "prove-cnn-streamed" => go(prove::Prove { streamed: true }, cfg, traced),
        "verify-cold" => go(verify::Verify { cold: true }, cfg, traced),
        "verify-warm" => go(verify::Verify { cold: false }, cfg, traced),
        "serve-closed" => go(serve::Serve, cfg, traced),
        _ => return None,
    })
}

/// The decomposed Groth16 check both verify workloads end in: public
/// inputs, their MSM, and the pairing equation in its three steps — what
/// `verify_proof_prepared` does, call by call.
pub(crate) fn check_decomposed(
    tracer: &mut Tracer,
    pvk: &zkrownn_groth16::PreparedVerifyingKey,
    claim: &SignedClaim,
) -> bool {
    use zkrownn_pairing::{final_exponentiation, multi_miller_loop, G2Prepared};
    let inputs = tracer.span("core.public_inputs_ms", |_| {
        claim.statement.public_inputs(claim.proof.verdict)
    });
    let prepared = tracer.span("groth16.prepare_inputs_ms", |_| {
        zkrownn_groth16::prepare_inputs(pvk, &inputs)
    });
    let Ok(prepared) = prepared else {
        return false;
    };
    let proof = &claim.proof.proof;
    let b = tracer.span("pairing.g2_prepare_ms", |_| G2Prepared::from(proof.b));
    let pairs = [
        (proof.a, b),
        (
            prepared.commitment().into_affine().neg(),
            pvk.gamma_prepared.clone(),
        ),
        (proof.c.neg(), pvk.delta_prepared.clone()),
    ];
    let looped = tracer.span("pairing.miller_loop_ms", |_| multi_miller_loop(&pairs));
    let value = tracer.span("pairing.final_exp_ms", |_| final_exponentiation(&looped));
    value == Some(pvk.alpha_beta) && claim.proof.verdict
}

//! The benchmark's declarations: workloads, end-to-end metrics with their
//! bounds, and per-layer rows with the end-to-end metric each should move.
//!
//! `BENCHMARK.json` at the repository root carries the same names, units,
//! directions and bounds for the driver; `tests/smoke.rs` pins the two
//! against each other. `zkbench list` prints these tables.

/// Whether a smaller or a larger reading is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name on the command line.
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The five workloads, all at quick scale over the one seeded corpus.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "prove-cnn",
        why: "owner's cost: Authority::setup then ProverKit::prove on quick cifar-cnn, key in memory; MSM and FFT bound, no store/pairing/service",
    },
    WorkloadDef {
        name: "prove-cnn-streamed",
        why: "same circuit through a .zkst store at a 16 MB budget (pread); its difference to prove-cnn is the store layer",
    },
    WorkloadDef {
        name: "verify-cold",
        why: "stateless third party: zkrownn_verify from bytes, 2 MLP : 1 CNN; statement synthesis and key decode dominate, no cache can act",
    },
    WorkloadDef {
        name: "verify-warm",
        why: "Table I verifier time: claim decode + statement-bound VerifierKit::verify, no synthesis; the only place pairing/ff changes reach end to end",
    },
    WorkloadDef {
        name: "serve-closed",
        why: "operator's view: in-process authority, 2 closed-loop clients (= nproc) over loopback; server-side caching or coalescing gains show here only",
    },
];

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What is measured, on which workloads it is the primary figure.
    pub what: &'static str,
}

/// Name of the tail percentile metric; see [`TAIL_Q`].
pub const TAIL_METRIC: &str = "verify_p90_ms";
/// The tail percentile every workload can support within `run_seconds`
/// (`verify-cold` completes ~100 operations, and p95 would need 200).
pub const TAIL_Q: f64 = 0.90;

/// The end-to-end metrics. Every workload reports every one of them.
pub const END_TO_END: [EndToEndDef; 9] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of the run's set-up repetitions: specs, trusted setup, corpus claims, fixtures (store, registry, server), warm-up",
    },
    EndToEndDef {
        name: "keygen_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median quick-CNN trusted setup, one per set-up repetition; streamed to .zkst on prove-cnn-streamed. Primary on prove-*",
    },
    EndToEndDef {
        name: "prove_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median quick-CNN claim-out time. Primary on prove-* (timed phase); elsewhere the corpus claims proven in set-up",
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM after a reset: over the first timed proof on prove-* (primary: in-memory key vs. 16 MB streaming budget), over the whole timed phase elsewhere",
    },
    EndToEndDef {
        name: "pk_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.01,
        what: "quick-CNN proving key bytes, in memory or on disk; exact",
    },
    EndToEndDef {
        name: "comm_kb",
        unit: "KB",
        better: Better::Lower,
        bound: 0.01,
        what: "verifying key + statement + claim bytes per claim over the workload's claim mix; exact. Primary on verify-cold",
    },
    EndToEndDef {
        name: "verify_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median of the workload's verification: cold, warm, or client-observed; on prove-* the warm check of the claims just produced",
    },
    EndToEndDef {
        name: TAIL_METRIC,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "90th percentile of the same sample (at least 10 samples beyond it); sits in the CNN mode on the mixed workloads",
    },
    EndToEndDef {
        name: "claims_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "verifications completed / elapsed, same sample",
    },
];

/// Where a per-layer row's value comes from in the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Median self time per operation of the span of this name in the
    /// workload's own decomposed operation; 0 where the operation never
    /// makes the call. `circuit` selects the operations counted.
    Span {
        /// `"mlp"`, `"cnn"`, or `""` for every operation.
        circuit: &'static str,
    },
    /// A stand-alone measurement of one public kernel on the shared
    /// corpus; the same procedure on every workload.
    Probe,
    /// Read from the running server's metrics; 0 without a server.
    Server,
    /// Derived from the span list as a whole.
    Trace,
}

/// One per-layer row.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Row name; the crate is the part before the first dot.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where the value comes from.
    pub source: Source,
    /// The end-to-end metric and workload the row should move, and where
    /// it should not.
    pub moves: &'static str,
}

impl LayerDef {
    /// The crate the row belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// For a span row, the span's name: the row name without its circuit
    /// suffix.
    pub fn span_name(&self) -> &'static str {
        if let Source::Span { circuit } = self.source {
            let base = self.name.strip_suffix(circuit);
            if let Some(base) = base.and_then(|b| b.strip_suffix('.')) {
                return base;
            }
        }
        self.name
    }
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        source,
        moves,
    }
}

const LO: Better = Better::Lower;
const HI: Better = Better::Higher;
const PROBE: Source = Source::Probe;
const SERVER: Source = Source::Server;
const ANY: Source = Source::Span { circuit: "" };
const MLP: Source = Source::Span { circuit: "mlp" };
const CNN: Source = Source::Span { circuit: "cnn" };

const MOVES_FF: &str = "prove_p50_s via MSM/FFT; verify_p50_ms on verify-warm; under 5 % elsewhere";
const MOVES_MSM: &str = "prove_p50_s on both prove-*; not verify-*";
const MOVES_FFT: &str = "groth16.witness_map_ms, then prove_p50_s on prove-*";
const MOVES_SYNTH: &str =
    "verify_p50_ms on verify-cold and serve-closed, prove_p50_s slightly; zero on verify-warm";
const MOVES_KEYGEN: &str = "keygen_s on prove-cnn";
const MOVES_PROVE: &str = "prove_p50_s on prove-cnn";
const MOVES_STORE: &str = "keygen_s / prove_p50_s on prove-cnn-streamed only";
const MOVES_DECODE: &str = "verify_p50_ms on all three verify workloads, most on verify-warm";
const MOVES_DECODE_VK: &str =
    "verify_p50_ms on verify-cold only; the kit and the service decode a key once, in setup_s";
const MOVES_ID: &str =
    "verify_p50_ms (mlp) / verify_p90_ms (cnn) and claims_per_s on verify-cold and serve-closed; zero on verify-warm";
const MOVES_PAIRING: &str =
    "verify_p50_ms on verify-warm (about half of a CNN claim); ~2 % on verify-cold and serve-closed";
const MOVES_SERVE: &str = "verify_p50_ms / claims_per_s on serve-closed";
const MOVES_LEDGER: &str = "setup_s on serve-closed only; no other metric";

/// The per-layer rows, grouped by crate.
pub const PER_LAYER: [LayerDef; 78] = [
    // ff — 10⁶ dependent multiplies through the active FieldBackend
    row("ff.fp_mul_ns", "ns", LO, PROBE, MOVES_FF),
    row("ff.fr_mul_ns", "ns", LO, PROBE, MOVES_FF),
    // curves — one key family's MSM alone, and the keygen kernel
    row("curves.msm_g1_ms", "ms", LO, PROBE, MOVES_MSM),
    row("curves.msm_g2_ms", "ms", LO, PROBE, MOVES_MSM),
    row("curves.msm_h_ms", "ms", LO, PROBE, MOVES_MSM),
    row("curves.fixed_base_ms", "ms", LO, PROBE, "keygen_s on prove-*"),
    // poly — one transform over the CNN's domain
    row("poly.fft_ms", "ms", LO, PROBE, MOVES_FFT),
    row("poly.ifft_ms", "ms", LO, PROBE, MOVES_FFT),
    row("poly.domain_size", "count", LO, PROBE, MOVES_FFT),
    // r1cs — exact shape counts, satisfiability check, bare synthesis
    row("r1cs.constraints.mlp", "count", LO, PROBE, MOVES_SYNTH),
    row("r1cs.constraints.cnn", "count", LO, PROBE, MOVES_SYNTH),
    row("r1cs.variables.mlp", "count", LO, PROBE, MOVES_SYNTH),
    row("r1cs.variables.cnn", "count", LO, PROBE, MOVES_SYNTH),
    row("r1cs.is_satisfied_ms", "ms", LO, CNN, "prove_p50_s on prove-*, slightly"),
    row("r1cs.shape_synth_ms.mlp", "ms", LO, PROBE, MOVES_SYNTH),
    row("r1cs.shape_synth_ms.cnn", "ms", LO, PROBE, MOVES_SYNTH),
    // core — the prover's and keygen's front end
    row("core.build_ms", "ms", LO, CNN, "prove_p50_s on prove-*"),
    row("core.shape_synth_ms.mlp", "ms", LO, PROBE, "keygen_s; with r1cs.shape_synth_ms splits synthesis from trace hashing"),
    row("core.shape_synth_ms.cnn", "ms", LO, PROBE, "keygen_s; with r1cs.shape_synth_ms splits synthesis from trace hashing"),
    // groth16 — keygen and prover phases as the crate reports them
    row("groth16.context_ms", "ms", LO, PROBE, MOVES_KEYGEN),
    row("groth16.keygen_qap_ms", "ms", LO, PROBE, MOVES_KEYGEN),
    row("groth16.keygen_commit_ms", "ms", LO, PROBE, MOVES_KEYGEN),
    row("groth16.witness_map_ms", "ms", LO, CNN, MOVES_PROVE),
    row("groth16.msm_phase_ms", "ms", LO, CNN, "prove_p50_s on prove-cnn; against the serial sum of curves.msm_* it is the parallel overlap"),
    row("groth16.assemble_ms", "ms", LO, CNN, MOVES_PROVE),
    row("groth16.msm_terms", "count", LO, PROBE, MOVES_PROVE),
    // store — the .zkst layer
    row("store.write_key_ms", "ms", LO, PROBE, MOVES_STORE),
    row("store.open_ms", "ms", LO, PROBE, MOVES_STORE),
    row("store.stream_pread_ms", "ms", LO, PROBE, "prove_p50_s on prove-cnn-streamed; with stream_mmap_ms the evidence for dropping a backend"),
    row("store.stream_mmap_ms", "ms", LO, PROBE, "none today (production reads with pread); with stream_pread_ms the evidence for dropping a backend"),
    row("store.sha256_mb_per_s", "MB/s", HI, PROBE, MOVES_STORE),
    row("store.witness_map_ms", "ms", LO, CNN, MOVES_STORE),
    row("store.msm_phase_ms", "ms", LO, CNN, MOVES_STORE),
    row("store.segments", "count", LO, PROBE, MOVES_STORE),
    row("store.file_mb", "MB", LO, PROBE, "pk_mb on prove-cnn-streamed"),
    // core — artifact decode (subgroup checks included) and statement work
    row("core.decode_claim_ms.mlp", "ms", LO, MLP, MOVES_DECODE),
    row("core.decode_claim_ms.cnn", "ms", LO, CNN, MOVES_DECODE),
    row("core.decode_statement_ms.mlp", "ms", LO, MLP, "verify_p50_ms on verify-cold"),
    row("core.decode_statement_ms.cnn", "ms", LO, CNN, "verify_p90_ms on verify-cold"),
    row("core.statement_digest_ms.mlp", "ms", LO, MLP, MOVES_DECODE),
    row("core.statement_digest_ms.cnn", "ms", LO, CNN, MOVES_DECODE),
    row("core.public_inputs_ms.mlp", "ms", LO, MLP, MOVES_DECODE),
    row("core.public_inputs_ms.cnn", "ms", LO, CNN, MOVES_DECODE),
    row("core.decode_vk_ms.mlp", "ms", LO, MLP, MOVES_DECODE_VK),
    row("core.decode_vk_ms.cnn", "ms", LO, CNN, MOVES_DECODE_VK),
    row("core.statement_id_ms.mlp", "ms", LO, MLP, MOVES_ID),
    row("core.statement_id_ms.cnn", "ms", LO, CNN, MOVES_ID),
    // groth16 — the verifier's steps
    row("groth16.vk_prepare_ms", "ms", LO, ANY, "verify_p50_ms on verify-cold only"),
    row("groth16.prepare_inputs_ms.mlp", "ms", LO, MLP, "verify_p50_ms on verify-warm (about 55 % of an MLP claim)"),
    row("groth16.prepare_inputs_ms.cnn", "ms", LO, CNN, "verify_p90_ms on verify-warm"),
    row("groth16.batch_verify_ms", "ms", LO, ANY, "verify_p50_ms on serve-closed: the RLC check of a batch of one, as the registry runs it"),
    row("groth16.batch16_ms_per_claim", "ms", LO, PROBE, "claims_per_s on serve-closed, in proportion to service.mean_batch"),
    // pairing — the three steps of one Groth16 check
    row("pairing.g2_prepare_ms", "ms", LO, ANY, MOVES_PAIRING),
    row("pairing.miller_loop_ms", "ms", LO, ANY, MOVES_PAIRING),
    row("pairing.final_exp_ms", "ms", LO, ANY, MOVES_PAIRING),
    // core — the registry the service verifies through
    row("core.registry_verify_ms.mlp", "ms", LO, PROBE, MOVES_SERVE),
    row("core.registry_verify_ms.cnn", "ms", LO, PROBE, MOVES_SERVE),
    row("core.registry_batch16_ms_per_claim.mlp", "ms", LO, PROBE, MOVES_SERVE),
    row("core.registry_batch16_ms_per_claim.cnn", "ms", LO, PROBE, MOVES_SERVE),
    // service — codec, transport floor, coalescer, and the server's own counters
    row("service.encode_request_us", "us", LO, ANY, MOVES_SERVE),
    row("service.read_request_us", "us", LO, ANY, MOVES_SERVE),
    row("service.stats_roundtrip_us", "us", LO, ANY, "verify_p50_ms on serve-closed: one STATS round trip, the transport and dispatch floor"),
    row("service.coalescer_verify_ms.mlp", "ms", LO, PROBE, MOVES_SERVE),
    row("service.coalescer_verify_ms.cnn", "ms", LO, PROBE, MOVES_SERVE),
    row("service.server_latency_mean_ms", "ms", LO, SERVER, "verify_p50_ms on serve-closed; client p50 minus this is the transport share"),
    row("service.mean_batch", "count", HI, SERVER, "claims_per_s on serve-closed"),
    row("service.batch_max", "count", HI, SERVER, "claims_per_s on serve-closed"),
    row("service.sheds", "count", LO, SERVER, MOVES_SERVE),
    row("service.retries", "count", LO, SERVER, MOVES_SERVE),
    row("service.degradations", "count", LO, SERVER, MOVES_SERVE),
    // ledger — the registration log
    row("ledger.register_us", "us", LO, PROBE, MOVES_LEDGER),
    row("ledger.prove_member_us", "us", LO, PROBE, MOVES_LEDGER),
    row("ledger.verify_membership_us", "us", LO, PROBE, MOVES_LEDGER),
    // trace — how well the rows above account for the operation
    row("trace.ops", "count", HI, Source::Trace, "operations decomposed in the traced pass"),
    row("trace.untraced_p50_ms", "ms", LO, Source::Trace, "the plain operation's median in the same process, per circuit weighted by operation count: the base of the two shares"),
    row("trace.attributed_share", "ratio", HI, Source::Trace, "sum of an operation's child spans / its untraced median; in 0.85-1.15 when the rows account for the operation"),
    row("trace.overhead_share", "ratio", LO, Source::Trace, "traced operation total / untraced median - 1"),
    row("trace.spans", "count", LO, Source::Trace, "spans recorded"),
];

/// Conversion from nanoseconds to a time unit of the tables.
pub fn from_ns(ns: f64, unit: &str) -> f64 {
    match unit {
        "ns" => ns,
        "us" => ns / 1e3,
        "ms" => ns / 1e6,
        "s" => ns / 1e9,
        other => panic!("{other} is not a time unit"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn span_rows_name_their_span() {
        let by_name = |n: &str| PER_LAYER.iter().find(|r| r.name == n).unwrap();
        assert_eq!(
            by_name("core.statement_id_ms.cnn").span_name(),
            "core.statement_id_ms"
        );
        assert_eq!(by_name("core.build_ms").span_name(), "core.build_ms");
        assert_eq!(
            by_name("pairing.final_exp_ms").span_name(),
            "pairing.final_exp_ms"
        );
        assert_eq!(by_name("core.statement_id_ms.mlp").layer(), "core");
        for r in PER_LAYER {
            if let Source::Span { .. } = r.source {
                // a span row is a time, so its unit converts from nanoseconds
                let _ = from_ns(1.0, r.unit);
            }
        }
    }
}

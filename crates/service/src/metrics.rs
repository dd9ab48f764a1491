//! Lock-free service metrics: request/outcome counters, a log-scaled
//! latency histogram, and batch-occupancy accounting for the RLC
//! coalescer.
//!
//! Everything is plain relaxed atomics — workers record on the hot path
//! without contention, and [`Metrics::snapshot`] reads a consistent-enough
//! view for the `STATS` endpoint (individual counters are exact; cross-
//! counter skew is bounded by in-flight requests).
//!
//! # Adding a counter
//!
//! One line in the [`counters!`](self) table below — a doc comment, the
//! name and the kind ([`Count`], [`Peak`] or [`Gauge`]). The name becomes
//! the public field on [`Metrics`] that call sites record through
//! (`metrics.sheds.add(1)`), the public `u64` field of the same name on
//! [`MetricsSnapshot`], and the key in the `STATS` JSON; nothing else is
//! written by hand. A new key is a `STATS` schema change: bump the tag in
//! [`MetricsSnapshot::to_json`] and the pinned key list in this module's
//! tests.

use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::protocol::Status;

/// Histogram bucket count: bucket `b` holds samples in `[2^(b-1), 2^b)`
/// microseconds (bucket 0 holds sub-microsecond samples), so 40 buckets
/// reach ~9 minutes — far beyond any sane claim latency.
const BUCKETS: usize = 40;

/// Outcome-counter slots, indexed by the wire status codes `0x00..=0x07`
/// ([`Status::Protocol`] is tracked separately as a framing error).
const OUTCOMES: usize = 8;

/// A monotone event or quantity count — the one kind that code outside
/// this module moves.
#[derive(Default)]
pub struct Count(AtomicU64);

impl Count {
    /// Counts `n` more.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
}

/// A high-water mark, raised by [`Metrics::end_verify`] and
/// [`Metrics::record_batch`].
#[derive(Default)]
pub struct Peak(AtomicU64);

/// A level that rises and falls: [`Metrics::begin_verify`] and
/// [`Metrics::end_verify`] move it, the acceptor's idle check reads it.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// The current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Generates [`Metrics`], [`MetricsSnapshot`], the copy between them and
/// the counter rows of the `STATS` JSON from one table of
/// `/// doc` + `name: Kind` rows. The outcome slots and the latency
/// histogram are not rows — recording into them is logic — so they are
/// spelled out here once.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident: $kind:ident,)*) => {
        /// Shared, append-only service counters.
        pub struct Metrics {
            started: Instant,
            /// Per-[`Status`] response counts for `VERIFY` requests.
            outcomes: [Count; OUTCOMES],
            /// Log₂-microsecond latency histogram over `VERIFY` handling,
            /// and the sum of its samples.
            latency_buckets: [Count; BUCKETS],
            latency_sum_us: Count,
            $($(#[$doc])* pub $name: $kind,)*
        }

        /// A point-in-time copy of [`Metrics`], with derived quantiles and
        /// the JSON emitter the `STATS` endpoint serves.
        #[derive(Clone, Debug)]
        pub struct MetricsSnapshot {
            /// Time since the metrics were created (≈ server start).
            pub uptime: Duration,
            /// Responses by status code `0x00..=0x07`.
            pub outcomes: [u64; OUTCOMES],
            /// Log₂-microsecond latency histogram.
            pub latency_buckets: [u64; BUCKETS],
            /// Sum of all recorded latencies (µs).
            pub latency_sum_us: u64,
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Default for Metrics {
            fn default() -> Self {
                Self {
                    started: Instant::now(),
                    outcomes: Default::default(),
                    latency_buckets: std::array::from_fn(|_| Count::default()),
                    latency_sum_us: Count::default(),
                    $($name: $kind::default(),)*
                }
            }
        }

        impl Metrics {
            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    uptime: self.started.elapsed(),
                    outcomes: std::array::from_fn(|i| self.outcomes[i].0.load(Ordering::Relaxed)),
                    latency_buckets: std::array::from_fn(|i| self.latency_buckets[i].0.load(Ordering::Relaxed)),
                    latency_sum_us: self.latency_sum_us.0.load(Ordering::Relaxed),
                    $($name: self.$name.0.load(Ordering::Relaxed),)*
                }
            }

            /// Every table row's name and cell, in declaration order.
            #[cfg(test)]
            fn cells(&self) -> Vec<(&'static str, &AtomicU64)> {
                vec![$((stringify!($name), &self.$name.0),)*]
            }
        }

        impl MetricsSnapshot {
            /// Every table row as `(name, value)`, in declaration order.
            fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name),)*].into_iter()
            }
        }
    };
}

counters! {
    /// `VERIFY` requests received (== sum of the outcomes, once answered).
    requests: Count,
    /// Frames rejected at the protocol layer (bad opcode/length/payload).
    protocol_errors: Count,
    /// Connections accepted.
    connections: Count,
    /// Claims currently inside the verification pipeline.
    in_flight: Gauge,
    /// Largest recorded latency (µs).
    latency_max_us: Peak,
    /// Verification batches dispatched by the coalescer.
    batches: Count,
    /// Claims covered by those batches.
    batched_claims: Count,
    /// Largest single batch.
    batch_max: Peak,
    /// `ROOT` requests served.
    ledger_roots: Count,
    /// `PROVE_MEMBER` requests answered with a proof.
    ledger_membership_proofs: Count,
    /// `PROVE_MEMBER` requests for leaves not in the ledger.
    ledger_membership_misses: Count,
    /// `CONSISTENCY` requests answered with a proof.
    ledger_consistency_proofs: Count,
    /// `CONSISTENCY` requests for sizes beyond the current tree.
    ledger_consistency_misses: Count,
    /// Connections shed with `Busy` because the accept queue was full.
    sheds: Count,
    /// Responses abandoned because a slow-reading peer held the socket
    /// past the write deadline.
    write_timeouts: Count,
    /// Per-claim degradation windows entered by the coalescer (one circuit,
    /// repeatedly poisoned RLC batches).
    degradations: Count,
    /// Key files quarantined (skipped and renamed to `*.corrupt`) during
    /// startup key loading.
    quarantined_keys: Count,
}

impl Metrics {
    /// Fresh, all-zero metrics anchored at "now".
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a `VERIFY` request as entering the pipeline.
    pub fn begin_verify(&self) {
        self.requests.add(1);
        self.in_flight.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a finished `VERIFY` request: its outcome and its
    /// service-side latency (frame decoded → response ready).
    pub fn end_verify(&self, status: Status, latency: Duration) {
        self.in_flight.0.fetch_sub(1, Ordering::Relaxed);
        if let Some(outcome) = self.outcomes.get((status as u8) as usize) {
            outcome.add(1);
        }
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency_buckets[bucket_of(us)].add(1);
        self.latency_sum_us.add(us);
        self.latency_max_us.0.fetch_max(us, Ordering::Relaxed);
    }

    /// Records one dispatched verification batch of `n` claims.
    pub fn record_batch(&self, n: usize) {
        self.batches.add(1);
        self.batched_claims.add(n as u64);
        self.batch_max.0.fetch_max(n as u64, Ordering::Relaxed);
    }
}

/// The histogram bucket of a sample: its bit length (0 for a zero sample).
fn bucket_of(us: u64) -> usize {
    ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl MetricsSnapshot {
    /// Count of a specific outcome.
    pub fn outcome(&self, status: Status) -> u64 {
        self.outcomes[(status as u8) as usize]
    }

    /// Total latency samples recorded.
    pub fn latency_count(&self) -> u64 {
        self.latency_buckets.iter().sum()
    }

    /// Mean recorded latency in microseconds.
    pub fn latency_mean_us(&self) -> f64 {
        // nothing recorded ⇒ the sum is 0 too, so the mean reads 0, not NaN
        self.latency_sum_us as f64 / self.latency_count().max(1) as f64
    }

    /// Approximate latency quantile (bucket upper bound), `q` in `[0, 1]`.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        let n = self.latency_count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, &count) in self.latency_buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << b; // bucket upper bound
            }
        }
        self.latency_max_us
    }

    /// Mean claims per dispatched batch (1.0 when every claim went solo).
    pub fn mean_batch(&self) -> f64 {
        self.batched_claims as f64 / self.batches.max(1) as f64
    }

    /// Renders the snapshot as the flat JSON document served by `STATS`:
    /// every table row under its own name, the eight `VERIFY` outcomes
    /// under [`Status::name`], the derived latency and batch figures, and
    /// the server-side state passed in — the coalescer's configured
    /// `max_batch` (1 = coalescing off), how many `circuits` are registered
    /// and the `ledger_size`.
    ///
    /// Schema history: `zkrownn-service-stats/v2` renamed `circuits` to
    /// `registered_circuits` and added `ledger_size` plus the five
    /// `ledger_*` operation counters; `v3` added the four robustness
    /// counters `sheds`, `write_timeouts`, `degradations` and
    /// `quarantined_keys`; `v4` replaced the `batching` flag with
    /// `max_batch`. Everything earlier is otherwise unchanged.
    pub fn to_json(&self, max_batch: usize, circuits: usize, ledger_size: u64) -> String {
        let outcomes = (0..OUTCOMES as u8)
            .filter_map(Status::from_u8)
            .map(|status| (status.name(), self.outcome(status)));
        let extra = [
            ("latency_count", self.latency_count()),
            ("latency_p50_us", self.latency_quantile_us(0.50)),
            ("latency_p99_us", self.latency_quantile_us(0.99)),
            ("max_batch", max_batch as u64),
            ("registered_circuits", circuits as u64),
            ("ledger_size", ledger_size),
        ];
        let mut json = format!(
            "{{\"schema\": \"zkrownn-service-stats/v4\", \"uptime_s\": {:.3}, \
             \"latency_mean_us\": {:.1}, \"batch_mean\": {:.3}",
            self.uptime.as_secs_f64(),
            self.latency_mean_us(),
            self.mean_batch(),
        );
        for (key, value) in self.counters().chain(outcomes).chain(extra) {
            write!(json, ", \"{key}\": {value}").expect("writing to a String cannot fail");
        }
        json + "}"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::stats_field_u64;

    #[test]
    fn buckets_are_log2_microseconds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_and_means_track_recordings() {
        let m = Metrics::new();
        for us in [100u64, 200, 400, 800] {
            m.begin_verify();
            m.end_verify(Status::Ok, Duration::from_micros(us));
        }
        m.begin_verify();
        m.end_verify(Status::InvalidProof, Duration::from_micros(100_000));
        let s = m.snapshot();
        assert_eq!(s.requests, 5);
        assert_eq!(s.outcome(Status::Ok), 4);
        assert_eq!(s.outcome(Status::InvalidProof), 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.latency_count(), 5);
        assert_eq!(s.latency_max_us, 100_000);
        // the median sample is 400µs, whose bucket is (256, 512]
        assert_eq!(s.latency_quantile_us(0.5), 512);
        // p99 lands on the straggler's bucket
        assert!(s.latency_quantile_us(0.99) >= 65_536);
        let mean = s.latency_mean_us();
        assert!((mean - 20_300.0).abs() < 1.0, "{mean}");
    }

    #[test]
    fn batch_accounting() {
        let m = Metrics::new();
        m.record_batch(1);
        m.record_batch(7);
        m.record_batch(4);
        let s = m.snapshot();
        assert_eq!(s.batches, 3);
        assert_eq!(s.batched_claims, 12);
        assert_eq!(s.batch_max, 7);
        assert!((s.mean_batch() - 4.0).abs() < 1e-9);
    }

    /// Totality, driven by the declaration: every row of the table reaches
    /// the snapshot field and the JSON key of its own name.
    #[test]
    fn every_declared_counter_reaches_the_snapshot_and_the_json() {
        let m = Metrics::new();
        for ((_, cell), value) in m.cells().into_iter().zip(1u64..) {
            cell.store(value, Ordering::Relaxed);
        }
        let snapshot = m.snapshot();
        let json = snapshot.to_json(64, 2, 5);
        for ((name, value), expected) in snapshot.counters().zip(1u64..) {
            assert_eq!(value, expected, "{name}");
            assert_eq!(json.matches(&format!("\"{name}\":")).count(), 1, "{name}");
            assert_eq!(stats_field_u64(&json, name), Some(expected), "{name}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    /// Compatibility pin, deliberately *not* derived from the table: every
    /// quoted string of a v4 document — the v3 key set with `batching`
    /// replaced by `max_batch`, plus the schema tag. A counter renamed in
    /// the table turns this red instead of silently changing the schema.
    #[test]
    fn stats_v4_key_set_is_pinned() {
        const V4: &str = "schema zkrownn-service-stats/v4 uptime_s requests ok negative_verdict \
            invalid_proof unknown_circuit circuit_mismatch statement_mismatch malformed_claim \
            internal protocol_errors connections in_flight latency_count latency_mean_us \
            latency_p50_us latency_p99_us latency_max_us batches batched_claims batch_mean \
            batch_max ledger_roots ledger_membership_proofs ledger_membership_misses \
            ledger_consistency_proofs ledger_consistency_misses sheds write_timeouts \
            degradations quarantined_keys max_batch registered_circuits ledger_size";
        let json = Metrics::new().snapshot().to_json(64, 2, 5);
        let mut quoted: Vec<&str> = json.split('"').skip(1).step_by(2).collect();
        let mut pinned: Vec<&str> = V4.split_whitespace().collect();
        quoted.sort_unstable();
        pinned.sort_unstable();
        assert_eq!(quoted, pinned);
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own files, around the calls into
//! each crate's public functions; nothing inside the crates is
//! instrumented. One *operation* (a proof, a verification) is a root span
//! with an operation id; the calls it is decomposed into are its children.
//! A span's **self time** is its duration minus the part of that interval
//! its children cover, so nested calls are never counted twice.
//!
//! The list is kept in memory and written as JSON once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use crate::json::quote;
use crate::stats::Sample;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call (`"core.statement_id_ms"`) or, for a root, the
    /// operation (`"verify-cold"`).
    pub name: &'static str,
    /// The operation's circuit (`"mlp"`, `"cnn"`), shared by all its spans.
    pub circuit: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for an operation's root.
    pub parent: Option<usize>,
    /// Operation id, shared by a root and everything under it.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, outermost first.
    open: Vec<usize>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, circuit: &'static str, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            circuit,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        index
    }

    fn pop(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
    }

    /// Runs `f` as one operation named `name` over `circuit`: a root span
    /// with a fresh operation id, under which `f` records the calls.
    ///
    /// # Panics
    /// Panics when called inside another operation.
    pub fn op<T>(
        &mut self,
        name: &'static str,
        circuit: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        assert!(self.open.is_empty(), "operations do not nest");
        let op = self.next_op;
        self.next_op += 1;
        let index = self.push(name, circuit, op);
        let out = f(self);
        self.pop(index);
        out
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    ///
    /// # Panics
    /// Panics outside an operation.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let (circuit, op) = self.current();
        let index = self.push(name, circuit, op);
        let out = f(self);
        self.pop(index);
        out
    }

    /// Records a span the callee timed itself (`ProverTimings` and the
    /// like): `duration` long, starting `offset` after `anchor`, as a child
    /// of the innermost open span.
    pub fn reported(
        &mut self,
        name: &'static str,
        anchor: Instant,
        offset: Duration,
        duration: Duration,
    ) {
        let (circuit, op) = self.current();
        let start_ns = (anchor.duration_since(self.epoch) + offset).as_nanos() as u64;
        self.spans.push(Span {
            name,
            circuit,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent: self.open.last().copied(),
            op,
        });
    }

    fn current(&self) -> (&'static str, u64) {
        let parent = *self.open.last().expect("a span needs an open operation");
        (self.spans[parent].circuit, self.spans[parent].op)
    }

    /// Every span recorded so far, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Self::spans`]:
    /// duration minus the durations of its direct children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Self time summed per `(operation, span name)`: a call made twice in
    /// one operation counts once. Roots are left out — what a root has
    /// left is the unattributed rest.
    pub fn self_per_op(&self) -> SelfPerOp {
        let own = self.self_times_ns();
        let mut per_op: BTreeMap<(&'static str, &'static str, u64), u64> = BTreeMap::new();
        for (span, own_ns) in self.spans.iter().zip(own) {
            if span.parent.is_some() {
                *per_op
                    .entry((span.name, span.circuit, span.op))
                    .or_default() += own_ns;
            }
        }
        SelfPerOp(
            per_op
                .into_iter()
                .map(|((name, circuit, _), ns)| (name, circuit, ns as f64))
                .collect(),
        )
    }

    /// Per circuit: operation count, median root duration, and median sum
    /// of the root's direct children — the traced total and the part of it
    /// the spans account for, both in nanoseconds.
    pub fn op_totals_ns(&self) -> BTreeMap<&'static str, OpTotals> {
        let mut children: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &self.spans {
            if span.parent.is_some_and(|p| self.spans[p].parent.is_none()) {
                *children.entry(span.op).or_default() += span.duration_ns();
            }
        }
        let mut by_circuit: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for root in self.spans.iter().filter(|s| s.parent.is_none()) {
            let entry = by_circuit.entry(root.circuit).or_default();
            entry.0.push(root.duration_ns() as f64);
            entry
                .1
                .push(children.get(&root.op).copied().unwrap_or(0) as f64);
        }
        by_circuit
            .into_iter()
            .filter_map(|(circuit, (totals, attributed))| {
                Some((
                    circuit,
                    OpTotals {
                        ops: totals.len(),
                        total_ns: Sample::new(totals).median()?,
                        attributed_ns: Sample::new(attributed).median()?,
                    },
                ))
            })
            .collect()
    }

    /// Writes the span list as one JSON document.
    pub fn write_json(&self, w: &mut impl Write, workload: &str, seed: u64) -> std::io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"schema\": \"zkbench-trace/v1\",")?;
        writeln!(w, "  \"workload\": {},", quote(workload))?;
        writeln!(w, "  \"seed\": {seed},")?;
        writeln!(w, "  \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "    {{\"id\": {i}, \"name\": {}, \"circuit\": {}, \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}",
                quote(s.name),
                quote(s.circuit),
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," },
            )?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")
    }
}

/// What [`Tracer::op_totals_ns`] reports for one circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTotals {
    /// Operations traced.
    pub ops: usize,
    /// Median duration of the operation's root span.
    pub total_ns: f64,
    /// Median sum of the root's direct children.
    pub attributed_ns: f64,
}

/// What [`Tracer::self_per_op`] returns: one self time per operation and
/// span name.
#[derive(Debug, Clone)]
pub struct SelfPerOp(Vec<(&'static str, &'static str, f64)>);

impl SelfPerOp {
    /// Median over operations of span `name`'s self time, in nanoseconds;
    /// `circuit` narrows to that circuit's operations (`""` takes all).
    /// Zero when no such operation made the call.
    pub fn median_ns(&self, name: &str, circuit: &str) -> f64 {
        let values = self
            .0
            .iter()
            .filter(|(n, c, _)| *n == name && (circuit.is_empty() || *c == circuit))
            .map(|(_, _, ns)| *ns)
            .collect();
        Sample::new(values).median().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Builds a tracer with hand-set times so the arithmetic is exact.
    fn fixture() -> Tracer {
        let span = |name, circuit, start_ns, end_ns, parent, op| Span {
            name,
            circuit,
            start_ns,
            end_ns,
            parent,
            op,
        };
        let mut t = Tracer::new();
        t.spans = vec![
            span("verify", "mlp", 0, 100, None, 0),
            span("decode", "mlp", 0, 30, Some(0), 0),
            span("check", "mlp", 30, 90, Some(0), 0),
            span("pairing", "mlp", 40, 80, Some(2), 0),
            span("verify", "mlp", 100, 300, None, 1),
            span("decode", "mlp", 100, 150, Some(4), 1),
            span("decode", "mlp", 150, 160, Some(4), 1),
            span("verify", "cnn", 300, 310, None, 2),
        ];
        t.next_op = 3;
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = fixture();
        assert_eq!(t.self_times_ns(), vec![10, 30, 20, 40, 140, 50, 10, 10]);
    }

    #[test]
    fn medians_sum_repeated_calls_within_an_operation() {
        let own = fixture().self_per_op();
        // op 0: decode 30; op 1: decode 50 + 10 = 60; nearest-rank median of
        // {30, 60} is 30
        assert_eq!(own.median_ns("decode", "mlp"), 30.0);
        assert_eq!(own.median_ns("decode", ""), 30.0);
        assert_eq!(own.median_ns("check", "mlp"), 20.0);
        assert_eq!(own.median_ns("pairing", ""), 40.0);
        assert_eq!(own.median_ns("decode", "cnn"), 0.0, "no such call");
        assert_eq!(own.median_ns("verify", "mlp"), 0.0, "roots are left out");
    }

    #[test]
    fn op_totals_split_by_circuit() {
        let t = fixture();
        let totals = t.op_totals_ns();
        assert_eq!(
            totals["mlp"],
            OpTotals {
                ops: 2,
                total_ns: 100.0,
                attributed_ns: 60.0
            }
        );
        assert_eq!(
            totals["cnn"],
            OpTotals {
                ops: 1,
                total_ns: 10.0,
                attributed_ns: 0.0
            }
        );
    }

    #[test]
    fn live_spans_nest_and_share_the_operation_id() {
        let mut t = Tracer::new();
        let out = t.op("op", "cnn", |t| t.span("outer", |t| t.span("inner", |_| 7)));
        assert_eq!(out, 7);
        t.op("op", "mlp", |t| {
            let anchor = Instant::now();
            t.reported(
                "told",
                anchor,
                Duration::from_nanos(5),
                Duration::from_nanos(11),
            );
        });
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["op", "outer", "inner", "op", "told"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), None, Some(3)]
        );
        assert_eq!(s.iter().map(|s| s.op).collect::<Vec<_>>(), [0, 0, 0, 1, 1]);
        assert_eq!(s[2].circuit, "cnn");
        assert_eq!(s[4].circuit, "mlp");
        assert_eq!(s[4].end_ns - s[4].start_ns, 11);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn json_dump_parses_back() {
        let t = fixture();
        let mut out = Vec::new();
        t.write_json(&mut out, "verify-cold", 9).unwrap();
        let doc = json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(doc.get("seed").and_then(json::Value::as_f64), Some(9.0));
        let spans = doc.get("spans").and_then(json::Value::as_array).unwrap();
        assert_eq!(spans.len(), 8);
        assert_eq!(
            spans[3].get("parent").and_then(json::Value::as_f64),
            Some(2.0)
        );
        assert_eq!(spans[0].get("parent"), Some(&json::Value::Null));
    }
}

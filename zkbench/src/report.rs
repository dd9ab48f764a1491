//! Results: what one run reports, how it is printed, and how two sets of
//! runs are compared against the declared bounds.
//!
//! A run prints a human-readable header (threads, sample counts, every
//! metric by name with its unit) and, as the last line of standard output,
//! one flat JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `zkbench run --workload all --out FILE` collects those lines, one per
//! workload, into the result file `zkbench compare` reads.

use std::fmt::Write as _;

use crate::defs::{Better, END_TO_END};
use crate::json::{self, quote, Value};

/// One metric reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name, as declared in [`crate::defs`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one run of one workload reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations attempted, timed and gate checks together.
    pub attempted: u64,
    /// Operations that failed or were wrongly judged.
    pub failed: u64,
    /// Every end-to-end metric (plain run) or every per-layer row (traced).
    pub readings: Vec<Reading>,
    /// Header lines: sample counts, what the gate checked, file paths.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Whether every operation was judged correctly.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The flat JSON object that ends a run's standard output.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, r) in self.readings.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                quote(r.name),
                number(r.value),
                quote(r.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The readings as an aligned table, one metric per line.
    pub fn table(&self) -> String {
        let width = self
            .readings
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for r in &self.readings {
            let _ = writeln!(out, "  {:width$}  {:>14.6} {}", r.name, r.value, r.unit);
        }
        out
    }
}

/// A finite double with all its digits (`{}` prints the shortest text that
/// parses back to the same value).
///
/// # Panics
/// Panics on a non-finite value: every reading is a measurement.
fn number(value: f64) -> String {
    assert!(value.is_finite(), "non-finite reading");
    format!("{value}")
}

/// The header of a result file, ahead of its per-workload results.
#[derive(Debug, Clone, PartialEq)]
pub struct FileHeader {
    /// `--seed` of every run in the file.
    pub seed: u64,
    /// `--seconds` of every run in the file.
    pub seconds: f64,
    /// Whether the runs used smoke counts (never comparable).
    pub smoke: bool,
    /// `available_parallelism` where the runs were made.
    pub threads: usize,
}

/// Assembles a result file from the final lines of its runs.
pub fn result_file(header: &FileHeader, runs: &[(&str, String)]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"zkbench-result/v1\",");
    let _ = writeln!(out, "  \"seed\": {},", header.seed);
    let _ = writeln!(out, "  \"seconds\": {},", number(header.seconds));
    let _ = writeln!(out, "  \"smoke\": {},", header.smoke);
    let _ = writeln!(out, "  \"threads\": {},", header.threads);
    let _ = writeln!(out, "  \"results\": {{");
    for (i, (workload, line)) in runs.iter().enumerate() {
        let comma = if i + 1 == runs.len() { "" } else { "," };
        let _ = writeln!(out, "    {}: {line}{comma}", quote(workload));
    }
    out.push_str("  }\n}\n");
    out
}

/// The outcome of [`compare`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// `(workload, metric)` pairs compared.
    pub compared: usize,
    /// The `(workload, metric)` pairs that differ by more than the metric's
    /// bound, either way: the two files are meant to be the same commit, so
    /// a large improvement is as much a sign of an unsteady benchmark as a
    /// large slip.
    pub regressions: Vec<(String, &'static str)>,
    /// One line per pair, for printing.
    pub lines: Vec<String>,
}

/// Compares two result files metric by metric against the declared bounds.
///
/// Errors on a malformed file, a smoke file, a failed run, or files whose
/// workloads or metrics do not line up — none of those is comparable.
pub fn compare(a_text: &str, b_text: &str) -> Result<Comparison, String> {
    let a = load(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = load(b_text).map_err(|e| format!("second file: {e}"))?;
    if a.len() != b.len() {
        return Err("the files hold different workloads".into());
    }
    let mut out = Comparison::default();
    for ((workload, before), (other, after)) in a.iter().zip(&b) {
        if workload != other {
            return Err(format!("workload {workload} is paired with {other}"));
        }
        for def in END_TO_END {
            let read = |run: &Value| {
                run.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{workload}: {} is missing", def.name))
            };
            let (x, y) = (read(before)?, read(after)?);
            let change = match def.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let past = change.abs() > def.bound;
            out.compared += 1;
            out.lines.push(format!(
                "{workload:20} {:14} {x:>14.6} -> {y:>14.6} {:4}  {:+7.2} % (bound {:.0} %){}",
                def.name,
                def.unit,
                change * 100.0,
                def.bound * 100.0,
                if past { "  PAST BOUND" } else { "" }
            ));
            if past {
                out.regressions.push((workload.clone(), def.name));
            }
        }
    }
    Ok(out)
}

/// Reads a result file into its `(workload, run)` pairs, refusing what is
/// not comparable.
fn load(text: &str) -> Result<Vec<(String, Value)>, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some("zkbench-result/v1") {
        return Err("not a zkbench result file".into());
    }
    if doc.get("smoke").and_then(Value::as_bool) != Some(false) {
        return Err("smoke runs are never comparable".into());
    }
    let results = doc
        .get("results")
        .and_then(Value::as_object)
        .ok_or("no results")?;
    for (workload, run) in results {
        if run.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{workload} failed its correctness gate"));
        }
    }
    Ok(results.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(scale: impl Fn(&str) -> f64) -> RunResult {
        RunResult {
            attempted: 10,
            failed: 0,
            readings: END_TO_END
                .iter()
                .map(|d| Reading {
                    name: d.name,
                    value: 2.5 * scale(d.name),
                    unit: d.unit,
                })
                .collect(),
            notes: Vec::new(),
        }
    }

    fn file_of(run: &RunResult, smoke: bool) -> String {
        let header = FileHeader {
            seed: 1,
            seconds: 10.0,
            smoke,
            threads: 2,
        };
        result_file(
            &header,
            &[
                ("prove-cnn", run.json_line()),
                ("verify-warm", run.json_line()),
            ],
        )
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = run_with(|_| 1.0).json_line();
        let doc = json::parse(&line).unwrap();
        let keys: Vec<_> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics").unwrap().as_object().unwrap().len(),
            END_TO_END.len()
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3");
        let v = 1_234.567_890_123_456_7_f64;
        assert_eq!(number(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn identical_files_compare_clean() {
        let file = file_of(&run_with(|_| 1.0), false);
        let c = compare(&file, &file).unwrap();
        assert_eq!(c.compared, 2 * END_TO_END.len());
        assert!(c.regressions.is_empty());
    }

    #[test]
    fn a_move_past_the_bound_is_flagged_in_either_direction() {
        let base = file_of(&run_with(|_| 1.0), false);
        let bound_of = |name: &str| END_TO_END.iter().find(|d| d.name == name).unwrap().bound;
        let moved = |name: &'static str, factor: f64| {
            file_of(&run_with(|n| if n == name { factor } else { 1.0 }), false)
        };
        // a point inside the bound passes, a point outside does not
        let bound = bound_of("prove_p50_s");
        let within = moved("prove_p50_s", 1.0 + bound - 0.01);
        assert!(compare(&base, &within).unwrap().regressions.is_empty());
        for factor in [1.0 + bound + 0.01, 1.0 - bound - 0.01] {
            let c = compare(&base, &moved("prove_p50_s", factor)).unwrap();
            assert_eq!(c.regressions.len(), 2, "one per workload");
            assert_eq!(c.regressions[0], ("prove-cnn".to_string(), "prove_p50_s"));
        }
        // claims_per_s is better when higher: a drop is the regression
        let slower = moved("claims_per_s", 1.0 - bound_of("claims_per_s") - 0.02);
        let c = compare(&base, &slower).unwrap();
        assert_eq!(c.regressions[0].1, "claims_per_s");
    }

    #[test]
    fn what_is_not_comparable_is_an_error() {
        let good = file_of(&run_with(|_| 1.0), false);
        assert!(compare(&good, "{}").is_err());
        assert!(compare("not json", &good).is_err());
        let smoke = file_of(&run_with(|_| 1.0), true);
        assert!(compare(&good, &smoke).unwrap_err().contains("smoke"));
        let mut failed = run_with(|_| 1.0);
        failed.failed = 1;
        assert!(compare(&good, &file_of(&failed, false))
            .unwrap_err()
            .contains("gate"));
        let mut short = run_with(|_| 1.0);
        short.readings.pop();
        assert!(compare(&good, &file_of(&short, false))
            .unwrap_err()
            .contains("missing"));
    }
}

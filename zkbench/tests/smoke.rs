//! The benchmark's own acceptance tests.
//!
//! `manifest_matches_the_declarations` pins `BENCHMARK.json` (what the
//! driver reads) against `zkbench::defs` (what the harness emits).
//! `smoke_emits_every_declared_metric` runs the built binary with
//! `--smoke`, plain and traced, on every workload and checks the contract
//! of the result line: every declared metric once, finite, with its unit;
//! it proves SNARKs, so it only runs in release builds
//! (`cargo test --release`).

use std::process::Command;

use zkbench::defs::{END_TO_END, PER_LAYER, WORKLOADS};
use zkbench::json::{parse, Value};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root"))
        .expect("BENCHMARK.json is JSON")
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} missing"))
}

fn keys(entry: &Value) -> Vec<&str> {
    entry
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn manifest_matches_the_declarations() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<_> = entries(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["zkbench"]);
    let command: Vec<_> = entries(&doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command.last(), Some(&"run"));
    assert!(command.contains(&"zkbench/Cargo.toml"));

    let workloads = entries(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, def) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "why"), def.why);
    }

    let end_to_end = entries(&doc, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, def) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit);
        assert_eq!(text(entry, "better"), def.better.word());
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(def.bound));
    }

    let per_layer = entries(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (entry, def) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit);
        assert_eq!(text(entry, "better"), def.better.word());
    }
}

/// Runs the harness and returns the parsed last line of its output.
fn run(workload: &str, traced: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_zkbench"))
        .args(["run", "--workload", workload, "--seed", "11", "--smoke"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("the harness starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={traced} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    // the header names the thread count the numbers were taken at
    assert!(stdout
        .lines()
        .next()
        .is_some_and(|l| l.contains("threads=")));
    parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

/// Checks the result line's shape and that `metrics` holds exactly the
/// `declared` names, each finite and in its unit; returns the metrics.
fn check<'a>(result: &'a Value, declared: &[(&str, &str)]) -> &'a Value {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    let metrics = result.get("metrics").expect("metrics");
    let emitted = keys(metrics);
    assert_eq!(
        emitted,
        declared.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
        "every declared metric, once, in declaration order"
    );
    for (name, unit) in declared {
        let reading = metrics.get(name).expect("emitted");
        assert_eq!(keys(reading), ["value", "unit"]);
        assert_eq!(text(reading, "unit"), *unit, "{name}");
        let value = reading.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
    }
    metrics
}

fn reading(metrics: &Value, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "proves SNARKs; run with --release")]
fn smoke_emits_every_declared_metric() {
    let end_to_end: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in WORKLOADS {
        let plain = run(w.name, false);
        let metrics = check(&plain, &end_to_end);
        for m in END_TO_END {
            assert!(
                reading(metrics, m.name) > 0.0,
                "{} on {} is never 0",
                m.name,
                w.name
            );
        }

        let traced = run(w.name, true);
        let rows = check(&traced, &per_layer);
        let share = reading(rows, "trace.attributed_share");
        assert!(
            (0.85..=1.15).contains(&share),
            "{}: the spans account for {share} of the operation",
            w.name
        );
        // the attribution the benchmark exists to record: statement
        // synthesis is in the cold and served operations and not the warm one
        let id = reading(rows, "core.statement_id_ms.cnn");
        match w.name {
            "verify-cold" | "serve-closed" => assert!(id > 0.0, "{}", w.name),
            _ => assert_eq!(id, 0.0, "{}", w.name),
        }
    }
}

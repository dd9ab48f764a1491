//! The command line: `run`, `list`, `compare`.
//!
//! ```text
//! zkbench run --workload NAME|all [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
//! zkbench list
//! zkbench compare A.json B.json
//! ```
//!
//! `run` prints a header, every metric by name with its unit, and the flat
//! JSON result as the last line; it exits non-zero when the correctness
//! gate fails. One process runs one workload, so `VmHWM` is that
//! workload's alone — `--workload all` starts a child per workload.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::defs::{Source, END_TO_END, PER_LAYER, WORKLOADS};
use crate::report::{compare, result_file, FileHeader};
use crate::workloads::{self, Config};

const USAGE: &str = "usage:
  zkbench run --workload NAME|all [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
  zkbench list
  zkbench compare A.json B.json";

/// Seconds of timed phase when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

/// What `run` was asked.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative whole number".to_string())?
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--out" => out.out = Some(PathBuf::from(value()?)),
            "--smoke" => out.smoke = true,
            // `--trace` alone switches tracing on; the driver spells it out
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if out.workload != "all" && !WORKLOADS.iter().any(|w| w.name == out.workload) {
        return Err(format!(
            "unknown workload {}; `zkbench list` names them",
            out.workload
        ));
    }
    Ok(out)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scratch space beside the executable, so everything the harness writes
/// stays inside the build directory.
fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("zkbench-work")
}

fn run_one(args: &RunArgs) -> ExitCode {
    let trace_dir = scratch_root();
    let work_dir = trace_dir.join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("zkbench: creating {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        tails: true,
        work_dir: work_dir.clone(),
        trace_dir,
    };
    println!(
        "zkbench {} seed={} seconds={} trace={} smoke={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        threads()
    );
    let result = workloads::run(&args.workload, &cfg, args.trace).expect("the name was checked");
    let _ = std::fs::remove_dir_all(&work_dir);
    for note in &result.notes {
        println!("{note}");
    }
    print!("{}", result.table());
    println!("{}", result.json_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "zkbench: {} of {} operations failed",
            result.failed, result.attempted
        );
        ExitCode::FAILURE
    }
}

/// One child per workload; their last lines become the result file.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("zkbench: locating the executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut lines = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        let output = match child.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("zkbench: starting {}: {e}", w.name);
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        all_correct &= output.status.success();
        match stdout.lines().last().filter(|l| l.starts_with('{')) {
            Some(line) => lines.push((w.name, line.to_string())),
            None => {
                eprintln!("zkbench: {} printed no result", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.out {
        let header = FileHeader {
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
            threads: threads(),
        };
        if let Err(e) = std::fs::write(path, result_file(&header, &lines)) {
            eprintln!("zkbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("results: {}", path.display());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() {
    println!("workloads");
    for w in WORKLOADS {
        println!("  {:20} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (every workload reports each)");
    for m in END_TO_END {
        println!(
            "  {:14} {:5} better {:6} bound {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper-layer rows (traced run)");
    for r in PER_LAYER {
        let source = match r.source {
            Source::Span { .. } => "span",
            Source::Probe => "probe",
            Source::Server => "server",
            Source::Trace => "trace",
        };
        println!(
            "  {:8} {:40} {:6} {:6} moves: {}",
            r.layer(),
            r.name,
            r.unit,
            source,
            r.moves
        );
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| eprintln!("zkbench: reading {path}: {e}"))
    };
    let (Ok(a_text), Ok(b_text)) = (read(a), read(b)) else {
        return ExitCode::from(2);
    };
    match compare(&a_text, &b_text) {
        Err(e) => {
            eprintln!("zkbench: {e}");
            ExitCode::from(2)
        }
        Ok(c) => {
            for line in &c.lines {
                println!("{line}");
            }
            println!(
                "{} pairs compared, {} past their bound",
                c.compared,
                c.regressions.len()
            );
            if c.regressions.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// The harness's entry point.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(run) if run.workload == "all" => run_all(&run),
            Ok(run) => run_one(&run),
            Err(e) => {
                eprintln!("zkbench: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some((cmd, [])) if cmd == "list" => {
            list();
            ExitCode::SUCCESS
        }
        Some((cmd, [a, b])) if cmd == "compare" => compare_files(a, b),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<RunArgs, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_run(&args)
    }

    #[test]
    fn the_drivers_spelling_parses() {
        let run = parse("--workload verify-cold --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            run,
            RunArgs {
                workload: "verify-cold".into(),
                seed: 7,
                seconds: 10.0,
                trace: false,
                smoke: false,
                out: None,
            }
        );
        assert!(parse("--workload verify-cold --trace 1").unwrap().trace);
    }

    #[test]
    fn a_bare_trace_flag_switches_tracing_on() {
        let run = parse("--workload serve-closed --trace --smoke").unwrap();
        assert!(run.trace && run.smoke);
        assert!(parse("--trace --workload all").unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload verify-cold --seed -1",
            "--workload verify-cold --seconds 0",
            "--workload verify-cold --seconds",
            "--workload verify-cold --frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}

//! `loadgen` — load generator for `zkrownn-service`, producer of
//! `BENCH_service.json`.
//!
//! Two modes:
//!
//! ```text
//! loadgen --write-corpus DIR [--mlp N] [--cnn N]
//!     run setup + proving once, write .vk/.claim files to DIR
//!
//! loadgen --corpus DIR [--addr HOST:PORT] [--smoke] [--json PATH]
//!     drive an authority with the corpus at 1/4/16 client threads and
//!     emit the results; without --addr an in-process server is started.
//!     For the coalescing-off ablation point --addr at an authority
//!     started with `--max-batch 1`: the rows come out `-nobatch`.
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use zkrownn::CircuitId;
use zkrownn_bench::service::{
    build_corpus, load_corpus, print_results, service_json, standard_scenarios, write_corpus,
    FULL_CLAIMS, SMOKE_CLAIMS,
};
use zkrownn_service::{serve, LedgeredRegistry, ServerConfig};

const USAGE: &str = "\
loadgen — zkrownn-service load generator

USAGE:
    loadgen --write-corpus DIR [--mlp N] [--cnn N]
    loadgen --corpus DIR [--addr HOST:PORT] [--smoke] [--json PATH]

OPTIONS:
    --write-corpus DIR   generate keys + claims into DIR and exit
    --mlp N              MLP claims in the generated corpus (default 4)
    --cnn N              CNN claims in the generated corpus (default 2)
    --corpus DIR         run load scenarios using the corpus in DIR
    --addr HOST:PORT     drive an already-running authority (default:
                         start an in-process server)
    --smoke              reduced claim counts (CI)
    --json PATH          write BENCH_service.json here (default: stdout
                         after the table)
    --help               print this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("loadgen: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut write_dir: Option<String> = None;
    let mut corpus_dir: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut smoke = false;
    let mut mlp = 4usize;
    let mut cnn = 2usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--write-corpus" => match value("--write-corpus") {
                Ok(v) => write_dir = Some(v),
                Err(e) => return fail(&e),
            },
            "--corpus" => match value("--corpus") {
                Ok(v) => corpus_dir = Some(v),
                Err(e) => return fail(&e),
            },
            "--addr" => match value("--addr") {
                Ok(v) => addr = Some(v),
                Err(e) => return fail(&e),
            },
            "--json" => match value("--json") {
                Ok(v) => json_path = Some(v),
                Err(e) => return fail(&e),
            },
            "--mlp" => match value("--mlp").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| "--mlp expects a number".into())
            }) {
                Ok(n) => mlp = n,
                Err(e) => return fail(&e),
            },
            "--cnn" => match value("--cnn").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| "--cnn expects a number".into())
            }) {
                Ok(n) => cnn = n,
                Err(e) => return fail(&e),
            },
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown option {other}")),
        }
    }

    if let Some(dir) = write_dir {
        if corpus_dir.is_some() {
            return fail("--write-corpus and --corpus are mutually exclusive");
        }
        eprintln!("loadgen: building corpus ({mlp} MLP + {cnn} CNN claims)...");
        let corpus = build_corpus(mlp, cnn);
        if let Err(e) = write_corpus(&corpus, std::path::Path::new(&dir)) {
            return fail(&format!("writing corpus to {dir}: {e}"));
        }
        eprintln!(
            "loadgen: wrote {} key(s) and {} claim(s) to {dir}",
            corpus.keys.len(),
            corpus.claims.len()
        );
        return ExitCode::SUCCESS;
    }

    let Some(dir) = corpus_dir else {
        return fail("one of --write-corpus or --corpus is required");
    };
    let corpus = match load_corpus(std::path::Path::new(&dir)) {
        Ok(c) => c,
        Err(e) => return fail(&format!("loading corpus from {dir}: {e}")),
    };
    eprintln!(
        "loadgen: corpus has {} circuit(s), {} claim(s)",
        corpus.keys.len(),
        corpus.claims.len()
    );

    // either an external authority, or an in-process one over the same keys
    let mut local = None;
    let target = match addr {
        Some(a) => a,
        None => {
            let registry = Arc::new(LedgeredRegistry::new());
            for (id, digest, vk) in &corpus.keys {
                registry.register(CircuitId::from_bytes(*id), *digest, vk);
            }
            let handle = match serve(ServerConfig::default(), registry) {
                Ok(h) => h,
                Err(e) => return fail(&format!("starting in-process server: {e}")),
            };
            let a = handle.addr().to_string();
            eprintln!("loadgen: in-process authority on {a}");
            local = Some(handle);
            a
        }
    };

    let total = if smoke { SMOKE_CLAIMS } else { FULL_CLAIMS };
    let results = match standard_scenarios(&target, &corpus, total) {
        Ok(r) => r,
        Err(e) => {
            if let Some(handle) = local {
                handle.shutdown_and_join();
            }
            return fail(&e);
        }
    };
    if let Some(handle) = local {
        handle.shutdown_and_join();
    }

    let mut stdout = std::io::stdout();
    if print_results(&mut stdout, &results).is_err() {
        return ExitCode::FAILURE;
    }
    let json = service_json(&results, smoke, corpus.claims.len());
    match json_path {
        Some(path) => {
            // temp-file + rename so an interrupted run never clobbers a
            // prior artifact with a half-written document
            if let Err(e) =
                zkrownn_store::write_file_atomic(std::path::Path::new(&path), json.as_bytes())
            {
                return fail(&format!("writing {path}: {e}"));
            }
            eprintln!("loadgen: wrote {path}");
        }
        None => print!("{json}"),
    }

    let any_errors = results.iter().any(|r| r.errors > 0);
    if any_errors {
        eprintln!("loadgen: some claims were rejected — corpus/server mismatch?");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

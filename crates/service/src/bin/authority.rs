//! `zkrownn-authority` — the claim-verification daemon.
//!
//! Loads `.vk` key-registration files (written by `loadgen --write-corpus`
//! or [`zkrownn_service::registration_bytes`]) into the key registry and
//! serves the framed verification protocol until shut down.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use zkrownn_ledger::LedgeredRegistry;
use zkrownn_service::{load_keys_dir_with, serve, CoalescerConfig, KeyLoadOptions, ServerConfig};

const USAGE: &str = "\
zkrownn-authority — ZKROWNN claim-verification daemon

USAGE:
    zkrownn-authority [OPTIONS]

OPTIONS:
    --listen ADDR           bind address (default 127.0.0.1:7791; port 0 = ephemeral)
    --keys DIR              load every *.vk registration file and *.zkst
                            segmented key store in DIR (one sorted order);
                            unreadable files are quarantined to *.corrupt
                            and skipped
    --strict-keys           abort startup on the first unreadable key file
                            instead of quarantining it
    --workers N             worker threads (default: max(16, 2 x cores))
    --accept-queue N        connections queued for a worker before new ones
                            are shed with BUSY (default 128)
    --no-batching           disable claim coalescing (ablation mode)
    --max-batch N           RLC batch ceiling (default 64)
    --idle-shutdown-ms N    exit after N ms with no traffic
    --help                  print this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("zkrownn-authority: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7791".into(),
        ..ServerConfig::default()
    };
    let mut coalescer = CoalescerConfig::default();
    let mut keys_dir: Option<String> = None;
    let mut key_options = KeyLoadOptions::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--listen" => match value("--listen") {
                Ok(v) => config.addr = v,
                Err(e) => return fail(&e),
            },
            "--keys" => match value("--keys") {
                Ok(v) => keys_dir = Some(v),
                Err(e) => return fail(&e),
            },
            "--workers" => match value("--workers").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| "--workers expects a number".into())
            }) {
                Ok(n) if n >= 1 => config.workers = n,
                Ok(_) => return fail("--workers must be at least 1"),
                Err(e) => return fail(&e),
            },
            "--max-batch" => match value("--max-batch").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| "--max-batch expects a number".into())
            }) {
                Ok(n) if n >= 1 => coalescer.max_batch = n,
                Ok(_) => return fail("--max-batch must be at least 1"),
                Err(e) => return fail(&e),
            },
            "--idle-shutdown-ms" => match value("--idle-shutdown-ms").and_then(|v| {
                v.parse::<u64>()
                    .map_err(|_| "--idle-shutdown-ms expects a number".into())
            }) {
                Ok(ms) => config.idle_shutdown = Some(Duration::from_millis(ms)),
                Err(e) => return fail(&e),
            },
            "--accept-queue" => match value("--accept-queue").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| "--accept-queue expects a number".into())
            }) {
                Ok(n) if n >= 1 => config.accept_queue = n,
                Ok(_) => return fail("--accept-queue must be at least 1"),
                Err(e) => return fail(&e),
            },
            "--strict-keys" => key_options.strict = true,
            "--no-batching" => coalescer.batching = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown option {other}")),
        }
    }
    config.coalescer = coalescer;

    let registry = Arc::new(LedgeredRegistry::new());
    let mut quarantined_keys = 0u64;
    if let Some(dir) = keys_dir {
        // keys register in sorted path order, so the ledger root printed
        // below is reproducible for a given key directory
        match load_keys_dir_with(&registry, Path::new(&dir), key_options) {
            Ok(report) => {
                eprintln!(
                    "zkrownn-authority: registered {} circuit(s) from {dir}",
                    report.loaded
                );
                for (path, error) in &report.quarantined {
                    eprintln!(
                        "zkrownn-authority: quarantined {} -> {}.corrupt ({error})",
                        path.display(),
                        path.display()
                    );
                }
                if report.stale_tmp > 0 {
                    eprintln!(
                        "zkrownn-authority: ignoring {} stale *.tmp staging file(s) \
                         from an interrupted writer",
                        report.stale_tmp
                    );
                }
                quarantined_keys = report.quarantined.len() as u64;
            }
            Err(e) => return fail(&format!("loading keys from {dir}: {e}")),
        }
    } else {
        eprintln!("zkrownn-authority: starting with an empty registry (no --keys)");
    }
    let root = registry.current_root();
    eprintln!(
        "zkrownn-authority: ledger root {} at size {}",
        root.root_hex(),
        root.size
    );

    let handle = match serve(config, registry) {
        Ok(h) => h,
        Err(e) => return fail(&format!("binding listener: {e}")),
    };
    handle.metrics().record_quarantined(quarantined_keys);
    // CI and tests poll for this exact line to learn the bound port
    println!("zkrownn-authority listening on {}", handle.addr());

    handle.join();
    eprintln!("zkrownn-authority: shut down");
    ExitCode::SUCCESS
}

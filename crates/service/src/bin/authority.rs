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
use zkrownn_service::{load_keys_dir, serve, ServerConfig};

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
    --max-batch N           RLC batch ceiling (default 64); 1 disables claim
                            coalescing (ablation mode)
    --idle-shutdown-ms N    exit after N ms with no traffic
    --help                  print this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("zkrownn-authority: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// A numeric flag's value: it must be there, parse, and be at least `min`.
fn at_least(min: usize, flag: &str, value: Result<String, String>) -> Result<usize, String> {
    let n: usize = value?
        .parse()
        .map_err(|_| format!("{flag} expects a number"))?;
    if n < min {
        return Err(format!("{flag} must be at least {min}"));
    }
    Ok(n)
}

fn main() -> ExitCode {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7791".into(),
        ..ServerConfig::default()
    };
    let mut keys_dir: Option<String> = None;
    let mut strict_keys = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let parsed = match flag.as_str() {
            "--listen" => value().map(|v| config.addr = v),
            "--keys" => value().map(|v| keys_dir = Some(v)),
            "--workers" => at_least(1, &flag, value()).map(|n| config.workers = n),
            "--max-batch" => at_least(1, &flag, value()).map(|n| config.coalescer.max_batch = n),
            "--accept-queue" => at_least(1, &flag, value()).map(|n| config.accept_queue = n),
            "--idle-shutdown-ms" => at_least(0, &flag, value())
                .map(|ms| config.idle_shutdown = Some(Duration::from_millis(ms as u64))),
            "--strict-keys" => {
                strict_keys = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown option {other}")),
        };
        if let Err(e) = parsed {
            return fail(&e);
        }
    }

    let registry = Arc::new(LedgeredRegistry::new());
    let mut quarantined_keys = 0u64;
    if let Some(dir) = keys_dir {
        // keys register in sorted path order, so the ledger root printed
        // below is reproducible for a given key directory
        match load_keys_dir(&registry, Path::new(&dir), strict_keys) {
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
    handle.metrics().quarantined_keys.add(quarantined_keys);
    // CI and tests poll for this exact line to learn the bound port
    println!("zkrownn-authority listening on {}", handle.addr());

    handle.join();
    eprintln!("zkrownn-authority: shut down");
    ExitCode::SUCCESS
}

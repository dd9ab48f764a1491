//! `table1` — regenerates the paper's evaluation tables.
//!
//! ```text
//! table1                         # all Table I rows at paper scale
//! table1 --scale quick           # reduced dimensions (seconds, not minutes)
//! table1 --scale full            # paper dimensions through the on-disk key
//!                                # store (streaming setup + prover)
//! table1 --mem-budget 64         # cap the streaming working set at 64 MB
//!                                # (routes any scale through the store)
//! table1 --row matmult --row ber # selected rows only
//! table1 --json                  # also emit machine-readable BENCH_prover.json
//! table1 --table2                # print the Table II architecture spec
//! table1 --robustness            # watermark-robustness sweep (attack study)
//! table1 --fixed-point           # fixed-point sigmoid precision ablation
//! table1 --smoke                 # CI smoke: cheapest rows at quick scale,
//!                                # plus cifar-cnn streamed at 64 MB
//! ```

use zkrownn_bench::{
    format_table, measure, prover_json, row_circuit, MemoryBudget, RowMetrics, Scale, ROW_NAMES,
};

/// Default streaming budget for `--scale full` when `--mem-budget` is not
/// given: large enough that chunking costs little, far below the paper
/// rows' multi-GB in-memory keys.
const DEFAULT_FULL_BUDGET_MB: usize = 256;

/// Streaming budget for the store-backed `--smoke` row.
const SMOKE_BUDGET_MB: usize = 64;

fn print_table2() {
    println!("Table II — DNN benchmark architectures\n");
    println!("| Dataset | Architecture |");
    println!("|---|---|");
    println!("| MNIST | 784 - FC(512) - FC(512) - FC(10) |");
    println!(
        "| CIFAR10 | 3×32×32 - C(32,3,2) - C(32,3,1) - MP(2,1) - C(64,3,1) - C(64,3,1) - MP(2,1) - FC(512) - FC(10) |"
    );
    println!();
    println!("(both instantiated in zkrownn::benchmarks and validated by its tests)");
}

fn run_robustness() {
    use rand::SeedableRng;
    use zkrownn_deepsigns::attacks::{finetune, prune};
    use zkrownn_deepsigns::{embed, extract, generate_keys, EmbedConfig, KeyGenConfig};
    use zkrownn_nn::{generate_gmm, Dense, GmmConfig, Layer, Network};

    println!("Watermark robustness sweep (DeepSigns claims inherited by ZKROWNN §IV-A)\n");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let gmm = GmmConfig {
        input_shape: vec![64],
        num_classes: 8,
        mean_scale: 1.0,
        noise_std: 0.3,
    };
    let data = generate_gmm(&gmm, 320, &mut rng);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(64, 96, &mut rng)),
        Layer::ReLU,
        Layer::Dense(Dense::new(96, 8, &mut rng)),
    ]);
    net.train(&data.xs, &data.ys, 6, 0.03);
    let keys = generate_keys(
        &KeyGenConfig {
            layer: 1,
            activation_dim: 96,
            signature_bits: 32,
            num_triggers: 8,
            projection_std: 1.0 / (96f32).sqrt(),
        },
        &data,
        &mut rng,
    );
    embed(
        &mut net,
        &keys,
        &data.xs,
        &data.ys,
        &EmbedConfig {
            lambda: 5.0,
            epochs: 30,
            lr: 0.01,
        },
    );
    let base_acc = net.accuracy(&data.xs, &data.ys);
    println!(
        "baseline: BER = {:.3}, accuracy = {:.1}%\n",
        extract(&net, &keys).1,
        100.0 * base_acc
    );

    println!("| Pruning fraction | BER | Accuracy |");
    println!("|---:|---:|---:|");
    for frac in [0.1f32, 0.2, 0.3, 0.5, 0.7, 0.9] {
        let mut pruned = net.clone();
        prune(&mut pruned, frac);
        let (_, ber) = extract(&pruned, &keys);
        println!(
            "| {frac:.1} | {ber:.3} | {:.1}% |",
            100.0 * pruned.accuracy(&data.xs, &data.ys)
        );
    }

    println!("\n| Fine-tune epochs | BER | Accuracy |");
    println!("|---:|---:|---:|");
    for epochs in [1usize, 3, 5, 10] {
        let mut tuned = net.clone();
        finetune(&mut tuned, &data.xs, &data.ys, epochs, 0.01);
        let (_, ber) = extract(&tuned, &keys);
        println!(
            "| {epochs} | {ber:.3} | {:.1}% |",
            100.0 * tuned.accuracy(&data.xs, &data.ys)
        );
    }
}

fn run_fixed_point_ablation() {
    use zkrownn_gadgets::fixed::FixedConfig;
    use zkrownn_gadgets::sigmoid::{sigmoid_exact_f64, sigmoid_fixed_reference, sigmoid_poly_f64};

    println!("Fixed-point sigmoid precision ablation (scale-bits sweep)\n");
    println!("| frac bits | sigmoid bits | max |fixed−poly| on [-4,4] | max |poly−σ| on [-4,4] | c9 representable |");
    println!("|---:|---:|---:|---:|---:|");
    for (f, s) in [(8u32, 24u32), (12, 28), (16, 32), (20, 36), (24, 40)] {
        let cfg = FixedConfig {
            frac_bits: f,
            sigmoid_frac_bits: s,
            int_bits: 16,
        };
        let mut max_fixed_err = 0f64;
        let mut max_poly_err = 0f64;
        for i in -64..=64 {
            let x = i as f64 / 16.0;
            let xi = cfg.encode(x);
            let fixed = cfg.decode(sigmoid_fixed_reference(xi, &cfg));
            let poly = sigmoid_poly_f64(x);
            max_fixed_err = max_fixed_err.max((fixed - poly).abs());
            max_poly_err = max_poly_err.max((poly - sigmoid_exact_f64(x)).abs());
        }
        let c9_ok = zkrownn_gadgets::fixed::encode_fixed(7.2e-9, s) != 0;
        println!("| {f} | {s} | {max_fixed_err:.2e} | {max_poly_err:.2e} | {c9_ok} |");
    }
    println!("\n(default config: 16 tensor bits / 32 sigmoid bits — the smallest sigmoid scale where the x⁹ Chebyshev coefficient survives)");
}

fn report_row(m: &RowMetrics) {
    eprintln!(
        "[{}] {} constraints: setup {:.1?} (qap {:.1?}, commit {:.1?}), prove {:.1?} (witness_map {:.1?}, msm {:.1?}), verify {:.2?}",
        m.name,
        m.constraints,
        m.setup_time, m.setup_qap_time, m.setup_commit_time,
        m.prove_time, m.witness_map_time, m.msm_time, m.verify_time
    );
    if m.key_segments > 0 {
        eprintln!(
            "[{}] key store: {} segments, {:.2} MB on disk, peak RSS {:.1} MB",
            m.name,
            m.key_segments,
            m.pk_bytes as f64 / 1e6,
            m.peak_rss_bytes as f64 / 1e6
        );
    }
}

fn usage() -> String {
    format!(
        "usage: table1 [--scale paper|quick|full] [--mem-budget MB]\n\
         \x20      [--row NAME]... [--json]\n\
         \x20      [--table2] [--robustness] [--fixed-point] [--smoke]\n\
         rows: {}",
        ROW_NAMES.join(", ")
    )
}

/// Rejects a malformed command line: the complaint and the usage line on
/// stderr, exit status 2 — never a default that starts an hours-long run.
fn usage_error(complaint: &str) -> ! {
    eprintln!("table1: {complaint}\n{}", usage());
    std::process::exit(2)
}

/// The value after each occurrence of `flag`; a trailing `flag` with no
/// value is a usage error.
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .map(|(i, _)| match args.get(i + 1) {
            Some(value) => value.as_str(),
            None => usage_error(&format!("{flag} expects a value")),
        })
        .collect()
}

/// Flags that take a value, and flags that stand alone.
const VALUE_FLAGS: [&str; 3] = ["--scale", "--row", "--mem-budget"];
const SWITCHES: [&str; 7] = [
    "--json",
    "--smoke",
    "--table2",
    "--robustness",
    "--fixed-point",
    "--help",
    "-h",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // a misspelt flag is as dangerous as a misspelt value: ignored, it
    // leaves the paper-scale default standing
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg) {
            rest.next();
        } else if !SWITCHES.contains(&arg) {
            usage_error(&format!("unknown argument {arg:?}"));
        }
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    if args.iter().any(|a| a == "--table2") {
        print_table2();
        return;
    }
    if args.iter().any(|a| a == "--robustness") {
        run_robustness();
        return;
    }
    if args.iter().any(|a| a == "--fixed-point") {
        run_fixed_point_ablation();
        return;
    }

    // --smoke: the CI bitrot check — cheapest rows at quick scale, so the
    // whole build→setup→prove→verify path runs in seconds.
    let smoke = args.iter().any(|a| a == "--smoke");
    let mem_budget_mb: Option<usize> = flag_values(&args, "--mem-budget").first().map(|v| {
        v.parse()
            .ok()
            .filter(|&mb| mb > 0)
            .unwrap_or_else(|| usage_error("--mem-budget expects a positive MB count"))
    });
    let budget =
        |default_mb: Option<usize>| mem_budget_mb.or(default_mb).map(MemoryBudget::from_mb);
    // `full` is paper dimensions routed through the on-disk key store, so
    // the big rows run without materializing multi-GB proving keys; an
    // explicit --mem-budget routes whichever scale was picked the same way
    let (scale, store_budget) = match flag_values(&args, "--scale").first() {
        Some(&"quick") => (Scale::Quick, budget(None)),
        Some(&"paper") => (Scale::Paper, budget(None)),
        Some(&"full") => (Scale::Paper, budget(Some(DEFAULT_FULL_BUDGET_MB))),
        Some(other) => usage_error(&format!("unknown --scale {other:?}")),
        None if smoke => (Scale::Quick, budget(None)),
        None => (Scale::Paper, budget(None)),
    };
    let mut rows: Vec<&'static str> = flag_values(&args, "--row")
        .into_iter()
        .map(|row| match ROW_NAMES.iter().find(|r| **r == row) {
            Some(canonical) => *canonical,
            None => usage_error(&format!("unknown --row {row:?}")),
        })
        .collect();
    if rows.is_empty() {
        rows = if smoke {
            vec!["ber", "relu", "hardthreshold"]
        } else {
            ROW_NAMES.to_vec()
        };
    }

    println!(
        "ZKROWNN Table I reproduction — scale: {scale:?}, {} threads{}\n",
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1),
        match store_budget {
            Some(b) => format!(", streaming key store @ {} MB", b.bytes() >> 20),
            None => String::new(),
        }
    );
    let mut measured: Vec<RowMetrics> = Vec::new();
    for canonical in rows {
        eprintln!("[{canonical}] building circuit …");
        let circuit = row_circuit(canonical, scale);
        eprintln!("[{canonical}] running synthesis/setup/prove/verify …");
        let m = measure(canonical, &circuit, store_budget);
        report_row(&m);
        measured.push(m);
    }

    // --smoke also exercises the streaming pipeline end to end: the
    // heaviest quick row, chunked through an on-disk key store at a fixed
    // budget (this is the row the CI memory-cap lane and the schema-v3
    // peak-RSS gate key on)
    if smoke && store_budget.is_none() {
        let canonical = "cifar-cnn";
        eprintln!("[{canonical}] building circuit (streamed @ {SMOKE_BUDGET_MB} MB) …");
        let circuit = row_circuit(canonical, scale);
        eprintln!("[{canonical}] running synthesis/streaming setup/prove/verify …");
        let m = measure(
            canonical,
            &circuit,
            Some(MemoryBudget::from_mb(SMOKE_BUDGET_MB)),
        );
        report_row(&m);
        measured.push(m);
    }
    println!("{}", format_table(&measured));

    // --json: pin the prover numbers in a machine-readable artifact (the
    // CI bench-smoke job uploads and validates this file)
    if args.iter().any(|a| a == "--json") {
        // amortized byte-level verification throughput (decode + pairing
        // per claim through `zkrownn_verify`) — the verify-side companion
        // to the per-row prover timings
        let vt = zkrownn_bench::measure_verify_throughput();
        eprintln!(
            "[verify] {:.1} claims/s ({:.3} ms/claim over {} iters, cold path)",
            vt.claims_per_s, vt.mean_ms, vt.iters
        );
        let path = "BENCH_prover.json";
        // temp-file + rename so an interrupted run never clobbers a prior
        // artifact with a half-written document
        zkrownn_store::write_file_atomic(
            std::path::Path::new(path),
            prover_json(&measured, scale, Some(&vt)).as_bytes(),
        )
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path} ({} rows)", measured.len());
    }
}

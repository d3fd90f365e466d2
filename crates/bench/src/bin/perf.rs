//! Perf-smoke driver: measures a `BENCH_<rev>.json` report or gates a
//! fresh report against a committed baseline.
//!
//! ```text
//! cargo run -p fpc-bench --release --features metrics --bin perf -- \
//!     run [--out DIR] [--rev REV] [--threads N]
//! cargo run -p fpc-bench --release --bin perf -- \
//!     compare <baseline.json> <fresh.json>
//! cargo run -p fpc-bench --release --bin perf -- \
//!     auto [--threads N]
//! ```
//!
//! `auto` is the `auto-dominance` gate: AUTO and every fixed algorithm are
//! measured over the mixed-stream suites; exits 1 if AUTO's ratio falls
//! more than 1% below the best fixed algorithm or its throughput drops
//! below the speed-tier floor (see `fpc_bench::perf::auto_gate`).
//!
//! `run` writes `DIR/BENCH_<rev>.json` (default `results/`) and prints the
//! rendered report. The revision defaults to `$FPC_REV`, then
//! `$GITHUB_SHA`, then `git rev-parse --short HEAD`, then `local`.
//!
//! `compare` exits 1 listing every regression (see `fpc_bench::perf` for
//! the thresholds and the calibration normalization).

use fpc_bench::bench_file::BenchFile;
use fpc_bench::perf;
use fpc_metrics::json::Value;
use fpc_metrics::report::render_value;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf run [--out DIR] [--rev REV] [--threads N]\n       \
         perf compare <baseline.json> <fresh.json>\n       \
         perf auto [--threads N]"
    );
    ExitCode::from(2)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let out = BenchFile::new(flag("--out").unwrap_or("results"), flag("--rev"));
    // Default to 2 workers: the gate must exercise the pool's parallel
    // path (and its telemetry) even on single-core CI runners, where
    // `0 = all cores` would fall back to the serial path.
    let threads: usize = match flag("--threads").map(str::parse).transpose() {
        Ok(t) => t.unwrap_or(2),
        Err(_) => {
            eprintln!("--threads expects a non-negative integer");
            return ExitCode::from(2);
        }
    };
    if !fpc_metrics::ENABLED {
        eprintln!(
            "[perf] note: built without --features metrics; \
             per-stage breakdowns will be empty"
        );
    }
    eprintln!("[perf] measuring rev={} threads={threads}...", out.rev);
    let report = perf::run(&out.rev, threads);
    let value = report.to_value();
    let path = match out.write(&value) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("[perf] {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("[perf] wrote {}", path.display());
    match render_value(&value) {
        Ok(text) => print!("{text}"),
        Err(e) => eprintln!("[perf] render error: {e}"),
    }
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [baseline_path, fresh_path] = args else {
        return usage();
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("[perf] {e}");
            return ExitCode::FAILURE;
        }
    };
    // Informational: per-stage throughput movement (normalized by the
    // calibration ratio). The gate below only acts on whole-algorithm
    // numbers; this log is what shows e.g. a vectorized stage's speedup.
    let deltas = perf::stage_deltas(&baseline, &fresh);
    if !deltas.is_empty() {
        println!("per-stage deltas (baseline -> fresh, normalized):");
        for d in &deltas {
            println!("  {d}");
        }
    }
    match perf::compare(&baseline, &fresh) {
        Ok(failures) if failures.is_empty() => {
            println!(
                "perf gate PASS ({baseline_path} vs {fresh_path}): \
                 no regression beyond thresholds"
            );
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            println!("perf gate FAIL ({baseline_path} vs {fresh_path}):");
            for f in &failures {
                println!("  - {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("[perf] {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_auto(args: &[String]) -> ExitCode {
    let threads: usize = match args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse())
        .transpose()
    {
        Ok(t) => t.unwrap_or(2),
        Err(_) => {
            eprintln!("--threads expects a non-negative integer");
            return ExitCode::from(2);
        }
    };
    eprintln!("[perf] auto-dominance over the mixed-stream suites (threads={threads})...");
    let report = perf::measure_auto(threads);
    println!(
        "{:<10} {:>8} {:>15} {:>17}",
        "algorithm", "ratio", "compress GB/s", "decompress GB/s"
    );
    let row = |r: &fpc_bench::measure::CodecResult| {
        println!(
            "{:<10} {:>8.4} {:>15.3} {:>17.3}",
            r.name, r.ratio, r.compress_gbps, r.decompress_gbps
        );
    };
    row(&report.auto_perf);
    for fixed in &report.fixed {
        row(fixed);
    }
    println!("\nAUTO chunk picks over {} input bytes:", report.bytes);
    for (name, chunks) in &report.picks {
        println!("  {name:<12} {chunks}");
    }
    let failures = perf::auto_gate(&report);
    if failures.is_empty() {
        println!(
            "\nauto-dominance PASS: AUTO holds the best fixed ratio within \
             {:.0}% at >= {:.0}% of speed-tier throughput",
            perf::AUTO_RATIO_SLACK * 100.0,
            perf::AUTO_SPEED_FLOOR * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!("\nauto-dominance FAIL:");
        for f in &failures {
            println!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("auto") => cmd_auto(&args[1..]),
        _ => usage(),
    }
}

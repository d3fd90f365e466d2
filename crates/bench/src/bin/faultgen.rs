//! Faultgen driver: runs the seeded fault sweep from
//! `fpc_bench::faultgen` against an in-process `fpc-serve` and writes the
//! outcome to `DIR/BENCH_<rev>.json` (schema `fpc-bench-v1`, `faultgen`
//! section).
//!
//! ```text
//! cargo run -p fpc-bench --release --features faults --bin faultgen -- \
//!     [--seeds 32] [--seed-base 0] [--requests 6] [--bytes 262144] \
//!     [--algo spspeed] [--watchdog-secs 60] [--out results] [--rev REV]
//! ```
//!
//! Exit codes: 0 clean sweep (no hangs, crashes, byte mismatches, or
//! control-cell failures), 1 at least one invariant violation, 2 usage
//! error or a build without the `faults` feature, 3 cannot run the sweep
//! or write the report.

use fpc_bench::faultgen::{run, FaultgenConfig};
use fpc_core::Algorithm;
use fpc_metrics::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: faultgen [--seeds N] [--seed-base N] [--requests N] \
         [--bytes N] [--algo NAME] [--cache-bytes N] [--watchdog-secs N] \
         [--out DIR] [--rev REV]"
    );
    ExitCode::from(2)
}

fn resolve_rev(explicit: Option<&str>) -> String {
    if let Some(rev) = explicit {
        return rev.to_string();
    }
    for var in ["FPC_REV", "GITHUB_SHA"] {
        if let Ok(v) = std::env::var(var) {
            let v = v.trim().to_string();
            if !v.is_empty() {
                return v.chars().take(12).collect();
            }
        }
    }
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if out.status.success() {
            if let Ok(s) = String::from_utf8(out.stdout) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    return s;
                }
            }
        }
    }
    "local".to_string()
}

/// Keeps revision labels filesystem-safe.
fn sanitize(rev: &str) -> String {
    let cleaned: String = rev
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "local".to_string()
    } else {
        cleaned
    }
}

fn main() -> ExitCode {
    if !fpc_faults::ENABLED {
        eprintln!(
            "faultgen: the fault hooks are compiled out; rebuild with \
             `--features faults` (a sweep without them proves nothing)"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let mut config = FaultgenConfig::default();
    let number = |name: &str, default: usize, min: usize| -> Result<usize, ()> {
        match flag(name) {
            None => Ok(default),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= min => Ok(n),
                _ => {
                    eprintln!("faultgen: {name} expects an integer >= {min}");
                    Err(())
                }
            },
        }
    };
    let (Ok(seeds), Ok(seed_base), Ok(requests), Ok(bytes), Ok(watchdog)) = (
        number("--seeds", 32, 1),
        number("--seed-base", 0, 0),
        number("--requests", config.requests, 1),
        number("--bytes", config.payload_bytes, 1),
        number("--watchdog-secs", 60, 1),
    ) else {
        return usage();
    };
    config.seeds = (0..seeds as u64).map(|s| seed_base as u64 + s).collect();
    config.requests = requests;
    config.payload_bytes = bytes;
    config.watchdog = Duration::from_secs(watchdog as u64);
    if let Some(v) = flag("--cache-bytes") {
        match v.parse::<u64>() {
            Ok(n) => config.cache_bytes = n,
            Err(_) => {
                eprintln!("faultgen: --cache-bytes expects a byte count (0 disables the cache)");
                return usage();
            }
        }
    }
    if let Some(name) = flag("--algo") {
        let Some(algo) = Algorithm::from_name(name) else {
            eprintln!("faultgen: unknown algorithm '{name}'");
            return usage();
        };
        config.algo = algo;
    }
    let out_dir = PathBuf::from(flag("--out").unwrap_or("results"));
    let rev = sanitize(&resolve_rev(flag("--rev")));

    eprintln!(
        "[faultgen] {} seeds x {} faults x {} requests x {} bytes ({}), \
         cache {} bytes, {}s watchdog per cell",
        config.seeds.len(),
        config.matrix.len(),
        config.requests,
        config.payload_bytes,
        config.algo,
        config.cache_bytes,
        watchdog
    );
    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[faultgen] {e}");
            return ExitCode::from(3);
        }
    };
    for cell in &report.cells {
        if cell.hung || cell.crashed || cell.mismatches > 0 {
            eprintln!(
                "[faultgen] VIOLATION fault={} seed={} ok={} gaveups={} \
                 mismatches={} hung={} crashed={}",
                cell.fault,
                cell.seed,
                cell.ok,
                cell.gaveups,
                cell.mismatches,
                cell.hung,
                cell.crashed
            );
        }
    }
    let created_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let value = Value::Obj(vec![
        (
            "schema".into(),
            Value::from(fpc_metrics::report::BENCH_SCHEMA),
        ),
        ("rev".into(), Value::from(rev.as_str())),
        ("created_unix".into(), Value::from(created_unix)),
        ("faultgen".into(), report.to_value()),
    ]);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("[faultgen] cannot create {}: {e}", out_dir.display());
        return ExitCode::from(3);
    }
    let path = out_dir.join(format!("BENCH_{rev}.json"));
    if let Err(e) = std::fs::write(&path, value.to_json_pretty()) {
        eprintln!("[faultgen] cannot write {}: {e}", path.display());
        return ExitCode::from(3);
    }
    eprintln!("[faultgen] wrote {}", path.display());
    let injected = report
        .counters
        .iter()
        .find(|(name, _)| name == "faults.injected")
        .map(|(_, v)| *v);
    match injected {
        Some(n) => eprintln!("[faultgen] faults.injected = {n}"),
        None => eprintln!("[faultgen] note: metrics disabled; cannot report injection counts"),
    }
    println!(
        "cells={} ok={} gaveups={} mismatches={} hangs={} crashes={} \
         violations={} wall={:.3}s",
        report.cells.len(),
        report.ok,
        report.gaveups,
        report.mismatches,
        report.hangs,
        report.crashes,
        report.violations,
        report.wall_secs
    );
    if report.violations > 0 {
        eprintln!("[faultgen] {} invariant violation(s)", report.violations);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

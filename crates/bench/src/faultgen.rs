//! Seeded fault sweeps against a live loopback `fpc-serve` instance.
//!
//! For every cell in `seeds × fault matrix`, the harness installs a
//! deterministic `fpc-faults` plan, boots an in-process server with
//! aggressive degradation thresholds, and drives remote compress,
//! decompress, and range requests through a retrying [`Client`] — both
//! sides of every socket run through the fault layer. Three invariants are
//! asserted, cell by cell, under a watchdog:
//!
//! 1. **no hangs** — each cell completes within its watchdog budget;
//! 2. **no crashes** — no panic on either side of the wire;
//! 3. **byte-identity** — every request that eventually succeeds returns
//!    exactly the bytes a fault-free local run produces.
//!
//! Requests that exhaust their retry budget under injected faults are
//! *give-ups*: recorded, but only a violation on the fault-free control
//! cell (where nothing may fail). The matrix covers socket and scheduler
//! faults only; `chunk-damage` and the `file-*` faults corrupt the local
//! reference stream or bypass the wire, so they are exercised by
//! `tests/robustness.rs` instead.
//!
//! The aggregate lands in the `fpc-bench-v1` JSON schema under a
//! `faultgen` key (`results/BENCH_<rev>.json`, rendered by `fpcc stats`).

use fpc_core::{Algorithm, Compressor};
use fpc_metrics::json::Value;
use fpc_serve::{Client, RetryPolicy, ServeConfig, Server};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One sweep's shape.
#[derive(Debug, Clone)]
pub struct FaultgenConfig {
    /// Seeds to run every matrix entry under.
    pub seeds: Vec<u64>,
    /// Requests per cell (cycling compress / decompress / range).
    pub requests: usize,
    /// Uncompressed payload bytes per request.
    pub payload_bytes: usize,
    /// Algorithm under test.
    pub algo: Algorithm,
    /// `(label, FPC_FAULTS entries)` pairs; the seed is appended per cell.
    pub matrix: Vec<(String, String)>,
    /// Per-cell wall-clock budget; exceeding it is a hang.
    pub watchdog: Duration,
    /// Hot-chunk cache budget for the in-process server (0 = off).
    /// Non-zero runs every cell through the cached streaming paths, so
    /// injected socket faults also exercise cache insert/hit handling.
    pub cache_bytes: u64,
}

impl Default for FaultgenConfig {
    fn default() -> FaultgenConfig {
        FaultgenConfig {
            seeds: (0..4).collect(),
            requests: 6,
            payload_bytes: 256 << 10,
            algo: Algorithm::SpSpeed,
            matrix: default_matrix(),
            watchdog: Duration::from_secs(60),
            cache_bytes: 0,
        }
    }
}

/// The standard fault matrix: a fault-free control cell, each socket
/// fault in isolation, a scheduler-perturbation cell, and a mixed cell.
pub fn default_matrix() -> Vec<(String, String)> {
    [
        ("clean", ""),
        ("short-read", "short-read=0.3"),
        ("eintr", "eintr=0.3"),
        ("timeout", "timeout=0.05"),
        ("delay-write", "delay-write=0.2"),
        ("torn-write", "torn-write=0.05"),
        ("disconnect", "disconnect=0.05"),
        ("pool-delay", "pool-delay=0.3"),
        (
            "mixed",
            "short-read=0.15,eintr=0.1,delay-write=0.1,torn-write=0.03,disconnect=0.03,pool-delay=0.1",
        ),
    ]
    .into_iter()
    .map(|(label, spec)| (label.to_string(), spec.to_string()))
    .collect()
}

/// Outcome of one `(fault, seed)` cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Matrix label.
    pub fault: String,
    /// Seed the cell ran under.
    pub seed: u64,
    /// Requests that succeeded with byte-identical results.
    pub ok: u64,
    /// Requests that exhausted their retry budget.
    pub gaveups: u64,
    /// Requests that succeeded with WRONG bytes (always a violation).
    pub mismatches: u64,
    /// Cell missed its watchdog deadline.
    pub hung: bool,
    /// Cell panicked.
    pub crashed: bool,
}

/// Aggregated sweep outcome.
#[derive(Debug, Clone)]
pub struct FaultgenReport {
    /// Seeds swept.
    pub seeds: usize,
    /// Matrix entries swept.
    pub matrix: usize,
    /// Requests per cell.
    pub requests: usize,
    /// Payload bytes per request.
    pub payload_bytes: usize,
    /// Algorithm name (paper spelling).
    pub algo: String,
    /// Server-side hot-chunk cache budget the sweep ran under (0 = off).
    pub cache_bytes: u64,
    /// Per-cell outcomes.
    pub cells: Vec<CellReport>,
    /// Byte-identical successes across all cells.
    pub ok: u64,
    /// Retry-budget exhaustions across all cells.
    pub gaveups: u64,
    /// Byte-identity violations across all cells.
    pub mismatches: u64,
    /// Cells that hung.
    pub hangs: u64,
    /// Cells that crashed.
    pub crashes: u64,
    /// Invariant violations: hangs + crashes + mismatches + any give-up
    /// or missing success on a fault-free control cell.
    pub violations: u64,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// Post-sweep snapshot of the fault/retry counters
    /// (`faults.*`, `serve.faults.*`, `remote.retry.*`). Empty unless the
    /// `metrics` feature is enabled; with faults armed, a sweep that
    /// leaves `faults.injected` at zero means the hooks never fired.
    pub counters: Vec<(String, u64)>,
}

/// Runs the sweep. Cells run strictly sequentially: the fault plan is
/// process-global state, and overlapping cells would blur which seed
/// produced which injection.
///
/// Works in builds without the `faults` feature too (every cell then
/// behaves like the control cell) — the `faultgen` bin refuses that
/// configuration, but tests use it to validate the plumbing cheaply.
///
/// # Errors
///
/// When the config cannot produce any traffic (empty seeds/matrix, zero
/// requests or payload).
pub fn run(config: &FaultgenConfig) -> Result<FaultgenReport, String> {
    if config.seeds.is_empty()
        || config.matrix.is_empty()
        || config.requests == 0
        || config.payload_bytes == 0
    {
        return Err("seeds, matrix, requests, and payload_bytes must all be non-empty".into());
    }
    // The fault-free reference: computed before any plan is installed.
    let data = crate::loadgen::payload(config.payload_bytes);
    let expected = Compressor::new(config.algo).compress_bytes(&data);

    let start = Instant::now();
    let mut cells = Vec::with_capacity(config.matrix.len() * config.seeds.len());
    for (label, spec) in &config.matrix {
        for &seed in &config.seeds {
            cells.push(run_cell(label, spec, seed, config, &data, &expected));
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let sum = |f: fn(&CellReport) -> u64| cells.iter().map(f).sum::<u64>();
    let ok = sum(|c| c.ok);
    let gaveups = sum(|c| c.gaveups);
    let mismatches = sum(|c| c.mismatches);
    let hangs = cells.iter().filter(|c| c.hung).count() as u64;
    let crashes = cells.iter().filter(|c| c.crashed).count() as u64;
    // On a control cell nothing is injected, so nothing may fail.
    let clean_failures: u64 = cells
        .iter()
        .filter(|c| c.fault == "clean" && !c.hung && !c.crashed)
        .map(|c| c.gaveups + (config.requests as u64).saturating_sub(c.ok + c.mismatches))
        .sum();
    let counters = fpc_metrics::snapshot()
        .counters
        .into_iter()
        .filter(|c| {
            c.name.starts_with("faults.")
                || c.name.starts_with("serve.faults.")
                || c.name.starts_with("remote.retry.")
        })
        .map(|c| (c.name, c.value))
        .collect();
    Ok(FaultgenReport {
        seeds: config.seeds.len(),
        matrix: config.matrix.len(),
        requests: config.requests,
        payload_bytes: config.payload_bytes,
        algo: config.algo.to_string(),
        cache_bytes: config.cache_bytes,
        ok,
        gaveups,
        mismatches,
        hangs,
        crashes,
        violations: hangs + crashes + mismatches + clean_failures,
        wall_secs,
        counters,
        cells,
    })
}

/// Runs one cell under its own plan installation and watchdog.
fn run_cell(
    label: &str,
    spec: &str,
    seed: u64,
    config: &FaultgenConfig,
    data: &[u8],
    expected: &[u8],
) -> CellReport {
    let mut cell = CellReport {
        fault: label.to_string(),
        seed,
        ok: 0,
        gaveups: 0,
        mismatches: 0,
        hung: false,
        crashed: false,
    };
    let plan = match fpc_faults::Plan::parse(&format!("{spec}:{seed}")) {
        Ok(plan) => plan,
        Err(_) => {
            // A malformed matrix entry counts as a crash of that cell.
            cell.crashed = true;
            return cell;
        }
    };
    // Installed by the parent so a hung cell thread cannot leak the plan
    // into subsequent cells; the guard restores on every path out.
    let _guard = fpc_faults::install(plan);

    let requests = config.requests;
    let algo = config.algo;
    let cache_bytes = config.cache_bytes;
    let data = data.to_vec();
    let expected = expected.to_vec();
    let (tx, rx) = mpsc::channel::<(u64, u64, u64)>();
    let handle = std::thread::Builder::new()
        .name(format!("fpc-faultgen-{label}-{seed}"))
        .spawn(move || {
            let outcome = drive_cell(requests, algo, seed, cache_bytes, &data, &expected);
            let _ = tx.send(outcome);
        });
    let Ok(handle) = handle else {
        cell.crashed = true;
        return cell;
    };
    let deadline = Instant::now() + config.watchdog;
    loop {
        match rx.try_recv() {
            Ok((ok, gaveups, mismatches)) => {
                let _ = handle.join();
                cell.ok = ok;
                cell.gaveups = gaveups;
                cell.mismatches = mismatches;
                return cell;
            }
            // Sender dropped without sending: the cell thread panicked.
            Err(mpsc::TryRecvError::Disconnected) => {
                cell.crashed = true;
                let _ = handle.join();
                return cell;
            }
            Err(mpsc::TryRecvError::Empty) => {
                if Instant::now() >= deadline {
                    // The thread is leaked deliberately: joining a hung
                    // cell would hang the harness itself.
                    cell.hung = true;
                    return cell;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Boots the server, drives the requests, drains the server. Returns
/// `(ok, gaveups, mismatches)`.
fn drive_cell(
    requests: usize,
    algo: Algorithm,
    seed: u64,
    cache_bytes: u64,
    data: &[u8],
    expected: &[u8],
) -> (u64, u64, u64) {
    // Aggressive thresholds: the degradation paths (reaping, eviction)
    // must trigger within the watchdog, not hide behind 30s defaults.
    let serve_config = ServeConfig {
        threads: 2,
        max_conns: 2,
        queue_cap: 4,
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        idle_timeout: Some(Duration::from_secs(5)),
        progress_deadline: Some(Duration::from_secs(5)),
        cache_bytes,
        ..ServeConfig::default()
    };
    let Ok(server) = Server::bind("127.0.0.1:0", serve_config) else {
        return (0, 0, 0);
    };
    let Ok(addr) = server.local_addr() else {
        return (0, 0, 0);
    };
    let shutdown = server.shutdown_flag();
    let server_handle = std::thread::spawn(move || server.run());

    let policy = RetryPolicy {
        attempts: 10,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        deadline: Some(Duration::from_secs(10)),
        seed,
    };
    let (mut ok, mut gaveups, mut mismatches) = (0u64, 0u64, 0u64);
    match Client::connect_with_policy(addr, Some(Duration::from_secs(2)), policy) {
        Ok(mut client) => {
            // A chunk-unaligned mid-payload slice for the range requests.
            let (offset, len) = (data.len() as u64 / 3 + 17, data.len() as u64 / 5);
            for req in 0..requests {
                // Cycle ops so both directions move bulk payloads and the
                // seekable path sees the same socket faults.
                let outcome = match req % 3 {
                    0 => client.compress(algo, data).map(|s| s == expected),
                    1 => client.decompress(expected).map(|d| d == data),
                    _ => client
                        .range(expected, offset, len)
                        .map(|r| r == data[offset as usize..(offset + len) as usize]),
                };
                match outcome {
                    Ok(true) => ok += 1,
                    Ok(false) => mismatches += 1,
                    Err(_) => gaveups += 1,
                }
            }
        }
        Err(_) => gaveups += requests as u64,
    }

    shutdown.store(true, Ordering::SeqCst);
    let _ = server_handle.join();
    (ok, gaveups, mismatches)
}

impl CellReport {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("fault".into(), Value::from(self.fault.as_str())),
            ("seed".into(), Value::from(self.seed)),
            ("ok".into(), Value::from(self.ok)),
            ("gaveups".into(), Value::from(self.gaveups)),
            ("mismatches".into(), Value::from(self.mismatches)),
            ("hung".into(), Value::from(self.hung)),
            ("crashed".into(), Value::from(self.crashed)),
        ])
    }
}

impl FaultgenReport {
    /// Serializes as the `faultgen` member of an `fpc-bench-v1` report.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("seeds".into(), Value::from(self.seeds as u64)),
            ("matrix".into(), Value::from(self.matrix as u64)),
            ("requests".into(), Value::from(self.requests as u64)),
            (
                "payload_bytes".into(),
                Value::from(self.payload_bytes as u64),
            ),
            ("algo".into(), Value::from(self.algo.as_str())),
            ("cache_bytes".into(), Value::from(self.cache_bytes)),
            ("ok".into(), Value::from(self.ok)),
            ("gaveups".into(), Value::from(self.gaveups)),
            ("mismatches".into(), Value::from(self.mismatches)),
            ("hangs".into(), Value::from(self.hangs)),
            ("crashes".into(), Value::from(self.crashes)),
            ("violations".into(), Value::from(self.violations)),
            ("wall_secs".into(), Value::from(self.wall_secs)),
            (
                "counters".into(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(name, value)| (name.clone(), Value::from(*value)))
                        .collect(),
                ),
            ),
            (
                "cells".into(),
                Value::Arr(self.cells.iter().map(CellReport::to_value).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_config_rejected() {
        let config = FaultgenConfig {
            seeds: Vec::new(),
            ..FaultgenConfig::default()
        };
        assert!(run(&config).is_err());
    }

    #[test]
    fn matrix_specs_all_parse() {
        for (label, spec) in default_matrix() {
            let plan = fpc_faults::Plan::parse(&format!("{spec}:7"))
                .unwrap_or_else(|e| panic!("matrix entry '{label}' invalid: {e}"));
            assert_eq!(plan.seed(), 7);
            assert_eq!(plan.is_inert(), label == "clean", "{label}");
        }
    }

    #[test]
    fn control_sweep_is_clean_and_serializes() {
        // One control cell over loopback: works with or without the
        // `faults` feature and must show zero violations either way. The
        // cache is armed so the sweep's byte-identity check also covers
        // the cached streaming paths.
        let config = FaultgenConfig {
            seeds: vec![1],
            requests: 4,
            payload_bytes: 64 << 10,
            matrix: vec![("clean".into(), String::new())],
            watchdog: Duration::from_secs(120),
            cache_bytes: 32 << 20,
            ..FaultgenConfig::default()
        };
        let report = run(&config).expect("control sweep");
        assert_eq!(report.violations, 0, "control cell must be clean");
        assert_eq!(report.ok, 4);
        assert_eq!(report.gaveups, 0);
        let value = report.to_value();
        assert_eq!(value.get("violations").and_then(Value::as_u64), Some(0));
        assert_eq!(
            value
                .get("cells")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(1)
        );
    }
}

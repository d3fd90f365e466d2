//! Perf-smoke harness: versioned `BENCH_<rev>.json` reports and the
//! regression gate behind CI's `perf-smoke` job.
//!
//! A report captures, for each of the paper's four algorithms, the ratio
//! and throughput over the small synthetic suites plus — when the binary is
//! built with `--features metrics` — the per-stage breakdown and pool
//! telemetry recorded while measuring. An executor microbench (the
//! persistent pool on many small chunks) rides along.
//!
//! Because CI runners differ wildly in absolute speed, every report also
//! stores a `calibration_gbps` figure from a fixed scalar loop. The
//! [`compare`] gate normalizes fresh throughput by the ratio of the two
//! calibrations before applying the regression threshold, so a slow runner
//! does not read as a regression and a fast one does not mask a real
//! slowdown of the same magnitude.
//!
//! `FPC_PERF_HANDICAP=<divisor>` artificially divides every measured
//! throughput (calibration excluded). It exists solely so CI can prove the
//! gate actually fails on a slowdown.

use crate::entries::Entry;
use crate::figures::{suites_for, Precision};
use crate::measure::{byte_suites_u8, measure_cpu, ByteSuite, CodecResult, Config};
use fpc_core::Algorithm;
use fpc_datagen::{mixed_stream_suites, Scale};
use fpc_metrics::json::Value;
use fpc_metrics::report::BENCH_SCHEMA;
use std::time::Instant;

/// Fractional throughput drop (after calibration normalization) that fails
/// the gate for an algorithm.
pub const THROUGHPUT_DROP: f64 = 0.35;

/// Fractional compression-ratio loss that fails the gate. Ratios are
/// deterministic for fixed suites, so the tolerance only absorbs rounding
/// through JSON.
pub const RATIO_TOLERANCE: f64 = 0.02;

/// Fractional drop that fails the gate for the executor microbench. More
/// lenient than the algorithm threshold: sub-millisecond scheduling
/// measurements are the noisiest numbers in the report.
pub const EXECUTOR_DROP: f64 = 0.5;

/// How much worse AUTO's ratio may be than the best fixed algorithm on the
/// mixed-stream suites before the `auto-dominance` gate fails (1%).
pub const AUTO_RATIO_SLACK: f64 = 0.01;

/// Default fraction of the speed-tier compression throughput AUTO must
/// retain on the mixed-stream suites. AUTO's throughput is bounded by the
/// blended cost of the codecs it picks — on ratio-heavy chunks that is
/// RARE/FCM work no selection strategy can avoid — so the floor is set
/// below the blend's steady state (~17% of the speed tier on the mixed
/// suites) to catch selection-overhead regressions, not the intrinsic cost
/// of ratio-tier picks.
pub const AUTO_SPEED_FLOOR: f64 = 0.10;

/// Measured performance of one algorithm over the smoke suites.
#[derive(Debug, Clone)]
pub struct AlgoPerf {
    /// Paper name (`SPspeed`, …).
    pub name: String,
    /// Geo-mean compression ratio.
    pub ratio: f64,
    /// Geo-mean compression throughput in GB/s.
    pub compress_gbps: f64,
    /// Geo-mean decompression throughput in GB/s.
    pub decompress_gbps: f64,
    /// Total input bytes across all suite files.
    pub bytes: u64,
    /// Stage/counter snapshot recorded during this algorithm's measurement
    /// (empty with the `metrics` feature off).
    pub metrics: Value,
}

/// Executor microbench result.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorPerf {
    /// Chunked-checksum throughput through `fpc_pool::run_indexed`.
    pub pool_gbps: f64,
}

/// AUTO-vs-fixed measurement over the mixed-stream suites (the workload
/// the adaptive codec exists for: heterogeneous MPI-like rank buffers).
#[derive(Debug, Clone)]
pub struct AutoReport {
    /// Total input bytes across the mixed-stream suite files.
    pub bytes: u64,
    /// AUTO's measurement over the mixed suites.
    pub auto_perf: CodecResult,
    /// Every fixed algorithm measured over the *same* suites, paper order.
    pub fixed: Vec<CodecResult>,
    /// Aggregate per-codec chunk pick counts across all suite files,
    /// `(codec name, chunks)`; raw-fallback chunks appear as `"raw"`.
    pub picks: Vec<(String, u64)>,
}

impl AutoReport {
    /// The best fixed-algorithm result by compression ratio.
    pub fn best_fixed(&self) -> Option<&CodecResult> {
        self.fixed.iter().max_by(|a, b| a.ratio.total_cmp(&b.ratio))
    }

    /// Compression throughput of the slower speed-tier algorithm
    /// (min of SPspeed and DPspeed over the mixed suites).
    pub fn speed_tier_gbps(&self) -> Option<f64> {
        self.fixed
            .iter()
            .filter(|r| r.name == "SPspeed" || r.name == "DPspeed")
            .map(|r| r.compress_gbps)
            .min_by(f64::total_cmp)
    }
}

/// One full perf-smoke report (serializes as `fpc-bench-v1`).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Revision label (git short hash or `local`).
    pub rev: String,
    /// Seconds since the Unix epoch at measurement time.
    pub created_unix: u64,
    /// Worker threads used for the paper's algorithms.
    pub threads: usize,
    /// Machine-speed yardstick from [`calibrate_gbps`].
    pub calibration_gbps: f64,
    /// Dispatch tier the process resolved to (`fpc_simd::active`).
    pub simd_active: String,
    /// Per-kernel dispatch tier (`fpc_simd::kernel_tiers`); records which
    /// code path each throughput number actually measured.
    pub simd_kernels: Vec<(String, String)>,
    /// One entry per paper algorithm, in paper order.
    pub algorithms: Vec<AlgoPerf>,
    /// AUTO-vs-fixed comparison over the mixed-stream suites.
    pub auto: AutoReport,
    /// Executor microbench numbers.
    pub executor: ExecutorPerf,
}

/// Reads the `FPC_PERF_HANDICAP` throughput divisor (`1.0` when unset).
///
/// Values that fail to parse or are below 1 are ignored — the handicap can
/// only slow the report down, never inflate it.
pub fn handicap() -> f64 {
    std::env::var("FPC_PERF_HANDICAP")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|d| d.is_finite() && *d >= 1.0)
        .unwrap_or(1.0)
}

/// Measures a machine-speed yardstick: a fixed xor-rotate reduction over a
/// deterministic 8 MiB word buffer, reported in GB/s.
///
/// The loop is branch-free, cache-resident after the first pass, and uses
/// no SIMD intrinsics, so its speed tracks scalar core speed — the same
/// resource the codec kernels bottleneck on — without depending on any
/// code under test.
pub fn calibrate_gbps() -> f64 {
    const WORDS: usize = 1 << 20; // 8 MiB
    const PASSES: usize = 8;
    let buf: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut acc = 0u64;
    // Warm-up pass (pays for page faults).
    for &w in &buf {
        acc ^= w.rotate_left(17);
    }
    let start = Instant::now();
    for p in 0..PASSES {
        for &w in &buf {
            acc ^= w.rotate_left((p as u32) + 11);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    (WORDS * 8 * PASSES) as f64 / 1e9 / secs.max(1e-12)
}

fn suites_for_algorithm(algo: Algorithm) -> Vec<ByteSuite> {
    if algo.is_single_precision() {
        suites_for(Precision::Sp, Scale::Small)
    } else {
        suites_for(Precision::Dp, Scale::Small)
    }
}

/// Measures all four paper algorithms over the small suites, snapshotting
/// the live metrics around each so every entry carries its own stage
/// breakdown.
pub fn measure_algorithms(threads: usize) -> Vec<AlgoPerf> {
    let div = handicap();
    let config = Config {
        repetitions: 2,
        verify: true,
        threads,
    };
    Algorithm::ALL
        .iter()
        .map(|&algo| {
            let suites = suites_for_algorithm(algo);
            let bytes: u64 = suites
                .iter()
                .flat_map(|s| s.files.iter())
                .map(|(_, b, _)| b.len() as u64)
                .sum();
            let entry = Entry::ours(algo);
            fpc_metrics::reset();
            let result = measure_cpu(&entry, &suites, &config);
            let metrics = fpc_metrics::snapshot().to_value();
            AlgoPerf {
                name: result.name,
                ratio: result.ratio,
                compress_gbps: result.compress_gbps / div,
                decompress_gbps: result.decompress_gbps / div,
                bytes,
                metrics,
            }
        })
        .collect()
}

/// Measures AUTO and every fixed algorithm over the mixed-stream suites
/// and aggregates AUTO's per-chunk codec picks from the chunk tables.
pub fn measure_auto(threads: usize) -> AutoReport {
    let div = handicap();
    let config = Config {
        repetitions: 2,
        verify: true,
        threads,
    };
    let suites = byte_suites_u8(&mixed_stream_suites(Scale::Small));
    let bytes: u64 = suites
        .iter()
        .flat_map(|s| s.files.iter())
        .map(|(_, b, _)| b.len() as u64)
        .sum();
    let scale = |mut r: CodecResult| {
        r.compress_gbps /= div;
        r.decompress_gbps /= div;
        r
    };
    let auto_perf = scale(measure_cpu(&Entry::ours(Algorithm::Auto), &suites, &config));
    let fixed: Vec<CodecResult> = Algorithm::ALL
        .iter()
        .map(|&algo| scale(measure_cpu(&Entry::ours(algo), &suites, &config)))
        .collect();
    // Pick counts come from the chunk tables of one compression pass per
    // file — deterministic, so re-compressing matches what was timed.
    let compressor = fpc_core::Compressor::new(Algorithm::Auto).with_threads(threads);
    let mut by_id: Vec<(u8, u64)> = Vec::new();
    let mut raw_chunks = 0u64;
    for (_, data, _) in suites.iter().flat_map(|s| s.files.iter()) {
        let stream = compressor.compress_bytes(data);
        let info = fpc_core::info(&stream).expect("self-produced stream");
        raw_chunks += info.raw_chunks as u64;
        for (id, chunks) in info.codec_picks {
            match by_id.iter_mut().find(|(i, _)| *i == id) {
                Some((_, total)) => *total += chunks as u64,
                None => by_id.push((id, chunks as u64)),
            }
        }
    }
    by_id.sort_by_key(|&(id, _)| id);
    let mut picks: Vec<(String, u64)> = by_id
        .into_iter()
        .map(|(id, chunks)| {
            let name = Algorithm::from_id(id)
                .map(|a| a.name().to_string())
                .unwrap_or_else(|_| format!("codec#{id}"));
            (name, chunks)
        })
        .collect();
    if raw_chunks > 0 {
        picks.push(("raw".to_string(), raw_chunks));
    }
    AutoReport {
        bytes,
        auto_perf,
        fixed,
        picks,
    }
}

/// The `auto-dominance` gate: AUTO must match the best fixed algorithm's
/// compression ratio within [`AUTO_RATIO_SLACK`] and keep at least
/// [`AUTO_SPEED_FLOOR`] of the speed-tier compression throughput on the
/// mixed-stream suites.
///
/// Returns the list of violation descriptions (empty = gate passes).
pub fn auto_gate(report: &AutoReport) -> Vec<String> {
    let mut failures = Vec::new();
    match report.best_fixed() {
        Some(best) => {
            let floor = best.ratio * (1.0 - AUTO_RATIO_SLACK);
            if report.auto_perf.ratio < floor {
                failures.push(format!(
                    "AUTO ratio {:.4} is more than {:.0}% below best fixed \
                     ({} at {:.4})",
                    report.auto_perf.ratio,
                    AUTO_RATIO_SLACK * 100.0,
                    best.name,
                    best.ratio
                ));
            }
        }
        None => failures.push("no fixed algorithms in the report".to_string()),
    }
    match report.speed_tier_gbps() {
        Some(tier) => {
            let floor = tier * AUTO_SPEED_FLOOR;
            if report.auto_perf.compress_gbps < floor {
                failures.push(format!(
                    "AUTO compress {:.3} GB/s is below {:.0}% of the \
                     speed-tier throughput ({tier:.3} GB/s)",
                    report.auto_perf.compress_gbps,
                    AUTO_SPEED_FLOOR * 100.0
                ));
            }
        }
        None => failures.push("no speed-tier algorithms in the report".to_string()),
    }
    failures
}

/// Simulated per-chunk codec work.
fn chunk_work(chunk: &[u8]) -> u64 {
    let mut acc = 0u64;
    for &b in chunk {
        acc = acc.wrapping_mul(31).wrapping_add(u64::from(b));
    }
    acc
}

/// Times the pool on a chunked-checksum workload (256 chunks x 1 KiB per
/// call).
pub fn executor_bench(threads: usize) -> ExecutorPerf {
    const CHUNKS: usize = 256;
    const CHUNK_BYTES: usize = 1024;
    const CALLS: usize = 64;
    let div = handicap();
    let data: Vec<u8> = (0..CHUNKS * CHUNK_BYTES)
        .map(|i| (i as u32).wrapping_mul(0x9E37_79B9).to_le_bytes()[0])
        .collect();
    let call = || {
        fpc_pool::run_indexed(CHUNKS, threads, |i| {
            chunk_work(&data[i * CHUNK_BYTES..(i + 1) * CHUNK_BYTES])
        })
        .iter()
        .fold(0u64, |a, &x| a ^ x)
    };
    std::hint::black_box(call()); // warm-up
    let start = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(call());
    }
    let secs = start.elapsed().as_secs_f64();
    ExecutorPerf {
        pool_gbps: (CALLS * CHUNKS * CHUNK_BYTES) as f64 / 1e9 / secs.max(1e-12) / div,
    }
}

/// Runs the full perf-smoke measurement.
pub fn run(rev: &str, threads: usize) -> BenchReport {
    let created_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    BenchReport {
        rev: rev.to_string(),
        created_unix,
        threads,
        calibration_gbps: calibrate_gbps(),
        simd_active: fpc_simd::active().name().to_string(),
        simd_kernels: fpc_simd::kernel_tiers()
            .into_iter()
            .map(|(k, t)| (k.to_string(), t.name().to_string()))
            .collect(),
        algorithms: measure_algorithms(threads),
        auto: measure_auto(threads),
        executor: executor_bench(threads),
    }
}

impl AutoReport {
    /// Serializes the `auto` section of the `fpc-bench-v1` schema.
    pub fn to_value(&self) -> Value {
        let perf_obj = |r: &CodecResult| {
            Value::Obj(vec![
                ("name".into(), Value::from(r.name.as_str())),
                ("ratio".into(), Value::from(r.ratio)),
                ("compress_gbps".into(), Value::from(r.compress_gbps)),
                ("decompress_gbps".into(), Value::from(r.decompress_gbps)),
            ])
        };
        let picks = self
            .picks
            .iter()
            .map(|(name, chunks)| (name.clone(), Value::from(*chunks)))
            .collect();
        Value::Obj(vec![
            ("suite".into(), Value::from("mixed-stream")),
            ("bytes".into(), Value::from(self.bytes)),
            ("ratio".into(), Value::from(self.auto_perf.ratio)),
            (
                "compress_gbps".into(),
                Value::from(self.auto_perf.compress_gbps),
            ),
            (
                "decompress_gbps".into(),
                Value::from(self.auto_perf.decompress_gbps),
            ),
            ("picks".into(), Value::Obj(picks)),
            (
                "fixed".into(),
                Value::Arr(self.fixed.iter().map(perf_obj).collect()),
            ),
        ])
    }
}

impl BenchReport {
    /// Serializes to the `fpc-bench-v1` schema (`fpcc stats` renders it).
    pub fn to_value(&self) -> Value {
        let algorithms = self
            .algorithms
            .iter()
            .map(|a| {
                Value::Obj(vec![
                    ("name".into(), Value::from(a.name.as_str())),
                    ("ratio".into(), Value::from(a.ratio)),
                    ("compress_gbps".into(), Value::from(a.compress_gbps)),
                    ("decompress_gbps".into(), Value::from(a.decompress_gbps)),
                    ("bytes".into(), Value::from(a.bytes)),
                    ("metrics".into(), a.metrics.clone()),
                ])
            })
            .collect();
        let kernels = self
            .simd_kernels
            .iter()
            .map(|(k, t)| (k.clone(), Value::from(t.as_str())))
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::from(BENCH_SCHEMA)),
            ("rev".into(), Value::from(self.rev.as_str())),
            ("created_unix".into(), Value::from(self.created_unix)),
            ("threads".into(), Value::from(self.threads)),
            (
                "calibration_gbps".into(),
                Value::from(self.calibration_gbps),
            ),
            (
                "simd".into(),
                Value::Obj(vec![
                    ("active".into(), Value::from(self.simd_active.as_str())),
                    ("kernels".into(), Value::Obj(kernels)),
                ]),
            ),
            ("algorithms".into(), Value::Arr(algorithms)),
            ("auto".into(), self.auto.to_value()),
            (
                "executor".into(),
                Value::Obj(vec![(
                    "pool_gbps".into(),
                    Value::from(self.executor.pool_gbps),
                )]),
            ),
        ])
    }
}

fn require_schema(v: &Value, which: &str) -> Result<(), String> {
    match v.get("schema").and_then(Value::as_str) {
        Some(BENCH_SCHEMA) => Ok(()),
        Some(other) => Err(format!("{which}: unsupported schema '{other}'")),
        None => Err(format!("{which}: missing 'schema' field")),
    }
}

fn algo_field(a: &Value, name: &str, field: &str) -> Result<f64, String> {
    a.get(field)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("algorithm '{name}' missing '{field}'"))
}

/// Compares a fresh report against a committed baseline.
///
/// Fresh throughput is first normalized by `baseline_calibration /
/// fresh_calibration`, then each algorithm must retain at least
/// `1 - THROUGHPUT_DROP` of the baseline throughput and `1 -
/// RATIO_TOLERANCE` of the baseline ratio; the executor pool number must
/// retain `1 - EXECUTOR_DROP`.
///
/// Returns the list of regression descriptions (empty = gate passes).
///
/// # Errors
///
/// Fails when either document is not a structurally valid `fpc-bench-v1`
/// report.
pub fn compare(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    require_schema(baseline, "baseline")?;
    require_schema(fresh, "fresh")?;
    let calib = |v: &Value, which: &str| -> Result<f64, String> {
        v.get("calibration_gbps")
            .and_then(Value::as_f64)
            .filter(|c| c.is_finite() && *c > 0.0)
            .ok_or_else(|| format!("{which}: missing or invalid 'calibration_gbps'"))
    };
    // A fresh runner 2x slower than the baseline runner halves every raw
    // number; multiplying fresh throughput by base_calib/fresh_calib
    // cancels machine speed out of the comparison.
    let norm = calib(baseline, "baseline")? / calib(fresh, "fresh")?;
    let empty = Vec::new();
    let base_algos = baseline
        .get("algorithms")
        .and_then(Value::as_arr)
        .ok_or("baseline: missing 'algorithms'")?;
    let fresh_algos = fresh
        .get("algorithms")
        .and_then(Value::as_arr)
        .unwrap_or(&empty);
    let mut failures = Vec::new();
    for b in base_algos {
        let name = b
            .get("name")
            .and_then(Value::as_str)
            .ok_or("baseline: algorithm missing 'name'")?;
        let Some(f) = fresh_algos
            .iter()
            .find(|f| f.get("name").and_then(Value::as_str) == Some(name))
        else {
            failures.push(format!("{name}: missing from fresh report"));
            continue;
        };
        let b_ratio = algo_field(b, name, "ratio")?;
        let f_ratio = algo_field(f, name, "ratio")?;
        if f_ratio < b_ratio * (1.0 - RATIO_TOLERANCE) {
            failures.push(format!(
                "{name}: compression ratio regressed {b_ratio:.4} -> {f_ratio:.4}"
            ));
        }
        for dir in ["compress_gbps", "decompress_gbps"] {
            let b_gbps = algo_field(b, name, dir)?;
            let f_gbps = algo_field(f, name, dir)? * norm;
            if f_gbps < b_gbps * (1.0 - THROUGHPUT_DROP) {
                failures.push(format!(
                    "{name}: {dir} regressed {b_gbps:.3} -> {f_gbps:.3} \
                     (normalized; >{:.0}% drop)",
                    THROUGHPUT_DROP * 100.0
                ));
            }
        }
    }
    let pool = |v: &Value| {
        v.get("executor")
            .and_then(|e| e.get("pool_gbps"))
            .and_then(Value::as_f64)
    };
    if let (Some(b), Some(f)) = (pool(baseline), pool(fresh)) {
        let f = f * norm;
        if f < b * (1.0 - EXECUTOR_DROP) {
            failures.push(format!(
                "executor: pool_gbps regressed {b:.3} -> {f:.3} (normalized; >{:.0}% drop)",
                EXECUTOR_DROP * 100.0
            ));
        }
    }
    Ok(failures)
}

/// Per-stage throughput deltas between two reports, for the perf-smoke log
/// (informational — the gate in [`compare`] does not act on them).
///
/// Each algorithm's `metrics.stages` entries are matched by name; stage
/// throughput is `bytes / nanos` (== GB/s), with the fresh side normalized
/// by the calibration ratio exactly like [`compare`]. Stages missing from
/// either side (feature off, or a stage added/removed between revisions)
/// are skipped. Returns lines like
/// `SPspeed DIFFMS.encode: 5.671 -> 9.802 GB/s (1.73x)`.
pub fn stage_deltas(baseline: &Value, fresh: &Value) -> Vec<String> {
    let calib = |v: &Value| {
        v.get("calibration_gbps")
            .and_then(Value::as_f64)
            .filter(|c| c.is_finite() && *c > 0.0)
    };
    let (Some(b_calib), Some(f_calib)) = (calib(baseline), calib(fresh)) else {
        return Vec::new();
    };
    let norm = b_calib / f_calib;
    let empty = Vec::new();
    let algos = |v: &Value| -> Vec<Value> {
        v.get("algorithms")
            .and_then(Value::as_arr)
            .unwrap_or(&empty)
            .to_vec()
    };
    // Stage name -> (nanos, bytes), keeping only well-formed entries.
    let stages = |a: &Value| -> Vec<(String, f64, f64)> {
        a.get("metrics")
            .and_then(|m| m.get("stages"))
            .and_then(Value::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|s| {
                        let name = s.get("name").and_then(Value::as_str)?;
                        let nanos = s.get("nanos").and_then(Value::as_f64)?;
                        let bytes = s.get("bytes").and_then(Value::as_f64)?;
                        (nanos > 0.0 && bytes > 0.0).then(|| (name.to_string(), nanos, bytes))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut lines = Vec::new();
    for b in algos(baseline) {
        let Some(name) = b.get("name").and_then(Value::as_str) else {
            continue;
        };
        let Some(f) = algos(fresh)
            .into_iter()
            .find(|f| f.get("name").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        let fresh_stages = stages(&f);
        for (stage, b_nanos, b_bytes) in stages(&b) {
            let Some((_, f_nanos, f_bytes)) = fresh_stages.iter().find(|(s, _, _)| *s == stage)
            else {
                continue;
            };
            let b_gbps = b_bytes / b_nanos;
            let f_gbps = f_bytes / f_nanos * norm;
            lines.push(format!(
                "{name} {stage}: {b_gbps:.3} -> {f_gbps:.3} GB/s ({:.2}x)",
                f_gbps / b_gbps
            ));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec_result(name: &str, ratio: f64, gbps: f64) -> CodecResult {
        CodecResult {
            name: name.into(),
            ours: true,
            ratio,
            compress_gbps: gbps,
            decompress_gbps: gbps,
        }
    }

    fn auto_report(
        auto_ratio: f64,
        auto_gbps: f64,
        fixed_ratio: f64,
        tier_gbps: f64,
    ) -> AutoReport {
        AutoReport {
            bytes: 1000,
            auto_perf: codec_result("AUTO", auto_ratio, auto_gbps),
            fixed: Algorithm::ALL
                .iter()
                .map(|a| codec_result(a.name(), fixed_ratio, tier_gbps))
                .collect(),
            picks: vec![("SPspeed".into(), 3), ("raw".into(), 1)],
        }
    }

    fn report(calib: f64, gbps: f64, ratio: f64) -> Value {
        let r = BenchReport {
            rev: "test".into(),
            created_unix: 0,
            threads: 1,
            calibration_gbps: calib,
            simd_active: fpc_simd::active().name().into(),
            simd_kernels: vec![("zigzag.slice32".into(), "swar".into())],
            algorithms: Algorithm::ALL
                .iter()
                .map(|a| AlgoPerf {
                    name: a.name().into(),
                    ratio,
                    compress_gbps: gbps,
                    decompress_gbps: gbps,
                    bytes: 1000,
                    metrics: fpc_metrics::snapshot().to_value(),
                })
                .collect(),
            auto: auto_report(ratio, gbps, ratio, gbps),
            executor: ExecutorPerf { pool_gbps: gbps },
        };
        r.to_value()
    }

    #[test]
    fn identical_reports_pass() {
        let v = report(1.0, 2.0, 1.5);
        assert_eq!(compare(&v, &v).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn large_drop_fails() {
        let base = report(1.0, 2.0, 1.5);
        let fresh = report(1.0, 0.9, 1.5); // 55% drop
        let failures = compare(&base, &fresh).unwrap();
        assert!(
            failures.iter().any(|f| f.contains("compress_gbps")),
            "{failures:?}"
        );
    }

    #[test]
    fn calibration_normalizes_machine_speed() {
        // Fresh machine is 2x slower across the board, including the
        // calibration loop: not a regression.
        let base = report(2.0, 2.0, 1.5);
        let fresh = report(1.0, 1.0, 1.5);
        assert_eq!(compare(&base, &fresh).unwrap(), Vec::<String>::new());
        // Same raw numbers without the calibration excuse: regression.
        let fresh_same_calib = report(2.0, 1.0, 1.5);
        assert!(!compare(&base, &fresh_same_calib).unwrap().is_empty());
    }

    #[test]
    fn ratio_regression_fails() {
        let base = report(1.0, 2.0, 1.5);
        let fresh = report(1.0, 2.0, 1.2);
        let failures = compare(&base, &fresh).unwrap();
        assert!(failures.iter().any(|f| f.contains("ratio")), "{failures:?}");
    }

    #[test]
    fn missing_algorithm_fails() {
        let base = report(1.0, 2.0, 1.5);
        let mut fresh = report(1.0, 2.0, 1.5);
        if let Value::Obj(members) = &mut fresh {
            for (k, v) in members.iter_mut() {
                if k == "algorithms" {
                    if let Value::Arr(a) = v {
                        a.pop();
                    }
                }
            }
        }
        let failures = compare(&base, &fresh).unwrap();
        assert!(
            failures.iter().any(|f| f.contains("missing")),
            "{failures:?}"
        );
    }

    #[test]
    fn wrong_schema_rejected() {
        let v = Value::parse(r#"{"schema":"nope"}"#).unwrap();
        assert!(compare(&v, &v).is_err());
    }

    #[test]
    fn handicap_defaults_to_one() {
        // Cannot set the env var here (tests run in parallel); just check
        // the unset/default path.
        if std::env::var("FPC_PERF_HANDICAP").is_err() {
            assert_eq!(handicap(), 1.0);
        }
    }

    #[test]
    fn calibration_is_positive() {
        assert!(calibrate_gbps() > 0.0);
    }

    #[test]
    fn executor_bench_produces_numbers() {
        let e = executor_bench(1);
        assert!(e.pool_gbps > 0.0);
    }

    #[test]
    fn stage_deltas_normalize_and_ratio() {
        let doc = |calib: f64, nanos: u64| {
            Value::parse(&format!(
                r#"{{"schema":"fpc-bench-v1","calibration_gbps":{calib},
                     "algorithms":[{{"name":"SPspeed","metrics":{{"stages":[
                       {{"name":"DIFFMS.encode","calls":1,"nanos":{nanos},"bytes":1000}},
                       {{"name":"BIT","calls":1,"nanos":0,"bytes":0}}]}}}}]}}"#
            ))
            .unwrap()
        };
        // Same machine (equal calibration), stage got 2x faster.
        let lines = stage_deltas(&doc(1.0, 1000), &doc(1.0, 500));
        assert_eq!(lines.len(), 1, "{lines:?}"); // zero-byte stage skipped
        assert!(lines[0].contains("SPspeed DIFFMS.encode"), "{lines:?}");
        assert!(lines[0].contains("(2.00x)"), "{lines:?}");
        // Fresh machine is 2x faster overall: calibration cancels it out.
        let lines = stage_deltas(&doc(1.0, 1000), &doc(2.0, 500));
        assert!(lines[0].contains("(1.00x)"), "{lines:?}");
    }

    #[test]
    fn report_carries_simd_tiers() {
        let v = report(1.0, 2.0, 1.5);
        let simd = v.get("simd").expect("simd section");
        assert!(simd.get("active").and_then(Value::as_str).is_some());
        assert_eq!(
            simd.get("kernels")
                .and_then(|k| k.get("zigzag.slice32"))
                .and_then(Value::as_str),
            Some("swar")
        );
    }

    #[test]
    fn auto_gate_passes_when_auto_matches_best_fixed() {
        // Equal ratio, throughput well above the floor.
        let r = auto_report(1.5, 2.0, 1.5, 2.0);
        assert_eq!(auto_gate(&r), Vec::<String>::new());
        // Within the 1% slack.
        let r = auto_report(1.5 * 0.995, 2.0, 1.5, 2.0);
        assert_eq!(auto_gate(&r), Vec::<String>::new());
    }

    #[test]
    fn auto_gate_fails_on_ratio_loss() {
        let r = auto_report(1.5 * 0.97, 2.0, 1.5, 2.0);
        let failures = auto_gate(&r);
        assert!(failures.iter().any(|f| f.contains("ratio")), "{failures:?}");
    }

    #[test]
    fn auto_gate_fails_below_speed_floor() {
        // AUTO at 5% of the speed tier (the floor is 10%).
        let r = auto_report(1.5, 0.1, 1.5, 2.0);
        let failures = auto_gate(&r);
        assert!(
            failures.iter().any(|f| f.contains("speed-tier")),
            "{failures:?}"
        );
    }

    #[test]
    fn auto_report_helpers_pick_best_and_tier() {
        let mut r = auto_report(1.5, 2.0, 1.5, 2.0);
        r.fixed[1].ratio = 3.0; // SPratio
        r.fixed[2].compress_gbps = 0.5; // DPspeed slower than SPspeed
        assert_eq!(r.best_fixed().map(|b| b.name.as_str()), Some("SPratio"));
        assert_eq!(r.speed_tier_gbps(), Some(0.5));
    }

    #[test]
    fn auto_section_serializes_picks() {
        let v = report(1.0, 2.0, 1.5);
        let auto = v.get("auto").expect("auto section");
        assert_eq!(
            auto.get("picks")
                .and_then(|p| p.get("SPspeed"))
                .and_then(Value::as_u64),
            Some(3)
        );
        assert_eq!(
            auto.get("fixed").and_then(Value::as_arr).map(|a| a.len()),
            Some(4)
        );
        let rendered = fpc_metrics::report::render_value(&v).unwrap();
        assert!(rendered.contains("auto"), "{rendered}");
    }

    #[test]
    fn auto_gate_holds_exactly_at_the_speed_floor() {
        let tier = 2.0;
        let at = auto_report(1.5, tier * AUTO_SPEED_FLOOR, 1.5, tier);
        assert_eq!(auto_gate(&at), Vec::<String>::new());
        let below = auto_report(1.5, tier * AUTO_SPEED_FLOOR * 0.99, 1.5, tier);
        assert_eq!(auto_gate(&below).len(), 1, "{:?}", auto_gate(&below));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let v = report(1.0, 2.0, 1.5);
        let text = v.to_json_pretty();
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some(BENCH_SCHEMA)
        );
        assert_eq!(
            parsed
                .get("algorithms")
                .and_then(Value::as_arr)
                .map(|a| a.len()),
            Some(4)
        );
        // The rendered form must go through the shared stats renderer.
        let rendered = fpc_metrics::report::render_value(&parsed).unwrap();
        assert!(rendered.contains("SPspeed"));
    }
}

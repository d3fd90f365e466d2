//! The two CI performance gates.
//!
//! * `auto-dominance` ([`measure_auto`], [`auto_gate`]): AUTO against every
//!   fixed algorithm over the mixed-stream suites.
//! * `perf-smoke` ([`fpcbench_result`], [`gate_verdict`]): the same-runner
//!   A/B of fpcbench built at the parent commit against fpcbench built at
//!   the change. Both binaries run on one host, interleaved, with the same
//!   seeds, so runner speed cancels out without a committed baseline.

use crate::entries::Entry;
use crate::measure::{byte_suites_u8, measure_cpu, median, CodecResult, Config};
use fpc_core::Algorithm;
use fpc_datagen::{mixed_stream_suites, Scale};
use fpc_metrics::json::Value;
use std::process::{Command, Stdio};

/// Fractional drop of a change's median throughput below the parent's
/// median that fails the perf gate.
pub const THROUGHPUT_DROP: f64 = 0.35;

/// Fractional compression-ratio loss that fails the perf gate. Both sides
/// compress the same seeded inputs, so the tolerance only absorbs
/// rounding through JSON.
pub const RATIO_TOLERANCE: f64 = 0.02;

/// fpcbench workloads the perf gate runs. The archive pair covers the four
/// paper algorithms, AUTO and the 2-thread pool; serve-hot covers the
/// serve path: wire, streaming engines and cache hits, whose throughput no
/// archive workload sees.
pub const GATE_WORKLOADS: [&str; 3] = ["archive-speed", "archive-ratio", "serve-hot"];

/// Parent/change pairs per workload. Pair `i` runs seed `i` on both sides.
pub const GATE_PAIRS: u64 = 3;

/// Measured seconds of each fpcbench run.
pub const GATE_SECONDS: &str = "4";

/// End-to-end metrics the perf gate compares, with the fractional drop of
/// the change's median that fails it.
const GATED: [(&str, f64); 3] = [
    ("compress_gbps", THROUGHPUT_DROP),
    ("decompress_gbps", THROUGHPUT_DROP),
    ("ratio", RATIO_TOLERANCE),
];

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

/// Codec threads of the `auto-dominance` measurement. Two, not `0 = all
/// cores`: the gate must run the pool's parallel path even on a
/// single-core runner.
pub const AUTO_THREADS: usize = 2;

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

/// Measures AUTO and every fixed algorithm over the mixed-stream suites
/// and aggregates AUTO's per-chunk codec picks from the chunk tables.
pub fn measure_auto() -> AutoReport {
    let config = Config {
        repetitions: 2,
        verify: true,
        threads: AUTO_THREADS,
    };
    let suites = byte_suites_u8(&mixed_stream_suites(Scale::Small));
    let bytes: u64 = suites
        .iter()
        .flat_map(|s| s.files.iter())
        .map(|(_, b, _)| b.len() as u64)
        .sum();
    let auto_perf = measure_cpu(&Entry::ours(Algorithm::Auto), &suites, &config);
    let fixed: Vec<CodecResult> = Algorithm::ALL
        .iter()
        .map(|&algo| measure_cpu(&Entry::ours(algo), &suites, &config))
        .collect();
    // Pick counts come from the chunk tables of one compression pass per
    // file — deterministic, so re-compressing matches what was timed.
    let compressor = fpc_core::Compressor::new(Algorithm::Auto).with_threads(AUTO_THREADS);
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

/// Runs `bin run --workload <workload> --seed <seed> --seconds
/// GATE_SECONDS` and parses the last line of its standard output, the
/// run's result object. fpcbench's progress lines pass through on
/// standard error.
///
/// # Errors
///
/// A message naming the workload, seed and binary when the run cannot
/// start, exits non-zero, or does not end with a JSON object.
pub fn fpcbench_result(bin: &str, workload: &str, seed: u64) -> Result<Value, String> {
    let seed_arg = seed.to_string();
    let out = Command::new(bin)
        .args(["run", "--workload", workload, "--seed", &seed_arg])
        .args(["--seconds", GATE_SECONDS])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload} seed {seed}: cannot run {bin}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {bin} exited with {}; last line: {last}",
            out.status
        ));
    }
    Value::parse(last).map_err(|e| format!("{workload} seed {seed}: {bin}: {e}"))
}

/// The perf gate's verdict on one workload.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per gated metric: both medians and their ratio.
    pub lines: Vec<String>,
    /// Every reason the workload fails the gate (empty = it passes).
    pub failures: Vec<String>,
}

/// Compares the result objects of one workload's parent and change runs.
///
/// Every run must report `"correct":true` and `"failed":0`. The change's
/// median of each gated metric may fall at most [`THROUGHPUT_DROP`]
/// (throughput) or [`RATIO_TOLERANCE`] (ratio) below the parent's median.
/// A missing field or metric fails the gate; nothing is skipped.
pub fn gate_verdict(workload: &str, parent: &[Value], change: &[Value]) -> Verdict {
    let mut v = Verdict::default();
    let sides = [("parent", parent), ("change", change)];
    for (side, runs) in sides {
        if runs.is_empty() {
            v.failures
                .push(format!("{workload}: no {side} run completed"));
        }
        for (i, run) in runs.iter().enumerate() {
            let run_no = i + 1;
            if run.get("correct").and_then(Value::as_bool) != Some(true) {
                v.failures.push(format!(
                    "{workload}: {side} run {run_no} does not report correct=true"
                ));
            }
            match run.get("failed").and_then(Value::as_u64) {
                Some(0) => {}
                Some(n) => v.failures.push(format!(
                    "{workload}: {side} run {run_no} has failed={n} operations"
                )),
                None => v.failures.push(format!(
                    "{workload}: {side} run {run_no} has no failed count"
                )),
            }
        }
    }
    for (metric, drop) in GATED {
        let mut medians = [None; 2];
        for (m, (side, runs)) in medians.iter_mut().zip(sides) {
            let values: Option<Vec<f64>> = runs
                .iter()
                .map(|r| {
                    r.get("metrics")
                        .and_then(|ms| ms.get(metric))
                        .and_then(|x| x.get("value"))
                        .and_then(Value::as_f64)
                })
                .collect();
            match values {
                Some(values) => *m = (!values.is_empty()).then(|| median(values)),
                None => v
                    .failures
                    .push(format!("{workload}: a {side} run has no {metric}")),
            }
        }
        let [Some(p), Some(c)] = medians else {
            continue;
        };
        v.lines.push(format!(
            "{workload:<14} {metric:<16} parent {p:>9.4}  change {c:>9.4}  ({:.2}x)",
            c / p
        ));
        if c < p * (1.0 - drop) {
            v.failures.push(format!(
                "{workload}: {metric} median {c:.4} is more than {:.0}% below the parent's {p:.4}",
                drop * 100.0
            ));
        }
    }
    v
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
    fn auto_gate_holds_exactly_at_the_speed_floor() {
        let tier = 2.0;
        let at = auto_report(1.5, tier * AUTO_SPEED_FLOOR, 1.5, tier);
        assert_eq!(auto_gate(&at), Vec::<String>::new());
        let below = auto_report(1.5, tier * AUTO_SPEED_FLOOR * 0.99, 1.5, tier);
        assert_eq!(auto_gate(&below).len(), 1, "{:?}", auto_gate(&below));
    }

    /// One fpcbench result object with the given end-to-end metrics.
    fn result(compress: f64, decompress: f64, ratio: f64) -> Value {
        Value::parse(&format!(
            r#"{{"correct":true,"attempted":10,"failed":0,"metrics":{{
                 "compress_gbps":{{"value":{compress},"unit":"GB/s"}},
                 "decompress_gbps":{{"value":{decompress},"unit":"GB/s"}},
                 "ratio":{{"value":{ratio},"unit":"x"}}}}}}"#
        ))
        .unwrap()
    }

    fn runs(compress: f64, decompress: f64, ratio: f64) -> Vec<Value> {
        vec![result(compress, decompress, ratio); GATE_PAIRS as usize]
    }

    #[test]
    fn gate_passes_identical_runs() {
        let parent = runs(2.0, 4.0, 1.5);
        let v = gate_verdict("archive-speed", &parent, &parent);
        assert_eq!(v.failures, Vec::<String>::new());
        assert_eq!(v.lines.len(), GATED.len());
        assert!(v.lines[0].contains("(1.00x)"), "{:?}", v.lines);
    }

    #[test]
    fn gate_trips_between_34_and_36_percent_throughput_drop() {
        let parent = runs(2.0, 4.0, 1.5);
        for (metric, change_36, change_34) in [
            ("compress_gbps", runs(1.28, 4.0, 1.5), runs(1.32, 4.0, 1.5)),
            (
                "decompress_gbps",
                runs(2.0, 2.56, 1.5),
                runs(2.0, 2.64, 1.5),
            ),
        ] {
            let v = gate_verdict("archive-speed", &parent, &change_36);
            assert_eq!(v.failures.len(), 1, "{:?}", v.failures);
            assert!(v.failures[0].contains(metric), "{:?}", v.failures);
            let v = gate_verdict("archive-speed", &parent, &change_34);
            assert_eq!(v.failures, Vec::<String>::new());
        }
    }

    #[test]
    fn gate_trips_on_ratio_loss_above_two_percent() {
        let parent = runs(2.0, 4.0, 1.5);
        let v = gate_verdict("archive-ratio", &parent, &runs(2.0, 4.0, 1.5 * 0.97));
        assert_eq!(v.failures.len(), 1, "{:?}", v.failures);
        assert!(
            v.failures[0].contains("archive-ratio: ratio"),
            "{:?}",
            v.failures
        );
        let v = gate_verdict("archive-ratio", &parent, &runs(2.0, 4.0, 1.5 * 0.99));
        assert_eq!(v.failures, Vec::<String>::new());
    }

    #[test]
    fn gate_decides_on_medians_not_means() {
        // One change run at a tenth of the parent's speed pulls the mean
        // 30% down, but the median stays put.
        let parent = runs(2.0, 4.0, 1.5);
        let mut change = runs(2.0, 4.0, 1.5);
        change[0] = result(0.2, 0.4, 1.5);
        assert_eq!(
            gate_verdict("archive-speed", &parent, &change).failures,
            Vec::<String>::new()
        );
        // Two slow runs move the median: the gate trips.
        change[1] = result(0.2, 0.4, 1.5);
        assert_eq!(
            gate_verdict("archive-speed", &parent, &change)
                .failures
                .len(),
            2
        );
    }

    #[test]
    fn gate_fails_incorrect_runs_and_missing_metrics() {
        let parent = runs(2.0, 4.0, 1.5);
        let doc = |text: &str| vec![Value::parse(text).unwrap()];
        let metrics = r#""metrics":{"compress_gbps":{"value":2.0},
            "decompress_gbps":{"value":4.0},"ratio":{"value":1.5}}"#;
        let cases = [
            (
                format!(r#"{{"correct":false,"failed":0,{metrics}}}"#),
                "correct",
            ),
            (
                format!(r#"{{"correct":true,"failed":3,{metrics}}}"#),
                "failed=3",
            ),
            (format!(r#"{{"correct":true,{metrics}}}"#), "failed"),
            (
                r#"{"correct":true,"failed":0,"metrics":{"compress_gbps":{"value":2.0},
                   "ratio":{"value":1.5}}}"#
                    .to_string(),
                "decompress_gbps",
            ),
        ];
        for (text, named) in cases {
            let failures = gate_verdict("archive-ratio", &parent, &doc(&text)).failures;
            assert_eq!(failures.len(), 1, "{text}: {failures:?}");
            assert!(failures[0].starts_with("archive-ratio: "), "{failures:?}");
            assert!(failures[0].contains(named), "{failures:?}");
        }
        // A side with no completed run fails too.
        let failures = gate_verdict("archive-speed", &parent, &[]).failures;
        assert!(
            failures.iter().any(|f| f.contains("no change run")),
            "{failures:?}"
        );
    }
}

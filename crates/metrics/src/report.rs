//! Report materialization and rendering.
//!
//! [`MetricsReport`] is the serializable snapshot of the live counters
//! (see [`crate::snapshot`]); it converts to and from [`crate::json::Value`]
//! so `fpcc --metrics json`, `fpcc stats`, and the bench harness all share
//! one schema. [`render_value`] is the shared pretty-printer: it recognizes
//! both the metrics-report schema (`"schema": "fpc-metrics-v1"`) and the
//! bench schema (`"schema": "fpc-bench-v1"`) so `fpcc stats` can display
//! either file.

use crate::json::Value;
use std::fmt::Write as _;

/// Schema tag written into every serialized metrics report.
pub const METRICS_SCHEMA: &str = "fpc-metrics-v1";
/// Schema tag the bench harness writes into `BENCH_*.json`.
pub const BENCH_SCHEMA: &str = "fpc-bench-v1";

/// Accumulated statistics for one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stable stage name (`Stage::name()`).
    pub name: String,
    /// Completed timer finishes.
    pub calls: u64,
    /// Total monotonic nanoseconds across calls.
    pub nanos: u64,
    /// Total payload bytes attributed via `Timer::finish`.
    pub bytes: u64,
    /// Sparse log₂ latency histogram: `(bucket, count)` where bucket `b`
    /// covers `2^(b-1) ≤ nanos < 2^b`.
    pub hist: Vec<(u32, u64)>,
}

impl StageStats {
    /// Throughput in GB/s (None when no bytes or no time were recorded).
    pub fn gbps(&self) -> Option<f64> {
        if self.bytes == 0 || self.nanos == 0 {
            return None;
        }
        Some(self.bytes as f64 / self.nanos as f64)
    }

    /// Upper bound (in nanos) of the bucket holding the median call.
    pub fn p50_nanos(&self) -> Option<u64> {
        let total: u64 = self.hist.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return None;
        }
        let mut seen = 0u64;
        for &(bucket, count) in &self.hist {
            seen += count;
            if seen * 2 >= total {
                return Some(1u64.checked_shl(bucket).unwrap_or(u64::MAX));
            }
        }
        None
    }
}

/// One named event counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterStat {
    pub name: String,
    pub value: u64,
}

/// A point-in-time snapshot of every live stage timer and counter.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// False when the binary was built without the `metrics` feature —
    /// the report is then structurally valid but empty.
    pub enabled: bool,
    /// Stages with at least one recorded call.
    pub stages: Vec<StageStats>,
    /// Counters with a non-zero value.
    pub counters: Vec<CounterStat>,
}

impl MetricsReport {
    /// Serializes to the `fpc-metrics-v1` JSON schema.
    pub fn to_value(&self) -> Value {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                let hist = s
                    .hist
                    .iter()
                    .map(|&(b, c)| Value::Arr(vec![Value::from(u64::from(b)), Value::from(c)]))
                    .collect();
                Value::Obj(vec![
                    ("name".into(), Value::from(s.name.as_str())),
                    ("calls".into(), Value::from(s.calls)),
                    ("nanos".into(), Value::from(s.nanos)),
                    ("bytes".into(), Value::from(s.bytes)),
                    ("hist".into(), Value::Arr(hist)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("name".into(), Value::from(c.name.as_str())),
                    ("value".into(), Value::from(c.value)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::from(METRICS_SCHEMA)),
            ("enabled".into(), Value::from(self.enabled)),
            ("stages".into(), Value::Arr(stages)),
            ("counters".into(), Value::Arr(counters)),
        ])
    }

    /// Parses a value produced by [`MetricsReport::to_value`].
    pub fn from_value(v: &Value) -> Result<MetricsReport, String> {
        match v.get("schema").and_then(Value::as_str) {
            Some(METRICS_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schema '{other}'")),
            None => return Err("missing 'schema' field".into()),
        }
        let enabled = v
            .get("enabled")
            .and_then(Value::as_bool)
            .ok_or("missing 'enabled'")?;
        let mut stages = Vec::new();
        for s in v
            .get("stages")
            .and_then(Value::as_arr)
            .ok_or("missing 'stages'")?
        {
            let name = s
                .get("name")
                .and_then(Value::as_str)
                .ok_or("stage missing 'name'")?
                .to_string();
            let field = |k: &str| -> Result<u64, String> {
                s.get(k)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("stage '{name}' missing '{k}'"))
            };
            let calls = field("calls")?;
            let nanos = field("nanos")?;
            let bytes = field("bytes")?;
            let mut hist = Vec::new();
            for pair in s.get("hist").and_then(Value::as_arr).unwrap_or(&[]) {
                let items = pair.as_arr().ok_or("hist entry must be [bucket, count]")?;
                let [b, c] = items else {
                    return Err("hist entry must be [bucket, count]".into());
                };
                let b = b.as_u64().ok_or("bad hist bucket")?;
                let c = c.as_u64().ok_or("bad hist count")?;
                hist.push((u32::try_from(b).map_err(|_| "hist bucket too large")?, c));
            }
            stages.push(StageStats {
                name,
                calls,
                nanos,
                bytes,
                hist,
            });
        }
        let mut counters = Vec::new();
        for c in v
            .get("counters")
            .and_then(Value::as_arr)
            .ok_or("missing 'counters'")?
        {
            counters.push(CounterStat {
                name: c
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("counter missing 'name'")?
                    .to_string(),
                value: c
                    .get("value")
                    .and_then(Value::as_u64)
                    .ok_or("counter missing 'value'")?,
            });
        }
        Ok(MetricsReport {
            enabled,
            stages,
            counters,
        })
    }

    /// Human-readable table (used by `--metrics text` and `fpcc stats`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.enabled {
            out.push_str(
                "metrics were disabled in the producing binary \
                 (build with --features metrics)\n",
            );
            return out;
        }
        if self.stages.is_empty() && self.counters.is_empty() {
            out.push_str("no metrics recorded\n");
            return out;
        }
        if !self.stages.is_empty() {
            let _ = writeln!(
                out,
                "{:<24} {:>10} {:>12} {:>14} {:>9} {:>10}",
                "stage", "calls", "total ms", "bytes", "GB/s", "p50"
            );
            for s in &self.stages {
                let gbps = s
                    .gbps()
                    .map(|g| format!("{g:.3}"))
                    .unwrap_or_else(|| "-".into());
                let p50 = s
                    .p50_nanos()
                    .map(format_nanos)
                    .unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    out,
                    "{:<24} {:>10} {:>12.3} {:>14} {:>9} {:>10}",
                    s.name,
                    s.calls,
                    s.nanos as f64 / 1e6,
                    s.bytes,
                    gbps,
                    p50
                );
            }
        }
        if !self.counters.is_empty() {
            if !self.stages.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "{:<24} {:>12}", "counter", "value");
            for c in &self.counters {
                let _ = writeln!(out, "{:<24} {:>12}", c.name, c.value);
            }
        }
        out
    }
}

/// Formats a nanosecond quantity with a human unit (`512ns`, `4.1us`, …).
fn format_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if n < 1e3 {
        format!("{nanos}ns")
    } else if n < 1e6 {
        format!("{:.1}us", n / 1e3)
    } else if n < 1e9 {
        format!("{:.1}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}

/// Pretty-prints a saved JSON document: understands the metrics-report and
/// bench schemas, and falls back to indented JSON for anything else.
pub fn render_value(v: &Value) -> Result<String, String> {
    match v.get("schema").and_then(Value::as_str) {
        Some(METRICS_SCHEMA) => Ok(MetricsReport::from_value(v)?.render_text()),
        Some(BENCH_SCHEMA) => Ok(render_bench(v)),
        _ => Ok(v.to_json_pretty()),
    }
}

fn render_bench(v: &Value) -> String {
    let mut out = String::new();
    let rev = v.get("rev").and_then(Value::as_str).unwrap_or("?");
    let _ = writeln!(out, "bench report rev={rev}");
    if let Some(lg) = v.get("loadgen") {
        let _ = writeln!(out, "\nloadgen:");
        if let Value::Obj(members) = lg {
            for (k, val) in members {
                if let Some(s) = val.as_str() {
                    let _ = writeln!(out, "  {k:<18} {s}");
                } else if let Some(n) = val.as_u64() {
                    let _ = writeln!(out, "  {k:<18} {n}");
                } else if let Some(x) = val.as_f64() {
                    let _ = writeln!(out, "  {k:<18} {x:.3}");
                }
            }
        }
    }
    if let Some(fg) = v.get("faultgen") {
        let _ = writeln!(out, "\nfaultgen (fault-injection sweep):");
        if let Value::Obj(members) = fg {
            for (k, val) in members {
                if let Some(s) = val.as_str() {
                    let _ = writeln!(out, "  {k:<18} {s}");
                } else if let Some(n) = val.as_u64() {
                    let _ = writeln!(out, "  {k:<18} {n}");
                } else if let Some(x) = val.as_f64() {
                    let _ = writeln!(out, "  {k:<18} {x:.3}");
                }
            }
        }
        if let Some(Value::Obj(counters)) = fg.get("counters") {
            for (k, val) in counters {
                if let Some(n) = val.as_u64() {
                    let _ = writeln!(out, "  {k:<26} {n}");
                }
            }
        }
        // Only anomalous cells are itemized; a clean sweep stays terse.
        if let Some(cells) = fg.get("cells").and_then(Value::as_arr) {
            for cell in cells {
                let flag = |key: &str| cell.get(key).and_then(Value::as_bool).unwrap_or(false);
                let count = |key: &str| cell.get(key).and_then(Value::as_u64).unwrap_or(0);
                if flag("hung") || flag("crashed") || count("mismatches") > 0 {
                    let _ = writeln!(
                        out,
                        "  !! fault={} seed={} mismatches={} hung={} crashed={}",
                        cell.get("fault").and_then(Value::as_str).unwrap_or("?"),
                        count("seed"),
                        count("mismatches"),
                        flag("hung"),
                        flag("crashed")
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        MetricsReport {
            enabled: true,
            stages: vec![StageStats {
                name: "RZE.encode".into(),
                calls: 4,
                nanos: 2_000_000,
                bytes: 8_000_000,
                hist: vec![(19, 3), (20, 1)],
            }],
            counters: vec![CounterStat {
                name: "pool.jobs".into(),
                value: 7,
            }],
        }
    }

    #[test]
    fn value_roundtrip() {
        let report = sample();
        let text = report.to_value().to_json_pretty();
        let parsed = MetricsReport::from_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn gbps_and_p50() {
        let s = &sample().stages[0];
        assert!((s.gbps().unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(s.p50_nanos(), Some(1 << 19));
        let empty = StageStats {
            name: "x".into(),
            calls: 0,
            nanos: 0,
            bytes: 0,
            hist: vec![],
        };
        assert_eq!(empty.gbps(), None);
        assert_eq!(empty.p50_nanos(), None);
    }

    #[test]
    fn render_text_contains_rows() {
        let text = sample().render_text();
        assert!(text.contains("RZE.encode"));
        assert!(text.contains("pool.jobs"));
        let disabled = MetricsReport {
            enabled: false,
            stages: vec![],
            counters: vec![],
        };
        assert!(disabled.render_text().contains("disabled"));
    }

    #[test]
    fn render_value_dispatches_schemas() {
        let metrics = sample().to_value();
        assert!(render_value(&metrics).unwrap().contains("RZE.encode"));

        let bench = Value::parse(
            r#"{"schema":"fpc-bench-v1","rev":"abc","created_unix":0,
                "loadgen":{"conns":8,"algo":"spratio","ops":64,
                  "throughput_gbps":0.5125}}"#,
        )
        .unwrap();
        let text = render_value(&bench).unwrap();
        assert!(text.contains("rev=abc"));
        assert!(text.contains("loadgen:"));
        assert!(text.contains("algo               spratio"), "{text}");
        assert!(text.contains("ops                64"), "{text}");
        assert!(text.contains("throughput_gbps    0.512"), "{text}");

        let other = Value::parse(r#"{"x":1}"#).unwrap();
        assert!(render_value(&other).unwrap().contains("\"x\""));
    }

    #[test]
    fn from_value_rejects_bad_schema() {
        let v = Value::parse(r#"{"schema":"nope","enabled":true}"#).unwrap();
        assert!(MetricsReport::from_value(&v).is_err());
        assert!(MetricsReport::from_value(&Value::parse("{}").unwrap()).is_err());
    }
}

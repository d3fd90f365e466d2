//! Metric records, the byte-exact audit, and the output format.
//!
//! Every metric prints as one JSON line (`{"name":…,"value":…,"unit":…}`,
//! plus the raw value for drift-normalized metrics in traced runs); the
//! last line of standard output is the run's result object.

use crate::calib::{normalize, Scaling};
use fpc_metrics::json::Value;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    scaling: Scaling,
    /// The value before drift normalization, once normalized.
    pub raw: Option<f64>,
    /// Context for a reader: sample counts, percentile eligibility.
    pub note: String,
}

impl Metric {
    /// A metric that drift normalization does not touch.
    pub fn plain(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric::timed(name, value, unit, Scaling::None)
    }

    /// A timing-derived metric, still raw until [`Metric::normalized`].
    pub fn timed(
        name: impl Into<String>,
        raw: f64,
        unit: &'static str,
        scaling: Scaling,
    ) -> Metric {
        Metric {
            name: name.into(),
            value: raw,
            unit,
            scaling,
            raw: None,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    /// Applies the run's drift factor, keeping the raw value beside it.
    pub fn normalized(mut self, factor: f64) -> Metric {
        if self.scaling != Scaling::None {
            self.raw = Some(self.value);
            self.value = normalize(self.value, self.scaling, factor);
        }
        self
    }

    /// The metric's output line, with the pre-normalization value next to
    /// the normalized one so the normalization can be audited.
    pub fn line(&self) -> String {
        let mut fields = vec![
            ("name".to_string(), Value::from(self.name.as_str())),
            ("value".to_string(), Value::from(finite(self.value))),
            ("unit".to_string(), Value::from(self.unit)),
        ];
        if let Some(raw) = self.raw {
            fields.push(("raw".to_string(), Value::from(finite(raw))));
        }
        if !self.note.is_empty() {
            fields.push(("note".to_string(), Value::from(self.note.as_str())));
        }
        Value::Obj(fields).to_json()
    }
}

/// JSON has no NaN or infinity; a metric that degenerates reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Operations attempted and failed. A failure is a client or codec error,
/// or output that differs by a single byte from the reference computed at
/// setup.
#[derive(Debug, Default)]
pub struct Audit {
    pub attempted: u64,
    pub failed: u64,
}

impl Audit {
    /// Counts one operation; `ok == false` counts it failed and reports
    /// the first few failures on standard error.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("fpcbench: FAILED {}", what());
            }
        }
    }
}

/// The result object the run ends with.
pub fn result_line(audit: &Audit, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = Value::Obj(vec![
                ("value".to_string(), Value::from(finite(m.value))),
                ("unit".to_string(), Value::from(m.unit)),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    Value::Obj(vec![
        ("correct".to_string(), Value::from(audit.failed == 0)),
        ("attempted".to_string(), Value::from(audit.attempted.max(1))),
        ("failed".to_string(), Value::from(audit.failed)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_as_json() {
        let m = Metric::timed("compress_gbps", 1.75, "GB/s", Scaling::Rate)
            .with_note("n=\"3\" files")
            .normalized(1.25);
        let v = Value::parse(&m.line()).expect("metric line is JSON");
        assert_eq!(v.get("name").and_then(Value::as_str), Some("compress_gbps"));
        assert_eq!(v.get("value").and_then(Value::as_f64), Some(1.75 * 1.25));
        assert_eq!(v.get("raw").and_then(Value::as_f64), Some(1.75));
        assert_eq!(v.get("unit").and_then(Value::as_str), Some("GB/s"));
        let plain = Metric::plain("ratio", 2.0, "x").normalized(1.25);
        let v = Value::parse(&plain.line()).unwrap();
        assert_eq!(v.get("value").and_then(Value::as_f64), Some(2.0));
        assert!(v.get("raw").is_none());
        let nan = Metric::plain("ratio", f64::NAN, "x");
        let v = Value::parse(&nan.line()).unwrap();
        assert_eq!(v.get("value").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn result_line_carries_the_audit_and_every_metric() {
        let mut audit = Audit::default();
        audit.record(true, String::new);
        audit.record(false, || "op 2".into());
        let metrics = [
            Metric::plain("ratio", 3.5, "x"),
            Metric::plain("setup_s", 0.8127, "s"),
        ];
        let v = Value::parse(&result_line(&audit, &metrics)).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }
}

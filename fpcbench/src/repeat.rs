//! `fpcbench repeat`: the repeatability check.
//!
//! Runs every workload `--sets` times in child processes (one process per
//! run, workload order reversed on every other set, seed `--seed + set`),
//! then prints, for each workload and end-to-end metric in
//! `BENCHMARK.json`, the median, the run-to-run spread and the drift
//! between the first and second half of the sets, each against the
//! metric's bound. Exits 1 when any run fails or any spread or drift is
//! over its bound (set-up time's spread is shown but not gated).

use crate::stats::{median, spread};
use fpc_metrics::json::Value;
use std::process::{Command, ExitCode, Stdio};

struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

struct Bench {
    workloads: Vec<String>,
    metrics: Vec<Bound>,
    run_seconds: f64,
}

fn load(path: &str) -> Result<Bench, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e} (run from the repository root)"))?;
    let v = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |v: &Value, k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: missing {k}"))
    };
    let workloads = v
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("no workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<_, _>>()?;
    let metrics = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("no end_to_end metrics")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                higher_is_better: field(m, "better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("missing bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let run_seconds = v
        .get("run_seconds")
        .and_then(Value::as_f64)
        .unwrap_or(crate::DEFAULT_SECONDS);
    Ok(Bench {
        workloads,
        metrics,
        run_seconds,
    })
}

/// Runs one workload in a child process and returns its result object.
fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Value::parse(last).map_err(|e| format!("{workload}: {e}"))?;
    let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
    if !out.status.success() || !correct {
        return Err(format!(
            "{workload} seed {seed}: run failed ({})",
            out.status
        ));
    }
    Ok(result)
}

pub fn main(args: &[String]) -> ExitCode {
    match repeat(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fpcbench repeat: {e}");
            ExitCode::from(2)
        }
    }
}

fn repeat(args: &[String]) -> Result<bool, String> {
    let bench = load("BENCHMARK.json")?;
    let (mut sets, mut seconds, mut seed) = (2usize, bench.run_seconds, 1u64);
    for pair in args.chunks(2) {
        let value = pair
            .get(1)
            .ok_or_else(|| format!("{} needs a value", pair[0]))?;
        let bad = || format!("bad value for {}: {value}", pair[0]);
        match pair[0].as_str() {
            "--sets" => sets = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            other => return Err(format!("unknown argument {other}")),
        }
    }

    // values[workload][metric] = one value per set.
    let mut values = vec![vec![Vec::new(); bench.metrics.len()]; bench.workloads.len()];
    let mut ok = true;
    for set in 0..sets {
        let mut order: Vec<usize> = (0..bench.workloads.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let name = &bench.workloads[w];
            eprintln!("fpcbench repeat: set {}/{sets}: {name}", set + 1);
            let result = match run_child(name, seed + set as u64, seconds) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("fpcbench repeat: {e}");
                    ok = false;
                    continue;
                }
            };
            for (k, b) in bench.metrics.iter().enumerate() {
                match result
                    .get("metrics")
                    .and_then(|m| m.get(&b.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                {
                    Some(v) => values[w][k].push(v),
                    None => {
                        eprintln!("fpcbench repeat: {name} reported no {}", b.name);
                        ok = false;
                    }
                }
            }
        }
    }

    println!(
        "{:<14} {:<16} {:>12} {:<5} {:>8} {:>8} {:>7}",
        "workload", "metric", "median", "unit", "spread", "drift", "bound"
    );
    for (w, name) in bench.workloads.iter().enumerate() {
        for (k, b) in bench.metrics.iter().enumerate() {
            let v = &values[w][k];
            if v.is_empty() {
                continue;
            }
            let mid = median(v);
            // Interquartile spread as a share of the median; with fewer
            // than four values the quartiles extrapolate, so the full range
            // stands in.
            let s = if v.len() >= 4 {
                spread(v)
            } else {
                let (lo, hi) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
                (hi - lo) / mid.abs().max(f64::MIN_POSITIVE)
            };
            // Drift: how much worse the second half's median reads than
            // the first half's.
            let half = v.len() / 2;
            let drift = if half == 0 {
                0.0
            } else {
                let (first, second) = (median(&v[..half]), median(&v[half..]));
                let worse = if b.higher_is_better {
                    first - second
                } else {
                    second - first
                };
                worse / first.abs().max(f64::MIN_POSITIVE)
            };
            let gated = b.name != "setup_s";
            let over = (gated && s > b.bound) || drift > b.bound;
            ok &= !over;
            println!(
                "{name:<14} {:<16} {mid:>12.4} {:<5} {:>7.2}% {:>7.2}% {:>6.1}%{}",
                b.name,
                b.unit,
                s * 100.0,
                drift * 100.0,
                b.bound * 100.0,
                match (over, gated) {
                    (true, _) => "  OVER",
                    (false, false) => "  (spread not gated)",
                    _ => "",
                }
            );
        }
    }
    Ok(ok)
}

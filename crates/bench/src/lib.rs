//! Benchmark harness regenerating the paper's evaluation (Figures 8–19,
//! Table 1, and the ablation study).
//!
//! The harness measures what can be measured and models what cannot:
//!
//! * **compression ratios** — always real, from running every codec on the
//!   synthetic SDRBench-like suites;
//! * **CPU throughput** (Figures 12/13/18/19) — real wall-clock
//!   measurements, median of N runs, exactly the paper's method (§4);
//! * **GPU throughput** (Figures 8–11/14–17) — modeled by
//!   `fpc_gpu_sim::DeviceProfile` (see DESIGN.md's substitution table);
//!   ratios in those figures are still real.
//!
//! Aggregation follows §4: per-suite geometric means, then the geometric
//! mean of the suite means, "so as not to over-weigh the datasets that
//! contain more files than others".
//!
//! Run `cargo run -p fpc-bench --release --bin harness -- all` to
//! regenerate every experiment; see `figures` for the experiment index.

pub mod bench_file;
pub mod entries;
pub mod faultgen;
pub mod figures;
pub mod loadgen;
pub mod measure;
pub mod microbench;
pub mod pareto;
pub mod perf;
pub mod plot;
pub mod report;
pub mod synth;

/// Geometric mean of positive values (ignores an empty slice by returning
/// zero).
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_basics() {
        assert_eq!(geo_mean(&[]), 0.0);
        assert!((geo_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geo_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_is_scale_invariant() {
        let a = geo_mean(&[1.0, 10.0, 100.0]);
        let b = geo_mean(&[2.0, 20.0, 200.0]);
        assert!((b / a - 2.0).abs() < 1e-9);
    }
}

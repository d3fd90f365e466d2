//! Loadgen driver: hammers a running `fpcc serve` instance with concurrent
//! connections and writes latency/throughput figures to
//! `DIR/BENCH_<rev>.json` (schema `fpc-bench-v1`, `loadgen` section).
//!
//! ```text
//! cargo run -p fpc-bench --release --bin loadgen -- \
//!     --addr 127.0.0.1:9463 [--conns 8] [--requests 16] \
//!     [--bytes 1048576] [--algo spratio] [--out results] [--rev REV]
//! ```
//!
//! Exit codes: 0 clean run, 1 at least one failed request, 2 usage error,
//! 3 cannot reach the server or write the report.

use fpc_bench::bench_file::BenchFile;
use fpc_bench::loadgen::{run, LoadgenConfig};
use fpc_core::Algorithm;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--conns N] [--requests N] \
         [--bytes N] [--algo NAME] [--out DIR] [--rev REV]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(addr) = flag("--addr") else {
        return usage();
    };
    let mut config = LoadgenConfig {
        addr: addr.to_string(),
        ..LoadgenConfig::default()
    };
    let positive = |name: &str, default: usize| -> Result<usize, ()> {
        match flag(name) {
            None => Ok(default),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => {
                    eprintln!("loadgen: {name} expects a positive integer");
                    Err(())
                }
            },
        }
    };
    let (Ok(conns), Ok(requests), Ok(bytes)) = (
        positive("--conns", config.conns),
        positive("--requests", config.requests),
        positive("--bytes", config.payload_bytes),
    ) else {
        return usage();
    };
    config.conns = conns;
    config.requests = requests;
    config.payload_bytes = bytes;
    if let Some(name) = flag("--algo") {
        let Some(algo) = Algorithm::from_name(name) else {
            eprintln!("loadgen: unknown algorithm '{name}'");
            return usage();
        };
        config.algo = algo;
    }
    let out = BenchFile::new(flag("--out").unwrap_or("results"), flag("--rev"));

    eprintln!(
        "[loadgen] {} conns x {} requests x {} bytes ({}) against {}",
        config.conns, config.requests, config.payload_bytes, config.algo, config.addr
    );
    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[loadgen] {e}");
            return ExitCode::from(3);
        }
    };
    let path = match out.write(&out.envelope("loadgen", report.to_value())) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("[loadgen] {e}");
            return ExitCode::from(3);
        }
    };
    eprintln!("[loadgen] wrote {}", path.display());
    println!(
        "ops={} errors={} bytes={} wall={:.3}s throughput={:.3} GB/s \
         p50={}us p90={}us p99={}us max={}us",
        report.ops,
        report.errors,
        report.bytes,
        report.wall_secs,
        report.throughput_gbps,
        report.p50_us,
        report.p90_us,
        report.p99_us,
        report.max_us
    );
    if report.errors > 0 {
        eprintln!("[loadgen] {} request(s) failed", report.errors);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

//! Loadgen driver: hammers a running `fpcc serve` instance with concurrent
//! connections and writes latency/throughput figures to
//! `DIR/BENCH_<rev>.json` (schema `fpc-bench-v1`, `loadgen` section).
//!
//! ```text
//! cargo run -p fpc-bench --release --bin loadgen -- \
//!     --addr 127.0.0.1:9463 [--conns 8] [--requests 16] \
//!     [--bytes 1048576] [--algo spratio] [--keys 1] [--zipf 0.0] \
//!     [--warmup 0] [--out results] [--rev REV]
//! ```
//!
//! With `--cache-compare BYTES` the `--addr` flag is dropped: the driver
//! boots two in-process loopback servers (hot-chunk cache of BYTES vs no
//! cache), runs the identical zipfian workload at both with every
//! response byte-audited, and reports both latency profiles plus the
//! cache hit rate.
//!
//! Exit codes: 0 clean run, 1 at least one failed request, 2 usage error,
//! 3 cannot reach the server or write the report.

use fpc_bench::bench_file::BenchFile;
use fpc_bench::loadgen::{run, run_cache_compare, CacheCompareConfig, LoadgenConfig};
use fpc_core::Algorithm;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen (--addr HOST:PORT | --cache-compare BYTES) [--conns N] \
         [--requests N] [--bytes N] [--algo NAME] [--keys N] [--zipf S] \
         [--warmup N] [--out DIR] [--rev REV]"
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
    let cache_compare: Option<u64> = match flag("--cache-compare") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                eprintln!("loadgen: --cache-compare expects a positive byte budget");
                return usage();
            }
        },
    };
    let addr = match (flag("--addr"), cache_compare) {
        (Some(addr), _) => addr.to_string(),
        // Cache comparison boots its own loopback servers.
        (None, Some(_)) => String::new(),
        (None, None) => return usage(),
    };
    let mut config = LoadgenConfig {
        addr,
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
    let (Ok(conns), Ok(requests), Ok(bytes), Ok(keys)) = (
        positive("--conns", config.conns),
        positive("--requests", config.requests),
        positive("--bytes", config.payload_bytes),
        positive("--keys", config.keys),
    ) else {
        return usage();
    };
    config.conns = conns;
    config.requests = requests;
    config.payload_bytes = bytes;
    config.keys = keys;
    if let Some(v) = flag("--zipf") {
        match v.parse::<f64>() {
            Ok(s) if s >= 0.0 => config.zipf = s,
            _ => {
                eprintln!("loadgen: --zipf expects a non-negative exponent");
                return usage();
            }
        }
    }
    if let Some(v) = flag("--warmup") {
        match v.parse::<usize>() {
            Ok(n) => config.warmup = n,
            Err(_) => {
                eprintln!("loadgen: --warmup expects an integer");
                return usage();
            }
        }
    }
    if let Some(name) = flag("--algo") {
        let Some(algo) = Algorithm::from_name(name) else {
            eprintln!("loadgen: unknown algorithm '{name}'");
            return usage();
        };
        config.algo = algo;
    }
    let out = BenchFile::new(flag("--out").unwrap_or("results"), flag("--rev"));

    // Either one run against a live server, or the in-process cache A/B.
    let (loadgen_value, summary, errors) = if let Some(cache_bytes) = cache_compare {
        eprintln!(
            "[loadgen] cache-compare: {} conns x {} requests x {} bytes ({}), \
             {} keys zipf {} warmup {}, cache {} bytes vs none",
            config.conns,
            config.requests,
            config.payload_bytes,
            config.algo,
            config.keys,
            config.zipf,
            config.warmup,
            cache_bytes
        );
        let compare = CacheCompareConfig {
            load: config,
            cache_bytes,
            threads: 0,
        };
        let report = match run_cache_compare(&compare) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[loadgen] {e}");
                return ExitCode::from(3);
            }
        };
        let summary = format!(
            "cache: hit_rate={:.3} p50={}us p90={}us throughput={:.3} GB/s | \
             no-cache: p50={}us p90={}us throughput={:.3} GB/s",
            report.hit_rate,
            report.cached.p50_us,
            report.cached.p90_us,
            report.cached.throughput_gbps,
            report.uncached.p50_us,
            report.uncached.p90_us,
            report.uncached.throughput_gbps,
        );
        let errors = report.cached.errors + report.uncached.errors;
        (report.to_value(), summary, errors)
    } else {
        eprintln!(
            "[loadgen] {} conns x {} requests x {} bytes ({}) against {} \
             ({} keys, zipf {}, warmup {})",
            config.conns,
            config.requests,
            config.payload_bytes,
            config.algo,
            config.addr,
            config.keys,
            config.zipf,
            config.warmup
        );
        let report = match run(&config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[loadgen] {e}");
                return ExitCode::from(3);
            }
        };
        let summary = format!(
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
        let errors = report.errors;
        (report.to_value(), summary, errors)
    };
    let path = match out.write(&out.envelope("loadgen", loadgen_value)) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("[loadgen] {e}");
            return ExitCode::from(3);
        }
    };
    eprintln!("[loadgen] wrote {}", path.display());
    println!("{summary}");
    if errors > 0 {
        eprintln!("[loadgen] {errors} request(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

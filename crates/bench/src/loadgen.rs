//! Load generator for the `fpc-serve` service: drives N concurrent
//! client connections against a running server and reports throughput
//! plus request-latency percentiles.
//!
//! Each connection issues a fixed number of remote compress requests of
//! one deterministic payload ([`payload`]), timing every round trip. The
//! first response on every connection is cross-checked against a local
//! [`Compressor`] run — the container output is thread-count independent,
//! so the remote stream must be byte-identical. The aggregate lands in
//! the `fpc-bench-v1` JSON schema under a `loadgen` key
//! (`results/BENCH_<rev>.json`, rendered by `fpcc stats`).

use fpc_core::{Algorithm, Compressor};
use fpc_metrics::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to drive at the server.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent connections.
    pub conns: usize,
    /// Requests issued per connection.
    pub requests: usize,
    /// Uncompressed payload bytes per request.
    pub payload_bytes: usize,
    /// Algorithm for the remote compress requests.
    pub algo: Algorithm,
    /// Socket timeout applied to every read/write.
    pub timeout: Option<Duration>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: "127.0.0.1:9463".into(),
            conns: 8,
            requests: 16,
            payload_bytes: 1 << 20,
            algo: Algorithm::SpRatio,
            timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// Aggregated outcome of one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Connections driven.
    pub conns: usize,
    /// Requests per connection.
    pub requests: usize,
    /// Uncompressed payload bytes per request.
    pub payload_bytes: usize,
    /// Algorithm name (paper spelling).
    pub algo: String,
    /// Successful operations across all connections.
    pub ops: u64,
    /// Failed operations (transport, protocol, server error, or a remote
    /// stream that was not byte-identical to the local one).
    pub errors: u64,
    /// Total uncompressed bytes pushed through the server (successful
    /// requests only).
    pub bytes: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Uncompressed GB/s across all connections.
    pub throughput_gbps: f64,
    /// Latency percentiles over all successful requests,
    /// microseconds.
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Slowest request, microseconds.
    pub max_us: u64,
}

/// Nearest-rank percentile over an ascending-sorted slice; `p` in [0, 100].
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The deterministic payload: a smooth f32 series that compresses
/// meaningfully (neither all-zero nor incompressible).
pub fn payload(bytes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes);
    let mut i = 0u32;
    while out.len() + 4 <= bytes {
        let v = (f64::from(i) * 1e-3).sin() as f32 * 7.25;
        out.extend_from_slice(&v.to_bits().to_le_bytes());
        i = i.wrapping_add(1);
    }
    out.resize(bytes, 0xA5);
    out
}

/// Runs the load against a live server.
///
/// Per-request failures are counted in [`LoadgenReport::errors`] rather
/// than aborting the run; only a config that cannot produce any traffic is
/// an `Err`.
///
/// # Errors
///
/// When `conns`, `requests`, or `payload_bytes` is zero.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if config.conns == 0 || config.requests == 0 || config.payload_bytes == 0 {
        return Err("conns, requests, and payload_bytes must all be positive".into());
    }
    let data = Arc::new(payload(config.payload_bytes));
    // The reference stream every audited response must match
    // byte-for-byte.
    let expected = Arc::new(Compressor::new(config.algo).compress_bytes(&data));
    let errors = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::with_capacity(config.conns);
    for conn in 0..config.conns {
        let config = config.clone();
        let data = Arc::clone(&data);
        let expected = Arc::clone(&expected);
        let errors = Arc::clone(&errors);
        let handle = std::thread::Builder::new()
            .name(format!("fpc-loadgen-{conn}"))
            .spawn(move || drive_connection(&config, &data, &expected, &errors))
            .map_err(|e| format!("spawning connection thread: {e}"))?;
        handles.push(handle);
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(config.conns * config.requests);
    for handle in handles {
        latencies.extend(handle.join().map_err(|_| "connection thread panicked")?);
    }
    let wall_secs = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let ops = latencies.len() as u64;
    let bytes = ops * config.payload_bytes as u64;
    Ok(LoadgenReport {
        conns: config.conns,
        requests: config.requests,
        payload_bytes: config.payload_bytes,
        algo: config.algo.to_string(),
        ops,
        errors: errors.load(Ordering::SeqCst),
        bytes,
        wall_secs,
        throughput_gbps: bytes as f64 / 1e9 / wall_secs.max(1e-9),
        p50_us: percentile(&latencies, 50.0) / 1_000,
        p90_us: percentile(&latencies, 90.0) / 1_000,
        p99_us: percentile(&latencies, 99.0) / 1_000,
        max_us: latencies.last().copied().unwrap_or(0) / 1_000,
    })
}

/// One connection's worth of traffic; returns the latency (nanos) of each
/// successful request.
fn drive_connection(
    config: &LoadgenConfig,
    data: &[u8],
    expected: &[u8],
    errors: &AtomicU64,
) -> Vec<u64> {
    let mut client = match fpc_serve::Client::connect(config.addr.as_str(), config.timeout) {
        Ok(c) => c,
        Err(_) => {
            // The whole connection's quota counts as failed.
            errors.fetch_add(config.requests as u64, Ordering::SeqCst);
            return Vec::new();
        }
    };
    let mut latencies = Vec::with_capacity(config.requests);
    for req in 0..config.requests {
        let t0 = Instant::now();
        match client.compress(config.algo, data) {
            // Byte-identity with the local stream is part of the contract;
            // checking every response would mostly measure memcmp, so only
            // the first response per connection is audited.
            Ok(stream) => {
                if req == 0 && stream != expected {
                    errors.fetch_add(1, Ordering::SeqCst);
                } else {
                    latencies.push(t0.elapsed().as_nanos() as u64);
                }
            }
            Err(_) => {
                errors.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    latencies
}

impl LoadgenReport {
    /// Serializes as the `loadgen` member of an `fpc-bench-v1` report.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("conns".into(), Value::from(self.conns as u64)),
            ("requests".into(), Value::from(self.requests as u64)),
            (
                "payload_bytes".into(),
                Value::from(self.payload_bytes as u64),
            ),
            ("algo".into(), Value::from(self.algo.as_str())),
            ("ops".into(), Value::from(self.ops)),
            ("errors".into(), Value::from(self.errors)),
            ("bytes".into(), Value::from(self.bytes)),
            ("wall_secs".into(), Value::from(self.wall_secs)),
            ("throughput_gbps".into(), Value::from(self.throughput_gbps)),
            ("p50_us".into(), Value::from(self.p50_us)),
            ("p90_us".into(), Value::from(self.p90_us)),
            ("p99_us".into(), Value::from(self.p99_us)),
            ("max_us".into(), Value::from(self.max_us)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[42], 99.0), 42);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
    }

    #[test]
    fn payload_is_deterministic_and_sized() {
        let a = payload(4096);
        let b = payload(4096);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4096);
        // Odd sizes are padded, not truncated.
        assert_eq!(payload(10).len(), 10);
        // The series must actually compress.
        let stream = Compressor::new(Algorithm::SpRatio).compress_bytes(&a);
        assert!(stream.len() < a.len());
    }

    #[test]
    fn zero_config_rejected() {
        let config = LoadgenConfig {
            conns: 0,
            ..LoadgenConfig::default()
        };
        assert!(run(&config).is_err());
    }

    #[test]
    fn loopback_run_counts_every_request() {
        let server =
            fpc_serve::Server::bind("127.0.0.1:0", fpc_serve::ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());

        let config = LoadgenConfig {
            addr: addr.to_string(),
            conns: 2,
            requests: 3,
            payload_bytes: 64 << 10,
            ..LoadgenConfig::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.ops, 6);
        assert_eq!(report.errors, 0);
        assert_eq!(report.bytes, 6 * (64 << 10));
        assert!(report.p50_us <= report.p90_us);
        assert!(report.p90_us <= report.p99_us);
        assert!(report.p99_us <= report.max_us);
        assert!(report.throughput_gbps > 0.0);
        let value = report.to_value();
        assert_eq!(value.get("ops").and_then(Value::as_u64), Some(6));

        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
    }
}

//! The serve workloads: an in-process `fpc-serve` driven over loopback TCP
//! by closed-loop clients, the way `fpcc remote` callers block on each
//! reply.

use crate::calib::{Drift, Scaling, CALIB_EVERY_S};
use crate::data::{Corpus, Item};
use crate::report::{Audit, Metric};
use crate::stats::{lower_quartile, percentile, tail_eligible, weighted_percentile};
use crate::THREADS;
use fpc_cache::ChunkCache;
use fpc_core::{StreamingCompressor, StreamingDecompressor};
use fpc_prng::Rng;
use fpc_serve::{Client, ClientError, ErrorCode, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes each RANGE request asks for.
pub const RANGE_BYTES: usize = 64 * 1024;

/// Client connections (and server connection workers).
pub const CLIENTS: usize = 2;

/// A client gives up on a reply after this long, so a stalled server
/// fails the run instead of hanging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

/// Records kept per client before the measured phase starts, so their
/// growth does not show in the heap high-water mark.
const RECORD_RESERVE: usize = 1 << 16;

/// How keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Key `k` has weight `1 / (k + 1)^s`.
    Zipf(f64),
    Uniform,
}

/// One serve configuration: server cache budget, key popularity, and how
/// many keys the warm-up pass touches.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub cache_bytes: u64,
    pub dist: Dist,
    pub warm_keys: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Compress,
    Decompress,
    Range,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Compress, OpKind::Decompress, OpKind::Range];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Compress => "compress",
            OpKind::Decompress => "decompress",
            OpKind::Range => "range",
        }
    }

    /// This kind's share of the requests [`OpStream::next_op`] draws.
    fn share(self) -> f64 {
        match self {
            OpKind::Compress | OpKind::Decompress => 0.4,
            OpKind::Range => 0.2,
        }
    }
}

/// One request: what to do, to which key, and where a range starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: usize,
    pub offset: usize,
}

/// A client's seeded request sequence: 40% compress, 40% decompress, 20%
/// RANGE of [`RANGE_BYTES`] at a uniform offset.
pub struct OpStream {
    rng: Rng,
    cumulative: Vec<f64>,
    key_lens: Vec<usize>,
}

impl Dist {
    /// Each of `keys` keys' share of the requests.
    pub fn weights(self, keys: usize) -> Vec<f64> {
        let raw: Vec<f64> = (0..keys)
            .map(|k| match self {
                Dist::Zipf(s) => 1.0 / ((k + 1) as f64).powf(s),
                Dist::Uniform => 1.0,
            })
            .collect();
        let total: f64 = raw.iter().sum();
        raw.iter().map(|w| w / total).collect()
    }
}

impl OpStream {
    pub fn new(seed: u64, client: usize, key_lens: Vec<usize>, dist: Dist) -> OpStream {
        let mut total = 0.0;
        let cumulative = dist
            .weights(key_lens.len())
            .into_iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        let stream_seed = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        OpStream {
            rng: Rng::seed_from_u64(stream_seed),
            cumulative,
            key_lens,
        }
    }

    pub fn next_op(&mut self) -> Op {
        // The mix `OpKind::share` states.
        let kind = match self.rng.gen_range(0..10u32) {
            0..=3 => OpKind::Compress,
            4..=7 => OpKind::Decompress,
            _ => OpKind::Range,
        };
        let total = *self.cumulative.last().expect("at least one key");
        let u = self.rng.next_f64() * total;
        let key = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1);
        let offset = self.rng.gen_range(0..self.key_lens[key] - RANGE_BYTES + 1);
        Op { kind, key, offset }
    }
}

/// A running in-process server.
pub struct Running {
    pub addr: SocketAddr,
    pub cache: Option<Arc<ChunkCache>>,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    pub fn start(spec: &Spec) -> std::io::Result<Running> {
        let config = ServeConfig {
            threads: THREADS,
            max_conns: CLIENTS,
            cache_bytes: spec.cache_bytes,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config)?;
        let addr = server.local_addr()?;
        let cache = server.cache();
        let shutdown = server.shutdown_flag();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            cache,
            shutdown,
            thread,
        })
    }

    /// Stops the acceptor, drains the workers, and joins the server.
    pub fn stop(self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
    Client::connect(addr, Some(CLIENT_TIMEOUT))
}

/// Sends one request and checks the reply against the references; the
/// bool is whether every byte matched.
fn send(client: &mut Client, op: &Op, item: &Item, stream: &[u8]) -> Result<bool, ClientError> {
    Ok(match op.kind {
        OpKind::Compress => client.compress(item.algo, &item.data)? == stream,
        OpKind::Decompress => client.decompress(stream)? == item.data,
        OpKind::Range => {
            let got = client.range(stream, op.offset as u64, RANGE_BYTES as u64)?;
            got == item.data[op.offset..op.offset + RANGE_BYTES]
        }
    })
}

/// The warm-up requests: compress, then decompress, each of the first
/// `spec.warm_keys` keys (the most popular ones under a zipf draw).
fn warm_up_ops(spec: &Spec, keys: usize) -> impl Iterator<Item = Op> {
    (0..spec.warm_keys.min(keys)).flat_map(|key| {
        [OpKind::Compress, OpKind::Decompress].map(|kind| Op {
            kind,
            key,
            offset: 0,
        })
    })
}

/// Sends the warm-up requests, filling the server cache.
pub fn warm(client: &mut Client, keys: &Corpus, refs: &[Vec<u8>], spec: &Spec, audit: &mut Audit) {
    for op in warm_up_ops(spec, keys.items.len()) {
        let item = &keys.items[op.key];
        let ok = matches!(send(client, &op, item, &refs[op.key]), Ok(true));
        audit.record(ok, || format!("warm-up {} {}", op.kind.name(), item.name));
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub op: Op,
    /// Seconds from the start of the measured phase to the request.
    pub start_s: f64,
    pub latency_s: f64,
    pub ok: bool,
}

/// A client connection and its request sequence.
pub struct ClientState {
    pub client: Client,
    ops: OpStream,
    pub records: Vec<Record>,
    /// Requests the server shed with `Busy`.
    pub busy: u64,
    errors: u64,
    addr: SocketAddr,
}

impl ClientState {
    pub fn new(addr: SocketAddr, ops: OpStream) -> std::io::Result<ClientState> {
        Ok(ClientState {
            client: connect(addr)?,
            ops,
            records: Vec::with_capacity(RECORD_RESERVE),
            busy: 0,
            errors: 0,
            addr,
        })
    }

    /// Sends requests back to back until `deadline`.
    fn drive(&mut self, keys: &Corpus, refs: &[Vec<u8>], epoch: Instant, deadline: Instant) {
        while Instant::now() < deadline {
            let op = self.ops.next_op();
            let start = Instant::now();
            let result = send(&mut self.client, &op, &keys.items[op.key], &refs[op.key]);
            let latency_s = start.elapsed().as_secs_f64();
            let ok = match result {
                Ok(matched) => matched,
                Err(e) => {
                    self.errors += 1;
                    if self.errors <= 3 {
                        let name = &keys.items[op.key].name;
                        eprintln!("fpcbench: {} {name}: {e}", op.kind.name());
                    }
                    if matches!(&e, ClientError::Remote(w) if w.code == ErrorCode::Busy) {
                        self.busy += 1;
                    }
                    // The connection may be desynchronized; start afresh.
                    if let Ok(c) = connect(self.addr) {
                        self.client = c;
                    }
                    false
                }
            };
            self.records.push(Record {
                op,
                start_s: start.duration_since(epoch).as_secs_f64(),
                latency_s,
                ok,
            });
        }
    }
}

/// The measured phase: all clients run concurrently in segments of about
/// [`CALIB_EVERY_S`], with a calibration sample in each pause, until
/// `seconds` of load have run.
pub fn measure(
    clients: &mut [ClientState],
    keys: &Corpus,
    refs: &[Vec<u8>],
    seconds: f64,
    drift: &mut Drift,
) {
    let epoch = Instant::now();
    let mut measured = 0.0;
    while measured < seconds {
        let segment = (seconds - measured).min(CALIB_EVERY_S);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(segment);
        std::thread::scope(|s| {
            for c in clients.iter_mut() {
                s.spawn(move || c.drive(keys, refs, epoch, deadline));
            }
        });
        measured += start.elapsed().as_secs_f64();
        drift.sample();
    }
}

/// All clients' records in the order their requests started.
pub fn merged(clients: &[ClientState]) -> Vec<Record> {
    let mut all: Vec<Record> = clients
        .iter()
        .flat_map(|c| c.records.iter().copied())
        .collect();
    all.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    all
}

pub fn audit_records(records: &[Record], keys: &Corpus, audit: &mut Audit) {
    for r in records {
        audit.record(r.ok, || {
            format!(
                "{} {} @{}",
                r.op.kind.name(),
                keys.items[r.op.key].name,
                r.op.offset
            )
        });
    }
}

/// One (operation, key) pair of the mix: its lower-quartile round trip and
/// the probability that a request draws it.
struct Cell {
    kind: OpKind,
    key: usize,
    secs: f64,
    weight: f64,
}

/// End-to-end metrics of a serve run.
///
/// Every timing comes from the table of [`Cell`]s: a stall of a few
/// seconds caused by another tenant inflates the slow part of a cell's
/// round trips but hardly its lower quartile (see [`lower_quartile`]), and
/// weighting by draw probability keeps the seed's sampling of keys out. Throughput is bytes over seconds per kind, operations per
/// second the closed loop's clients over the mean round trip, and the
/// latencies are the weighted p50 and tail of the table.
pub fn metrics(
    records: &[Record],
    keys: &Corpus,
    refs: &[Vec<u8>],
    spec: &Spec,
    tail_p: f64,
) -> Vec<Metric> {
    let n = keys.items.len();
    let key_weights = spec.dist.weights(n);
    let mut latencies = vec![Vec::new(); OpKind::ALL.len() * n];
    for r in records.iter().filter(|r| r.ok) {
        latencies[r.op.kind as usize * n + r.op.key].push(r.latency_s);
    }
    let cells: Vec<Cell> = latencies
        .iter()
        .enumerate()
        .filter(|(_, lat)| !lat.is_empty())
        .map(|(i, lat)| {
            let (kind, key) = (OpKind::ALL[i / n], i % n);
            Cell {
                kind,
                key,
                secs: lower_quartile(lat),
                weight: kind.share() * key_weights[key],
            }
        })
        .collect();
    let gbps = |kind: OpKind| {
        let (bytes, secs) =
            cells
                .iter()
                .filter(|c| c.kind == kind)
                .fold((0.0, 0.0), |(b, s), c| {
                    let len = keys.items[c.key].data.len() as f64;
                    (b + c.weight * len, s + c.weight * c.secs)
                });
        bytes / 1e9 / secs
    };
    let (weight, weighted_secs) = cells.iter().fold((0.0, 0.0), |(w, s), c| {
        (w + c.weight, s + c.weight * c.secs)
    });
    let table: Vec<(f64, f64)> = cells.iter().map(|c| (c.secs, c.weight)).collect();
    let ops = records.iter().filter(|r| r.ok).count();
    let tail_note = format!(
        "p{tail_p} of {} cells, {ops} requests{}",
        cells.len(),
        if tail_eligible(ops, tail_p) {
            ""
        } else {
            ", fewer than 10 beyond it"
        }
    );
    vec![
        Metric::timed(
            "compress_gbps",
            gbps(OpKind::Compress),
            "GB/s",
            Scaling::Rate,
        ),
        Metric::timed(
            "decompress_gbps",
            gbps(OpKind::Decompress),
            "GB/s",
            Scaling::Rate,
        ),
        Metric::plain("ratio", crate::archive::ratio(keys, refs), "x"),
        Metric::timed(
            "ops_per_s",
            CLIENTS as f64 * weight / weighted_secs,
            "1/s",
            Scaling::Rate,
        )
        .with_note(format!("{CLIENTS} closed-loop clients")),
        Metric::timed(
            "latency_p50_us",
            weighted_percentile(&table, 50.0) * 1e6,
            "us",
            Scaling::Time,
        )
        .with_note(format!("{} cells, {ops} requests", cells.len())),
        Metric::timed(
            "latency_tail_us",
            weighted_percentile(&table, tail_p) * 1e6,
            "us",
            Scaling::Time,
        )
        .with_note(tail_note),
    ]
}

/// One request run in-process through the engines the server wraps, with
/// the same cache wiring; the bool is whether every byte matched.
fn in_process(
    op: &Op,
    item: &Item,
    stream: &[u8],
    cache: &Arc<ChunkCache>,
) -> fpc_core::Result<bool> {
    Ok(match op.kind {
        OpKind::Compress => {
            let mut e = StreamingCompressor::new(item.algo, THREADS).with_cache(Arc::clone(cache));
            e.feed(&item.data)?;
            e.finish()? == stream
        }
        OpKind::Decompress => {
            let mut d = StreamingDecompressor::new().with_cache(Arc::clone(cache));
            let mut out = Vec::with_capacity(item.data.len());
            d.feed(stream)?;
            while let Some(block) = d.take_output() {
                out.extend_from_slice(&block);
            }
            d.finish()?;
            while let Some(block) = d.take_output() {
                out.extend_from_slice(&block);
            }
            out == item.data
        }
        OpKind::Range => {
            let got = fpc_core::decompress_range_cached_with(
                stream,
                op.offset as u64,
                RANGE_BYTES as u64,
                THREADS,
                cache,
            )?;
            got == item.data[op.offset..op.offset + RANGE_BYTES]
        }
    })
}

/// Replays the first `limit` recorded requests in-process, one at a time,
/// against a mirror cache warmed the way the server's was. Returns the
/// sorted latencies per [`OpKind`], in [`OpKind::ALL`] order.
pub fn mirror(
    records: &[Record],
    keys: &Corpus,
    refs: &[Vec<u8>],
    spec: &Spec,
    limit: usize,
    audit: &mut Audit,
) -> Vec<Vec<f64>> {
    let cache = Arc::new(ChunkCache::new(spec.cache_bytes));
    for op in warm_up_ops(spec, keys.items.len()) {
        let _ = in_process(&op, &keys.items[op.key], &refs[op.key], &cache);
    }
    let mut lat = vec![Vec::new(); OpKind::ALL.len()];
    for r in records.iter().take(limit) {
        let item = &keys.items[r.op.key];
        let start = Instant::now();
        let result = in_process(&r.op, item, &refs[r.op.key], &cache);
        let secs = start.elapsed().as_secs_f64();
        let ok = matches!(result, Ok(true));
        audit.record(ok, || {
            format!("in-process {} {}", r.op.kind.name(), item.name)
        });
        if ok {
            lat[r.op.kind as usize].push(secs);
        }
    }
    for l in &mut lat {
        l.sort_by(f64::total_cmp);
    }
    lat
}

/// Per-op client round-trip percentiles, as `(p50, p99, samples)` seconds.
pub fn op_percentiles(records: &[Record], kind: OpKind) -> (f64, f64, usize) {
    let mut lat: Vec<f64> = records
        .iter()
        .filter(|r| r.ok && r.op.kind == kind)
        .map(|r| r.latency_s)
        .collect();
    lat.sort_by(f64::total_cmp);
    (percentile(&lat, 50.0), percentile(&lat, 99.0), lat.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: usize, dist: Dist, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(seed, client, vec![1 << 20; 16], dist);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn op_sequences_are_seed_deterministic() {
        for dist in [Dist::Zipf(1.0), Dist::Uniform] {
            assert_eq!(take(42, 0, dist, 500), take(42, 0, dist, 500));
            assert_ne!(take(42, 0, dist, 500), take(43, 0, dist, 500));
            assert_ne!(take(42, 0, dist, 500), take(42, 1, dist, 500));
        }
    }

    #[test]
    fn op_mix_keys_and_offsets_stay_in_range() {
        let ops = take(9, 0, Dist::Zipf(1.0), 20_000);
        let count = |k| ops.iter().filter(|o| o.kind == k).count() as f64 / ops.len() as f64;
        assert!((count(OpKind::Compress) - 0.4).abs() < 0.02);
        assert!((count(OpKind::Decompress) - 0.4).abs() < 0.02);
        assert!((count(OpKind::Range) - 0.2).abs() < 0.02);
        assert!(ops
            .iter()
            .all(|o| o.key < 16 && o.offset + RANGE_BYTES <= 1 << 20));
        // zipf(1) over 16 keys: key 0 draws 1/H(16) ~ 30% of requests.
        let hot = ops.iter().filter(|o| o.key == 0).count() as f64 / ops.len() as f64;
        assert!((hot - 0.296).abs() < 0.02, "{hot}");
        let uniform = take(9, 0, Dist::Uniform, 20_000);
        let first = uniform.iter().filter(|o| o.key == 0).count() as f64 / 20_000.0;
        assert!((first - 1.0 / 16.0).abs() < 0.01, "{first}");
    }
}

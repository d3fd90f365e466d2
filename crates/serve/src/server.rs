//! The `fpc-serve` TCP server: acceptor, bounded connection queue, and a
//! fixed pool of connection workers.
//!
//! The acceptor thread never blocks on a client: the listener is
//! non-blocking and accepted sockets are pushed onto a bounded queue that
//! [`ServeConfig::max_conns`] worker threads drain. When the queue is full
//! the acceptor replies with a structured [`ErrorCode::Busy`] frame and
//! closes the socket — load sheds at the edge instead of queueing
//! unboundedly. The heavy lifting (chunk compression/decompression) runs
//! through the process-wide `fpc-pool` executor exactly as the CLI path
//! does, so a single large request still uses every core and concurrent
//! requests share the pool's dynamic schedule.
//!
//! **Backpressure / hostile-input caps** (all structured errors, never
//! panics, mirroring the container v2 hardening):
//!
//! * per-frame payload cap ([`ServeConfig::max_frame`]) →
//!   [`ErrorCode::FrameTooLarge`];
//! * per-request payload cap ([`ServeConfig::max_request`]) →
//!   [`ErrorCode::PayloadTooLarge`] — excess `Data` frames are *drained
//!   without buffering* so the reply still reaches the client;
//! * global inflight-bytes cap ([`ServeConfig::max_inflight`]) →
//!   [`ErrorCode::Busy`];
//! * per-connection read/write timeouts → [`ErrorCode::Timeout`].
//!
//! **Graceful degradation** (all deterministic thresholds, all counted
//! under `serve.faults.*` metrics):
//!
//! * *idle eviction* — a connection that sits between requests past
//!   [`ServeConfig::idle_timeout`] is reaped with a structured
//!   [`ErrorCode::Timeout`], freeing its worker;
//! * *progress deadline* — once a request frame arrives, the whole body
//!   must land within [`ServeConfig::progress_deadline`] of wall clock.
//!   Socket timeouts reset per syscall, so a slow-loris peer trickling
//!   one byte per poll would otherwise hold a worker forever; the
//!   deadline is checked on every read and cannot be evaded;
//! * *memory-pressure watermark* — requests are shed with
//!   [`ErrorCode::Busy`] once held request bytes cross
//!   [`ServeConfig::shed_inflight`] (before the hard
//!   [`ServeConfig::max_inflight`] cap, so shedding happens while
//!   allocation still succeeds).
//!
//! **Graceful shutdown**: setting the flag returned by
//! [`Server::shutdown_flag`] (e.g. from a SIGINT/SIGTERM handler bridge,
//! see [`crate::shutdown_signal_flag`]) stops the acceptor, lets every
//! worker finish its in-flight request, closes queued-but-unserved
//! sockets, and joins all workers before [`Server::run`] returns.

use crate::stream::{serve_request, Served};
use crate::wire::{
    read_frame, send_error, ErrorCode, FrameKind, Op, RangeRequest, RecvError, RemoteVerify,
    WireError, DEFAULT_MAX_FRAME,
};
use fpc_cache::ChunkCache;
use fpc_faults::io::FaultStream;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads per codec job (0 = all cores), forwarded to
    /// [`fpc_core::Compressor::with_threads`].
    pub threads: usize,
    /// Connection worker threads (= maximum concurrently served
    /// connections). 0 selects one per available core, but no fewer
    /// than 8.
    pub max_conns: usize,
    /// Accepted-but-unserved sockets the queue holds before the acceptor
    /// sheds load with [`ErrorCode::Busy`]. 0 selects `2 * max_conns`.
    pub queue_cap: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame: u32,
    /// Per-request accumulated payload cap in bytes.
    pub max_request: u64,
    /// Global cap on request payload bytes buffered across all
    /// connections at once.
    pub max_inflight: u64,
    /// Per-connection socket read timeout.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write timeout.
    pub write_timeout: Option<Duration>,
    /// How long a connection may sit between requests before it is
    /// evicted (`None` = only `read_timeout` applies while idle).
    pub idle_timeout: Option<Duration>,
    /// Wall-clock budget for one request body, measured from its
    /// `Request` frame to its `End` frame. Checked on every read, so a
    /// slow-loris peer trickling bytes cannot evade it the way it evades
    /// per-syscall socket timeouts. `None` disables the deadline.
    pub progress_deadline: Option<Duration>,
    /// Inflight-bytes watermark above which new request bytes are shed
    /// with `Busy` *before* the hard `max_inflight` cap. 0 selects
    /// `max_inflight - max_inflight / 4`.
    pub shed_inflight: u64,
    /// Byte budget for the content-addressed hot-chunk cache shared by
    /// every connection: repeated chunks skip the codec on both the
    /// compress and decompress paths. 0 disables caching.
    pub cache_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: 0,
            max_conns: 0,
            queue_cap: 0,
            max_frame: DEFAULT_MAX_FRAME,
            max_request: 1 << 30,
            max_inflight: 2 << 30,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            idle_timeout: Some(Duration::from_secs(60)),
            progress_deadline: Some(Duration::from_secs(30)),
            shed_inflight: 0,
            cache_bytes: 0,
        }
    }
}

impl ServeConfig {
    /// Connection workers after defaulting: `max_conns` as given, or one
    /// per available core but no fewer than 8. Unlike codec threads these
    /// spend their life parked on socket reads, so oversubscribing a small
    /// host is the right default — otherwise concurrent clients would
    /// serialize behind core count.
    pub fn effective_conns(&self) -> usize {
        if self.max_conns == 0 {
            fpc_pool::effective_threads(0, usize::MAX).max(8)
        } else {
            self.max_conns
        }
    }

    /// Queue capacity after defaulting.
    pub fn effective_queue_cap(&self) -> usize {
        if self.queue_cap == 0 {
            self.effective_conns() * 2
        } else {
            self.queue_cap
        }
    }

    /// Shed watermark after defaulting: three quarters of the hard
    /// inflight cap, leaving headroom so `Busy` goes out while
    /// allocation still succeeds.
    pub fn effective_shed(&self) -> u64 {
        if self.shed_inflight == 0 {
            self.max_inflight - self.max_inflight / 4
        } else {
            self.shed_inflight.min(self.max_inflight)
        }
    }
}

/// A bound-but-not-yet-running compression server.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    cache: Option<Arc<ChunkCache>>,
}

/// State shared between the acceptor and the connection workers.
struct Shared {
    queue: Mutex<VecDeque<Conn>>,
    available: Condvar,
    shutdown: Arc<AtomicBool>,
    config: ServeConfig,
    /// Request payload bytes currently buffered across all connections.
    inflight: AtomicU64,
    /// Hot-chunk cache shared by all connections (`None` = disabled).
    cache: Option<Arc<ChunkCache>>,
    /// Per-worker handle to the socket it is currently serving, so
    /// shutdown can interrupt blocked reads instead of waiting out the
    /// socket timeout.
    active: Vec<Mutex<Option<TcpStream>>>,
}

/// One accepted socket waiting for (or held by) a worker.
struct Conn {
    stream: TcpStream,
    queued: fpc_metrics::Stopwatch,
}

impl Server {
    /// Binds the listener without serving yet.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission, resolution).
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let cache = (config.cache_bytes > 0).then(|| Arc::new(ChunkCache::new(config.cache_bytes)));
        Ok(Server {
            listener,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            cache,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shutdown flag: set it (from any thread or a signal handler
    /// bridge) to stop the acceptor and drain the workers.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// A handle to the hot-chunk cache, when [`ServeConfig::cache_bytes`]
    /// enabled one — lets embedders read live [`fpc_cache::CacheStats`]
    /// (hit rate, residency) while the server runs.
    pub fn cache(&self) -> Option<Arc<ChunkCache>> {
        self.cache.clone()
    }

    /// Serves until the shutdown flag is set; returns after every worker
    /// has drained.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (per-connection errors are handled
    /// in-protocol and do not end the server).
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let workers = self.config.effective_conns();
        let queue_cap = self.config.effective_queue_cap();
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: Arc::clone(&self.shutdown),
            config: self.config,
            inflight: AtomicU64::new(0),
            cache: self.cache,
            active: (0..workers).map(|_| Mutex::new(None)).collect(),
        });
        let mut handles = Vec::with_capacity(workers);
        for id in 0..workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("fpc-serve-{id}"))
                .spawn(move || worker_loop(&shared, id))?;
            handles.push(handle);
        }
        let accept_result = accept_loop(&self.listener, &shared, queue_cap);
        // Shutdown path (flag set, or a fatal accept error): wake idle
        // workers, interrupt in-flight socket reads, drop unserved sockets.
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.available.notify_all();
        for slot in &shared.active {
            if let Some(stream) = lock(slot).as_ref() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        for handle in handles {
            let _ = handle.join();
        }
        lock(&shared.queue).clear();
        accept_result
    }
}

/// Accepts until shutdown; never blocks on a single client.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, queue_cap: usize) -> io::Result<()> {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn = Conn {
                    stream,
                    queued: fpc_metrics::Stopwatch::start(),
                };
                let mut queue = lock(&shared.queue);
                if queue.len() >= queue_cap {
                    drop(queue);
                    reject_busy(conn.stream);
                } else {
                    queue.push_back(conn);
                    drop(queue);
                    shared.available.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient per-connection failures (reset before accept
            // completed) are not fatal to the listener.
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Sheds a connection the queue has no room for: best-effort structured
/// `Busy` error, then close.
fn reject_busy(stream: TcpStream) {
    fpc_metrics::incr(fpc_metrics::Counter::ServeConnRejected, 1);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut w = stream;
    let _ = send_error(
        &mut w,
        0,
        &WireError::new(ErrorCode::Busy, "connection queue full; retry later"),
    );
}

fn worker_loop(shared: &Arc<Shared>, id: usize) {
    loop {
        let conn = {
            let mut queue = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(conn) = conn else { return };
        if fpc_metrics::ENABLED {
            fpc_metrics::incr(
                fpc_metrics::Counter::ServeQueueWaitNanos,
                conn.queued.elapsed_nanos(),
            );
        }
        fpc_metrics::incr(fpc_metrics::Counter::ServeConnections, 1);
        // Publish a handle to this socket so shutdown can interrupt a
        // blocked read; re-check the flag afterwards to close the window
        // where shutdown swept the slots before the store landed.
        *lock(&shared.active[id]) = conn.stream.try_clone().ok();
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        // Connection-level failures only affect that connection.
        let _ = serve_connection(conn.stream, shared);
        *lock(&shared.active[id]) = None;
    }
}

/// Releases its reservation against the global inflight-bytes cap on drop,
/// so every exit path (response, error, panic-free early return) settles
/// the account.
pub(crate) struct InflightGuard<'a> {
    inflight: &'a AtomicU64,
    reserved: u64,
}

impl InflightGuard<'_> {
    /// Tries to grow the reservation by `n` bytes; `false` when the global
    /// cap would be exceeded (the caller sheds with `Busy`).
    fn try_grow(&mut self, n: u64, cap: u64) -> bool {
        let prev = self.inflight.fetch_add(n, Ordering::Relaxed);
        if prev.saturating_add(n) > cap {
            self.inflight.fetch_sub(n, Ordering::Relaxed);
            return false;
        }
        self.reserved += n;
        true
    }

    /// Lowers the reservation to `target` (no-op if already at or below),
    /// returning the bytes to the global budget immediately. The request
    /// loop uses this to track an engine whose footprint shrinks as output
    /// is drained.
    pub(crate) fn shrink_to(&mut self, target: u64) {
        if target < self.reserved {
            self.inflight
                .fetch_sub(self.reserved - target, Ordering::Relaxed);
            self.reserved = target;
        }
    }

    /// Re-syncs the reservation to the `held` bytes a request's engine
    /// holds now. Growth is refused with `Busy` past the shed watermark
    /// (shedding while allocation still succeeds rather than riding the
    /// hard cap) or past the hard [`ServeConfig::max_inflight`] cap.
    pub(crate) fn resync(&mut self, held: u64, config: &ServeConfig) -> Result<(), WireError> {
        if held <= self.reserved {
            self.shrink_to(held);
            return Ok(());
        }
        let delta = held - self.reserved;
        let current = self.inflight.load(Ordering::Relaxed);
        if current.saturating_add(delta) > config.effective_shed() {
            fpc_metrics::incr(fpc_metrics::Counter::ServeShedMemory, 1);
            Err(WireError::new(
                ErrorCode::Busy,
                "server under memory pressure; retry later",
            ))
        } else if !self.try_grow(delta, config.max_inflight) {
            Err(WireError::new(
                ErrorCode::Busy,
                "server inflight-bytes cap reached; retry later",
            ))
        } else {
            Ok(())
        }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(self.reserved, Ordering::Relaxed);
    }
}

/// Bounds reads by a wall-clock deadline: the clock is checked before
/// every `read` call, so a peer trickling single bytes (each one
/// resetting the socket timeout) still cannot hold the body phase open
/// past [`ServeConfig::progress_deadline`].
struct DeadlineReader<'a, R> {
    inner: &'a mut R,
    deadline: Option<Instant>,
}

impl<R: io::Read> io::Read for DeadlineReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request missed the progress deadline",
                ));
            }
        }
        self.inner.read(buf)
    }
}

/// Serves requests on one connection until the peer closes, a protocol
/// error forces a disconnect, a degradation threshold reaps it, or
/// shutdown is requested.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    let config = &shared.config;
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    stream.set_nodelay(true).ok();
    // Socket timeouts are per-socket, shared by all clones: `ctl` lets the
    // loop switch between the idle and in-request read timeouts.
    let ctl = stream.try_clone()?;
    let mut reader = BufReader::new(FaultStream::new(stream.try_clone()?));
    let mut writer = BufWriter::new(FaultStream::new(stream));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        // Idle phase: waiting for the next request. A dedicated timeout
        // evicts parked connections without touching in-request limits.
        if config.idle_timeout.is_some() {
            ctl.set_read_timeout(config.idle_timeout)?;
        }
        // A request frame's payload is unused, so its buffer is dropped.
        let header = match read_frame(&mut reader, config.max_frame, &mut Vec::new()) {
            Ok(header) => header,
            Err(RecvError::Closed) => return Ok(()),
            Err(e) if e.is_timeout() && config.idle_timeout.is_some() => {
                fpc_metrics::incr(fpc_metrics::Counter::ServeReapedIdle, 1);
                return disconnect(&mut writer, &e);
            }
            Err(e) => return disconnect(&mut writer, &e),
        };
        if config.idle_timeout.is_some() {
            ctl.set_read_timeout(config.read_timeout)?;
        }
        if header.kind != FrameKind::Request {
            let err = WireError::new(
                ErrorCode::BadFrame,
                format!("expected a request frame, got kind {}", header.kind as u8),
            );
            return disconnect(&mut writer, &RecvError::Wire(err));
        }
        let mut guard = InflightGuard {
            inflight: &shared.inflight,
            reserved: 0,
        };
        let deadline = config.progress_deadline.map(|d| Instant::now() + d);
        let mut bounded = DeadlineReader {
            inner: &mut reader,
            deadline,
        };
        let served = serve_request(
            &mut bounded,
            &mut writer,
            &header,
            config,
            &mut guard,
            shared.cache.as_ref(),
        )?;
        if let Served::Disconnect(e) = served {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                fpc_metrics::incr(fpc_metrics::Counter::ServeReapedStalled, 1);
            }
            return disconnect(&mut writer, &e);
        }
    }
}

/// Reports a receive failure to the peer where possible, then signals the
/// caller to drop the connection. Framing is unrecoverable at this point:
/// after a malformed or truncated frame the byte stream cannot be resynced.
fn disconnect(writer: &mut impl Write, err: &RecvError) -> io::Result<()> {
    fpc_metrics::incr(fpc_metrics::Counter::ServeErrors, 1);
    if err.is_timeout() {
        fpc_metrics::incr(fpc_metrics::Counter::ServeTimeouts, 1);
    }
    let wire_err = match err {
        RecvError::Closed => None,
        RecvError::Wire(e) => Some(e.clone()),
        RecvError::Io(_) if err.is_timeout() => Some(WireError::new(
            ErrorCode::Timeout,
            "connection timed out (idle, stalled, or past a deadline)",
        )),
        // The transport is already broken; nothing to send.
        RecvError::Io(_) => None,
    };
    if let Some(e) = wire_err {
        let _ = send_error(writer, 0, &e);
    }
    Ok(())
}

/// The ops whose whole operand is buffered before [`dispatch`] answers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Buffered {
    Verify,
    Ping,
    Range,
}

/// Answers one buffered request. `Range` requests go through the
/// hot-chunk cache when one is configured, so repeated reads over the
/// same stream (and streamed decompresses of it) share decoded chunks — a
/// warm `fpcc remote range` never decodes a chunk twice.
pub(crate) fn dispatch(
    op: Buffered,
    payload: Vec<u8>,
    threads: usize,
    cache: Option<&Arc<ChunkCache>>,
) -> Result<Vec<u8>, WireError> {
    match op {
        Buffered::Verify => match fpc_container::verify(&payload) {
            Ok((header, report)) => Ok(RemoteVerify {
                format_version: header.version,
                checksummed: report.checksummed,
                chunks: report.chunks.min(u32::MAX as usize) as u32,
                damaged_count: report.damaged.len().min(u32::MAX as usize) as u32,
                damaged: report
                    .damaged
                    .iter()
                    .take(RemoteVerify::MAX_DAMAGE_ENTRIES)
                    .map(|d| (d.chunk, d.offset))
                    .collect(),
            }
            .encode()),
            Err(e) => Err(WireError::new(ErrorCode::CorruptStream, e.to_string())),
        },
        Buffered::Ping => Ok(payload),
        Buffered::Range => RangeRequest::decode(&payload).and_then(|(range, stream)| {
            match cache {
                Some(cache) => fpc_core::decompress_range_cached_with(
                    stream,
                    range.offset,
                    range.len,
                    threads,
                    cache,
                ),
                None => fpc_core::decompress_range_with(stream, range.offset, range.len, threads),
            }
            .map_err(|e| match e {
                fpc_core::Error::RangeOutOfBounds { .. } => {
                    WireError::new(ErrorCode::RangeOutOfBounds, e.to_string())
                }
                e => WireError::new(ErrorCode::CorruptStream, e.to_string()),
            })
        }),
    }
}

pub(crate) fn stage_for(op: Op) -> fpc_metrics::Stage {
    match op {
        Op::Compress => fpc_metrics::Stage::ServeCompress,
        Op::Decompress => fpc_metrics::Stage::ServeDecompress,
        Op::Verify => fpc_metrics::Stage::ServeVerify,
        Op::Ping => fpc_metrics::Stage::ServePing,
        Op::Range => fpc_metrics::Stage::ServeRange,
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpc_core::{Algorithm, Compressor};

    #[test]
    fn config_defaults_resolve() {
        let c = ServeConfig::default();
        // I/O-bound connection workers oversubscribe small hosts.
        assert!(c.effective_conns() >= 8);
        assert_eq!(c.effective_queue_cap(), c.effective_conns() * 2);
        let explicit = ServeConfig {
            max_conns: 3,
            queue_cap: 5,
            ..ServeConfig::default()
        };
        // An explicit worker count is honored verbatim, never clamped.
        assert_eq!(explicit.effective_conns(), 3);
        assert_eq!(explicit.effective_queue_cap(), 5);
    }

    #[test]
    fn inflight_guard_releases_on_drop() {
        let inflight = AtomicU64::new(0);
        {
            let mut g = InflightGuard {
                inflight: &inflight,
                reserved: 0,
            };
            assert!(g.try_grow(100, 150));
            assert!(!g.try_grow(100, 150), "cap must hold");
            assert_eq!(inflight.load(Ordering::Relaxed), 100);
        }
        assert_eq!(inflight.load(Ordering::Relaxed), 0, "drop must release");
    }

    #[test]
    fn resync_sheds_at_the_watermark_and_always_shrinks() {
        let inflight = AtomicU64::new(0);
        let config = ServeConfig {
            max_inflight: 1000,
            shed_inflight: 600,
            ..ServeConfig::default()
        };
        let mut g = InflightGuard {
            inflight: &inflight,
            reserved: 0,
        };
        g.resync(600, &config).expect("at the watermark");
        let e = g.resync(601, &config).unwrap_err();
        assert_eq!(e.code, ErrorCode::Busy);
        assert!(e.message.contains("memory pressure"), "{e}");
        assert_eq!(g.reserved, 600, "a refused growth reserves nothing");
        g.resync(100, &config).expect("shrinking never sheds");
        assert_eq!(inflight.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn dispatch_ping_echoes() {
        let out = dispatch(Buffered::Ping, b"hello".to_vec(), 1, None).unwrap();
        assert_eq!(out, b"hello");
    }

    #[test]
    fn dispatch_range_slices_without_whole_stream_decode() {
        let data: Vec<u8> = (0..200_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let stream = Compressor::new(Algorithm::SpSpeed)
            .with_threads(1)
            .compress_bytes(&data);
        let req = RangeRequest {
            offset: 70_000,
            len: 5_000,
        };
        let out = dispatch(Buffered::Range, req.encode(&stream), 1, None).unwrap();
        assert_eq!(out, &data[70_000..75_000]);
        // Out-of-range requests map to the dedicated structured code.
        let req = RangeRequest {
            offset: data.len() as u64,
            len: 1,
        };
        let e = dispatch(Buffered::Range, req.encode(&stream), 1, None).unwrap_err();
        assert_eq!(e.code, ErrorCode::RangeOutOfBounds);
        // A short payload (no full prefix) is a bad frame, and a damaged
        // stream after the prefix is a corrupt stream.
        let e = dispatch(Buffered::Range, vec![0; 7], 1, None).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadFrame);
        let req = RangeRequest { offset: 0, len: 1 };
        let e = dispatch(Buffered::Range, req.encode(b"junk"), 1, None).unwrap_err();
        assert_eq!(e.code, ErrorCode::CorruptStream);
    }
}

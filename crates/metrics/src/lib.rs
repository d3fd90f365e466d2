//! Zero-dependency observability for the FPcompress hot paths.
//!
//! Every probe in this crate is **feature-gated**: with the `metrics` cargo
//! feature disabled (the default), [`timer`], [`incr`], and friends are
//! empty `#[inline]` functions and [`Timer`]/[`Stopwatch`] are zero-sized —
//! the instrumented crates compile to exactly the code they had before
//! instrumentation, and compressed output is byte-identical either way
//! (probes never touch data, only clocks and counters).
//!
//! With the feature enabled, collection is lock-free and thread-safe:
//!
//! * **Stage timers** ([`timer`] / [`Timer::finish`]) accumulate monotonic
//!   wall-clock nanoseconds, call counts, and processed bytes per [`Stage`]
//!   into `static` relaxed atomics, plus a 64-bucket log₂ histogram sketch
//!   of per-call latency.
//! * **Counters** ([`incr`]) accumulate event counts per [`Counter`]
//!   (pool telemetry, chunk statistics).
//! * [`snapshot`] materializes a [`report::MetricsReport`] (serializable to
//!   JSON via [`json`]); [`reset`] zeroes everything — both are safe to call
//!   while other threads record, with relaxed (not linearizable)
//!   consistency.
//!
//! Transform stages are exclusive: a stage that embeds another runs it
//! under [`Timer::exclude`] (RAZE/RARE around their RZE pass), so the
//! transform times add up. The whole-container and service stages
//! (`container.*`, `serve.*`) enclose the transforms and overlap them by
//! design.
//!
//! The [`json`] and [`report`] modules are compiled unconditionally so
//! tooling (`fpcc stats`, the bench harness's `BENCH_*.json`) can parse and
//! render saved reports even in a no-op build.

pub mod json;
pub mod report;

/// `true` when the crate was built with the `metrics` feature.
///
/// Branch on this (`if fpc_metrics::ENABLED { ... }`) around probe code with
/// a real runtime cost of its own (e.g. an extra atomic swap); the compiler
/// removes the branch entirely in no-op builds.
pub const ENABLED: bool = cfg!(feature = "metrics");

/// An instrumented pipeline stage. One cell of statistics exists per
/// variant; names follow `<layer>.<operation>` so reports group naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// DIFFMS difference+zigzag encode (32- and 64-bit).
    DiffmsEncode,
    /// DIFFMS decode.
    DiffmsDecode,
    /// MPLG leading-zero elimination encode.
    MplgEncode,
    /// MPLG decode.
    MplgDecode,
    /// BIT bit transposition (self-inverse: used by encode and decode).
    BitTranspose,
    /// RZE repeated-zero-elimination encode.
    RzeEncode,
    /// RZE decode.
    RzeDecode,
    /// FCM global context-model encode.
    FcmEncode,
    /// FCM decode from value/distance arrays.
    FcmDecode,
    /// RAZE encode.
    RazeEncode,
    /// RAZE decode.
    RazeDecode,
    /// RARE encode.
    RareEncode,
    /// RARE decode.
    RareDecode,
    /// Whole-container compression (chunking + codec + framing).
    ContainerCompress,
    /// Whole-container decompression (parse + codec + reassembly).
    ContainerDecode,
    /// Huffman entropy encode.
    HuffmanEncode,
    /// Huffman entropy decode.
    HuffmanDecode,
    /// rANS entropy encode.
    RansEncode,
    /// rANS entropy decode.
    RansDecode,
    /// LZ block compress.
    LzEncode,
    /// LZ block decompress.
    LzDecode,
    /// RLE compress.
    RleEncode,
    /// RLE decompress.
    RleDecode,
    /// Simulated-GPU decoupled look-back scan.
    GpuScan,
    /// Simulated-GPU radix sort (FCM encode path).
    GpuRadixSort,
    /// Simulated-GPU union-find FCM decode.
    GpuUnionFind,
    /// Service-side compress request (fpc-serve), wire receipt excluded.
    ServeCompress,
    /// Service-side decompress request.
    ServeDecompress,
    /// Service-side verify request.
    ServeVerify,
    /// Service-side ping request.
    ServePing,
    /// Service-side range request (partial decode).
    ServeRange,
}

impl Stage {
    /// Number of stages (size of the statistics table).
    pub const COUNT: usize = 31;

    /// Every stage, in report order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::DiffmsEncode,
        Stage::DiffmsDecode,
        Stage::MplgEncode,
        Stage::MplgDecode,
        Stage::BitTranspose,
        Stage::RzeEncode,
        Stage::RzeDecode,
        Stage::FcmEncode,
        Stage::FcmDecode,
        Stage::RazeEncode,
        Stage::RazeDecode,
        Stage::RareEncode,
        Stage::RareDecode,
        Stage::ContainerCompress,
        Stage::ContainerDecode,
        Stage::HuffmanEncode,
        Stage::HuffmanDecode,
        Stage::RansEncode,
        Stage::RansDecode,
        Stage::LzEncode,
        Stage::LzDecode,
        Stage::RleEncode,
        Stage::RleDecode,
        Stage::GpuScan,
        Stage::GpuRadixSort,
        Stage::GpuUnionFind,
        Stage::ServeCompress,
        Stage::ServeDecompress,
        Stage::ServeVerify,
        Stage::ServePing,
        Stage::ServeRange,
    ];

    /// Stable report name (`<layer>.<operation>`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::DiffmsEncode => "DIFFMS.encode",
            Stage::DiffmsDecode => "DIFFMS.decode",
            Stage::MplgEncode => "MPLG.encode",
            Stage::MplgDecode => "MPLG.decode",
            Stage::BitTranspose => "BIT.transpose",
            Stage::RzeEncode => "RZE.encode",
            Stage::RzeDecode => "RZE.decode",
            Stage::FcmEncode => "FCM.encode",
            Stage::FcmDecode => "FCM.decode",
            Stage::RazeEncode => "RAZE.encode",
            Stage::RazeDecode => "RAZE.decode",
            Stage::RareEncode => "RARE.encode",
            Stage::RareDecode => "RARE.decode",
            Stage::ContainerCompress => "container.compress",
            Stage::ContainerDecode => "container.decode",
            Stage::HuffmanEncode => "entropy.huffman.encode",
            Stage::HuffmanDecode => "entropy.huffman.decode",
            Stage::RansEncode => "entropy.rans.encode",
            Stage::RansDecode => "entropy.rans.decode",
            Stage::LzEncode => "entropy.lz.encode",
            Stage::LzDecode => "entropy.lz.decode",
            Stage::RleEncode => "entropy.rle.encode",
            Stage::RleDecode => "entropy.rle.decode",
            Stage::GpuScan => "gpu.scan.lookback",
            Stage::GpuRadixSort => "gpu.radix.sort",
            Stage::GpuUnionFind => "gpu.unionfind.decode",
            Stage::ServeCompress => "serve.compress",
            Stage::ServeDecompress => "serve.decompress",
            Stage::ServeVerify => "serve.verify",
            Stage::ServePing => "serve.ping",
            Stage::ServeRange => "serve.range",
        }
    }

    #[cfg_attr(not(feature = "metrics"), allow(dead_code))]
    fn index(self) -> usize {
        Stage::ALL
            .iter()
            .position(|&s| s == self)
            .expect("ALL lists every variant")
    }
}

/// An instrumented event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Jobs executed by the worker pool.
    PoolJobs,
    /// Index batches claimed across all jobs.
    PoolBatches,
    /// Batches executed by pool workers (the rest ran on the submitter —
    /// the "steal" share of the dynamic schedule).
    PoolWorkerBatches,
    /// Nanoseconds between job submission and its first claimed batch,
    /// summed over jobs (queue wait).
    PoolQueueWaitNanos,
    /// `with_scratch` calls that reused a warmed-up arena.
    PoolScratchHits,
    /// `with_scratch` calls that started from an empty arena.
    PoolScratchMisses,
    /// Chunks processed by the container.
    ContainerChunks,
    /// Chunks stored raw because the codec failed to shrink them.
    ContainerRawChunks,
    /// Kernel calls dispatched at the scalar tier (fpc-simd).
    SimdScalar,
    /// Kernel calls dispatched at the portable SWAR tier.
    SimdSwar,
    /// Kernel calls dispatched at the x86 (AVX2) tier.
    SimdAvx2,
    /// Kernel calls dispatched at the x86 AVX-512 (VBMI2/GFNI) tier.
    SimdAvx512,
    /// Connections served by fpc-serve workers.
    ServeConnections,
    /// Connections shed at the acceptor (queue full).
    ServeConnRejected,
    /// Requests received (including ones rejected over caps).
    ServeRequests,
    /// Requests answered with a structured error frame, plus connections
    /// dropped over framing/transport failures.
    ServeErrors,
    /// Request payload bytes accepted for processing.
    ServeBytesIn,
    /// Response payload bytes sent.
    ServeBytesOut,
    /// Nanoseconds sockets spent queued between accept and a worker
    /// picking them up, summed over connections.
    ServeQueueWaitNanos,
    /// Faults injected by fpc-faults (all kinds; only moves in builds
    /// with the `faults` feature and an armed plan).
    FaultsInjected,
    /// Connections evicted while idle between requests.
    ServeReapedIdle,
    /// Connections reaped for missing the per-request progress deadline
    /// (slow-loris defense).
    ServeReapedStalled,
    /// Requests shed with `Busy` at the memory-pressure watermark.
    ServeShedMemory,
    /// Connections dropped over socket read/write timeouts.
    ServeTimeouts,
    /// Remote-client retry attempts (re-sends after a transient failure).
    RemoteRetryAttempts,
    /// Remote-client reconnects (transport was dropped and re-dialed).
    RemoteRetryReconnects,
    /// Remote-client requests abandoned after exhausting the retry
    /// budget or deadline.
    RemoteRetryGiveups,
    /// Nanoseconds the remote client slept in retry backoff, summed.
    RemoteRetryBackoffNanos,
    /// Range-decode requests served by the container layer.
    ContainerRangeRequests,
    /// Chunks actually decoded by range requests.
    ContainerRangeChunksTouched,
    /// Chunks present in the streams range requests ran against (the
    /// denominator for the touched/total selectivity ratio).
    ContainerRangeChunksTotal,
    /// Payload bytes decoded by range requests (whole touched chunks).
    ContainerRangeBytesDecoded,
    /// Payload bytes actually returned to range callers.
    ContainerRangeBytesReturned,
    /// AUTO chunks that picked the SPspeed pipeline.
    AutoPickSpSpeed,
    /// AUTO chunks that picked the SPratio pipeline.
    AutoPickSpRatio,
    /// AUTO chunks that picked the DPspeed pipeline.
    AutoPickDpSpeed,
    /// AUTO chunks that picked the DPratio (per-chunk FCM) pipeline.
    AutoPickDpRatio,
    /// AUTO chunks stored raw (no candidate shrank the chunk).
    AutoPickRaw,
    /// Hot-chunk cache lookups that found an entry.
    CacheHits,
    /// Hot-chunk cache lookups that found nothing.
    CacheMisses,
    /// Values stored in the hot-chunk cache.
    CacheInsertions,
    /// Entries evicted from the hot-chunk cache to make room, or replaced
    /// by an insert of other bytes under their key.
    CacheEvictions,
    /// Bytes stored in the hot-chunk cache (monotonic; resident bytes are
    /// `cache.bytes.inserted - cache.bytes.evicted`).
    CacheBytesInserted,
    /// Bytes evicted from the hot-chunk cache (monotonic).
    CacheBytesEvicted,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 44;

    /// Every counter, in report order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::PoolJobs,
        Counter::PoolBatches,
        Counter::PoolWorkerBatches,
        Counter::PoolQueueWaitNanos,
        Counter::PoolScratchHits,
        Counter::PoolScratchMisses,
        Counter::ContainerChunks,
        Counter::ContainerRawChunks,
        Counter::SimdScalar,
        Counter::SimdSwar,
        Counter::SimdAvx2,
        Counter::SimdAvx512,
        Counter::ServeConnections,
        Counter::ServeConnRejected,
        Counter::ServeRequests,
        Counter::ServeErrors,
        Counter::ServeBytesIn,
        Counter::ServeBytesOut,
        Counter::ServeQueueWaitNanos,
        Counter::FaultsInjected,
        Counter::ServeReapedIdle,
        Counter::ServeReapedStalled,
        Counter::ServeShedMemory,
        Counter::ServeTimeouts,
        Counter::RemoteRetryAttempts,
        Counter::RemoteRetryReconnects,
        Counter::RemoteRetryGiveups,
        Counter::RemoteRetryBackoffNanos,
        Counter::ContainerRangeRequests,
        Counter::ContainerRangeChunksTouched,
        Counter::ContainerRangeChunksTotal,
        Counter::ContainerRangeBytesDecoded,
        Counter::ContainerRangeBytesReturned,
        Counter::AutoPickSpSpeed,
        Counter::AutoPickSpRatio,
        Counter::AutoPickDpSpeed,
        Counter::AutoPickDpRatio,
        Counter::AutoPickRaw,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheInsertions,
        Counter::CacheEvictions,
        Counter::CacheBytesInserted,
        Counter::CacheBytesEvicted,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::PoolJobs => "pool.jobs",
            Counter::PoolBatches => "pool.batches",
            Counter::PoolWorkerBatches => "pool.batches.worker",
            Counter::PoolQueueWaitNanos => "pool.queue_wait_nanos",
            Counter::PoolScratchHits => "pool.scratch.hits",
            Counter::PoolScratchMisses => "pool.scratch.misses",
            Counter::ContainerChunks => "container.chunks",
            Counter::ContainerRawChunks => "container.chunks.raw",
            Counter::SimdScalar => "simd.dispatch.scalar",
            Counter::SimdSwar => "simd.dispatch.swar",
            Counter::SimdAvx2 => "simd.dispatch.avx2",
            Counter::SimdAvx512 => "simd.dispatch.avx512",
            Counter::ServeConnections => "serve.connections",
            Counter::ServeConnRejected => "serve.connections.rejected",
            Counter::ServeRequests => "serve.requests",
            Counter::ServeErrors => "serve.errors",
            Counter::ServeBytesIn => "serve.bytes.in",
            Counter::ServeBytesOut => "serve.bytes.out",
            Counter::ServeQueueWaitNanos => "serve.queue_wait_nanos",
            Counter::FaultsInjected => "faults.injected",
            Counter::ServeReapedIdle => "serve.faults.reaped_idle",
            Counter::ServeReapedStalled => "serve.faults.reaped_stalled",
            Counter::ServeShedMemory => "serve.faults.shed_memory",
            Counter::ServeTimeouts => "serve.faults.timeouts",
            Counter::RemoteRetryAttempts => "remote.retry.attempts",
            Counter::RemoteRetryReconnects => "remote.retry.reconnects",
            Counter::RemoteRetryGiveups => "remote.retry.giveups",
            Counter::RemoteRetryBackoffNanos => "remote.retry.backoff_nanos",
            Counter::ContainerRangeRequests => "container.range.requests",
            Counter::ContainerRangeChunksTouched => "container.range.chunks.touched",
            Counter::ContainerRangeChunksTotal => "container.range.chunks.total",
            Counter::ContainerRangeBytesDecoded => "container.range.bytes.decoded",
            Counter::ContainerRangeBytesReturned => "container.range.bytes.returned",
            Counter::AutoPickSpSpeed => "container.auto.pick.spspeed",
            Counter::AutoPickSpRatio => "container.auto.pick.spratio",
            Counter::AutoPickDpSpeed => "container.auto.pick.dpspeed",
            Counter::AutoPickDpRatio => "container.auto.pick.dpratio",
            Counter::AutoPickRaw => "container.auto.pick.raw",
            Counter::CacheHits => "cache.hits",
            Counter::CacheMisses => "cache.misses",
            Counter::CacheInsertions => "cache.insertions",
            Counter::CacheEvictions => "cache.evictions",
            Counter::CacheBytesInserted => "cache.bytes.inserted",
            Counter::CacheBytesEvicted => "cache.bytes.evicted",
        }
    }

    #[cfg_attr(not(feature = "metrics"), allow(dead_code))]
    fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|&c| c == self)
            .expect("ALL lists every variant")
    }
}

#[cfg(feature = "metrics")]
mod imp {
    use super::{Counter, Stage};
    use crate::report::{CounterStat, MetricsReport, StageStats};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::time::Instant;

    /// Log₂ latency buckets: bucket `b` holds calls with
    /// `2^(b-1) ≤ nanos < 2^b` (bucket 0 is the sub-nanosecond floor).
    pub const HIST_BUCKETS: usize = 64;

    pub struct Cell {
        calls: AtomicU64,
        nanos: AtomicU64,
        bytes: AtomicU64,
        hist: [AtomicU64; HIST_BUCKETS],
    }

    impl Cell {
        const fn new() -> Self {
            Cell {
                calls: AtomicU64::new(0),
                nanos: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                hist: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            }
        }
    }

    static STAGES: [Cell; Stage::COUNT] = [const { Cell::new() }; Stage::COUNT];
    static COUNTERS: [AtomicU64; Counter::COUNT] = [const { AtomicU64::new(0) }; Counter::COUNT];

    /// A running stage measurement; consume with `finish`/`stop`.
    #[must_use = "a Timer records nothing until finish() or stop() is called"]
    pub struct Timer {
        stage: Stage,
        start: Instant,
    }

    #[inline]
    pub fn timer(stage: Stage) -> Timer {
        Timer {
            stage,
            start: Instant::now(),
        }
    }

    impl Timer {
        /// Records the elapsed time plus `bytes` of payload processed.
        #[inline]
        pub fn finish(self, bytes: u64) {
            let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let cell = &STAGES[self.stage.index()];
            cell.calls.fetch_add(1, Relaxed);
            cell.nanos.fetch_add(nanos, Relaxed);
            cell.bytes.fetch_add(bytes, Relaxed);
            let bucket = (64 - nanos.leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize;
            cell.hist[bucket].fetch_add(1, Relaxed);
        }

        /// Records the elapsed time with no byte attribution.
        #[inline]
        pub fn stop(self) {
            self.finish(0);
        }

        /// Runs `f` without charging its time to this stage: an embedded
        /// stage with its own timer is then not counted twice.
        #[inline]
        pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
            let inner = Instant::now();
            let out = f();
            self.start += inner.elapsed();
            out
        }
    }

    /// A reusable monotonic stopwatch (for queue-wait style measurements
    /// where the start and end live in different scopes).
    #[derive(Clone, Copy)]
    pub struct Stopwatch {
        start: Instant,
    }

    impl Stopwatch {
        #[inline]
        pub fn start() -> Self {
            Stopwatch {
                start: Instant::now(),
            }
        }

        #[inline]
        pub fn elapsed_nanos(&self) -> u64 {
            u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }

    #[inline]
    pub fn incr(counter: Counter, n: u64) {
        COUNTERS[counter.index()].fetch_add(n, Relaxed);
    }

    pub fn snapshot() -> MetricsReport {
        let mut stages = Vec::new();
        for stage in Stage::ALL {
            let cell = &STAGES[stage.index()];
            let calls = cell.calls.load(Relaxed);
            if calls == 0 {
                continue;
            }
            let hist: Vec<(u32, u64)> = cell
                .hist
                .iter()
                .enumerate()
                .filter_map(|(b, c)| {
                    let c = c.load(Relaxed);
                    (c > 0).then_some((b as u32, c))
                })
                .collect();
            stages.push(StageStats {
                name: stage.name().to_string(),
                calls,
                nanos: cell.nanos.load(Relaxed),
                bytes: cell.bytes.load(Relaxed),
                hist,
            });
        }
        let counters = Counter::ALL
            .iter()
            .filter_map(|&c| {
                let value = COUNTERS[c.index()].load(Relaxed);
                (value > 0).then(|| CounterStat {
                    name: c.name().to_string(),
                    value,
                })
            })
            .collect();
        MetricsReport {
            enabled: true,
            stages,
            counters,
        }
    }

    pub fn reset() {
        for cell in &STAGES {
            cell.calls.store(0, Relaxed);
            cell.nanos.store(0, Relaxed);
            cell.bytes.store(0, Relaxed);
            for bucket in &cell.hist {
                bucket.store(0, Relaxed);
            }
        }
        for counter in &COUNTERS {
            counter.store(0, Relaxed);
        }
    }
}

#[cfg(not(feature = "metrics"))]
mod imp {
    use super::{Counter, Stage};
    use crate::report::MetricsReport;

    /// No-op timer (zero-sized; `metrics` feature disabled).
    #[must_use = "a Timer records nothing until finish() or stop() is called"]
    pub struct Timer;

    #[inline(always)]
    pub fn timer(_stage: Stage) -> Timer {
        Timer
    }

    impl Timer {
        /// No-op.
        #[inline(always)]
        pub fn finish(self, _bytes: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn stop(self) {}

        /// Runs `f`.
        #[inline(always)]
        pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
            f()
        }
    }

    /// No-op stopwatch (zero-sized; `metrics` feature disabled).
    #[derive(Clone, Copy)]
    pub struct Stopwatch;

    impl Stopwatch {
        #[inline(always)]
        pub fn start() -> Self {
            Stopwatch
        }

        #[inline(always)]
        pub fn elapsed_nanos(&self) -> u64 {
            0
        }
    }

    #[inline(always)]
    pub fn incr(_counter: Counter, _n: u64) {}

    pub fn snapshot() -> MetricsReport {
        MetricsReport {
            enabled: false,
            stages: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn reset() {}
}

pub use imp::{incr, reset, snapshot, timer, Stopwatch, Timer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_complete() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT, "duplicate stage name");
        let mut cnames: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(cnames.len(), Counter::COUNT);
        cnames.sort_unstable();
        cnames.dedup();
        assert_eq!(cnames.len(), Counter::COUNT, "duplicate counter name");
    }

    #[test]
    fn indexes_are_stable() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn timers_and_counters_accumulate() {
        reset();
        let t = timer(Stage::RzeEncode);
        std::hint::black_box(0u64);
        t.finish(1024);
        incr(Counter::PoolJobs, 3);
        let report = snapshot();
        assert!(report.enabled);
        let rze = report
            .stages
            .iter()
            .find(|s| s.name == "RZE.encode")
            .expect("stage recorded");
        assert_eq!(rze.calls, 1);
        assert_eq!(rze.bytes, 1024);
        assert_eq!(rze.hist.iter().map(|&(_, c)| c).sum::<u64>(), 1);
        let jobs = report
            .counters
            .iter()
            .find(|c| c.name == "pool.jobs")
            .expect("counter recorded");
        assert_eq!(jobs.value, 3);
        // Time spent in an excluded call is not charged to the stage.
        let mut t = timer(Stage::RareEncode);
        t.exclude(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        t.finish(8);
        let report = snapshot();
        let rare = report
            .stages
            .iter()
            .find(|s| s.name == "RARE.encode")
            .expect("stage recorded");
        assert!(rare.nanos < 25_000_000, "{} ns charged", rare.nanos);
        reset();
        assert!(snapshot().stages.is_empty());
    }

    #[cfg(not(feature = "metrics"))]
    #[test]
    fn noop_build_reports_disabled() {
        let t = timer(Stage::RzeEncode);
        t.finish(1024);
        incr(Counter::PoolJobs, 3);
        let report = snapshot();
        assert!(!report.enabled);
        assert!(report.stages.is_empty());
        assert!(report.counters.is_empty());
        assert_eq!(std::mem::size_of::<Timer>(), 0);
        assert_eq!(std::mem::size_of::<Stopwatch>(), 0);
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let w = Stopwatch::start();
        let a = w.elapsed_nanos();
        let b = w.elapsed_nanos();
        assert!(b >= a);
    }
}

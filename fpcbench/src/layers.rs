//! Per-layer attribution for traced runs.
//!
//! The benchmark cannot place spans inside the program, so it calls each
//! layer's public API on its own, single-threaded, and times the calls:
//! the fpc-core entry point, the fpc-container frame call beneath it, the
//! `ChunkCodec` call per 16 KiB chunk beneath that, and — by replaying each
//! chunk through the public fpc-transforms stage functions in pipeline
//! order — every transform stage. A layer's self time is its time minus
//! the time of the calls beneath it; what no layer claims is the residue.
//! The replay's output bytes are checked against the codec's, so the
//! stage times belong to exactly the work the codec does.

use crate::calib::Scaling;
use crate::data::Item;
use crate::report::{Audit, Metric};
use crate::serve::{Op, OpKind, RANGE_BYTES};
use crate::stats::median;
use crate::THREADS;
use fpc_cache::{CacheKey, ChunkCache};
use fpc_container::checksum::{xxh64, STREAM_SEED};
use fpc_container::{
    AdaptiveChunkCodec, ChunkCodec, Header, Region, ALGO_DP_RATIO, ALGO_DP_SPEED, ALGO_SP_RATIO,
    ALGO_SP_SPEED, DEFAULT_CHUNK_SIZE,
};
use fpc_core::{
    Algorithm, AutoCodec, Compressor, DpRatioChunkCodec, DpRatioLocalCodec, DpSpeedCodec,
    SpRatioCodec, SpSpeedCodec,
};
use fpc_entropy::varint;
use fpc_transforms::{bit_transpose, diffms, fcm, mplg, rare, raze, rze, words};
use std::sync::Arc;
use std::time::Instant;

/// The transform stages, in the order their metrics are listed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Diffms,
    Mplg,
    Bit,
    Rze,
    Raze,
    Rare,
    Fcm,
}

const STAGES: [Stage; 7] = [
    Stage::Diffms,
    Stage::Mplg,
    Stage::Bit,
    Stage::Rze,
    Stage::Raze,
    Stage::Rare,
    Stage::Fcm,
];

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Diffms => "diffms",
            Stage::Mplg => "mplg",
            Stage::Bit => "bit",
            Stage::Rze => "rze",
            Stage::Raze => "raze",
            Stage::Rare => "rare",
            Stage::Fcm => "fcm",
        }
    }
}

/// Per-stage seconds and bytes; a clock that is off runs the stages
/// without reading the time, which is how tracing overhead is measured.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    off: bool,
    secs: [f64; 7],
    bytes: [f64; 7],
}

impl Clock {
    /// A clock that only runs the stages.
    pub fn off() -> Clock {
        Clock {
            off: true,
            ..Clock::default()
        }
    }

    /// Runs `f` as `stage`, charging it `bytes` of uncompressed-side data.
    fn time<R>(&mut self, stage: Stage, bytes: usize, f: impl FnOnce() -> R) -> R {
        if self.off {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.secs[stage as usize] += start.elapsed().as_secs_f64();
        self.bytes[stage as usize] += bytes as f64;
        r
    }

    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    fn gbps(&self, stage: Stage) -> f64 {
        self.bytes[stage as usize] / 1e9 / self.secs[stage as usize]
    }
}

/// The chunk pipelines of the paper's algorithms (plus AUTO's
/// chunk-local DPratio), replayed stage by stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipe {
    SpSpeed,
    SpRatio,
    DpSpeed,
    /// DPratio's chunked stages; its FCM stage runs over the whole input.
    DpRatioChunk,
    DpRatioLocal,
}

impl Pipe {
    fn for_algorithm(algo: Algorithm) -> Option<Pipe> {
        match algo {
            Algorithm::SpSpeed => Some(Pipe::SpSpeed),
            Algorithm::SpRatio => Some(Pipe::SpRatio),
            Algorithm::DpSpeed => Some(Pipe::DpSpeed),
            Algorithm::DpRatio => Some(Pipe::DpRatioChunk),
            Algorithm::Auto => None,
        }
    }

    fn for_auto_id(id: u8) -> Option<Pipe> {
        match id {
            ALGO_SP_SPEED => Some(Pipe::SpSpeed),
            ALGO_SP_RATIO => Some(Pipe::SpRatio),
            ALGO_DP_SPEED => Some(Pipe::DpSpeed),
            ALGO_DP_RATIO => Some(Pipe::DpRatioLocal),
            _ => None,
        }
    }

    /// The program's codec for this pipeline, configured as the
    /// `Compressor` defaults configure it.
    fn codec(self) -> Box<dyn ChunkCodec> {
        match self {
            Pipe::SpSpeed => Box::new(SpSpeedCodec { fallback: true }),
            Pipe::SpRatio => Box::new(SpRatioCodec),
            Pipe::DpSpeed => Box::new(DpSpeedCodec { fallback: true }),
            Pipe::DpRatioChunk => Box::new(DpRatioChunkCodec { fixed_split: None }),
            Pipe::DpRatioLocal => Box::new(DpRatioLocalCodec::default()),
        }
    }
}

/// Encodes one chunk through the public stage functions, mirroring the
/// pipeline's `ChunkCodec::encode_chunk`.
pub fn encode(pipe: Pipe, chunk: &[u8], out: &mut Vec<u8>, clk: &mut Clock) {
    match pipe {
        Pipe::SpSpeed => {
            let (mut w, tail) = words::bytes_to_u32(chunk);
            let n = w.len() * 4;
            clk.time(Stage::Diffms, n, || diffms::encode32(&mut w));
            clk.time(Stage::Mplg, n, || mplg::encode32_with(&w, out, true));
            out.extend_from_slice(tail);
        }
        Pipe::DpSpeed => {
            let (mut w, tail) = words::bytes_to_u64(chunk);
            let n = w.len() * 8;
            clk.time(Stage::Diffms, n, || diffms::encode64(&mut w));
            clk.time(Stage::Mplg, n, || mplg::encode64_with(&w, out, true));
            out.extend_from_slice(tail);
        }
        Pipe::SpRatio => {
            let (mut w, tail) = words::bytes_to_u32(chunk);
            let n = w.len() * 4;
            clk.time(Stage::Diffms, n, || diffms::encode32(&mut w));
            clk.time(Stage::Bit, n, || bit_transpose::transpose32(&mut w));
            let mut transposed = Vec::with_capacity(n);
            words::u32_to_bytes(&w, &mut transposed);
            clk.time(Stage::Rze, n, || rze::encode(&transposed, out));
            out.extend_from_slice(tail);
        }
        Pipe::DpRatioChunk => {
            let (mut w, ctail) = words::bytes_to_u64(chunk);
            let n = w.len() * 8;
            clk.time(Stage::Diffms, n, || diffms::encode64(&mut w));
            let mut razed = Vec::with_capacity(chunk.len());
            clk.time(Stage::Raze, n, || raze::encode(&w, &mut razed));
            let (w2, t2) = words::bytes_to_u64(&razed);
            varint::write_usize(out, razed.len());
            clk.time(Stage::Rare, w2.len() * 8, || rare::encode(&w2, out));
            out.extend_from_slice(t2);
            out.extend_from_slice(ctail);
        }
        Pipe::DpRatioLocal => {
            let (w, tail) = words::bytes_to_u64(chunk);
            let enc = clk.time(Stage::Fcm, w.len() * 8, || {
                fcm::encode_with_window(&w, fcm::MATCH_WINDOW)
            });
            let mut part = Vec::with_capacity(w.len() * 8);
            words::u64_to_bytes(&enc.values, &mut part);
            let mut enc_values = Vec::new();
            encode(Pipe::DpRatioChunk, &part, &mut enc_values, clk);
            part.clear();
            words::u64_to_bytes(&enc.distances, &mut part);
            let mut enc_distances = Vec::new();
            encode(Pipe::DpRatioChunk, &part, &mut enc_distances, clk);
            out.extend_from_slice(&(enc_values.len() as u32).to_le_bytes());
            out.extend_from_slice(&enc_values);
            out.extend_from_slice(&enc_distances);
            out.extend_from_slice(tail);
        }
    }
}

/// Decodes one chunk through the public stage functions, mirroring the
/// pipeline's `ChunkCodec::decode_chunk`.
pub fn decode(
    pipe: Pipe,
    data: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
    clk: &mut Clock,
) -> Result<(), String> {
    let err = |e: fpc_transforms::DecodeError| format!("{pipe:?}: {e:?}");
    let short = || format!("{pipe:?}: chunk shorter than its tail");
    match pipe {
        Pipe::SpSpeed | Pipe::DpSpeed => {
            let width = if pipe == Pipe::SpSpeed { 4 } else { 8 };
            let (count, tail) = (expected_len / width, expected_len % width);
            let mut pos = 0;
            if width == 4 {
                let mut w = Vec::with_capacity(count);
                clk.time(Stage::Mplg, count * 4, || {
                    mplg::decode32(data, &mut pos, count, &mut w)
                })
                .map_err(err)?;
                clk.time(Stage::Diffms, count * 4, || diffms::decode32(&mut w));
                words::u32_to_bytes(&w, out);
            } else {
                let mut w = Vec::with_capacity(count);
                clk.time(Stage::Mplg, count * 8, || {
                    mplg::decode64(data, &mut pos, count, &mut w)
                })
                .map_err(err)?;
                clk.time(Stage::Diffms, count * 8, || diffms::decode64(&mut w));
                words::u64_to_bytes(&w, out);
            }
            out.extend_from_slice(data.get(pos..pos + tail).ok_or_else(short)?);
        }
        Pipe::SpRatio => {
            let (count, tail) = (expected_len / 4, expected_len % 4);
            let mut pos = 0;
            let mut transposed = Vec::with_capacity(count * 4);
            clk.time(Stage::Rze, count * 4, || {
                rze::decode(data, &mut pos, count * 4, &mut transposed)
            })
            .map_err(err)?;
            let (mut w, _) = words::bytes_to_u32(&transposed);
            clk.time(Stage::Bit, count * 4, || bit_transpose::transpose32(&mut w));
            clk.time(Stage::Diffms, count * 4, || diffms::decode32(&mut w));
            words::u32_to_bytes(&w, out);
            out.extend_from_slice(data.get(pos..pos + tail).ok_or_else(short)?);
        }
        Pipe::DpRatioChunk => {
            let (count, ctail) = (expected_len / 8, expected_len % 8);
            let mut pos = 0;
            let razed_len = varint::read_usize(data, &mut pos).map_err(err)?;
            let (w2_count, t2) = (razed_len / 8, razed_len % 8);
            let mut w2 = Vec::with_capacity(w2_count);
            clk.time(Stage::Rare, w2_count * 8, || {
                rare::decode(data, &mut pos, w2_count, &mut w2)
            })
            .map_err(err)?;
            let mut razed = Vec::with_capacity(razed_len);
            words::u64_to_bytes(&w2, &mut razed);
            razed.extend_from_slice(data.get(pos..pos + t2).ok_or_else(short)?);
            pos += t2;
            let mut w = Vec::with_capacity(count);
            let mut rpos = 0;
            clk.time(Stage::Raze, count * 8, || {
                raze::decode(&razed, &mut rpos, count, &mut w)
            })
            .map_err(err)?;
            clk.time(Stage::Diffms, count * 8, || diffms::decode64(&mut w));
            words::u64_to_bytes(&w, out);
            out.extend_from_slice(data.get(pos..pos + ctail).ok_or_else(short)?);
        }
        Pipe::DpRatioLocal => {
            let (nwords, tail) = (expected_len / 8, expected_len % 8);
            if data.len() < 4 + tail {
                return Err(short());
            }
            let values_len = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
            let body = &data[4..data.len() - tail];
            let (enc_values, enc_distances) = body
                .split_at_checked(values_len)
                .ok_or_else(|| format!("{pipe:?}: value part out of range"))?;
            let mut part = Vec::with_capacity(nwords * 8);
            decode(Pipe::DpRatioChunk, enc_values, nwords * 8, &mut part, clk)?;
            let (values, _) = words::bytes_to_u64(&part);
            part.clear();
            decode(
                Pipe::DpRatioChunk,
                enc_distances,
                nwords * 8,
                &mut part,
                clk,
            )?;
            let (distances, _) = words::bytes_to_u64(&part);
            let decoded = clk
                .time(Stage::Fcm, nwords * 8, || {
                    fcm::decode_arrays(&values, &distances)
                })
                .map_err(err)?;
            words::u64_to_bytes(&decoded, out);
            out.extend_from_slice(&data[data.len() - tail..]);
        }
    }
    Ok(())
}

/// Stage throughput on a workload's bytes: the sampled chunks run through
/// every paper pipeline, single-threaded, encode then decode — SPspeed,
/// SPratio and DPspeed per chunk, DPratio as a global FCM over the whole
/// sample followed by its chunked stages. Throughput counts the bytes on
/// each stage's uncompressed side.
pub fn stage_probe(sample: &[&[u8]], mismatches: &mut u64) -> Vec<Metric> {
    fn roundtrip(pipe: Pipe, chunk: &[u8], enc: &mut Clock, dec: &mut Clock) -> bool {
        let mut packed = Vec::new();
        encode(pipe, chunk, &mut packed, enc);
        let mut back = Vec::with_capacity(chunk.len());
        decode(pipe, &packed, chunk.len(), &mut back, dec).is_ok() && back == chunk
    }
    let mut enc = Clock::default();
    let mut dec = Clock::default();
    for chunk in sample {
        for pipe in [Pipe::SpSpeed, Pipe::SpRatio, Pipe::DpSpeed] {
            *mismatches += u64::from(!roundtrip(pipe, chunk, &mut enc, &mut dec));
        }
    }
    let whole: Vec<u8> = sample.concat();
    let (w, _) = words::bytes_to_u64(&whole);
    let fcm_enc = enc.time(Stage::Fcm, w.len() * 8, || {
        fcm::encode_with_window(&w, fcm::MATCH_WINDOW)
    });
    let back = dec.time(Stage::Fcm, w.len() * 8, || {
        fcm::decode_arrays(&fcm_enc.values, &fcm_enc.distances)
    });
    *mismatches += u64::from(back.as_deref() != Ok(&w[..]));
    let mut payload = Vec::with_capacity(w.len() * 16);
    words::u64_to_bytes(&fcm_enc.values, &mut payload);
    words::u64_to_bytes(&fcm_enc.distances, &mut payload);
    for chunk in payload.chunks(DEFAULT_CHUNK_SIZE) {
        *mismatches += u64::from(!roundtrip(Pipe::DpRatioChunk, chunk, &mut enc, &mut dec));
    }

    let mut out = Vec::new();
    for stage in STAGES {
        let name = format!("transforms.{}", stage.name());
        if stage == Stage::Bit {
            // The transpose is its own inverse: one number for both ways.
            let mut both = enc.clone();
            both.secs[stage as usize] += dec.secs[stage as usize];
            both.bytes[stage as usize] += dec.bytes[stage as usize];
            out.push(gbps_metric(format!("{name}.gbps"), both.gbps(stage)));
            continue;
        }
        out.push(gbps_metric(format!("{name}.encode_gbps"), enc.gbps(stage)));
        out.push(gbps_metric(format!("{name}.decode_gbps"), dec.gbps(stage)));
    }
    out
}

fn gbps_metric(name: String, raw: f64) -> Metric {
    Metric::timed(name, raw, "GB/s", Scaling::Rate)
}

/// Seconds spent in each layer for one direction, summed over items.
#[derive(Debug, Default, Clone)]
pub struct Side {
    /// The fpc-core entry point at one thread.
    pub core: f64,
    /// The fpc-container frame call at one thread.
    pub container: f64,
    /// The same container call on the benchmark's thread count.
    pub container_mt: f64,
    /// `ChunkCodec`/`AdaptiveChunkCodec` calls the container makes.
    pub codec: f64,
    /// For AUTO: the chunk re-encoded with only the codec it picked;
    /// otherwise equal to `codec`.
    pub picked: f64,
    /// DPratio's whole-input FCM stage.
    pub fcm_global: f64,
    /// Chunk stages from the traced replay.
    pub stages: Clock,
    /// Wall time of the traced and the untraced replay loops.
    pub replay_traced: f64,
    pub replay_untraced: f64,
}

/// Shares of the fpc-core time, per layer; they sum to 1 by construction,
/// the residue taking whatever the layers below do not account for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    pub transforms: f64,
    pub codec: f64,
    pub auto_select: f64,
    pub container: f64,
    pub residue: f64,
}

/// Each item's layers are timed this many times and the fastest kept, field
/// by field, so a core taken away mid-measurement does not land in one
/// layer's share.
const REPS: usize = 3;

impl Side {
    /// Adds the fastest of `reps`, field by field, to these totals.
    fn add_fastest(&mut self, reps: &[Side]) {
        let fastest = |f: &dyn Fn(&Side) -> f64| reps.iter().map(f).fold(f64::INFINITY, f64::min);
        self.core += fastest(&|s| s.core);
        self.container += fastest(&|s| s.container);
        self.container_mt += fastest(&|s| s.container_mt);
        self.codec += fastest(&|s| s.codec);
        self.picked += fastest(&|s| s.picked);
        self.fcm_global += fastest(&|s| s.fcm_global);
        self.replay_traced += fastest(&|s| s.replay_traced);
        self.replay_untraced += fastest(&|s| s.replay_untraced);
        for i in 0..STAGES.len() {
            self.stages.secs[i] += fastest(&|s| s.stages.secs[i]);
            self.stages.bytes[i] += reps[0].stages.bytes[i];
        }
    }

    pub fn shares(&self) -> Shares {
        let core = self.core;
        let transforms = (self.stages.total() + self.fcm_global) / core;
        let codec = (self.picked - self.stages.total()) / core;
        let auto_select = (self.codec - self.picked) / core;
        let container = (self.container - self.codec) / core;
        Shares {
            transforms,
            codec,
            auto_select,
            container,
            residue: 1.0 - transforms - codec - auto_select - container,
        }
    }
}

/// Everything the attribution replay measures.
#[derive(Debug, Default)]
pub struct Attribution {
    pub compress: Side,
    pub decompress: Side,
    pub checksum_bytes: f64,
    pub checksum_s: f64,
    pub parse_s: Vec<f64>,
    pub dispatch_s: Vec<f64>,
    pub mismatches: u64,
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *acc += start.elapsed().as_secs_f64();
    r
}

/// The fpc-container call for `algo` at `threads` threads.
fn container_compress(header: Header, payload: &[u8], algo: Algorithm, threads: usize) -> Vec<u8> {
    let result = match Pipe::for_algorithm(algo) {
        Some(pipe) => fpc_container::compress(header, payload, pipe.codec().as_ref(), threads),
        None => fpc_container::compress_adaptive(header, payload, &AutoCodec::default(), threads),
    };
    result.expect("the header matches the payload")
}

fn container_decompress(
    stream: &[u8],
    algo: Algorithm,
    threads: usize,
) -> Result<Vec<u8>, fpc_container::Error> {
    Ok(match Pipe::for_algorithm(algo) {
        Some(pipe) => fpc_container::decompress(stream, pipe.codec().as_ref(), threads)?.1,
        None => fpc_container::decompress_adaptive(stream, &AutoCodec::default(), threads)?.1,
    })
}

/// DPratio's whole-input stage, as fpc-core runs it before the container.
fn fcm_payload(data: &[u8], fcm_s: &mut f64) -> Vec<u8> {
    let (w, tail) = words::bytes_to_u64(data);
    let enc = timed(fcm_s, || fcm::encode_with_window(&w, fcm::MATCH_WINDOW));
    let mut payload = Vec::with_capacity(w.len() * 16 + tail.len());
    words::u64_to_bytes(&enc.values, &mut payload);
    words::u64_to_bytes(&enc.distances, &mut payload);
    payload.extend_from_slice(tail);
    payload
}

/// Runs every layer of both directions over `items` (with their reference
/// streams), single-threaded except for the pool comparison.
pub fn attribute(items: &[(&Item, &[u8])], audit: &mut Audit) -> Attribution {
    let mut a = Attribution::default();
    for &(item, reference) in items {
        let reps: Vec<Side> = (0..REPS)
            .map(|_| compress_item(item, reference, &mut a.mismatches, audit))
            .collect();
        a.compress.add_fastest(&reps);
        let reps: Vec<Side> = (0..REPS)
            .map(|_| decompress_item(item, reference, &mut a, audit))
            .collect();
        a.decompress.add_fastest(&reps);
    }
    a
}

fn compress_item(item: &Item, reference: &[u8], mismatches: &mut u64, audit: &mut Audit) -> Side {
    let mut side = Side::default();
    let c = &mut side;
    let algo = item.algo;
    let stream = timed(&mut c.core, || {
        Compressor::new(algo)
            .with_threads(1)
            .compress_bytes(&item.data)
    });
    audit.record(stream == reference, || {
        format!("1-thread compress {}", item.name)
    });
    // Every timed call starts with its predecessor's output freed, so none
    // pays page faults for fresh memory that another did not.
    drop(stream);

    let mut header = Header::new(
        algo.id(),
        algo.element_width(),
        item.data.len() as u64,
        item.data.len() as u64,
    );
    let fcm_stage;
    let payload: &[u8] = if algo == Algorithm::DpRatio {
        fcm_stage = fcm_payload(&item.data, &mut c.fcm_global);
        header.payload_len = fcm_stage.len() as u64;
        &fcm_stage
    } else {
        &item.data
    };
    let framed = timed(&mut c.container, || {
        container_compress(header, payload, algo, 1)
    });
    audit.record(framed == reference, || {
        format!("container compress {}", item.name)
    });
    drop(framed);
    timed(&mut c.container_mt, || {
        container_compress(header, payload, algo, THREADS)
    });

    // The codec calls the container makes, one per chunk.
    let auto = AutoCodec::default();
    let chunks: Vec<&[u8]> = payload.chunks(DEFAULT_CHUNK_SIZE).collect();
    let mut pipes = Vec::with_capacity(chunks.len());
    let mut encoded = Vec::with_capacity(chunks.len());
    for chunk in &chunks {
        let mut out = Vec::new();
        let pipe = match Pipe::for_algorithm(algo) {
            Some(pipe) => {
                let codec = pipe.codec();
                let start = Instant::now();
                codec.encode_chunk(chunk, &mut out);
                let t = start.elapsed().as_secs_f64();
                c.codec += t;
                c.picked += t;
                pipe
            }
            None => {
                let id = timed(&mut c.codec, || auto.encode_chunk(chunk, &mut Vec::new()));
                let pipe = Pipe::for_auto_id(id).expect("AUTO picks one of its four codecs");
                let codec = pipe.codec();
                timed(&mut c.picked, || codec.encode_chunk(chunk, &mut out));
                pipe
            }
        };
        pipes.push(pipe);
        encoded.push(out);
    }

    let mut untraced = Clock::off();
    let start = Instant::now();
    for (chunk, &pipe) in chunks.iter().zip(&pipes) {
        encode(pipe, chunk, &mut Vec::new(), &mut untraced);
    }
    c.replay_untraced += start.elapsed().as_secs_f64();
    let start = Instant::now();
    for ((chunk, &pipe), want) in chunks.iter().zip(&pipes).zip(&encoded) {
        let mut out = Vec::new();
        encode(pipe, chunk, &mut out, &mut c.stages);
        if out != *want {
            *mismatches += 1;
        }
    }
    c.replay_traced += start.elapsed().as_secs_f64();
    side
}

fn decompress_item(item: &Item, stream: &[u8], a: &mut Attribution, audit: &mut Audit) -> Side {
    let mut side = Side::default();
    let d = &mut side;
    let algo = item.algo;
    let out = timed(&mut d.core, || fpc_core::decompress_bytes_with(stream, 1));
    audit.record(out.as_deref() == Ok(&item.data[..]), || {
        format!("1-thread decompress {}", item.name)
    });
    drop(out);
    let _ = timed(&mut d.container_mt, || {
        container_decompress(stream, algo, THREADS)
    });
    let payload = timed(&mut d.container, || container_decompress(stream, algo, 1));
    let Ok(payload) = payload else {
        audit.record(false, || format!("container decompress {}", item.name));
        return side;
    };
    if algo == Algorithm::DpRatio {
        let nwords = item.data.len() / 8;
        let (values, _) = words::bytes_to_u64(&payload[..nwords * 8]);
        let (distances, _) = words::bytes_to_u64(&payload[nwords * 8..nwords * 16]);
        let decoded = timed(&mut d.fcm_global, || {
            fcm::decode_arrays(&values, &distances)
        });
        let mut bytes = Vec::with_capacity(nwords * 8);
        if let Ok(w) = &decoded {
            words::u64_to_bytes(w, &mut bytes);
        }
        a.mismatches += u64::from(bytes != item.data[..nwords * 8]);
    }

    let start = Instant::now();
    let region = Region::parse(stream);
    a.parse_s.push(start.elapsed().as_secs_f64());
    let Ok(region) = region else {
        audit.record(false, || format!("parse {}", item.name));
        return side;
    };
    let auto = AutoCodec::default();
    let ids = region.chunk_codec_ids();
    let mut jobs = Vec::new();
    for i in 0..region.chunks() {
        let Ok(body) = region.chunk_body(i) else {
            audit.record(false, || format!("chunk {i} of {}", item.name));
            return side;
        };
        a.checksum_bytes += body.len() as f64;
        timed(&mut a.checksum_s, || {
            std::hint::black_box(xxh64(body, STREAM_SEED))
        });
        if region.chunk_raw(i) {
            continue;
        }
        let len = region.chunk_len(i);
        let expected = &payload[i * DEFAULT_CHUNK_SIZE..i * DEFAULT_CHUNK_SIZE + len];
        let mut out = Vec::with_capacity(len);
        let (pipe, ok) = match Pipe::for_algorithm(algo) {
            Some(pipe) => {
                let codec = pipe.codec();
                (
                    pipe,
                    timed(&mut d.codec, || codec.decode_chunk(body, len, &mut out)).is_ok(),
                )
            }
            None => {
                let id = ids.get(i).copied().unwrap_or(0);
                let Some(pipe) = Pipe::for_auto_id(id) else {
                    a.mismatches += 1;
                    continue;
                };
                (
                    pipe,
                    timed(&mut d.codec, || auto.decode_chunk(id, body, len, &mut out)).is_ok(),
                )
            }
        };
        if !ok || out != expected {
            a.mismatches += 1;
        }
        jobs.push((pipe, body, len, expected));
    }
    // Decoding dispatches on the recorded codec id: nothing is selected.
    d.picked = d.codec;

    let mut untraced = Clock::off();
    let start = Instant::now();
    for &(pipe, body, len, _) in &jobs {
        let _ = decode(pipe, body, len, &mut Vec::with_capacity(len), &mut untraced);
    }
    d.replay_untraced += start.elapsed().as_secs_f64();
    let start = Instant::now();
    for &(pipe, body, len, expected) in &jobs {
        let mut out = Vec::with_capacity(len);
        if decode(pipe, body, len, &mut out, &mut d.stages).is_err() || out != expected {
            a.mismatches += 1;
        }
    }
    d.replay_traced += start.elapsed().as_secs_f64();

    // Pool dispatch: an empty body over this stream's chunk count.
    let reps: Vec<f64> = (0..64)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(fpc_pool::run_indexed(region.chunks(), THREADS, |i| i));
            start.elapsed().as_secs_f64()
        })
        .collect();
    a.dispatch_s.push(median(&reps));
    side
}

impl Attribution {
    /// The fpc-core, fpc-container, fpc-transforms and fpc-pool metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let (c, d) = (self.compress.shares(), self.decompress.shares());
        let share = |name: &str, v: f64| Metric::plain(name, v, "frac");
        let traced = self.compress.replay_traced + self.decompress.replay_traced;
        let untraced = self.compress.replay_untraced + self.decompress.replay_untraced;
        vec![
            share("transforms.self_share.compress", c.transforms),
            share("transforms.self_share.decompress", d.transforms),
            share("core.codec.self_share.compress", c.codec),
            share("core.codec.self_share.decompress", d.codec),
            share("core.auto.select_share", c.auto_select),
            share("container.self_share.compress", c.container),
            share("container.self_share.decompress", d.container),
            share("core.residue_share.compress", c.residue),
            share("core.residue_share.decompress", d.residue),
            Metric::timed(
                "container.checksum_gbps",
                self.checksum_bytes / 1e9 / self.checksum_s,
                "GB/s",
                Scaling::Rate,
            ),
            Metric::timed(
                "container.parse_us",
                median(&self.parse_s) * 1e6,
                "us",
                Scaling::Time,
            )
            .with_note(format!("median of {} streams", self.parse_s.len())),
            Metric::plain(
                "pool.speedup.compress",
                self.compress.container / self.compress.container_mt,
                "x",
            )
            .with_note(format!("1 vs {THREADS} threads")),
            Metric::plain(
                "pool.speedup.decompress",
                self.decompress.container / self.decompress.container_mt,
                "x",
            )
            .with_note(format!("1 vs {THREADS} threads")),
            Metric::timed(
                "pool.dispatch_us",
                median(&self.dispatch_s) * 1e6,
                "us",
                Scaling::Time,
            ),
            Metric::plain("trace.overhead_frac", traced / untraced - 1.0, "frac")
                .with_note("traced vs untraced stage replay"),
        ]
    }
}

/// AUTO's per-codec chunk picks over the given streams, from
/// `fpc_core::info`.
pub fn auto_picks(streams: &[&[u8]]) -> Vec<Metric> {
    let mut picks = [0usize; 5];
    for s in streams {
        let Ok(info) = fpc_core::info(s) else {
            continue;
        };
        if info.algorithm != Algorithm::Auto {
            continue;
        }
        picks[4] += info.raw_chunks;
        for (id, n) in info.codec_picks {
            let slot = match id {
                ALGO_SP_SPEED => 0,
                ALGO_SP_RATIO => 1,
                ALGO_DP_SPEED => 2,
                ALGO_DP_RATIO => 3,
                _ => 4,
            };
            picks[slot] += n;
        }
    }
    ["spspeed", "spratio", "dpspeed", "dpratio", "raw"]
        .iter()
        .zip(picks)
        .map(|(name, n)| Metric::plain(format!("core.auto.picks.{name}"), n as f64, "count"))
        .collect()
}

/// One cache lookup the replay makes: the key, and the bytes a miss would
/// insert.
struct Lookup {
    key: CacheKey,
    value_len: usize,
}

/// The cache lookups one key's requests make, as the server makes them:
/// compress keys the encode path by input chunk (DPratio compresses
/// before any chunk cache), decompress and RANGE key the decode path by
/// stored chunk body (raw chunks bypass it; DPratio RANGE falls back to
/// an uncached full decode).
struct KeyLookups {
    encode: Vec<Lookup>,
    decode: Vec<Option<Lookup>>,
    dp_ratio: bool,
}

/// fpc-cache costs on a cache the benchmark owns, with `budget` bytes,
/// replaying the lookups the recorded requests made.
pub fn cache_probe(keys: &[&Item], refs: &[&[u8]], ops: &[Op], budget: u64) -> Vec<Metric> {
    let mut hashed = 0.0;
    let mut hash_s = 0.0;
    let mut table = Vec::with_capacity(keys.len());
    for (item, stream) in keys.iter().zip(refs) {
        let dp_ratio = item.algo == Algorithm::DpRatio;
        let region = Region::parse(stream).expect("reference streams parse");
        let bodies: Vec<&[u8]> = (0..region.chunks())
            .map(|i| region.chunk_body(i).expect("reference chunks verify"))
            .collect();
        let mut encode = Vec::new();
        if !dp_ratio {
            // Chunk i of the input encodes to body i; the cached value is
            // the body plus ten bytes of chunk-table metadata.
            for (chunk, body) in item.data.chunks(DEFAULT_CHUNK_SIZE).zip(&bodies) {
                hashed += chunk.len() as f64;
                let key = timed(&mut hash_s, || CacheKey::new(chunk, 1));
                encode.push(Lookup {
                    key,
                    value_len: 10 + body.len(),
                });
            }
        }
        let mut decode = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            if region.chunk_raw(i) {
                decode.push(None);
                continue;
            }
            let len = region.chunk_len(i);
            hashed += body.len() as f64;
            let key = timed(&mut hash_s, || CacheKey::new(body, 2 | (len as u64) << 32));
            decode.push(Some(Lookup {
                key,
                value_len: len,
            }));
        }
        table.push(KeyLookups {
            encode,
            decode,
            dp_ratio,
        });
    }

    let zeros = vec![0u8; 2 * DEFAULT_CHUNK_SIZE];
    let cache = ChunkCache::new(budget);
    let (mut gets, mut get_s, mut inserts, mut insert_s) = (0usize, 0.0, 0usize, 0.0);
    let mut lookup = |l: &Lookup| {
        gets += 1;
        if timed(&mut get_s, || cache.get(&l.key)).is_none() {
            let value: Arc<[u8]> = Arc::from(&zeros[..l.value_len.min(zeros.len())]);
            inserts += 1;
            timed(&mut insert_s, || cache.insert(l.key, value));
        }
    };
    for op in ops {
        let k = &table[op.key];
        match op.kind {
            OpKind::Compress => k.encode.iter().for_each(&mut lookup),
            OpKind::Decompress => k.decode.iter().flatten().for_each(&mut lookup),
            OpKind::Range if k.dp_ratio => {}
            OpKind::Range => {
                let first = op.offset / DEFAULT_CHUNK_SIZE;
                let last = (op.offset + RANGE_BYTES - 1) / DEFAULT_CHUNK_SIZE;
                k.decode[first..=last]
                    .iter()
                    .flatten()
                    .for_each(&mut lookup);
            }
        }
    }
    vec![
        Metric::timed(
            "cache.key_gbps",
            hashed / 1e9 / hash_s,
            "GB/s",
            Scaling::Rate,
        ),
        Metric::timed(
            "cache.get_us",
            get_s / gets.max(1) as f64 * 1e6,
            "us",
            Scaling::Time,
        )
        .with_note(format!("mean of {gets} lookups")),
        Metric::timed(
            "cache.insert_us",
            insert_s / inserts.max(1) as f64 * 1e6,
            "us",
            Scaling::Time,
        )
        .with_note(format!("mean of {inserts} inserts")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_chunk(n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| ((i as f64 * 0.01).sin() * 3.0).to_le_bytes())
            .collect()
    }

    #[test]
    fn replay_is_byte_identical_to_every_codec() {
        let chunk = smooth_chunk(2048);
        for pipe in [
            Pipe::SpSpeed,
            Pipe::SpRatio,
            Pipe::DpSpeed,
            Pipe::DpRatioChunk,
            Pipe::DpRatioLocal,
        ] {
            for len in [chunk.len(), 1001] {
                let chunk = &chunk[..len];
                let mut want = Vec::new();
                pipe.codec().encode_chunk(chunk, &mut want);
                let mut clk = Clock::default();
                let mut got = Vec::new();
                encode(pipe, chunk, &mut got, &mut clk);
                assert_eq!(got, want, "{pipe:?} encode");
                let mut back = Vec::new();
                decode(pipe, &got, len, &mut back, &mut clk).unwrap();
                assert_eq!(back, chunk, "{pipe:?} decode");
                assert!(clk.total() > 0.0);
            }
        }
    }

    #[test]
    fn self_times_and_residue_sum_to_the_parent_span() {
        // A synthetic span set: core 10 s holds FCM 1 s and a container
        // call of 7 s, which holds codec calls of 5 s (AUTO: 2 s of them
        // selection), which hold 2.5 s of stages.
        let mut stages = Clock::default();
        stages.secs[Stage::Diffms as usize] = 1.0;
        stages.secs[Stage::Rze as usize] = 1.5;
        let side = Side {
            core: 10.0,
            container: 7.0,
            codec: 5.0,
            picked: 3.0,
            fcm_global: 1.0,
            stages,
            ..Side::default()
        };
        let s = side.shares();
        assert!((s.transforms - 0.35).abs() < 1e-12);
        assert!((s.codec - 0.05).abs() < 1e-12);
        assert!((s.auto_select - 0.2).abs() < 1e-12);
        assert!((s.container - 0.2).abs() < 1e-12);
        assert!((s.residue - 0.2).abs() < 1e-12);
        let sum = s.transforms + s.codec + s.auto_select + s.container + s.residue;
        assert!((sum - 1.0).abs() < 1e-12);
    }
}

//! The four FPcompress lossless floating-point compression algorithms.
//!
//! This crate implements the primary contribution of *"Efficient Lossless
//! Compression of Scientific Floating-Point Data on CPUs and GPUs"*
//! (ASPLOS 2025): **SPspeed**, **SPratio**, **DPspeed**, and **DPratio** —
//! chunk-parallel lossless compressors for single- and double-precision
//! data built from the transformations in `fpc-transforms` on top of the
//! container format in `fpc-container`.
//!
//! * The two *speed* algorithms chain DIFFMS → MPLG.
//! * SPratio chains DIFFMS → BIT → RZE.
//! * DPratio chains FCM (global) → DIFFMS → RAZE → RARE.
//!
//! Values are processed bit-for-bit as integers, so every float — including
//! NaN payloads, signed zeros, infinities, and subnormals — is restored
//! exactly.
//!
//! # Example
//!
//! ```
//! use fpc_core::{Algorithm, Compressor};
//!
//! # fn main() -> Result<(), fpc_core::Error> {
//! let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).cos()).collect();
//! let compressor = Compressor::new(Algorithm::DpRatio);
//! let stream = compressor.compress_f64(&data);
//! let restored = compressor.decompress_f64(&stream)?;
//! assert!(data.iter().zip(&restored).all(|(a, b)| a.to_bits() == b.to_bits()));
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod auto;
mod error;
mod options;
pub mod pipeline;
pub mod streaming;

pub use analysis::{analyze_bytes, Anatomy};
pub use auto::{AutoCodec, DpRatioLocalCodec};
pub use error::Error;
pub use options::PipelineOptions;
pub use pipeline::{DpRatioChunkCodec, DpSpeedCodec, SpRatioCodec, SpSpeedCodec};
pub use streaming::{DecodedOutput, StreamingCompressor, StreamingDecompressor};

use std::borrow::Cow;

use fpc_container::{
    ChunkCodec, Codec, Header, Region, StreamChunk, ALGO_AUTO, ALGO_DP_RATIO, ALGO_DP_SPEED,
    ALGO_SP_RATIO, ALGO_SP_SPEED,
};
use fpc_transforms::{fcm, words};

/// Convenience alias for results returned by this crate.
pub type Result<T> = core::result::Result<T, Error>;

/// The four compression algorithms of the paper (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Single precision, throughput-oriented: DIFFMS → MPLG.
    SpSpeed,
    /// Single precision, ratio-oriented: DIFFMS → BIT → RZE.
    SpRatio,
    /// Double precision, throughput-oriented: DIFFMS → MPLG (64-bit).
    DpSpeed,
    /// Double precision, ratio-oriented: FCM → DIFFMS → RAZE → RARE.
    DpRatio,
    /// Adaptive per-chunk selection among the four fixed pipelines, with
    /// the container's store-raw fallback for incompressible chunks. Not
    /// part of [`Algorithm::ALL`]: it is a meta-mode over the paper's four
    /// algorithms, not a fifth pipeline.
    Auto,
}

impl Algorithm {
    /// All four algorithms, in paper order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::SpSpeed,
        Algorithm::SpRatio,
        Algorithm::DpSpeed,
        Algorithm::DpRatio,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::SpSpeed => "SPspeed",
            Algorithm::SpRatio => "SPratio",
            Algorithm::DpSpeed => "DPspeed",
            Algorithm::DpRatio => "DPratio",
            Algorithm::Auto => "AUTO",
        }
    }

    /// Inverse of [`Algorithm::name`], ignoring ASCII case, so `spratio`,
    /// `SPratio` and `SPRATIO` all parse. `None` for any other string.
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL
            .into_iter()
            .chain([Algorithm::Auto])
            .find(|algo| algo.name().eq_ignore_ascii_case(name))
    }

    /// The stage names of the pipeline, in encode order (paper Figure 1).
    pub fn stages(self) -> &'static [&'static str] {
        match self {
            Algorithm::SpSpeed | Algorithm::DpSpeed => &["DIFFMS", "MPLG"],
            Algorithm::SpRatio => &["DIFFMS", "BIT", "RZE"],
            Algorithm::DpRatio => &["FCM", "DIFFMS", "RAZE", "RARE"],
            Algorithm::Auto => &["AUTO"],
        }
    }

    /// Element width in bytes (4 for the SP pair, 8 for the DP pair and
    /// for AUTO's byte-oriented default; [`Compressor::compress_f32`]
    /// stamps 4 when AUTO compresses single-precision values).
    pub fn element_width(self) -> u8 {
        match self {
            Algorithm::SpSpeed | Algorithm::SpRatio => 4,
            Algorithm::DpSpeed | Algorithm::DpRatio | Algorithm::Auto => 8,
        }
    }

    /// Whether this is one of the single-precision algorithms.
    pub fn is_single_precision(self) -> bool {
        self.element_width() == 4
    }

    /// The element width a typed compress of `width`-byte values stamps
    /// into the header: `width`, once checked against the algorithm.
    ///
    /// # Panics
    ///
    /// Panics if a fixed algorithm targets the other precision; AUTO takes
    /// both.
    pub fn typed_width(self, width: u8) -> u8 {
        let (other, typed) = if width == 4 {
            ("double", "compress_f64")
        } else {
            ("single", "compress_f32")
        };
        assert!(
            self == Algorithm::Auto || self.element_width() == width,
            "{self} targets {other}-precision data; use {typed} or compress_bytes"
        );
        width
    }

    /// Container algorithm identifier.
    pub fn id(self) -> u8 {
        match self {
            Algorithm::SpSpeed => ALGO_SP_SPEED,
            Algorithm::SpRatio => ALGO_SP_RATIO,
            Algorithm::DpSpeed => ALGO_DP_SPEED,
            Algorithm::DpRatio => ALGO_DP_RATIO,
            Algorithm::Auto => ALGO_AUTO,
        }
    }

    /// Inverse of [`Algorithm::id`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownAlgorithm`] for unrecognized identifiers.
    pub fn from_id(id: u8) -> Result<Self> {
        match id {
            ALGO_SP_SPEED => Ok(Algorithm::SpSpeed),
            ALGO_SP_RATIO => Ok(Algorithm::SpRatio),
            ALGO_DP_SPEED => Ok(Algorithm::DpSpeed),
            ALGO_DP_RATIO => Ok(Algorithm::DpRatio),
            ALGO_AUTO => Ok(Algorithm::Auto),
            other => Err(Error::UnknownAlgorithm(other)),
        }
    }

    /// The algorithm's per-chunk codec: the one place an algorithm maps to
    /// its pipeline. Encoders pass their options; decoders pass
    /// [`PipelineOptions::default()`], since the stream is self-describing.
    /// DPratio's codec covers its chunked stages only; the global FCM stage
    /// runs around it.
    pub fn codec(self, options: &PipelineOptions) -> AlgorithmCodec {
        let fallback = options.mplg_fallback;
        match self {
            Algorithm::SpSpeed => AlgorithmCodec::Fixed(Box::new(SpSpeedCodec { fallback })),
            Algorithm::SpRatio => AlgorithmCodec::Fixed(Box::new(SpRatioCodec)),
            Algorithm::DpSpeed => AlgorithmCodec::Fixed(Box::new(DpSpeedCodec { fallback })),
            Algorithm::DpRatio => AlgorithmCodec::Fixed(Box::new(DpRatioChunkCodec {
                fixed_split: options.fixed_split,
            })),
            Algorithm::Auto => AlgorithmCodec::Adaptive(AutoCodec::new(options)),
        }
    }
}

/// An algorithm's per-chunk codec, owned; built by [`Algorithm::codec`]
/// and lent to the container as a [`Codec`] handle.
pub enum AlgorithmCodec {
    /// One pipeline for every chunk (the paper's four algorithms).
    Fixed(Box<dyn ChunkCodec + Send + Sync>),
    /// AUTO's per-chunk selection.
    Adaptive(AutoCodec),
}

impl AlgorithmCodec {
    /// The container's handle to this codec.
    pub fn as_codec(&self) -> Codec<'_> {
        match self {
            AlgorithmCodec::Fixed(c) => Codec::Fixed(c.as_ref()),
            AlgorithmCodec::Adaptive(c) => Codec::Adaptive(c),
        }
    }
}

impl core::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configurable compressor for one of the four algorithms.
///
/// The configuration only affects *encoding*; any FPcompress stream can be
/// decompressed by any `Compressor` (or the free [`decompress_bytes`])
/// because the stream is self-describing.
#[derive(Debug, Clone)]
pub struct Compressor {
    algorithm: Algorithm,
    threads: usize,
    chunk_size: usize,
    options: PipelineOptions,
}

impl Compressor {
    /// Creates a compressor using all available CPU parallelism and the
    /// paper's 16 KiB chunk size.
    pub fn new(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            threads: 0,
            chunk_size: fpc_container::DEFAULT_CHUNK_SIZE,
            options: PipelineOptions::default(),
        }
    }

    /// Limits worker threads (`0` = all available, `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the chunk size (used by the chunk-size ablation).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero or above
    /// [`fpc_container::MAX_CHUNK_SIZE`].
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(
            chunk_size > 0 && chunk_size <= fpc_container::MAX_CHUNK_SIZE,
            "chunk size out of range"
        );
        self.chunk_size = chunk_size;
        self
    }

    /// Overrides pipeline options (used by the ablation study).
    pub fn with_options(mut self, options: PipelineOptions) -> Self {
        self.options = options;
        self
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Compresses raw little-endian bytes.
    ///
    /// The byte length does not have to be a multiple of the element width;
    /// trailing bytes are stored verbatim.
    ///
    /// # Panics
    ///
    /// DPratio panics on inputs of more than [`fcm::MAX_WORDS`] words
    /// (32 GiB): its global FCM stage indexes words with 32 bits.
    pub fn compress_bytes(&self, data: &[u8]) -> Vec<u8> {
        self.compress_bytes_width(data, self.algorithm.element_width())
    }

    /// Compresses with an explicit element width stamped into the header.
    /// Only AUTO is width-agnostic; the fixed algorithms always pass their
    /// own width.
    ///
    /// Owned `data` is freed as soon as DPratio's FCM stage has built the
    /// payload (the buffered streaming compressor hands over its input).
    pub(crate) fn compress_bytes_width<'d>(
        &self,
        data: impl Into<Cow<'d, [u8]>>,
        element_width: u8,
    ) -> Vec<u8> {
        compress_stream(
            self.algorithm,
            element_width,
            self.chunk_size,
            data,
            &self.algorithm.codec(&self.options),
            self.threads,
            // The global FCM stage (paper §3.2), the only stage that sees
            // the whole input, runs on the same thread budget as the chunks.
            |data| fcm::encode_payload(data, self.options.fcm_window, self.threads),
        )
    }

    /// Compresses single-precision values.
    ///
    /// # Panics
    ///
    /// Panics if the configured algorithm targets double precision; use
    /// [`Compressor::compress_bytes`] to force a width-agnostic encoding.
    /// AUTO accepts both precisions.
    pub fn compress_f32(&self, data: &[f32]) -> Vec<u8> {
        let width = self.algorithm.typed_width(4);
        self.compress_bytes_width(words::f32_slice_to_bytes(data), width)
    }

    /// Compresses double-precision values.
    ///
    /// # Panics
    ///
    /// Panics if the configured algorithm targets single precision; use
    /// [`Compressor::compress_bytes`] to force a width-agnostic encoding.
    /// AUTO accepts both precisions.
    pub fn compress_f64(&self, data: &[f64]) -> Vec<u8> {
        let width = self.algorithm.typed_width(8);
        self.compress_bytes_width(words::f64_slice_to_bytes(data), width)
    }

    /// Decompresses any FPcompress stream to raw bytes.
    ///
    /// # Errors
    ///
    /// Fails on corrupt or truncated streams.
    pub fn decompress_bytes(&self, stream: &[u8]) -> Result<Vec<u8>> {
        decompress_bytes_with(stream, self.threads)
    }

    /// Decompresses a single-precision stream.
    ///
    /// # Errors
    ///
    /// Fails on corrupt streams or if the stream does not hold
    /// single-precision data.
    pub fn decompress_f32(&self, stream: &[u8]) -> Result<Vec<f32>> {
        decompress_f32_via(stream, |stream| decompress_bytes_with(stream, self.threads))
    }

    /// Decompresses a double-precision stream.
    ///
    /// # Errors
    ///
    /// Fails on corrupt streams or if the stream does not hold
    /// double-precision data.
    pub fn decompress_f64(&self, stream: &[u8]) -> Result<Vec<f64>> {
        decompress_f64_via(stream, |stream| decompress_bytes_with(stream, self.threads))
    }
}

/// Decompresses any FPcompress stream using all available parallelism.
///
/// # Errors
///
/// Fails on corrupt or truncated streams.
pub fn decompress_bytes(stream: &[u8]) -> Result<Vec<u8>> {
    decompress_bytes_with(stream, 0)
}

/// Decompresses any FPcompress stream with an explicit thread count.
///
/// # Errors
///
/// Fails on corrupt or truncated streams.
pub fn decompress_bytes_with(stream: &[u8], threads: usize) -> Result<Vec<u8>> {
    decompress_stream(
        stream,
        threads,
        |algorithm| algorithm.codec(&PipelineOptions::default()),
        fcm_decode,
    )
}

/// The stream plumbing every compressor shares: the header, DPratio's
/// global FCM stage through `fcm_encode`, then `codec` over the chunks.
/// [`Compressor`] and gpu-sim differ only in the codec and the FCM encoder
/// they pass, so their streams cannot drift apart.
///
/// `data` may be borrowed or owned; owned input is freed as soon as the
/// FCM stage has built DPratio's payload, before the chunks are encoded.
///
/// # Panics
///
/// If `chunk_size` is zero or above [`fpc_container::MAX_CHUNK_SIZE`].
pub fn compress_stream<'d>(
    algorithm: Algorithm,
    element_width: u8,
    chunk_size: usize,
    data: impl Into<Cow<'d, [u8]>>,
    codec: &AlgorithmCodec,
    threads: usize,
    fcm_encode: impl FnOnce(&[u8]) -> Vec<u8>,
) -> Vec<u8> {
    assert!(
        chunk_size > 0 && chunk_size <= fpc_container::MAX_CHUNK_SIZE,
        "chunk size out of range"
    );
    let data = data.into();
    let original_len = data.len() as u64;
    let payload = if algorithm == Algorithm::DpRatio {
        // FCM doubles the payload; the chunked stages then compress the
        // value and distance arrays.
        let fcm_payload = fcm_encode(&data);
        drop(data);
        Cow::Owned(fcm_payload)
    } else {
        data
    };
    let mut header = Header::new(
        algorithm.id(),
        element_width,
        original_len,
        payload.len() as u64,
    );
    header.chunk_size = chunk_size as u32;
    match codec {
        AlgorithmCodec::Fixed(c) => fpc_container::compress(header, &payload, c.as_ref(), threads),
        AlgorithmCodec::Adaptive(c) => {
            fpc_container::compress_adaptive(header, &payload, c, threads)
        }
    }
    .expect("header matches payload")
}

/// The decode plumbing every decompressor shares: the codec `codec_for`
/// picks for the stream's algorithm, then the one finisher per algorithm —
/// DPratio's FCM inverse through `fcm_decode` (given the payload and the
/// original length), and the length check for everything else.
///
/// # Errors
///
/// Fails on corrupt or truncated streams.
pub fn decompress_stream(
    stream: &[u8],
    threads: usize,
    codec_for: impl FnOnce(Algorithm) -> AlgorithmCodec,
    fcm_decode: impl FnOnce(&[u8], usize) -> fpc_transforms::Result<Vec<u8>>,
) -> Result<Vec<u8>> {
    let header = fpc_container::read_header(stream)?;
    let algorithm = Algorithm::from_id(header.algorithm)?;
    let (_, payload) = match codec_for(algorithm) {
        AlgorithmCodec::Fixed(c) => fpc_container::decompress(stream, c.as_ref(), threads)?,
        AlgorithmCodec::Adaptive(c) => fpc_container::decompress_adaptive(stream, &c, threads)?,
    };
    if algorithm == Algorithm::DpRatio {
        finish_fcm(header, &payload, fcm_decode)
    } else if payload.len() as u64 != header.original_len {
        Err(Error::Container(fpc_container::Error::Corrupt(
            "payload length disagrees with header",
        )))
    } else {
        Ok(payload)
    }
}

/// Decompresses a single-precision stream.
///
/// # Errors
///
/// Fails on corrupt streams or element-width mismatch.
pub fn decompress_f32(stream: &[u8]) -> Result<Vec<f32>> {
    decompress_f32_via(stream, decompress_bytes)
}

/// Decompresses a double-precision stream.
///
/// # Errors
///
/// Fails on corrupt streams or element-width mismatch.
pub fn decompress_f64(stream: &[u8]) -> Result<Vec<f64>> {
    decompress_f64_via(stream, decompress_bytes)
}

/// Decompresses a single-precision stream with `decode`, after the
/// element-width check every typed decoder shares.
///
/// # Errors
///
/// Fails on element-width mismatch, a length that is not whole values, or
/// whatever `decode` fails on.
pub fn decompress_f32_via(
    stream: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<Vec<u8>>,
) -> Result<Vec<f32>> {
    decode_typed(stream, 4, decode, words::bytes_to_f32_vec)
}

/// Decompresses a double-precision stream with `decode`, after the
/// element-width check every typed decoder shares.
///
/// # Errors
///
/// As [`decompress_f32_via`].
pub fn decompress_f64_via(
    stream: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<Vec<u8>>,
) -> Result<Vec<f64>> {
    decode_typed(stream, 8, decode, words::bytes_to_f64_vec)
}

fn decode_typed<T>(
    stream: &[u8],
    width: u8,
    decode: impl FnOnce(&[u8]) -> Result<Vec<u8>>,
    convert: fn(&[u8]) -> Option<Vec<T>>,
) -> Result<Vec<T>> {
    let header = fpc_container::read_header(stream)?;
    if header.element_width != width {
        return Err(Error::ElementMismatch {
            expected: width,
            actual: header.element_width,
        });
    }
    let bytes = decode(stream)?;
    convert(&bytes).ok_or(Error::LengthIndivisible {
        len: bytes.len() as u64,
        width,
    })
}

/// The CPU inverse of DPratio's global FCM stage.
fn fcm_decode(payload: &[u8], original_len: usize) -> fpc_transforms::Result<Vec<u8>> {
    // The payload is never shorter than the data it encodes, which bounds the
    // output before it is allocated.
    if original_len > payload.len() {
        return Err(fpc_transforms::DecodeError::Corrupt(
            "fcm payload length mismatch",
        ));
    }
    let mut out = vec![0; original_len];
    fcm::decode_payload(payload, &mut out)?;
    Ok(out)
}

/// Inverts DPratio's global FCM stage over the decoded chunk payload with
/// `decode` — the one finisher the one-shot, streaming and gpu-sim
/// decoders share.
fn finish_fcm(
    header: Header,
    payload: &[u8],
    decode: impl FnOnce(&[u8], usize) -> fpc_transforms::Result<Vec<u8>>,
) -> Result<Vec<u8>> {
    let original_len = usize::try_from(header.original_len)
        .map_err(|_| Error::Container(fpc_container::Error::Corrupt("length overflow")))?;
    decode(payload, original_len).map_err(|e| Error::Container(pipeline::map_decode(e)))
}

/// Decompresses only the bytes in `[offset, offset + len)` of the original
/// data, touching just the chunks that cover the range — the random-access
/// corollary of the paper's independent-chunk design (§3).
///
/// Uses all available parallelism; see [`decompress_range_with`] for an
/// explicit thread count and the range-semantics details.
///
/// # Errors
///
/// As [`decompress_range_with`].
pub fn decompress_range(stream: &[u8], offset: u64, len: u64) -> Result<Vec<u8>> {
    decompress_range_with(stream, offset, len, 0)
}

/// Decompresses only the bytes in `[offset, offset + len)` of the original
/// data with an explicit thread count.
///
/// The range has an inclusive start and exclusive end, in original-data
/// byte coordinates. For SPspeed, SPratio, and DPspeed the stream's frame
/// is parsed once ([`fpc_container::Region`]) and only the chunks
/// overlapping the range are decoded, so the cost scales with the range,
/// not the file. DPratio's global FCM stage makes chunks interdependent;
/// its streams fall back to a full decode and slice, returning the same
/// bytes at whole-file cost (the `container.range.*` selectivity counters
/// only move on the chunk-subset path).
///
/// # Errors
///
/// Fails on corrupt streams or if the range exceeds the original data
/// ([`Error::RangeOutOfBounds`]).
pub fn decompress_range_with(
    stream: &[u8],
    offset: u64,
    len: u64,
    threads: usize,
) -> Result<Vec<u8>> {
    decompress_range_impl(stream, offset, len, threads, None)
}

/// [`decompress_range_with`] backed by a content-addressed hot-chunk
/// cache: each touched chunk is looked up by its (checksum-verified)
/// stored bytes before decoding, and decoded results are inserted for the
/// next request. Keys are identical to the ones
/// [`StreamingDecompressor::with_cache`] uses, so a range request hits
/// entries a streamed decompress of the same stream warmed, and vice
/// versa. Returned bytes and errors are always identical to the uncached
/// path.
///
/// Raw-stored chunks bypass the cache (their stored bytes are the decoded
/// bytes), and DPratio streams fall back to the uncached full-decode path
/// (the global FCM stage leaves nothing per-chunk to cache).
///
/// # Errors
///
/// As [`decompress_range_with`].
pub fn decompress_range_cached_with(
    stream: &[u8],
    offset: u64,
    len: u64,
    threads: usize,
    cache: &std::sync::Arc<fpc_cache::ChunkCache>,
) -> Result<Vec<u8>> {
    decompress_range_impl(stream, offset, len, threads, Some(cache))
}

/// The one range path behind [`decompress_range_with`] and
/// [`decompress_range_cached_with`]: bounds check in original-data
/// coordinates, DPratio's full-decode fallback, the frame-mode check, then
/// [`Region::decode_range`] over a per-chunk decode that consults `cache`
/// first when there is one.
fn decompress_range_impl(
    stream: &[u8],
    offset: u64,
    len: u64,
    threads: usize,
    cache: Option<&fpc_cache::ChunkCache>,
) -> Result<Vec<u8>> {
    let header = fpc_container::read_header(stream)?;
    let algorithm = Algorithm::from_id(header.algorithm)?;
    let out_of_bounds = Error::RangeOutOfBounds {
        offset,
        len,
        available: header.original_len,
    };
    let end = offset.checked_add(len).ok_or(out_of_bounds.clone())?;
    if end > header.original_len {
        return Err(out_of_bounds);
    }
    if len == 0 {
        return Ok(Vec::new());
    }
    if algorithm == Algorithm::DpRatio {
        // The global FCM stage makes chunks interdependent: decode it all,
        // then slice. There is no per-chunk result worth caching.
        let full = decompress_bytes_with(stream, threads)?;
        return Ok(full[offset as usize..end as usize].to_vec());
    }
    // AUTO chunks are independent (chunk-local FCM), so AUTO ranges take
    // the chunk-subset path too, even with DPratio chunks mixed in.
    let codec = algorithm.codec(&PipelineOptions::default());
    let codec = codec.as_codec();
    let region = Region::parse(stream)?;
    // The frame-mode check runs before any cache lookup: a cached chunk
    // must never stand in for a chunk this stream cannot decode.
    codec.check(region.header())?;
    // The region verifies each touched chunk once; the key is built from
    // the verified view and equals the streaming decoder's.
    let decode = |chunk: &StreamChunk<'_>, out: &mut [u8]| {
        streaming::decode_chunk(algorithm, codec, cache, chunk, out)
    };
    Ok(region.decode_range(offset, len, threads, decode)?)
}

/// Summary of a compressed stream (for tooling and reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInfo {
    /// The algorithm that produced the stream.
    pub algorithm: Algorithm,
    /// Original data length in bytes.
    pub original_len: u64,
    /// Complete stream length in bytes.
    pub compressed_len: u64,
    /// Number of chunks.
    pub chunks: usize,
    /// Chunks stored raw (incompressible).
    pub raw_chunks: usize,
    /// Per-codec pick counts `(codec id, chunks)` for AUTO streams, sorted
    /// by id; empty for fixed-algorithm streams. Raw chunks are counted in
    /// [`StreamInfo::raw_chunks`], not here.
    pub codec_picks: Vec<(u8, usize)>,
}

impl StreamInfo {
    /// Compression ratio (original / compressed).
    pub fn ratio(&self) -> f64 {
        if self.compressed_len == 0 {
            return 0.0;
        }
        self.original_len as f64 / self.compressed_len as f64
    }
}

/// Inspects a compressed stream without decompressing it.
///
/// # Errors
///
/// Fails on malformed headers or chunk tables.
pub fn info(stream: &[u8]) -> Result<StreamInfo> {
    let header = fpc_container::read_header(stream)?;
    let algorithm = Algorithm::from_id(header.algorithm)?;
    let stats = fpc_container::stats(stream)?;
    Ok(StreamInfo {
        algorithm,
        original_len: header.original_len,
        compressed_len: stream.len() as u64,
        chunks: stats.chunks,
        raw_chunks: stats.raw_chunks,
        codec_picks: stats.codec_picks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_f32(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.001).sin() * 10.0 + 20.0)
            .collect()
    }

    fn smooth_f64(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.0001).cos() * 3.0 - 1.0)
            .collect()
    }

    #[test]
    fn from_name_roundtrips_every_variant_in_any_case() {
        for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            let name = algo.name();
            for spelling in [
                name.to_string(),
                name.to_ascii_lowercase(),
                name.to_ascii_uppercase(),
            ] {
                assert_eq!(Algorithm::from_name(&spelling), Some(algo), "{spelling}");
            }
        }
        for bad in ["", "sp-speed", "spspeed ", "fpc", "raw"] {
            assert_eq!(Algorithm::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn sp_algorithms_roundtrip_f32() {
        let data = smooth_f32(20_000);
        for algo in [Algorithm::SpSpeed, Algorithm::SpRatio] {
            let c = Compressor::new(algo);
            let stream = c.compress_f32(&data);
            let back = c.decompress_f32(&stream).unwrap();
            assert_eq!(back.len(), data.len());
            assert!(
                data.iter()
                    .zip(&back)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{algo}"
            );
            assert!(stream.len() < data.len() * 4, "{algo} did not compress");
        }
    }

    #[test]
    fn dp_algorithms_roundtrip_f64() {
        let data = smooth_f64(10_000);
        for algo in [Algorithm::DpSpeed, Algorithm::DpRatio] {
            let c = Compressor::new(algo);
            let stream = c.compress_f64(&data);
            let back = c.decompress_f64(&stream).unwrap();
            assert!(
                data.iter()
                    .zip(&back)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{algo}"
            );
            assert!(stream.len() < data.len() * 8, "{algo} did not compress");
        }
    }

    #[test]
    fn empty_input_roundtrips() {
        for algo in Algorithm::ALL {
            let c = Compressor::new(algo);
            let stream = c.compress_bytes(&[]);
            assert_eq!(c.decompress_bytes(&stream).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn non_multiple_lengths_roundtrip() {
        for algo in Algorithm::ALL {
            let c = Compressor::new(algo).with_threads(1);
            for len in [1usize, 3, 7, 9, 4095, 4097, 16384, 16389] {
                let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
                let stream = c.compress_bytes(&data);
                assert_eq!(
                    c.decompress_bytes(&stream).unwrap(),
                    data,
                    "{algo} len {len}"
                );
            }
        }
    }

    #[test]
    fn special_float_values_roundtrip() {
        let data = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(0x7FC0_1234), // NaN with payload
            f32::from_bits(1),           // smallest subnormal
            f32::MAX,
            f32::MIN,
        ];
        for algo in [Algorithm::SpSpeed, Algorithm::SpRatio] {
            let c = Compressor::new(algo);
            let stream = c.compress_f32(&data);
            let back = c.decompress_f32(&stream).unwrap();
            let a: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "{algo}");
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let data = smooth_f64(50_000);
        for algo in [Algorithm::DpSpeed, Algorithm::DpRatio] {
            let serial = Compressor::new(algo).with_threads(1).compress_f64(&data);
            let parallel = Compressor::new(algo).with_threads(8).compress_f64(&data);
            assert_eq!(serial, parallel, "{algo}");
        }
    }

    #[test]
    fn cross_algorithm_decompress_is_self_describing() {
        let data = smooth_f32(5_000);
        let stream = Compressor::new(Algorithm::SpRatio).compress_f32(&data);
        // The free function needs no algorithm knowledge.
        let bytes = decompress_bytes(&stream).unwrap();
        assert_eq!(bytes.len(), data.len() * 4);
    }

    #[test]
    fn element_width_mismatch_rejected() {
        let stream = Compressor::new(Algorithm::SpSpeed).compress_f32(&smooth_f32(100));
        assert!(matches!(
            decompress_f64(&stream),
            Err(Error::ElementMismatch {
                expected: 8,
                actual: 4
            })
        ));
    }

    #[test]
    #[should_panic(expected = "targets double-precision")]
    fn wrong_typed_compress_panics() {
        let _ = Compressor::new(Algorithm::DpSpeed).compress_f32(&[1.0]);
    }

    #[test]
    fn corrupt_streams_rejected_not_panicking() {
        let data = smooth_f64(8_000);
        for algo in [Algorithm::DpSpeed, Algorithm::DpRatio] {
            let stream = Compressor::new(algo).compress_f64(&data);
            // Flip bytes throughout the stream; decoding must never panic.
            for i in (0..stream.len()).step_by(stream.len() / 40 + 1) {
                let mut bad = stream.clone();
                bad[i] ^= 0x5A;
                let _ = decompress_bytes(&bad); // Ok(garbage) or Err, never panic
            }
            // Truncations must error (never silently succeed with full data).
            for cut in [1usize, 10, stream.len() / 2] {
                assert!(
                    decompress_bytes(&stream[..stream.len() - cut]).is_err(),
                    "{algo}"
                );
            }
        }
    }

    #[test]
    fn info_reports_ratio() {
        let data = smooth_f32(40_000);
        let stream = Compressor::new(Algorithm::SpRatio).compress_f32(&data);
        let info = info(&stream).unwrap();
        assert_eq!(info.algorithm, Algorithm::SpRatio);
        assert_eq!(info.original_len, data.len() as u64 * 4);
        assert!(info.ratio() > 1.0);
        assert_eq!(info.chunks, (data.len() * 4).div_ceil(16 * 1024));
    }

    #[test]
    fn ratio_mode_beats_speed_mode_on_smooth_data() {
        // The paper's core tradeoff: ratio mode compresses more.
        let sp = smooth_f32(100_000);
        let speed = Compressor::new(Algorithm::SpSpeed).compress_f32(&sp).len();
        let ratio = Compressor::new(Algorithm::SpRatio).compress_f32(&sp).len();
        assert!(ratio < speed, "SPratio {ratio} should beat SPspeed {speed}");
    }

    #[test]
    fn incompressible_data_expansion_is_capped() {
        // Random bytes: every chunk should fall back to raw storage, so
        // expansion is limited to headers + chunk table.
        let data: Vec<u8> = (0..100_000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as u8)
            .collect();
        for algo in [Algorithm::SpSpeed, Algorithm::SpRatio, Algorithm::DpSpeed] {
            let stream = Compressor::new(algo).compress_bytes(&data);
            let overhead = stream.len() as i64 - data.len() as i64;
            assert!(overhead < 200, "{algo} expanded by {overhead}");
            assert_eq!(decompress_bytes(&stream).unwrap(), data);
        }
    }

    #[test]
    fn custom_chunk_size_roundtrips() {
        let data = smooth_f32(30_000);
        for chunk_size in [1024usize, 4096, 65536] {
            let c = Compressor::new(Algorithm::SpRatio).with_chunk_size(chunk_size);
            let stream = c.compress_f32(&data);
            let back = decompress_f32(&stream).unwrap();
            assert_eq!(back.len(), data.len());
        }
    }

    #[test]
    fn pipeline_options_roundtrip() {
        let data = smooth_f64(20_000);
        let opts = PipelineOptions {
            mplg_fallback: false,
            fcm_window: 2,
            fixed_split: Some(4),
        };
        for algo in [Algorithm::DpSpeed, Algorithm::DpRatio] {
            let c = Compressor::new(algo).with_options(opts.clone());
            let stream = c.compress_f64(&data);
            let back = c.decompress_f64(&stream).unwrap();
            assert!(
                data.iter()
                    .zip(&back)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{algo}"
            );
        }
    }

    #[test]
    fn algorithm_metadata_is_consistent() {
        for algo in Algorithm::ALL {
            assert_eq!(Algorithm::from_id(algo.id()).unwrap(), algo);
            assert!(!algo.stages().is_empty());
            assert!(algo.name().len() >= 7);
        }
        assert!(Algorithm::from_id(99).is_err());
        assert_eq!(Algorithm::SpRatio.stages(), &["DIFFMS", "BIT", "RZE"]);
        assert_eq!(
            Algorithm::DpRatio.stages(),
            &["FCM", "DIFFMS", "RAZE", "RARE"]
        );
    }

    #[test]
    fn range_decompression_matches_full() {
        // 400_000 original bytes for every algorithm (f32 and f64 views of
        // the same length in bytes) so the offsets below hit the same
        // chunk-relative positions across all four.
        for algo in Algorithm::ALL {
            let stream = if algo.is_single_precision() {
                Compressor::new(algo).compress_f32(&smooth_f32(100_000))
            } else {
                Compressor::new(algo).compress_f64(&smooth_f64(50_000))
            };
            let full = decompress_bytes(&stream).unwrap();
            assert_eq!(full.len(), 400_000);
            for (offset, len) in [
                (0u64, 10u64),
                (3, 5),
                (16 * 1024 - 2, 8),
                (100_000, 40_000),
                (399_999, 1),
                (0, 400_000),
            ] {
                let range = decompress_range(&stream, offset, len).unwrap();
                assert_eq!(
                    range,
                    &full[offset as usize..(offset + len) as usize],
                    "{algo} range {offset}+{len}"
                );
            }
            assert!(decompress_range(&stream, 0, 0).unwrap().is_empty());
            assert!(decompress_range(&stream, 400_000, 0).unwrap().is_empty());
        }
    }

    #[test]
    fn range_decompression_rejects_bad_requests() {
        let data = smooth_f64(5_000);
        for algo in [Algorithm::DpSpeed, Algorithm::DpRatio] {
            let stream = Compressor::new(algo).compress_f64(&data);
            assert!(matches!(
                decompress_range(&stream, 39_999, 2),
                Err(Error::RangeOutOfBounds { .. })
            ));
            assert!(matches!(
                decompress_range(&stream, u64::MAX, 2),
                Err(Error::RangeOutOfBounds { .. })
            ));
            assert!(matches!(
                decompress_range(&stream, 40_000, 1),
                Err(Error::RangeOutOfBounds { .. })
            ));
        }
    }

    /// A stream mixing smooth f32-friendly data, recurring f64 values, and
    /// incompressible noise — the workload AUTO exists for.
    fn mixed_bytes() -> Vec<u8> {
        let mut data = Vec::new();
        let f32s: Vec<f32> = (0..8192).map(|i| 1.5 + i as f32 * 1e-4).collect();
        data.extend_from_slice(&words::f32_slice_to_bytes(&f32s));
        let pattern: Vec<f64> = (0..128).map(|i| (i as f64).sqrt()).collect();
        let f64s: Vec<f64> = pattern.iter().cycle().take(4096).copied().collect();
        data.extend_from_slice(&words::f64_slice_to_bytes(&f64s));
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..4096 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            data.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        data
    }

    #[test]
    fn auto_roundtrips_and_mixes_codecs() {
        let data = mixed_bytes();
        let c = Compressor::new(Algorithm::Auto);
        let stream = c.compress_bytes(&data);
        assert_eq!(c.decompress_bytes(&stream).unwrap(), data);
        let info = info(&stream).unwrap();
        assert_eq!(info.algorithm, Algorithm::Auto);
        assert!(info.raw_chunks > 0, "noise chunks should store raw");
        assert!(
            info.codec_picks.len() >= 2,
            "expected mixed picks, got {:?}",
            info.codec_picks
        );
    }

    #[test]
    fn auto_matches_or_beats_best_fixed_on_mixed_data() {
        let data = mixed_bytes();
        let auto_len = Compressor::new(Algorithm::Auto).compress_bytes(&data).len();
        let best_fixed = Algorithm::ALL
            .iter()
            .map(|&a| Compressor::new(a).compress_bytes(&data).len())
            .min()
            .unwrap();
        // The dominance claim, with the 1% slack the CI gate enforces.
        assert!(
            auto_len as f64 <= best_fixed as f64 * 1.01,
            "AUTO {auto_len} vs best fixed {best_fixed}"
        );
    }

    #[test]
    fn auto_roundtrips_typed_values() {
        let c = Compressor::new(Algorithm::Auto);
        let f32s = smooth_f32(20_000);
        let stream = c.compress_f32(&f32s);
        let back = c.decompress_f32(&stream).unwrap();
        assert!(f32s
            .iter()
            .zip(&back)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // The header carries width 4, so f64 decode is rejected.
        assert!(matches!(
            decompress_f64(&stream),
            Err(Error::ElementMismatch { .. })
        ));
        let f64s = smooth_f64(10_000);
        let stream = c.compress_f64(&f64s);
        let back = c.decompress_f64(&stream).unwrap();
        assert!(f64s
            .iter()
            .zip(&back)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn auto_range_matches_full_decode() {
        let data = mixed_bytes();
        let stream = Compressor::new(Algorithm::Auto).compress_bytes(&data);
        let full = decompress_bytes(&stream).unwrap();
        let chunk = 16 * 1024u64;
        for (offset, len) in [
            (0u64, 16u64),
            (chunk - 3, 7),
            (chunk * 2 - 1, chunk + 2),
            (data.len() as u64 - 1, 1),
            (0, data.len() as u64),
        ] {
            assert_eq!(
                decompress_range(&stream, offset, len).unwrap(),
                &full[offset as usize..(offset + len) as usize],
                "range {offset}+{len}"
            );
        }
        assert!(matches!(
            decompress_range(&stream, data.len() as u64, 1),
            Err(Error::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn auto_is_deterministic_across_threads() {
        let data = mixed_bytes();
        let serial = Compressor::new(Algorithm::Auto)
            .with_threads(1)
            .compress_bytes(&data);
        let parallel = Compressor::new(Algorithm::Auto)
            .with_threads(8)
            .compress_bytes(&data);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn auto_empty_and_odd_inputs_roundtrip() {
        let c = Compressor::new(Algorithm::Auto).with_threads(1);
        for len in [0usize, 1, 3, 7, 9, 4095, 4097, 16384, 16389] {
            let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            let stream = c.compress_bytes(&data);
            assert_eq!(c.decompress_bytes(&stream).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn auto_metadata() {
        assert_eq!(
            Algorithm::from_id(Algorithm::Auto.id()).unwrap(),
            Algorithm::Auto
        );
        assert_eq!(Algorithm::Auto.name(), "AUTO");
        assert_eq!(Algorithm::Auto.element_width(), 8);
        assert!(!Algorithm::Auto.is_single_precision());
        assert!(!Algorithm::ALL.contains(&Algorithm::Auto));
    }

    #[test]
    fn repeated_values_favor_dpratio() {
        // FCM's raison d'être: values recurring far apart.
        let pattern: Vec<f64> = (0..256).map(|i| (i as f64).sqrt()).collect();
        let data: Vec<f64> = pattern.iter().cycle().take(64 * 1024).copied().collect();
        let ratio_stream = Compressor::new(Algorithm::DpRatio).compress_f64(&data);
        let speed_stream = Compressor::new(Algorithm::DpSpeed).compress_f64(&data);
        assert!(
            ratio_stream.len() < speed_stream.len(),
            "DPratio {} should beat DPspeed {} on recurring data",
            ratio_stream.len(),
            speed_stream.len()
        );
        assert_eq!(decompress_f64(&ratio_stream).unwrap().len(), data.len());
    }
}

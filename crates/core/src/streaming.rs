//! Incremental compression/decompression engines with an optional
//! content-addressed hot-chunk cache.
//!
//! These are the feed/finish counterparts of [`crate::Compressor`] and
//! [`crate::decompress_bytes_with`]: callers push bytes as they arrive (a
//! socket, a pipe) and the engine processes whole 16 KiB chunks as soon as
//! they complete, holding only O(chunk table + one chunk) instead of the
//! whole payload. The produced/accepted streams are **byte-identical** to
//! the whole-buffer entry points — both run the same per-chunk codecs
//! through the container's [`fpc_container::FrameAssembler`] /
//! [`fpc_container::StreamingDecoder`] machinery — and a [`ChunkCache`]
//! hit substitutes a previously computed result for the identical bytes,
//! so caching cannot change output either.
//!
//! Memory bounds (the contract servers rely on):
//!
//! - [`StreamingCompressor`]: holds at most one partial input chunk plus
//!   all *compressed* chunk bodies (the container layout places the chunk
//!   table before the bodies, so output can only be assembled at finish).
//!   Input-side memory is O(chunk); held output is the compressed size,
//!   typically a fraction of the input.
//! - [`StreamingDecompressor`]: holds the chunk table, at most one
//!   in-flight compressed chunk, plus decoded output the caller has not
//!   drained yet — O(chunk) end-to-end when the caller drains eagerly.
//! - **DPratio is the documented exception on both paths**: its global FCM
//!   stage needs the whole payload, so the engines fall back to buffering
//!   internally (`held_bytes` reports it honestly; servers budget
//!   accordingly).

use std::collections::VecDeque;
use std::sync::Arc;

use fpc_cache::{CacheKey, ChunkCache};
use fpc_container::checksum::xxh64;
use fpc_container::{
    decode_stream_chunk, decode_stream_chunk_adaptive, encode_chunk, encode_chunk_adaptive,
    AdaptiveChunkCodec, ChunkCodec, EncodedChunk, FrameAssembler, Header, StreamingDecoder,
    FLAG_CHUNK_CODECS,
};

use crate::{
    Algorithm, AutoCodec, Compressor, DpRatioChunkCodec, DpSpeedCodec, Error, PipelineOptions,
    Result, SpRatioCodec, SpSpeedCodec,
};

/// Cache-key context tags: the direction byte keeps compress-path entries
/// (value = encoded chunk) and decompress-path entries (value = decoded
/// bytes) in disjoint key spaces even for identical content bytes.
const CTX_ENCODE: u64 = 1;
const CTX_DECODE: u64 = 2;

/// Fingerprint of the encoder options that change emitted bytes, mixed
/// into compress-path cache keys so engines with different options never
/// share entries.
fn options_tag(options: &PipelineOptions) -> u64 {
    let mut canon = Vec::with_capacity(11);
    canon.push(options.mplg_fallback as u8);
    canon.extend_from_slice(&(options.fcm_window as u64).to_le_bytes());
    match options.fixed_split {
        None => canon.extend_from_slice(&[0, 0]),
        Some(s) => canon.extend_from_slice(&[1, s]),
    }
    xxh64(&canon, CTX_ENCODE)
}

fn encode_context(algo: Algorithm, opts_tag: u64) -> u64 {
    CTX_ENCODE | (u64::from(algo.id()) << 8) ^ (opts_tag << 16)
}

/// Decode-path cache-key context from a chunk's table metadata. Shared by
/// the streaming decompressor and the cached range decode
/// ([`crate::decompress_range_cached_with`]) so a chunk decoded through
/// either path hits entries the other inserted: `codec_id` is the chunk
/// table's id for adaptive streams and `0` for fixed-codec streams,
/// matching [`fpc_container::StreamChunk::codec_id`].
pub(crate) fn decode_chunk_context(
    algo: Algorithm,
    codec_id: u8,
    raw: bool,
    expected_len: usize,
) -> u64 {
    CTX_DECODE
        | (u64::from(algo.id()) << 8)
        | (u64::from(codec_id) << 16)
        | (u64::from(raw) << 24)
        | ((expected_len as u64) << 32)
}

fn decode_context(algo: Algorithm, chunk: &fpc_container::StreamChunk) -> u64 {
    decode_chunk_context(algo, chunk.codec_id, chunk.raw, chunk.expected_len)
}

/// Serialized cache value for the compress path:
/// `[codec_id][raw][checksum: u64 LE][body…]`.
fn encode_cache_value(c: &EncodedChunk) -> Arc<[u8]> {
    let mut v = Vec::with_capacity(10 + c.body.len());
    v.push(c.codec_id);
    v.push(c.raw as u8);
    v.extend_from_slice(&c.checksum.to_le_bytes());
    v.extend_from_slice(&c.body);
    Arc::from(v.into_boxed_slice())
}

fn decode_cache_value(v: &[u8]) -> Option<EncodedChunk> {
    let (meta, body) = v.split_at_checked(10)?;
    let checksum = u64::from_le_bytes(meta[2..10].try_into().ok()?);
    Some(EncodedChunk {
        codec_id: meta[0],
        raw: meta[1] != 0,
        checksum,
        body: body.to_vec(),
    })
}

enum EncCodec {
    Fixed(Box<dyn ChunkCodec + Send + Sync>),
    Adaptive(Box<dyn AdaptiveChunkCodec + Send + Sync>),
}

enum CompState {
    /// Chunk-local algorithms: encode each chunk the moment it completes.
    Chunked {
        codec: EncCodec,
        asm: FrameAssembler,
        pending: Vec<u8>,
    },
    /// DPratio's global FCM stage sees the whole input: buffer, then run
    /// the ordinary whole-buffer compressor at finish.
    Buffered(Vec<u8>),
}

/// Feed/finish compressor producing streams byte-identical to
/// [`Compressor::compress_bytes`] with the same algorithm, thread count,
/// and options.
pub struct StreamingCompressor {
    algo: Algorithm,
    threads: usize,
    options: PipelineOptions,
    chunk_size: usize,
    state: CompState,
    cache: Option<Arc<ChunkCache>>,
    ctx: u64,
    total_in: u64,
}

impl StreamingCompressor {
    /// Creates an engine for `algo` with default options (the
    /// configuration [`Compressor::new`] uses).
    pub fn new(algo: Algorithm, threads: usize) -> StreamingCompressor {
        Self::with_options(algo, threads, PipelineOptions::default())
    }

    /// Creates an engine with explicit encoder options.
    pub fn with_options(
        algo: Algorithm,
        threads: usize,
        options: PipelineOptions,
    ) -> StreamingCompressor {
        let state = match algo {
            Algorithm::DpRatio => CompState::Buffered(Vec::new()),
            Algorithm::Auto => CompState::Chunked {
                codec: EncCodec::Adaptive(Box::new(AutoCodec::new(&options))),
                asm: FrameAssembler::new(true, true),
                pending: Vec::new(),
            },
            Algorithm::SpSpeed => CompState::Chunked {
                codec: EncCodec::Fixed(Box::new(SpSpeedCodec {
                    fallback: options.mplg_fallback,
                })),
                asm: FrameAssembler::new(false, true),
                pending: Vec::new(),
            },
            Algorithm::SpRatio => CompState::Chunked {
                codec: EncCodec::Fixed(Box::new(SpRatioCodec)),
                asm: FrameAssembler::new(false, true),
                pending: Vec::new(),
            },
            Algorithm::DpSpeed => CompState::Chunked {
                codec: EncCodec::Fixed(Box::new(DpSpeedCodec {
                    fallback: options.mplg_fallback,
                })),
                asm: FrameAssembler::new(false, true),
                pending: Vec::new(),
            },
        };
        let ctx = encode_context(algo, options_tag(&options));
        StreamingCompressor {
            algo,
            threads,
            options,
            chunk_size: fpc_container::DEFAULT_CHUNK_SIZE,
            state,
            cache: None,
            ctx,
            total_in: 0,
        }
    }

    /// Attaches a content-addressed cache: chunks whose bytes were encoded
    /// before (by any engine sharing the cache and configuration) reuse
    /// the cached encoding instead of re-running the codec.
    pub fn with_cache(mut self, cache: Arc<ChunkCache>) -> StreamingCompressor {
        self.cache = Some(cache);
        self
    }

    /// Whether this algorithm truly streams (`false` only for DPratio,
    /// which buffers the whole input for its global FCM stage).
    pub fn is_streaming(&self) -> bool {
        matches!(self.state, CompState::Chunked { .. })
    }

    /// Bytes currently held by the engine: the partial input chunk plus
    /// compressed bodies awaiting assembly (or the whole buffered input
    /// for DPratio).
    pub fn held_bytes(&self) -> u64 {
        match &self.state {
            CompState::Chunked { asm, pending, .. } => asm.body_bytes() + pending.len() as u64,
            CompState::Buffered(buf) => buf.len() as u64,
        }
    }

    fn encode_one(
        codec: &EncCodec,
        cache: &Option<Arc<ChunkCache>>,
        ctx: u64,
        chunk: &[u8],
    ) -> EncodedChunk {
        if let Some(cache) = cache {
            let key = CacheKey::new(chunk, ctx);
            if let Some(hit) = cache.get(&key) {
                if let Some(decoded) = decode_cache_value(&hit) {
                    return decoded;
                }
            }
            let encoded = match codec {
                EncCodec::Fixed(c) => encode_chunk(chunk, c.as_ref(), true),
                EncCodec::Adaptive(c) => encode_chunk_adaptive(chunk, c.as_ref(), true),
            };
            cache.insert(key, encode_cache_value(&encoded));
            encoded
        } else {
            match codec {
                EncCodec::Fixed(c) => encode_chunk(chunk, c.as_ref(), true),
                EncCodec::Adaptive(c) => encode_chunk_adaptive(chunk, c.as_ref(), true),
            }
        }
    }

    /// Feeds the next bytes of the input, encoding every chunk that
    /// completes.
    ///
    /// # Errors
    ///
    /// Fails only on a chunk body overflowing the container's 31-bit size
    /// field (pathological inputs only).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<()> {
        self.total_in += bytes.len() as u64;
        match &mut self.state {
            CompState::Buffered(buf) => {
                buf.extend_from_slice(bytes);
                Ok(())
            }
            CompState::Chunked {
                codec,
                asm,
                pending,
            } => {
                let chunk_size = self.chunk_size;
                let mut rest = bytes;
                // Fill the partial chunk first; thereafter encode straight
                // from the input slice, copying only the final remainder.
                if !pending.is_empty() {
                    let need = chunk_size - pending.len();
                    let take = need.min(rest.len());
                    pending.extend_from_slice(&rest[..take]);
                    rest = &rest[take..];
                    if pending.len() == chunk_size {
                        let encoded = Self::encode_one(codec, &self.cache, self.ctx, pending);
                        asm.push(encoded).map_err(Error::Container)?;
                        pending.clear();
                    }
                }
                while rest.len() >= chunk_size {
                    let (chunk, tail) = rest.split_at(chunk_size);
                    rest = tail;
                    let encoded = Self::encode_one(codec, &self.cache, self.ctx, chunk);
                    asm.push(encoded).map_err(Error::Container)?;
                }
                pending.extend_from_slice(rest);
                Ok(())
            }
        }
    }

    /// Completes the stream, returning the full container — byte-identical
    /// to `Compressor::compress_bytes` over the concatenated input.
    ///
    /// # Errors
    ///
    /// As [`StreamingCompressor::feed`].
    pub fn finish(self) -> Result<Vec<u8>> {
        match self.state {
            CompState::Buffered(buf) => {
                let mut c = Compressor::new(self.algo).with_threads(self.threads);
                c = c.with_options(self.options);
                Ok(c.compress_bytes(&buf))
            }
            CompState::Chunked {
                codec,
                mut asm,
                pending,
            } => {
                if !pending.is_empty() {
                    let encoded = Self::encode_one(&codec, &self.cache, self.ctx, &pending);
                    asm.push(encoded).map_err(Error::Container)?;
                }
                let mut header = Header::new(
                    self.algo.id(),
                    self.algo.element_width(),
                    self.total_in,
                    self.total_in,
                );
                header.chunk_size = self.chunk_size as u32;
                if matches!(codec, EncCodec::Adaptive(_)) {
                    header.flags |= FLAG_CHUNK_CODECS;
                }
                asm.finish(header).map_err(Error::Container)
            }
        }
    }
}

enum DecCodec {
    Fixed(Box<dyn ChunkCodec + Send + Sync>),
    Adaptive(Box<dyn AdaptiveChunkCodec + Send + Sync>),
}

enum DecState {
    /// Header not yet parsed.
    Probe,
    /// Chunk-local algorithms: decoded chunks are final output.
    Plain(DecCodec),
    /// DPratio: decoded chunks accumulate into the FCM-transformed
    /// payload; the inverse FCM runs at finish.
    DpRatio {
        codec: DpRatioChunkCodec,
        payload: Vec<u8>,
    },
}

/// Feed/finish decompressor accepting exactly the streams
/// [`crate::decompress_bytes_with`] accepts, producing identical bytes.
///
/// Drive it with [`feed`](StreamingDecompressor::feed), drain decoded
/// output with [`take_output`](StreamingDecompressor::take_output) after
/// every feed, and call [`finish`](StreamingDecompressor::finish) at end
/// of stream (then drain once more: DPratio emits everything there).
pub struct StreamingDecompressor {
    dec: StreamingDecoder,
    state: DecState,
    algo: Option<Algorithm>,
    cache: Option<Arc<ChunkCache>>,
    ready: VecDeque<Vec<u8>>,
    ready_bytes: u64,
    produced: u64,
}

impl Default for StreamingDecompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingDecompressor {
    /// Creates an empty engine; the algorithm is read from the stream
    /// header once enough bytes arrive.
    pub fn new() -> StreamingDecompressor {
        StreamingDecompressor {
            dec: StreamingDecoder::new(),
            state: DecState::Probe,
            algo: None,
            cache: None,
            ready: VecDeque::new(),
            ready_bytes: 0,
            produced: 0,
        }
    }

    /// Attaches a content-addressed cache of decoded chunks.
    pub fn with_cache(mut self, cache: Arc<ChunkCache>) -> StreamingDecompressor {
        self.cache = Some(cache);
        self
    }

    /// The stream's algorithm, once the header has been parsed.
    pub fn algorithm(&self) -> Option<Algorithm> {
        self.algo
    }

    /// Bytes currently held: undrained decoded output, buffered
    /// not-yet-complete input, and (DPratio only) the accumulated
    /// transformed payload.
    pub fn held_bytes(&self) -> u64 {
        let state = match &self.state {
            DecState::DpRatio { payload, .. } => payload.len() as u64,
            _ => 0,
        };
        self.dec.buffered_bytes() as u64 + self.ready_bytes + state
    }

    /// Whether the stream's algorithm decodes incrementally (`false` for
    /// DPratio, whose output is only available at finish).
    pub fn is_streaming(&self) -> bool {
        !matches!(self.state, DecState::DpRatio { .. })
    }

    fn on_header(&mut self, header: &Header) -> Result<()> {
        let algo = Algorithm::from_id(header.algorithm)?;
        let flagged = header.flags & FLAG_CHUNK_CODECS != 0;
        // Mirror the container's frame/decoder mode check: a fixed-codec
        // stream offers no codec ids for an adaptive decoder and vice
        // versa.
        match (algo, flagged) {
            (Algorithm::Auto, false) => {
                return Err(Error::Container(fpc_container::Error::Corrupt(
                    "stream carries no per-chunk codec table",
                )))
            }
            (Algorithm::Auto, true) => {}
            (_, true) => {
                return Err(Error::Container(fpc_container::Error::Corrupt(
                    "per-chunk codec stream requires an adaptive decoder",
                )))
            }
            (_, false) => {}
        }
        self.algo = Some(algo);
        self.state = match algo {
            Algorithm::SpSpeed => {
                DecState::Plain(DecCodec::Fixed(Box::new(SpSpeedCodec { fallback: true })))
            }
            Algorithm::SpRatio => DecState::Plain(DecCodec::Fixed(Box::new(SpRatioCodec))),
            Algorithm::DpSpeed => {
                DecState::Plain(DecCodec::Fixed(Box::new(DpSpeedCodec { fallback: true })))
            }
            Algorithm::Auto => DecState::Plain(DecCodec::Adaptive(Box::new(AutoCodec::default()))),
            Algorithm::DpRatio => DecState::DpRatio {
                codec: DpRatioChunkCodec { fixed_split: None },
                payload: Vec::new(),
            },
        };
        Ok(())
    }

    fn drain_chunks(&mut self) -> Result<()> {
        while let Some(chunk) = self.dec.next_chunk().map_err(Error::Container)? {
            let algo = self.algo.expect("state past Probe implies algo");
            let decode = |chunk: &fpc_container::StreamChunk| -> Result<Vec<u8>> {
                match &self.state {
                    DecState::Probe => unreachable!("chunks only pop after the header parses"),
                    DecState::Plain(DecCodec::Fixed(c)) => {
                        decode_stream_chunk(chunk, c.as_ref()).map_err(Error::Container)
                    }
                    DecState::Plain(DecCodec::Adaptive(c)) => {
                        decode_stream_chunk_adaptive(chunk, c.as_ref()).map_err(Error::Container)
                    }
                    DecState::DpRatio { codec, .. } => {
                        decode_stream_chunk(chunk, codec).map_err(Error::Container)
                    }
                }
            };
            // Raw chunks decode to their own bytes — caching them would
            // store pure copies; skip. The chunk checksum was already
            // verified by the streaming decoder, so cached entries are
            // keyed by trusted bytes.
            let decoded = match (&self.cache, chunk.raw) {
                (Some(cache), false) => {
                    let key = CacheKey::new(&chunk.body, decode_context(algo, &chunk));
                    if let Some(hit) = cache.get(&key) {
                        hit.to_vec()
                    } else {
                        let out = decode(&chunk)?;
                        cache.insert(key, Arc::from(&out[..]));
                        out
                    }
                }
                _ => decode(&chunk)?,
            };
            match &mut self.state {
                DecState::DpRatio { payload, .. } => payload.extend_from_slice(&decoded),
                _ => {
                    self.produced += decoded.len() as u64;
                    self.ready_bytes += decoded.len() as u64;
                    self.ready.push_back(decoded);
                }
            }
        }
        Ok(())
    }

    /// Feeds the next bytes of the compressed stream, decoding every chunk
    /// that completes.
    ///
    /// # Errors
    ///
    /// Fails as soon as the stream is provably invalid (bad framing or
    /// header, checksum mismatch, codec rejection) — identical failure
    /// classes to [`crate::decompress_bytes_with`].
    pub fn feed(&mut self, bytes: &[u8]) -> Result<()> {
        self.dec.feed(bytes).map_err(Error::Container)?;
        if matches!(self.state, DecState::Probe) {
            if let Some(header) = self.dec.header().copied() {
                self.on_header(&header)?;
            }
        }
        if !matches!(self.state, DecState::Probe) {
            self.drain_chunks()?;
        }
        Ok(())
    }

    /// Takes the next decoded block, if any. Call in a loop after every
    /// [`feed`](StreamingDecompressor::feed) (and after
    /// [`finish`](StreamingDecompressor::finish)) to keep
    /// [`held_bytes`](StreamingDecompressor::held_bytes) bounded.
    pub fn take_output(&mut self) -> Option<Vec<u8>> {
        let out = self.ready.pop_front()?;
        self.ready_bytes -= out.len() as u64;
        Some(out)
    }

    /// Completes the stream: validates that every chunk arrived and the
    /// total length matches the header, and (DPratio) runs the inverse
    /// FCM stage, queueing its output for
    /// [`take_output`](StreamingDecompressor::take_output).
    ///
    /// # Errors
    ///
    /// Truncated streams, length mismatches, or FCM post-stage failures —
    /// identical failure classes to [`crate::decompress_bytes_with`].
    pub fn finish(&mut self) -> Result<()> {
        self.dec.finish().map_err(Error::Container)?;
        let header = *self.dec.header().expect("finish() implies parsed meta");
        match std::mem::replace(&mut self.state, DecState::Probe) {
            DecState::Probe => unreachable!("finish() implies parsed meta"),
            plain @ DecState::Plain(_) => {
                self.state = plain;
                if self.produced != header.original_len {
                    return Err(Error::Container(fpc_container::Error::Corrupt(
                        "payload length disagrees with header",
                    )));
                }
                Ok(())
            }
            DecState::DpRatio { codec, payload } => {
                self.state = DecState::DpRatio {
                    codec,
                    payload: Vec::new(),
                };
                let out = crate::finish_fcm(header, &payload)?;
                self.produced += out.len() as u64;
                self.ready_bytes += out.len() as u64;
                self.ready.push_back(out);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompress_bytes_with;

    fn sample(len: usize) -> Vec<u8> {
        // A float-ish byte pattern with enough structure that codecs
        // actually shrink it, plus enough variety to cover AUTO's picks.
        let mut v = Vec::with_capacity(len);
        let mut x = 1.0f64;
        while v.len() < len {
            x = x * 1.0000001 + 0.25;
            v.extend_from_slice(&x.to_le_bytes());
        }
        v.truncate(len);
        v
    }

    fn feed_sizes() -> [usize; 3] {
        [1 << 10, 40_000, usize::MAX]
    }

    #[test]
    fn streaming_compress_matches_whole_buffer_for_all_algorithms() {
        let data = sample(fpc_container::DEFAULT_CHUNK_SIZE * 4 + 777);
        for algo in [
            Algorithm::SpSpeed,
            Algorithm::SpRatio,
            Algorithm::DpSpeed,
            Algorithm::DpRatio,
            Algorithm::Auto,
        ] {
            let whole = Compressor::new(algo).with_threads(1).compress_bytes(&data);
            for step in feed_sizes() {
                let mut eng = StreamingCompressor::new(algo, 1);
                for piece in data.chunks(step.min(data.len())) {
                    eng.feed(piece).unwrap();
                }
                assert_eq!(
                    eng.finish().unwrap(),
                    whole,
                    "{algo:?} step {step} not byte-identical"
                );
            }
        }
    }

    #[test]
    fn streaming_compress_cache_hits_are_byte_identical() {
        // Two identical inputs through one cache: the second pass is all
        // hits and must emit identical bytes.
        let data = sample(fpc_container::DEFAULT_CHUNK_SIZE * 3);
        for algo in [Algorithm::SpRatio, Algorithm::Auto] {
            let cache = Arc::new(ChunkCache::new(8 << 20));
            let run = |cache: &Arc<ChunkCache>| {
                let mut eng = StreamingCompressor::new(algo, 1).with_cache(Arc::clone(cache));
                eng.feed(&data).unwrap();
                eng.finish().unwrap()
            };
            let cold = run(&cache);
            let hits_before = cache.stats().hits;
            let warm = run(&cache);
            assert_eq!(cold, warm, "{algo:?} cache hit changed bytes");
            assert!(cache.stats().hits > hits_before, "{algo:?} never hit");
            assert_eq!(
                cold,
                Compressor::new(algo).with_threads(1).compress_bytes(&data)
            );
        }
    }

    #[test]
    fn streaming_decompress_matches_whole_buffer_for_all_algorithms() {
        let data = sample(fpc_container::DEFAULT_CHUNK_SIZE * 4 + 123);
        for algo in [
            Algorithm::SpSpeed,
            Algorithm::SpRatio,
            Algorithm::DpSpeed,
            Algorithm::DpRatio,
            Algorithm::Auto,
        ] {
            let stream = Compressor::new(algo).with_threads(1).compress_bytes(&data);
            for step in feed_sizes() {
                let mut eng = StreamingDecompressor::new();
                let mut out = Vec::new();
                for piece in stream.chunks(step.min(stream.len())) {
                    eng.feed(piece).unwrap();
                    while let Some(block) = eng.take_output() {
                        out.extend_from_slice(&block);
                    }
                }
                eng.finish().unwrap();
                while let Some(block) = eng.take_output() {
                    out.extend_from_slice(&block);
                }
                assert_eq!(out, data, "{algo:?} step {step} decode mismatch");
                assert_eq!(eng.algorithm(), Some(algo));
            }
        }
    }

    #[test]
    fn streaming_decompress_bounded_memory_when_drained() {
        let data = sample(fpc_container::DEFAULT_CHUNK_SIZE * 64);
        let stream = Compressor::new(Algorithm::SpRatio)
            .with_threads(1)
            .compress_bytes(&data);
        let step = 4096;
        let mut eng = StreamingDecompressor::new();
        let mut out = Vec::new();
        let mut high_water = 0;
        for piece in stream.chunks(step) {
            eng.feed(piece).unwrap();
            while let Some(block) = eng.take_output() {
                out.extend_from_slice(&block);
            }
            high_water = high_water.max(eng.held_bytes());
        }
        eng.finish().unwrap();
        assert_eq!(out, data);
        // Table + one chunk + one feed, nowhere near the 1 MiB payload.
        assert!(
            high_water < 3 * fpc_container::DEFAULT_CHUNK_SIZE as u64,
            "held {high_water} bytes"
        );
    }

    #[test]
    fn streaming_decompress_cache_round_trips() {
        // Gently-varying f32 data: compressible under every algorithm, so
        // no chunk is stored raw (raw chunks bypass the decode cache).
        let mut data = Vec::new();
        let mut x = 1.0f32;
        while data.len() < fpc_container::DEFAULT_CHUNK_SIZE * 3 + 48 {
            x += 0.125;
            data.extend_from_slice(&x.to_le_bytes());
        }
        for algo in [Algorithm::SpSpeed, Algorithm::Auto, Algorithm::DpRatio] {
            let stream = Compressor::new(algo).with_threads(1).compress_bytes(&data);
            let cache = Arc::new(ChunkCache::new(8 << 20));
            for round in 0..2 {
                let mut eng = StreamingDecompressor::new().with_cache(Arc::clone(&cache));
                eng.feed(&stream).unwrap();
                eng.finish().unwrap();
                let mut out = Vec::new();
                while let Some(block) = eng.take_output() {
                    out.extend_from_slice(&block);
                }
                assert_eq!(out, data, "{algo:?} round {round}");
            }
            assert!(cache.stats().hits > 0, "{algo:?} decode cache never hit");
        }
    }

    #[test]
    fn cached_range_decode_shares_entries_with_streaming_decompress() {
        // Gently-varying f32 data so every chunk compresses (raw chunks
        // bypass the decode cache and would mask the sharing assertion).
        let mut data = Vec::new();
        let mut x = 1.0f32;
        while data.len() < fpc_container::DEFAULT_CHUNK_SIZE * 4 + 96 {
            x += 0.125;
            data.extend_from_slice(&x.to_le_bytes());
        }
        let offset = fpc_container::DEFAULT_CHUNK_SIZE as u64 + 101;
        let len = (fpc_container::DEFAULT_CHUNK_SIZE * 2) as u64;
        for algo in [Algorithm::SpSpeed, Algorithm::SpRatio, Algorithm::Auto] {
            let stream = Compressor::new(algo).with_threads(1).compress_bytes(&data);
            let expected = &data[offset as usize..(offset + len) as usize];
            let cache = Arc::new(ChunkCache::new(8 << 20));

            let cold =
                crate::decompress_range_cached_with(&stream, offset, len, 1, &cache).unwrap();
            assert_eq!(cold, expected, "{algo:?} cold range wrong");
            let warm =
                crate::decompress_range_cached_with(&stream, offset, len, 1, &cache).unwrap();
            assert_eq!(warm, expected, "{algo:?} warm range wrong");
            assert!(cache.stats().hits > 0, "{algo:?} warm range never hit");

            // A streamed decompress of the same stream must hit the
            // range-warmed entries: both paths build identical keys.
            let hits_before = cache.stats().hits;
            let mut eng = StreamingDecompressor::new().with_cache(Arc::clone(&cache));
            eng.feed(&stream).unwrap();
            eng.finish().unwrap();
            let mut out = Vec::new();
            while let Some(block) = eng.take_output() {
                out.extend_from_slice(&block);
            }
            assert_eq!(out, data, "{algo:?} streamed decode wrong");
            assert!(
                cache.stats().hits > hits_before,
                "{algo:?} streamed decode missed range-warmed entries"
            );
        }
        // DPratio falls back to the uncached full-decode path but must
        // still return the exact slice.
        let stream = Compressor::new(Algorithm::DpRatio)
            .with_threads(1)
            .compress_bytes(&data);
        let cache = Arc::new(ChunkCache::new(8 << 20));
        let got = crate::decompress_range_cached_with(&stream, offset, len, 1, &cache).unwrap();
        assert_eq!(got, &data[offset as usize..(offset + len) as usize]);
    }

    #[test]
    fn streaming_decompress_rejects_what_buffered_rejects() {
        let data = sample(fpc_container::DEFAULT_CHUNK_SIZE + 10);
        let stream = Compressor::new(Algorithm::SpSpeed)
            .with_threads(1)
            .compress_bytes(&data);

        // Truncation: finish must fail.
        let mut eng = StreamingDecompressor::new();
        eng.feed(&stream[..stream.len() - 1]).unwrap();
        assert!(eng.finish().is_err());

        // Flipped body byte: rejected mid-stream, like the whole-buffer path.
        let mut bad = stream.clone();
        let n = bad.len();
        bad[n - 2] ^= 0x10;
        assert!(decompress_bytes_with(&bad, 1).is_err());
        let mut eng = StreamingDecompressor::new();
        let result = eng.feed(&bad).and_then(|_| eng.finish());
        assert!(result.is_err());

        // Garbage header: immediate error.
        let mut eng = StreamingDecompressor::new();
        assert!(eng.feed(&[0xFFu8; 64]).is_err());
    }

    #[test]
    fn empty_input_round_trips() {
        for algo in [Algorithm::SpSpeed, Algorithm::Auto, Algorithm::DpRatio] {
            let eng = StreamingCompressor::new(algo, 1);
            let stream = eng.finish().unwrap();
            assert_eq!(
                stream,
                Compressor::new(algo).with_threads(1).compress_bytes(&[])
            );
            let mut dec = StreamingDecompressor::new();
            dec.feed(&stream).unwrap();
            dec.finish().unwrap();
            let mut out = Vec::new();
            while let Some(b) = dec.take_output() {
                out.extend_from_slice(&b);
            }
            assert!(out.is_empty(), "{algo:?}");
        }
    }
}

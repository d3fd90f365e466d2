//! Incremental compression/decompression engines with an optional
//! content-addressed hot-chunk cache.
//!
//! These are the feed/finish counterparts of [`crate::Compressor`] and
//! [`crate::decompress_bytes_with`]: callers push bytes as they arrive (a
//! socket, a pipe) and the engine processes whole 16 KiB chunks as soon as
//! they complete, holding only O(chunk table + one chunk) instead of the
//! whole payload. The produced/accepted streams are **byte-identical** to
//! the whole-buffer entry points — both run the same per-chunk codecs, and
//! the container's [`fpc_container::FrameAssembler`] /
//! [`fpc_container::StreamingDecoder`] share the one-shot paths' frame
//! writer and parser — and a [`ChunkCache`]
//! hit substitutes a previously computed result for the identical bytes,
//! so caching cannot change output either.
//!
//! Memory bounds (the contract servers rely on):
//!
//! - [`StreamingCompressor`]: holds at most one partial input chunk plus
//!   all *compressed* chunk bodies (the container layout places the chunk
//!   table before the bodies, so output can only be assembled at finish).
//!   Input-side memory is O(chunk); held output is the compressed size,
//!   typically a fraction of the input, plus room reserved for the
//!   current feed. Each chunk encodes straight onto the one body buffer
//!   (a cache hit is copied there; a miss's body is copied once into its
//!   cache value), and finish shifts the bodies up behind the metadata in
//!   that same buffer.
//! - [`StreamingDecompressor`]: holds the chunk table, at most one
//!   in-flight compressed chunk, plus decoded output the caller has not
//!   drained yet — O(chunk) end-to-end when the caller drains eagerly.
//!   Each fed byte is copied once into the container decoder's buffer;
//!   each chunk then decodes (or copies its cache hit) straight onto the
//!   end of the one output buffer the caller drains.
//! - **DPratio is the documented exception on both paths**: its global FCM
//!   stage needs the whole payload, so the engines fall back to buffering
//!   internally (`held_bytes` reports it honestly; servers budget
//!   accordingly).

use std::ops::Deref;
use std::sync::Arc;

use fpc_cache::{CacheKey, ChunkCache};
use fpc_container::{
    Codec, EncodedChunk, FrameAssembler, Header, StreamChunk, StreamingDecoder, DEFAULT_CHUNK_SIZE,
    FLAG_CHUNK_CODECS, WINDOW_BYTES,
};

use crate::{Algorithm, AlgorithmCodec, Compressor, Error, PipelineOptions, Result};

/// Cache-key context tags: the direction byte keeps compress-path entries
/// (value = encoded chunk) and decompress-path entries (value = decoded
/// bytes) in disjoint key spaces even for identical content bytes.
const CTX_ENCODE: u64 = 1;
const CTX_DECODE: u64 = 2;

/// Compress-path cache key context: every engine encodes with the
/// default options, so the algorithm alone fixes what a chunk encodes to.
fn encode_context(algo: Algorithm) -> u64 {
    CTX_ENCODE | (u64::from(algo.id()) << 8)
}

/// Decode-path cache key of a verified chunk, from its table metadata
/// and its container checksum (the key's high half, so the body is hashed
/// once more, not twice). The codec id is the chunk table's for adaptive
/// streams and `0` for fixed-codec streams. The streaming decoder and the
/// cached range decode both key by it, so a chunk decoded through either
/// path hits entries the other inserted.
fn decode_key(algo: Algorithm, chunk: &StreamChunk<'_>) -> CacheKey {
    let context = CTX_DECODE
        | (u64::from(algo.id()) << 8)
        | (u64::from(chunk.codec_id) << 16)
        | ((chunk.expected_len as u64) << 32);
    CacheKey::with_checksum(chunk.body, chunk.checksum(), context)
}

/// Decodes a verified chunk into `out` (its decoded length), through
/// `cache` when there is one: a hit is copied in, a miss is decoded and
/// its bytes inserted. A hit of any other length than `out`'s counts as a
/// miss. Raw chunks bypass the cache: they decode to their own bytes, so
/// caching them would store pure copies. Shared by the streaming and
/// range decode paths.
pub(crate) fn decode_chunk(
    algo: Algorithm,
    codec: Codec<'_>,
    cache: Option<&ChunkCache>,
    chunk: &StreamChunk<'_>,
    out: &mut [u8],
) -> core::result::Result<(), fpc_container::Error> {
    let Some(cache) = cache.filter(|_| !chunk.raw) else {
        return chunk.decode_into(codec, out);
    };
    let key = decode_key(algo, chunk);
    match cache.get(&key) {
        Some(hit) if hit.len() == out.len() => out.copy_from_slice(&hit),
        _ => {
            chunk.decode_into(codec, out)?;
            cache.insert(key, Arc::from(&*out));
        }
    }
    Ok(())
}

/// Bytes of a compress-path cache value before the body:
/// `[codec_id][raw][checksum: u64 LE][body…]`.
const VALUE_HEAD: usize = 10;

/// The compress-path cache value of `c`, built with one copy of its body
/// (and `None` only if the fresh value were somehow shared).
fn encode_cache_value(c: &EncodedChunk<'_>) -> Option<Arc<[u8]>> {
    let mut value: Arc<[u8]> = std::iter::repeat_n(0, VALUE_HEAD + c.body.len()).collect();
    let (ids, rest) = Arc::get_mut(&mut value)?.split_at_mut(2);
    let (checksum, body) = rest.split_at_mut(8);
    ids.copy_from_slice(&[c.codec_id, u8::from(c.raw)]);
    checksum.copy_from_slice(&c.checksum.to_le_bytes());
    body.copy_from_slice(c.body);
    Some(value)
}

/// The encoded chunk a compress-path cache value holds, borrowed from it.
fn decode_cache_value(v: &[u8]) -> Option<EncodedChunk<'_>> {
    let (head, body) = v.split_at_checked(VALUE_HEAD)?;
    let &[codec_id, raw, ref checksum @ ..] = head else {
        return None;
    };
    Some(EncodedChunk {
        codec_id,
        raw: raw != 0,
        checksum: u64::from_le_bytes(checksum.try_into().ok()?),
        body,
    })
}

enum CompState {
    /// Chunk-local algorithms: encode each chunk the moment it completes.
    Chunked {
        codec: AlgorithmCodec,
        asm: FrameAssembler,
        pending: Vec<u8>,
    },
    /// DPratio's global FCM stage sees the whole input: buffer, then run
    /// the ordinary whole-buffer compressor at finish.
    Buffered(Vec<u8>),
}

/// Feed/finish compressor producing streams byte-identical to
/// [`Compressor::compress_bytes`] with the same algorithm and thread count
/// (default options, default chunk size).
pub struct StreamingCompressor {
    algo: Algorithm,
    threads: usize,
    state: CompState,
    cache: Option<Arc<ChunkCache>>,
    ctx: u64,
    total_in: u64,
}

impl StreamingCompressor {
    /// Creates an engine for `algo` with default options (the
    /// configuration [`Compressor::new`] uses).
    pub fn new(algo: Algorithm, threads: usize) -> StreamingCompressor {
        let state = if algo == Algorithm::DpRatio {
            CompState::Buffered(Vec::new())
        } else {
            CompState::Chunked {
                codec: algo.codec(&PipelineOptions::default()),
                asm: FrameAssembler::new(),
                pending: Vec::new(),
            }
        };
        StreamingCompressor {
            algo,
            threads,
            state,
            cache: None,
            ctx: encode_context(algo),
            total_in: 0,
        }
    }

    /// Attaches a content-addressed cache: chunks whose bytes were encoded
    /// before (by any engine sharing the cache and algorithm) reuse
    /// the cached encoding instead of re-running the codec.
    pub fn with_cache(mut self, cache: Arc<ChunkCache>) -> StreamingCompressor {
        self.cache = Some(cache);
        self
    }

    /// Bytes currently held by the engine: the partial input chunk plus
    /// the body buffer of compressed chunks awaiting assembly, counting its
    /// reserved room (or the whole buffered input for DPratio).
    pub fn held_bytes(&self) -> u64 {
        match &self.state {
            CompState::Chunked { asm, pending, .. } => asm.body_bytes() + pending.len() as u64,
            CompState::Buffered(buf) => buf.len() as u64,
        }
    }

    /// Adds the next chunk to `asm`: a cache hit's encoding, or a fresh
    /// one, which the cache then copies.
    fn encode_one(
        asm: &mut FrameAssembler,
        codec: Codec<'_>,
        cache: Option<&ChunkCache>,
        ctx: u64,
        chunk: &[u8],
    ) -> Result<()> {
        let Some(cache) = cache else {
            asm.encode(chunk, codec)?;
            return Ok(());
        };
        let key = CacheKey::new(chunk, ctx);
        if let Some(hit) = cache.get(&key) {
            if let Some(encoded) = decode_cache_value(&hit) {
                return Ok(asm.push(encoded)?);
            }
        }
        if let Some(value) = encode_cache_value(&asm.encode(chunk, codec)?) {
            cache.insert(key, value);
        }
        Ok(())
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
                let (codec, cache) = (codec.as_codec(), self.cache.as_deref());
                let payload = pending.len() + bytes.len();
                asm.reserve(payload / DEFAULT_CHUNK_SIZE + 1, payload);
                let mut rest = bytes;
                // Fill the partial chunk first; thereafter encode straight
                // from the input slice, copying only the final remainder.
                if !pending.is_empty() {
                    let need = DEFAULT_CHUNK_SIZE - pending.len();
                    let take = need.min(rest.len());
                    pending.extend_from_slice(&rest[..take]);
                    rest = &rest[take..];
                    if pending.len() == DEFAULT_CHUNK_SIZE {
                        Self::encode_one(asm, codec, cache, self.ctx, pending)?;
                        pending.clear();
                    }
                }
                while rest.len() >= DEFAULT_CHUNK_SIZE {
                    let (chunk, tail) = rest.split_at(DEFAULT_CHUNK_SIZE);
                    rest = tail;
                    Self::encode_one(asm, codec, cache, self.ctx, chunk)?;
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
                let c = Compressor::new(self.algo).with_threads(self.threads);
                // Handing over the buffer frees it once the FCM stage has
                // built the payload, before the stream is reserved.
                Ok(c.compress_bytes_width(buf, self.algo.element_width()))
            }
            CompState::Chunked {
                codec,
                mut asm,
                pending,
            } => {
                if !pending.is_empty() {
                    let cache = self.cache.as_deref();
                    Self::encode_one(&mut asm, codec.as_codec(), cache, self.ctx, &pending)?;
                }
                let mut header = Header::new(
                    self.algo.id(),
                    self.algo.element_width(),
                    self.total_in,
                    self.total_in,
                );
                if matches!(codec, AlgorithmCodec::Adaptive(_)) {
                    header.flags |= FLAG_CHUNK_CODECS;
                }
                Ok(asm.finish(header)?)
            }
        }
    }
}

/// Feed/finish decompressor accepting exactly the streams
/// [`crate::decompress_bytes_with`] accepts, producing identical bytes.
///
/// Drive it with [`feed`](StreamingDecompressor::feed), take the decoded
/// output with [`take_output`](StreamingDecompressor::take_output) after
/// every feed, and call [`finish`](StreamingDecompressor::finish) at end
/// of stream (then take once more: DPratio emits everything there).
#[derive(Default)]
pub struct StreamingDecompressor {
    dec: StreamingDecoder,
    /// The stream's algorithm and codec, once its header has been parsed
    /// and passed the frame-mode check.
    codec: Option<(Algorithm, AlgorithmCodec)>,
    /// Decoded bytes not taken yet: every chunk decodes, or copies its
    /// cache hit, straight onto the end.
    out: Decoded,
    /// DPratio only: decoded chunks accumulate into the FCM-transformed
    /// payload; the inverse FCM runs at finish.
    fcm_payload: Decoded,
    cache: Option<Arc<ChunkCache>>,
    /// Decoded bytes handed out by `take_output` so far.
    taken: u64,
}

/// A decode target: its first `len` bytes are decoded output, and the
/// initialized bytes after them, up to `buf.len()`, are kept from earlier
/// chunks, so a chunk decodes into them without zero-filling them again.
#[derive(Default)]
struct Decoded {
    buf: Vec<u8>,
    len: usize,
}

impl Decoded {
    /// Makes room for `n` more decoded bytes.
    fn reserve(&mut self, n: usize) {
        let end = self.len.saturating_add(n);
        self.buf.reserve(end.saturating_sub(self.buf.len()));
    }

    /// The `n` bytes after the decoded ones, zero-filled where the buffer
    /// never reached. They count as decoded once `len` moves past them.
    fn after(&mut self, n: usize) -> &mut [u8] {
        let end = self.len + n;
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        self.buf.get_mut(self.len..end).unwrap_or_default()
    }

    fn bytes(&self) -> &[u8] {
        self.buf.get(..self.len).unwrap_or_default()
    }
}

/// The decoded bytes a [`StreamingDecompressor`] has ready, lent out by
/// [`StreamingDecompressor::take_output`] as one slice. Dropping it
/// empties the engine's output buffer, which keeps its memory for the
/// next feed.
pub struct DecodedOutput<'a>(&'a mut Decoded);

impl Deref for DecodedOutput<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0.bytes()
    }
}

impl Drop for DecodedOutput<'_> {
    fn drop(&mut self) {
        self.0.len = 0;
    }
}

impl StreamingDecompressor {
    /// Creates an empty engine; the algorithm is read from the stream
    /// header once enough bytes arrive.
    pub fn new() -> StreamingDecompressor {
        StreamingDecompressor::default()
    }

    /// Attaches a content-addressed cache of decoded chunks.
    pub fn with_cache(mut self, cache: Arc<ChunkCache>) -> StreamingDecompressor {
        self.cache = Some(cache);
        self
    }

    /// The stream's algorithm, once the header has been parsed.
    pub fn algorithm(&self) -> Option<Algorithm> {
        self.codec.as_ref().map(|(algo, _)| *algo)
    }

    /// Bytes currently held: undrained decoded output, the container
    /// decoder's resident input (an incomplete chunk, plus consumed bytes
    /// not shifted out yet) and (DPratio only) the accumulated transformed
    /// payload.
    pub fn held_bytes(&self) -> u64 {
        (self.dec.buffered_bytes() + self.out.len + self.fcm_payload.len) as u64
    }

    fn on_header(&mut self, header: &Header) -> Result<()> {
        let algo = Algorithm::from_id(header.algorithm)?;
        let codec = algo.codec(&PipelineOptions::default());
        codec.as_codec().check(header)?;
        self.codec = Some((algo, codec));
        Ok(())
    }

    fn drain_chunks(&mut self) -> Result<()> {
        let Some((algo, codec)) = &self.codec else {
            return Ok(());
        };
        let algo = *algo;
        let target = if algo == Algorithm::DpRatio {
            &mut self.fcm_payload
        } else {
            &mut self.out
        };
        // One reservation for the chunks this feed completed, capped at a
        // window: a forged chunk table cannot make it claim more memory
        // than decoding would.
        target.reserve(self.dec.ready_len().min(WINDOW_BYTES));
        let cache = self.cache.as_deref();
        while let Some(chunk) = self.dec.next_chunk()? {
            let out = target.after(chunk.expected_len);
            decode_chunk(algo, codec.as_codec(), cache, &chunk, out)?;
            target.len += chunk.expected_len;
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
        self.dec.feed(bytes)?;
        if self.codec.is_none() {
            if let Some(header) = self.dec.header().copied() {
                self.on_header(&header)?;
            }
        }
        self.drain_chunks()
    }

    /// Lends out every decoded byte not taken yet, as one slice, or
    /// `None` when there is none; the bytes are gone from the engine once
    /// the returned [`DecodedOutput`] drops. Call after every
    /// [`feed`](StreamingDecompressor::feed) (and after
    /// [`finish`](StreamingDecompressor::finish)) to keep
    /// [`held_bytes`](StreamingDecompressor::held_bytes) bounded.
    pub fn take_output(&mut self) -> Option<DecodedOutput<'_>> {
        if self.out.len == 0 {
            return None;
        }
        self.taken += self.out.len as u64;
        Some(DecodedOutput(&mut self.out))
    }

    /// Completes the stream: validates that every chunk arrived and the
    /// total length matches the header, and (DPratio) runs the inverse
    /// FCM stage, leaving its output for
    /// [`take_output`](StreamingDecompressor::take_output).
    ///
    /// # Errors
    ///
    /// Truncated streams, length mismatches, or FCM post-stage failures —
    /// identical failure classes to [`crate::decompress_bytes_with`].
    pub fn finish(&mut self) -> Result<()> {
        self.dec.finish()?;
        let header = *self.dec.header().expect("finish() implies parsed meta");
        if self.codec.is_none() {
            // The header parsed but was rejected: report that again
            // instead of finishing a stream nothing decoded.
            self.on_header(&header)?;
        }
        if self.algorithm() == Some(Algorithm::DpRatio) {
            // DPratio chunks never reach `out`, so it is empty here.
            let payload = std::mem::take(&mut self.fcm_payload);
            let buf = crate::finish_fcm(header, payload.bytes(), crate::fcm_decode)?;
            self.out = Decoded {
                len: buf.len(),
                buf,
            };
        } else if self.taken + self.out.len as u64 != header.original_len {
            return Err(Error::Container(fpc_container::Error::Corrupt(
                "payload length disagrees with header",
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompress_bytes_with;
    use fpc_container::Region;

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
                    if let Some(block) = eng.take_output() {
                        out.extend_from_slice(&block);
                    }
                }
                eng.finish().unwrap();
                if let Some(block) = eng.take_output() {
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
        for step in [4096, 4 * fpc_container::DEFAULT_CHUNK_SIZE] {
            let mut eng = StreamingDecompressor::new();
            let mut out = Vec::new();
            let mut high_water = 0;
            for piece in stream.chunks(step) {
                eng.feed(piece).unwrap();
                if let Some(block) = eng.take_output() {
                    out.extend_from_slice(&block);
                }
                high_water = high_water.max(eng.held_bytes());
            }
            eng.finish().unwrap();
            assert_eq!(out, data);
            // One partial chunk once the output is taken: the consumed
            // input was shifted out (it counts while resident), and a
            // feed of several chunks leaves no more than one behind.
            assert!(
                high_water < fpc_container::DEFAULT_CHUNK_SIZE as u64,
                "held {high_water} bytes at step {step}"
            );
        }
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
                if let Some(block) = eng.take_output() {
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
            if let Some(block) = eng.take_output() {
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
    fn streaming_and_range_decode_keys_agree_on_v1_and_v2_streams() {
        // Gently-varying f32 data, so chunks encode rather than go raw.
        let mut data = Vec::new();
        let mut x = 1.0f32;
        while data.len() < fpc_container::DEFAULT_CHUNK_SIZE * 3 + 40 {
            x += 0.125;
            data.extend_from_slice(&x.to_le_bytes());
        }
        let algo = Algorithm::SpSpeed;
        for version in [fpc_container::VERSION, fpc_container::VERSION_1] {
            let len = data.len() as u64;
            let mut header = Header::new(algo.id(), algo.element_width(), len, len);
            header.version = version;
            let codec = algo.codec(&PipelineOptions::default());
            let AlgorithmCodec::Fixed(fixed) = &codec else {
                panic!("SPspeed is a fixed codec");
            };
            let stream = fpc_container::compress(header, &data, fixed.as_ref(), 1).unwrap();

            let mut dec = StreamingDecoder::new();
            dec.feed(&stream).unwrap();
            let mut streamed = Vec::new();
            while let Some(chunk) = dec.next_chunk().unwrap() {
                streamed.push((!chunk.raw).then(|| decode_key(algo, &chunk)));
            }
            let region = Region::parse(&stream).unwrap();
            let ranged: Vec<_> = (0..region.chunks())
                .map(|i| {
                    let chunk = region.chunk(i).unwrap();
                    (!chunk.raw).then(|| decode_key(algo, &chunk))
                })
                .collect();
            assert_eq!(streamed.len(), 4, "v{version}");
            assert!(
                streamed.iter().any(Option::is_some),
                "v{version}: every chunk raw"
            );
            assert_eq!(streamed, ranged, "v{version}: the paths' keys differ");
        }
    }

    #[test]
    fn wrong_length_cache_hits_count_as_misses() {
        // Gently-varying f32 data, so chunks encode rather than go raw.
        let mut data = Vec::new();
        let mut x = 1.0f32;
        while data.len() < fpc_container::DEFAULT_CHUNK_SIZE * 3 + 40 {
            x += 0.125;
            data.extend_from_slice(&x.to_le_bytes());
        }
        let (offset, len) = (100u64, data.len() as u64 - 200);
        let want = &data[offset as usize..(offset + len) as usize];
        for algo in [Algorithm::SpSpeed, Algorithm::SpRatio, Algorithm::Auto] {
            let stream = Compressor::new(algo).with_threads(1).compress_bytes(&data);
            let region = Region::parse(&stream).unwrap();
            for delta in [-1isize, 1] {
                // Seed every encoded chunk's real key with a value one
                // byte short or one byte long (the short tail is raw).
                let cache = Arc::new(ChunkCache::new(8 << 20));
                for i in 0..region.chunks() - 1 {
                    let chunk = region.chunk(i).unwrap();
                    assert!(!chunk.raw, "{algo:?}: chunk {i} raw");
                    let bad = vec![0xA5; chunk.expected_len.saturating_add_signed(delta)];
                    cache.insert(decode_key(algo, &chunk), Arc::from(bad));
                }
                let case = format!("{algo:?} hit {delta:+} byte");
                // The cold pass replaces every seeded entry; the warm passes
                // then decode nothing (no miss, no insert) and every lookup
                // is a hit of the right length.
                let mut before = cache.stats();
                for pass in ["cold", "warm", "warm again"] {
                    let got = crate::decompress_range_cached_with(&stream, offset, len, 1, &cache);
                    assert_eq!(got.unwrap(), want, "{case}: {pass} range");
                    let after = cache.stats();
                    if pass != "cold" {
                        let fresh = (
                            after.misses - before.misses,
                            after.insertions - before.insertions,
                        );
                        assert_eq!(fresh, (0, 0), "{case}: {pass} pass decoded");
                        let hits = after.hits - before.hits;
                        assert_eq!(hits as usize, region.chunks() - 1, "{case}: {pass} hits");
                    }
                    before = after;
                }
                for i in 0..region.chunks() - 1 {
                    let chunk = region.chunk(i).unwrap();
                    let hit = cache.get(&decode_key(algo, &chunk)).map(|v| v.len());
                    assert_eq!(hit, Some(chunk.expected_len), "{case}: chunk {i} entry");
                }
                let mut eng = StreamingDecompressor::new().with_cache(Arc::clone(&cache));
                let mut out = Vec::new();
                eng.feed(&stream).unwrap();
                if let Some(block) = eng.take_output() {
                    out.extend_from_slice(&block);
                }
                eng.finish().unwrap();
                assert_eq!(out, data, "{case}: streaming");
            }
        }
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
            if let Some(b) = dec.take_output() {
                out.extend_from_slice(&b);
            }
            assert!(out.is_empty(), "{algo:?}");
        }
    }
}

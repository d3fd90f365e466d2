//! The chunked container format shared by all FPcompress algorithms.
//!
//! Every algorithm splits its payload into independent 16 KiB chunks
//! (paper §3): each chunk is transformed separately, chunks that fail to
//! shrink are stored raw (capping worst-case expansion), and the compressed
//! chunks are concatenated into one contiguous block — the paper
//! specifically calls out that, unlike nvCOMP, its compressors concatenate.
//!
//! On compression, chunks are assigned to worker threads *dynamically*
//! (an atomic work counter), mirroring the paper's OpenMP scheduling, and
//! written as the paper's compressor writes them: each worker encodes a
//! group of chunks into its scratch arena, takes the group's write
//! position from a decoupled look-back over the lengths of earlier groups
//! (§3.1), and copies the bodies straight to that offset of the one
//! output buffer; the chunk table goes in front last. On decompression, a
//! prefix sum over the chunk-size table yields every chunk's read
//! position, after which all chunks decode independently in parallel, and
//! the worker that decodes chunk `i` writes it straight into the one
//! output buffer at `i × chunk_size`, as the paper's decompressor does.
//! Both directions walk the payload one window at a time. The output grows a
//! window of at least [`WINDOW_BYTES`] at a time, so a stream that claims
//! a huge payload allocates at most one window beyond the chunks that
//! actually decoded.
//!
//! Every path shares one per-chunk step in each direction. Encode: the
//! one-shot writer and the streaming [`FrameAssembler`] run one encode
//! step (encode, raw fallback, table entry); the assembler encodes
//! straight onto its one body buffer and finishes in place. Decode: a
//! chunk is verified once, into the one verified-chunk view
//! ([`StreamChunk`], from [`Region::chunk`] or
//! [`StreamingDecoder::next_chunk`]), and [`StreamChunk::decode_into`]
//! writes it into a slice: its slot of the one-shot or tolerant output,
//! its place in a range's output when the range covers it whole (only a
//! range's edge chunks go through scratch), or the streaming engine's
//! output buffer.
//!
//! # Stream layout
//!
//! Version 2 (current) frames every region with an XXH64 checksum
//! ([`checksum`]), so corruption anywhere in the stream is *detected*
//! rather than decoded into garbage:
//!
//! ```text
//! [Header: 28 bytes][header xxh64: u64]
//! [chunk count: u32][chunk table: u32 × count][chunk xxh64: u64 × count]
//! [table xxh64: u64]
//! [payloads…]
//! ```
//!
//! Version 1 (legacy, still decodable) omits all three checksum regions:
//!
//! ```text
//! [Header: 28 bytes][chunk count: u32][chunk table: u32 × count][payloads…]
//! ```
//!
//! Each chunk-table entry stores the compressed size in the low 31 bits and
//! a "stored raw" flag in the high bit. Chunk checksums cover each chunk's
//! *compressed* bytes, so [`verify`] can authenticate a stream without
//! decoding it; the table checksum covers the count, table, and chunk
//! checksums; the header checksum covers the 28 fixed header bytes.

pub mod checksum;
mod error;
mod header;

pub use error::Error;
pub use header::{
    Header, ALGO_AUTO, ALGO_DP_RATIO, ALGO_DP_SPEED, ALGO_SP_RATIO, ALGO_SP_SPEED,
    FLAG_CHUNK_CODECS, KNOWN_FLAGS, VERSION, VERSION_1,
};

use checksum::frame_checksum;
use fpc_pool::{OutSlot, Span};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Default chunk size in bytes (paper §3: fits two buffers in GPU shared
/// memory / CPU L1).
pub const DEFAULT_CHUNK_SIZE: usize = 16 * 1024;

/// Upper bound on accepted chunk sizes when decoding untrusted streams.
pub const MAX_CHUNK_SIZE: usize = 16 * 1024 * 1024;

/// Decoded output grows, and one-shot compress encodes, by this many
/// payload bytes at a time, rounded up to whole chunks (one chunk when
/// chunks are larger). Each window is one pool job.
pub const WINDOW_BYTES: usize = 4 * 1024 * 1024;

const RAW_FLAG: u32 = 0x8000_0000;
const SIZE_MASK: u32 = 0x7FFF_FFFF;

/// A per-chunk transformation pipeline.
///
/// Implementations must be pure functions of the chunk contents so that
/// chunks can be processed in any order on any number of threads.
pub trait ChunkCodec: Sync {
    /// Transforms one chunk, appending the encoded bytes to `out`.
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>);

    /// Inverts [`ChunkCodec::encode_chunk`], writing the decoded chunk
    /// into `out`, which is exactly the original chunk length (known from
    /// the header) long. `out` may hold any bytes on entry; a successful
    /// decode overwrites every one.
    ///
    /// # Errors
    ///
    /// Returns an error for truncated or corrupt chunk data; `out` then
    /// holds unspecified bytes.
    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error>;
}

impl dyn ChunkCodec + '_ {
    /// [`ChunkCodec::decode_into`] for a caller that collects chunks in a
    /// `Vec`: appends the `expected_len` decoded bytes to `out`, which
    /// keeps its old length on error.
    ///
    /// # Errors
    ///
    /// As [`ChunkCodec::decode_into`].
    pub fn decode_chunk(
        &self,
        data: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), Error> {
        let start = out.len();
        out.resize(start + expected_len, 0);
        self.decode_into(data, &mut out[start..])
            .inspect_err(|_| out.truncate(start))
    }
}

/// A per-chunk codec *selector*: every chunk is encoded with whichever
/// member codec the implementation picks, and the picked codec id is
/// recorded in the chunk table (the [`FLAG_CHUNK_CODECS`] frame layout).
///
/// Like [`ChunkCodec`], implementations must be pure functions of the chunk
/// contents so chunks can be processed in any order on any thread count —
/// including the *selection* itself, which must be deterministic.
pub trait AdaptiveChunkCodec: Sync {
    /// Encodes one chunk with the best member codec, appending the encoded
    /// bytes to `out` and returning the codec id to record for the chunk.
    ///
    /// Ids are an implementation-defined namespace; `0` is reserved by the
    /// container for chunks it stores raw.
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) -> u8;

    /// Whether `codec_id` names a member codec this decoder can invert.
    ///
    /// The container consults this before dispatching, so a hostile chunk
    /// table claiming an out-of-range id fails with
    /// [`Error::UnknownChunkCodec`] instead of reaching the codec.
    fn knows_codec(&self, codec_id: u8) -> bool;

    /// Inverts [`AdaptiveChunkCodec::encode_chunk`] for a chunk recorded
    /// with `codec_id` (guaranteed to satisfy
    /// [`AdaptiveChunkCodec::knows_codec`]), as
    /// [`ChunkCodec::decode_into`] does: `out` is exactly the original
    /// chunk length long.
    ///
    /// # Errors
    ///
    /// Returns an error for truncated or corrupt chunk data.
    fn decode_into(&self, codec_id: u8, data: &[u8], out: &mut [u8]) -> Result<(), Error>;
}

/// The codec handle every container entry point takes: one pipeline for
/// every chunk, or a per-chunk selector whose picks the chunk table records
/// (the [`FLAG_CHUNK_CODECS`] frame layout).
#[derive(Clone, Copy)]
pub enum Codec<'c> {
    /// One codec for every chunk; the stream carries no codec-id column.
    Fixed(&'c dyn ChunkCodec),
    /// A per-chunk selector; the stream records each chunk's pick.
    Adaptive(&'c dyn AdaptiveChunkCodec),
}

impl Codec<'_> {
    /// The frame-mode check: rejects a stream whose layout does not match
    /// this handle. A fixed codec cannot decode a per-chunk codec stream
    /// (it would apply one pipeline to chunks encoded with others), and an
    /// adaptive decoder has no codec ids to dispatch on in a fixed stream.
    ///
    /// Every decode entry point here runs it before touching a chunk;
    /// callers that serve chunks from elsewhere (a cache keyed by the
    /// chunk bytes) must run it themselves before the first lookup.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on a mismatch.
    pub fn check(&self, header: &Header) -> Result<(), Error> {
        let flagged = header.flags & FLAG_CHUNK_CODECS != 0;
        match (self, flagged) {
            (Codec::Fixed(_), true) => Err(Error::Corrupt(
                "per-chunk codec stream requires an adaptive decoder",
            )),
            (Codec::Adaptive(_), false) => {
                Err(Error::Corrupt("stream carries no per-chunk codec table"))
            }
            _ => Ok(()),
        }
    }

    /// Appends `chunk`'s encoding to `out` and returns the codec id to
    /// record (0 for a fixed codec).
    fn encode(&self, chunk: &[u8], out: &mut Vec<u8>) -> u8 {
        match self {
            Codec::Fixed(c) => {
                c.encode_chunk(chunk, out);
                0
            }
            Codec::Adaptive(c) => c.encode_chunk(chunk, out),
        }
    }
}

/// Compresses `payload` into a complete container stream.
///
/// The frame layout follows `header.version`: [`VERSION`] (the default from
/// [`Header::new`]) writes the integrity-checked v2 frame; [`VERSION_1`]
/// writes the legacy frame for compatibility testing.
///
/// `threads == 0` uses all available parallelism; `threads == 1` runs
/// inline on the calling thread.
///
/// # Errors
///
/// Fails when the header lies about the payload (`payload_len` disagrees
/// with `payload.len()`), names an unwritable format version, declares a
/// zero chunk size, or when a chunk's encoded body exceeds the 31-bit size
/// field. These were previously debug-only assertions, which let release
/// builds silently emit undecodable streams.
pub fn compress(
    header: Header,
    payload: &[u8],
    codec: &dyn ChunkCodec,
    threads: usize,
) -> Result<Vec<u8>, Error> {
    if header.flags & FLAG_CHUNK_CODECS != 0 {
        // The fixed-codec entry point cannot produce the per-chunk codec
        // table the flag promises; use `compress_adaptive`.
        return Err(Error::InvalidHeader {
            field: "flags",
            value: u64::from(header.flags),
        });
    }
    compress_impl(header, payload, Codec::Fixed(codec), threads)
}

/// Compresses `payload` into a container stream whose chunk table records a
/// per-chunk codec id — the AUTO frame layout ([`FLAG_CHUNK_CODECS`]).
///
/// Each chunk is encoded by whichever member codec `codec` selects; chunks
/// that still fail to shrink are stored raw exactly as in [`compress`]
/// (codec id `0`). Fixed-algorithm streams are unaffected: their frame
/// layout is byte-identical to before this flag existed.
///
/// The flag is set on the written header automatically.
///
/// # Errors
///
/// As [`compress`].
pub fn compress_adaptive(
    mut header: Header,
    payload: &[u8],
    codec: &dyn AdaptiveChunkCodec,
    threads: usize,
) -> Result<Vec<u8>, Error> {
    header.flags |= FLAG_CHUNK_CODECS;
    compress_impl(header, payload, Codec::Adaptive(codec), threads)
}

fn compress_impl(
    header: Header,
    payload: &[u8],
    codec: Codec<'_>,
    threads: usize,
) -> Result<Vec<u8>, Error> {
    if header.payload_len != payload.len() as u64 {
        return Err(Error::InvalidHeader {
            field: "payload_len",
            value: header.payload_len,
        });
    }
    check_writable(&header)?;
    let t = fpc_metrics::timer(fpc_metrics::Stage::ContainerCompress);
    let chunk_size = header.chunk_size as usize;
    let count = payload.len().div_ceil(chunk_size);
    let with_checksums = header.version >= VERSION;
    let table: Vec<SharedEntry> = (0..count).map(|_| SharedEntry::default()).collect();
    // No body is longer than its chunk (the raw fallback), so the
    // metadata plus the payload bounds the stream: the bodies go straight
    // into reserved capacity behind a placeholder for the metadata.
    let meta_len = meta_len(&header, count);
    let mut out = Vec::with_capacity(meta_len + payload.len());
    out.resize(meta_len, 0);
    let window = WINDOW_BYTES.div_ceil(chunk_size);
    for first in (0..count).step_by(window) {
        let chunks = window.min(count - first);
        fpc_pool::fill_spans(&mut out, chunks, threads, |group, span| {
            let group = first + group.start..first + group.end;
            encode_group(
                payload,
                chunk_size,
                group,
                codec,
                with_checksums,
                &table,
                span,
            )
        })?;
    }
    let mut meta = Vec::with_capacity(meta_len);
    write_meta(&mut meta, &header, count, |i| table[i].load());
    out[..meta_len].copy_from_slice(&meta);
    out.shrink_to_fit();
    t.finish(payload.len() as u64);
    Ok(out)
}

/// Encodes chunks `group` of `payload` back to back into the worker's
/// scratch arena and records each in `table`, then places the group's
/// bodies in the output and copies them there once, while they are still
/// in cache. The arena goes back to one chunk's capacity afterwards, so a
/// thread that helped with a job does not keep a group's worth of memory.
fn encode_group(
    payload: &[u8],
    chunk_size: usize,
    group: Range<usize>,
    codec: Codec<'_>,
    with_checksums: bool,
    table: &[SharedEntry],
    span: &mut Span<'_>,
) -> Result<(), Error> {
    let bytes = &payload[group.start * chunk_size..(group.end * chunk_size).min(payload.len())];
    let chunks = || group.clone().zip(bytes.chunks(chunk_size));
    fpc_pool::with_scratch(|arena| {
        let mut encode = || {
            arena.reserve(bytes.len() + chunk_size);
            let mut total = 0;
            for (i, chunk) in chunks() {
                let entry = encode_step(chunk, codec, with_checksums, arena)?;
                table[i].store(entry);
                total += entry.len();
            }
            let slot = span.place(total);
            let mut at = 0;
            for (i, chunk) in chunks() {
                let entry = table[i].load();
                let body = if entry.raw() {
                    chunk
                } else {
                    at += entry.len();
                    &arena[at - entry.len()..at]
                };
                match damage_at(i, body.len(), with_checksums) {
                    Some((pos, mask)) => {
                        slot.push(&body[..pos]);
                        slot.push(&[body[pos] ^ mask]);
                        slot.push(&body[pos + 1..]);
                    }
                    None => slot.push(body),
                }
            }
            Ok(())
        };
        let result = encode();
        arena.clear();
        arena.shrink_to(chunk_size);
        result
    })
}

/// The one per-chunk encode step, behind [`compress`] and
/// [`FrameAssembler::encode`]: appends `chunk`'s encoding to `out` and
/// returns its table entry, with the body checksum when `with_checksums`.
///
/// Worst-case cap: a chunk the codec does not shrink is stored raw, with
/// codec id 0 (decode never dispatches on it, the raw flag
/// short-circuits), and leaves nothing in `out`; its body is the chunk.
fn encode_step(
    chunk: &[u8],
    codec: Codec<'_>,
    with_checksums: bool,
    out: &mut Vec<u8>,
) -> Result<TableEntry, Error> {
    let start = out.len();
    let picked = codec.encode(chunk, out);
    let raw = out.len() - start >= chunk.len();
    if raw {
        out.truncate(start);
    }
    let body = if raw { chunk } else { &out[start..] };
    Ok(TableEntry {
        word: size_word(body.len(), raw)?,
        codec_id: if raw { 0 } else { picked },
        checksum: if with_checksums {
            frame_checksum(body)
        } else {
            0
        },
    })
}

/// Rejects headers no frame can be written for: an unknown version or a
/// zero chunk size.
fn check_writable(header: &Header) -> Result<(), Error> {
    if header.version != VERSION_1 && header.version != VERSION {
        return Err(Error::UnsupportedVersion(header.version));
    }
    if header.chunk_size == 0 {
        return Err(Error::InvalidHeader {
            field: "chunk_size",
            value: 0,
        });
    }
    Ok(())
}

/// The chunk-table word for a body of `len` bytes: the length, with
/// [`RAW_FLAG`] for a raw chunk.
fn size_word(len: usize, raw: bool) -> Result<u32, Error> {
    if len as u64 > u64::from(SIZE_MASK) {
        return Err(Error::LengthOverflow {
            what: "chunk size field",
            requested: len as u64,
            available: u64::from(SIZE_MASK),
        });
    }
    Ok(len as u32 | if raw { RAW_FLAG } else { 0 })
}

/// What the frame metadata records about one chunk.
#[derive(Clone, Copy)]
struct TableEntry {
    /// Body length, with [`RAW_FLAG`] for raw chunks.
    word: u32,
    codec_id: u8,
    /// XXH64 of the body (written only by v2 frames).
    checksum: u64,
}

impl TableEntry {
    fn len(&self) -> usize {
        (self.word & SIZE_MASK) as usize
    }

    fn raw(&self) -> bool {
        self.word & RAW_FLAG != 0
    }
}

/// A [`TableEntry`] filled in by whichever pool worker encodes its chunk.
/// Relaxed is enough: the job's completion orders every store before the
/// table is written.
#[derive(Default)]
struct SharedEntry {
    word: AtomicU32,
    codec_id: AtomicU8,
    checksum: AtomicU64,
}

impl SharedEntry {
    fn store(&self, entry: TableEntry) {
        self.word.store(entry.word, Ordering::Relaxed);
        self.codec_id.store(entry.codec_id, Ordering::Relaxed);
        self.checksum.store(entry.checksum, Ordering::Relaxed);
    }

    fn load(&self) -> TableEntry {
        TableEntry {
            word: self.word.load(Ordering::Relaxed),
            codec_id: self.codec_id.load(Ordering::Relaxed),
            checksum: self.checksum.load(Ordering::Relaxed),
        }
    }
}

/// Length of the metadata [`write_meta`] writes for `count` chunks.
fn meta_len(header: &Header, count: usize) -> usize {
    let sums = if header.version >= VERSION { 8 } else { 0 };
    let ids = usize::from(header.flags & FLAG_CHUNK_CODECS != 0);
    header.encoded_len() + 4 + count * (4 + ids + sums) + sums
}

/// The one frame-metadata writer, behind [`compress`] and
/// [`FrameAssembler::finish`]: appends everything before the chunk bodies
/// in the layout `header` describes (the header, the chunk count and
/// table, the codec ids under [`FLAG_CHUNK_CODECS`], and for v2 the chunk
/// and table checksums), then counts the chunks into the container
/// metrics.
fn write_meta(
    out: &mut Vec<u8>,
    header: &Header,
    count: usize,
    entry: impl Fn(usize) -> TableEntry,
) {
    let with_checksums = header.version >= VERSION;
    let adaptive = header.flags & FLAG_CHUNK_CODECS != 0;
    header.write(out);
    let table_start = out.len();
    out.extend_from_slice(&(count as u32).to_le_bytes());
    for i in 0..count {
        out.extend_from_slice(&entry(i).word.to_le_bytes());
    }
    if adaptive {
        // The per-chunk codec ids live between the size entries and the
        // chunk checksums, so the v2 table checksum covers them.
        out.extend((0..count).map(|i| entry(i).codec_id));
    }
    if with_checksums {
        for i in 0..count {
            out.extend_from_slice(&entry(i).checksum.to_le_bytes());
        }
        let table_sum = frame_checksum(&out[table_start..]);
        out.extend_from_slice(&table_sum.to_le_bytes());
    }
    if !fpc_metrics::ENABLED {
        return;
    }
    fpc_metrics::incr(fpc_metrics::Counter::ContainerChunks, count as u64);
    let raw = (0..count).filter(|&i| entry(i).raw()).count();
    fpc_metrics::incr(fpc_metrics::Counter::ContainerRawChunks, raw as u64);
    if adaptive {
        for i in 0..count {
            let entry = entry(i);
            let counter = if entry.raw() {
                Some(fpc_metrics::Counter::AutoPickRaw)
            } else {
                match entry.codec_id {
                    header::ALGO_SP_SPEED => Some(fpc_metrics::Counter::AutoPickSpSpeed),
                    header::ALGO_SP_RATIO => Some(fpc_metrics::Counter::AutoPickSpRatio),
                    header::ALGO_DP_SPEED => Some(fpc_metrics::Counter::AutoPickDpSpeed),
                    header::ALGO_DP_RATIO => Some(fpc_metrics::Counter::AutoPickDpRatio),
                    _ => None, // custom codec namespaces have no counter
                }
            };
            if let Some(counter) = counter {
                fpc_metrics::incr(counter, 1);
            }
        }
    }
}

/// Fault hook: where to flip a bit of chunk `index`'s `len`-byte body,
/// and the mask, for deterministic bit-rot *after* its checksum was taken,
/// modeling storage or transport damage the v2 integrity layer must catch
/// at decode. Both writers apply it as they write the body. It is keyed by
/// chunk index, so neither the thread schedule, nor the path that wrote
/// the stream, nor a cache hit can change which chunks rot, and a cache
/// never holds a damaged body.
fn damage_at(index: usize, len: usize, with_checksums: bool) -> Option<(usize, u8)> {
    match fpc_faults::chunk_damage(index as u64) {
        Some((pos, mask)) if with_checksums && len > 0 => Some(((pos % len as u64) as usize, mask)),
        _ => None,
    }
}

/// One chunk's encoded form: everything the chunk table records about it
/// plus the compressed body, borrowed.
///
/// [`FrameAssembler::encode`] lends one out of the frame it encodes into,
/// and [`FrameAssembler::push`] takes one back in. In between it is
/// cacheable: every codec is a pure function of the chunk bytes, so a copy
/// of an `EncodedChunk` can stand in for any later byte-identical chunk
/// without re-encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedChunk<'a> {
    /// Codec id recorded in the chunk table (0 for fixed-codec streams and
    /// raw chunks).
    pub codec_id: u8,
    /// Whether the original bytes are stored verbatim (no codec shrank
    /// the chunk).
    pub raw: bool,
    /// XXH64 of `body` under the stream seed (written only by v2 frames).
    pub checksum: u64,
    /// The compressed (or raw) chunk bytes.
    pub body: &'a [u8],
}

/// Assembles a container stream chunk by chunk, byte-identical to
/// [`compress`]/[`compress_adaptive`] over the same payload: the streaming
/// writer, for callers that produce chunks incrementally (streaming
/// servers, caches). It runs their per-chunk encode step and metadata
/// writer.
///
/// The bodies go back to back into one buffer as they are encoded (or
/// pushed); [`FrameAssembler::finish`] shifts them up behind the metadata
/// in place, so the stream is that same buffer. The header passed to
/// `finish` alone picks the frame layout: its version selects v2
/// (checksummed) or v1 framing, and [`FLAG_CHUNK_CODECS`] adds the
/// codec-id column.
///
/// The fault-injection chunk-damage hook is applied at finish, keyed by
/// chunk index, on this path and the one-shot one alike, so where a
/// chunk's bytes came from (fresh encode, cache hit) cannot change which
/// chunks rot.
#[derive(Default)]
pub struct FrameAssembler {
    /// The chunk bodies, back to back in chunk order.
    bodies: Vec<u8>,
    entries: Vec<TableEntry>,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Makes room for `chunks` more chunks of `payload_bytes` payload in
    /// all, so adding them does not grow the buffers chunk by chunk: no
    /// body is longer than its chunk.
    pub fn reserve(&mut self, chunks: usize, payload_bytes: usize) {
        self.entries.reserve(chunks);
        self.bodies.reserve(payload_bytes);
    }

    /// Encodes the next chunk (chunks are positional: call order is chunk
    /// order) with the one-shot paths' encode step, straight onto the body
    /// buffer, and lends out the result, for a cache to copy.
    ///
    /// # Errors
    ///
    /// Fails when the body exceeds the chunk table's 31-bit size field.
    pub fn encode(&mut self, chunk: &[u8], codec: Codec<'_>) -> Result<EncodedChunk<'_>, Error> {
        let start = self.bodies.len();
        let entry = encode_step(chunk, codec, true, &mut self.bodies)?;
        if entry.raw() {
            self.bodies.extend_from_slice(chunk);
        }
        self.entries.push(entry);
        Ok(EncodedChunk {
            codec_id: entry.codec_id,
            raw: entry.raw(),
            checksum: entry.checksum,
            body: self.bodies.get(start..).unwrap_or_default(),
        })
    }

    /// Appends the next chunk, encoded earlier (a cache hit), copying its
    /// body onto the body buffer.
    ///
    /// # Errors
    ///
    /// Fails when the body exceeds the chunk table's 31-bit size field.
    pub fn push(&mut self, chunk: EncodedChunk<'_>) -> Result<(), Error> {
        self.entries.push(TableEntry {
            word: size_word(chunk.body.len(), chunk.raw)?,
            codec_id: chunk.codec_id,
            checksum: chunk.checksum,
        });
        self.bodies.extend_from_slice(chunk.body);
        Ok(())
    }

    /// Chunks added so far.
    pub fn count(&self) -> usize {
        self.entries.len()
    }

    /// Bytes the body buffer holds, counting its spare capacity: the
    /// assembler's memory footprint, for callers that account held memory.
    pub fn body_bytes(&self) -> u64 {
        self.bodies.capacity() as u64
    }

    /// Writes the complete stream in the layout `header` describes.
    ///
    /// # Errors
    ///
    /// Fails when the header names an unwritable version or a zero chunk
    /// size, or disagrees with the added chunks (wrong count for
    /// `payload_len`).
    pub fn finish(self, header: Header) -> Result<Vec<u8>, Error> {
        check_writable(&header)?;
        let count = self.entries.len();
        if count != (header.payload_len as usize).div_ceil(header.chunk_size as usize) {
            return Err(Error::Corrupt("chunk count does not match payload length"));
        }
        let mut meta = Vec::with_capacity(meta_len(&header, count));
        write_meta(&mut meta, &header, count, |i| self.entries[i]);
        let with_checksums = header.version >= VERSION;
        let mut out = self.bodies;
        let mut at = 0;
        for (i, entry) in self.entries.iter().enumerate() {
            if let Some((pos, mask)) = damage_at(i, entry.len(), with_checksums) {
                if let Some(byte) = out.get_mut(at + pos) {
                    *byte ^= mask;
                }
            }
            at += entry.len();
        }
        // Shift the bodies up behind the metadata, in the same buffer.
        let bodies = out.len();
        out.reserve_exact(meta.len());
        out.extend_from_slice(&meta);
        out.copy_within(..bodies, meta.len());
        if let Some(head) = out.get_mut(..meta.len()) {
            head.copy_from_slice(&meta);
        }
        Ok(out)
    }
}

/// The parsed and validated metadata region: everything before the chunk
/// bodies. [`parse_meta`] builds it for the one-shot paths (over the whole
/// stream) and for the [`StreamingDecoder`] (over the prefix received so
/// far).
struct Meta {
    header: Header,
    /// Raw chunk-table entries (size | raw flag).
    entries: Vec<u32>,
    /// Per-chunk codec ids (empty unless the header carries
    /// [`FLAG_CHUNK_CODECS`]).
    codec_ids: Vec<u8>,
    /// Stored per-chunk checksums (empty for v1 streams).
    checksums: Vec<u64>,
    /// Stream offsets of the chunk bodies: `offsets[i]..offsets[i + 1]` is
    /// chunk `i`, so `offsets[0]` is the metadata length and the last entry
    /// the total stream length.
    offsets: Vec<usize>,
    /// Decoded length of the last chunk (0 when there are no chunks);
    /// every other chunk is `header.chunk_size` bytes.
    last_len: usize,
}

impl Meta {
    fn count(&self) -> usize {
        self.entries.len()
    }

    /// Total stream length the chunk table implies.
    fn stream_len(&self) -> usize {
        self.offsets[self.count()]
    }

    fn raw(&self, i: usize) -> bool {
        self.entries[i] & RAW_FLAG != 0
    }

    /// Codec id of chunk `i` (0 for fixed-codec streams).
    fn codec_id(&self, i: usize) -> u8 {
        self.codec_ids.get(i).copied().unwrap_or(0)
    }

    /// Original (decoded) length of chunk `i`.
    fn expected_len(&self, i: usize) -> usize {
        if i + 1 < self.count() {
            self.header.chunk_size as usize
        } else {
            self.last_len
        }
    }

    /// The one per-chunk verify step, run on chunk `i`'s stored `body`
    /// before it is decoded or trusted as a cache key: the stored checksum
    /// (v2) and, for raw chunks, the stored-length invariant. Returns the
    /// verified chunk's view.
    fn chunk<'a>(&self, i: usize, body: &'a [u8]) -> Result<StreamChunk<'a>, Error> {
        let stored_checksum = self.checksums.get(i).copied();
        if stored_checksum.is_some_and(|stored| frame_checksum(body) != stored) {
            return Err(Error::ChecksumMismatch {
                chunk: Some(i as u32),
                offset: self.offsets[i] as u64,
            });
        }
        let (raw, expected_len) = (self.raw(i), self.expected_len(i));
        if raw && body.len() != expected_len {
            return Err(Error::Corrupt("raw chunk length mismatch"));
        }
        Ok(StreamChunk {
            index: i,
            codec_id: self.codec_id(i),
            raw,
            expected_len,
            body,
            stored_checksum,
        })
    }
}

/// Parses the metadata region at the front of `data` — header, chunk
/// count, chunk table, codec ids, and (v2) chunk and table checksums —
/// validating every structural invariant against the bytes actually
/// present before any count-sized allocation: a 16-byte stream can never
/// request a multi-gigabyte buffer.
///
/// With `complete` set, `data` is the whole stream and must end exactly
/// where the chunk table says. Otherwise `data` is a prefix, and a region
/// that runs past it returns `Ok(None)`: more bytes are needed.
fn parse_meta(data: &[u8], complete: bool) -> Result<Option<Meta>, Error> {
    // Truncation is an error for a whole stream, a wait for a prefix.
    let short = |error: Error| if complete { Err(error) } else { Ok(None) };
    let mut pos = 0usize;
    let header = match Header::read(data, &mut pos) {
        Ok(header) => header,
        Err(Error::UnexpectedEof) => return short(Error::UnexpectedEof),
        Err(e) => return Err(e),
    };
    let payload_len = usize::try_from(header.payload_len).map_err(|_| Error::LengthOverflow {
        what: "payload length",
        requested: header.payload_len,
        available: data.len() as u64,
    })?;
    let count = match read_u32(data, &mut pos) {
        Ok(count) => count as usize,
        Err(e) => return short(e),
    };
    let last_len = last_chunk_len(payload_len, count, header.chunk_size as usize)
        .ok_or(Error::Corrupt("chunk count does not match payload length"))?;

    // Bound the whole metadata region against the remaining bytes before
    // allocating anything sized by `count`.
    let with_checksums = header.version >= VERSION;
    let with_codecs = header.flags & FLAG_CHUNK_CODECS != 0;
    let per_chunk = 4 + u64::from(with_codecs) + if with_checksums { 8 } else { 0 };
    let meta_bytes = (count as u64) * per_chunk + if with_checksums { 8 } else { 0 };
    let remaining = (data.len() - pos) as u64;
    if meta_bytes > remaining {
        return short(Error::LengthOverflow {
            what: "chunk table",
            requested: meta_bytes,
            available: remaining,
        });
    }

    let table_start = pos - 4; // include the count field in the table frame
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(read_u32(data, &mut pos)?);
    }
    let mut codec_ids = Vec::new();
    if with_codecs {
        let ids = data.get(pos..pos + count).ok_or(Error::UnexpectedEof)?;
        codec_ids.extend_from_slice(ids);
        pos += count;
    }
    let mut checksums = Vec::new();
    if with_checksums {
        checksums.reserve_exact(count);
        for _ in 0..count {
            checksums.push(read_u64(data, &mut pos)?);
        }
        let stored = read_u64(data, &mut pos)?;
        if stored != frame_checksum(&data[table_start..pos - 8]) {
            return Err(Error::ChecksumMismatch {
                chunk: None,
                offset: table_start as u64,
            });
        }
    }

    let mut offsets = Vec::with_capacity(count + 1);
    let mut offset = pos;
    for &e in &entries {
        offsets.push(offset);
        offset = offset
            .checked_add((e & SIZE_MASK) as usize)
            .ok_or(Error::Corrupt("chunk table overflow"))?;
    }
    offsets.push(offset);
    if complete && offset != data.len() {
        return Err(Error::Corrupt("stream length disagrees with chunk table"));
    }
    Ok(Some(Meta {
        header,
        entries,
        codec_ids,
        checksums,
        offsets,
        last_len,
    }))
}

/// Decoded length of the last of `count` chunks that tile `payload_len`
/// bytes, or `None` when `count` chunks cannot tile it: every chunk but the
/// last is exactly `chunk_size` bytes and the last holds 1 to `chunk_size`
/// (an empty payload has no chunks). The arithmetic is checked, so a forged
/// header/count pair fails here instead of underflowing later.
fn last_chunk_len(payload_len: usize, count: usize, chunk_size: usize) -> Option<usize> {
    let Some(full) = count.checked_sub(1) else {
        return (payload_len == 0).then_some(0);
    };
    let last = payload_len.checked_sub(full.checked_mul(chunk_size)?)?;
    (1..=chunk_size).contains(&last).then_some(last)
}

/// Parses and validates the container, returning the header and the
/// decompressed payload.
///
/// For v2 streams every checksum (header, table, per-chunk) is verified, so
/// corruption anywhere in the stream yields an error — never garbage
/// output. v1 streams carry no checksums; only structural validation
/// applies.
///
/// # Errors
///
/// Fails on malformed headers, truncated streams, checksum mismatches, or
/// chunk payloads the codec rejects.
pub fn decompress(
    data: &[u8],
    codec: &dyn ChunkCodec,
    threads: usize,
) -> Result<(Header, Vec<u8>), Error> {
    decompress_impl(data, Codec::Fixed(codec), threads)
}

/// Decompresses a per-chunk codec stream written by [`compress_adaptive`],
/// dispatching each chunk to the member codec recorded in the chunk table.
///
/// # Errors
///
/// As [`decompress`]; additionally [`Error::UnknownChunkCodec`] when the
/// table names a codec id `codec` does not know, and a structural error
/// when the stream carries no per-chunk codec table at all.
pub fn decompress_adaptive(
    data: &[u8],
    codec: &dyn AdaptiveChunkCodec,
    threads: usize,
) -> Result<(Header, Vec<u8>), Error> {
    decompress_impl(data, Codec::Adaptive(codec), threads)
}

fn decompress_impl(
    data: &[u8],
    codec: Codec<'_>,
    threads: usize,
) -> Result<(Header, Vec<u8>), Error> {
    let t = fpc_metrics::timer(fpc_metrics::Stage::ContainerDecode);
    let region = Region::parse(data)?;
    codec.check(region.header())?;
    let payload = region.decode_span(
        0,
        region.payload_len(),
        threads,
        |chunk, out| chunk.decode_into(codec, out),
        |_, error| Err(error),
    )?;
    t.finish(payload.len() as u64);
    Ok((*region.header(), payload))
}

/// One verified chunk: its compressed body, borrowed from the stream, plus
/// everything the chunk table recorded about it. [`Region::chunk`] and
/// [`StreamingDecoder::next_chunk`] hand one out only after the one
/// per-chunk verify step (the stored checksum on v2, the stored-length
/// invariant on raw chunks), so the body can be trusted as far as the
/// integrity layer guarantees (including as a cache key), and
/// [`StreamChunk::decode_into`] never verifies it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamChunk<'a> {
    /// Chunk index within the stream.
    pub index: usize,
    /// Codec id from the chunk table (0 for fixed-codec streams).
    pub codec_id: u8,
    /// Whether the chunk is stored raw.
    pub raw: bool,
    /// Original (decoded) chunk length.
    pub expected_len: usize,
    /// Compressed (or raw) chunk bytes.
    pub body: &'a [u8],
    /// The verified stored checksum (v2); `None` for v1 streams.
    stored_checksum: Option<u64>,
}

impl StreamChunk<'_> {
    /// The chunk's [`frame_checksum`]: the stored, already verified value
    /// on v2 streams, computed from `body` on v1 streams.
    pub fn checksum(&self) -> u64 {
        self.stored_checksum
            .unwrap_or_else(|| frame_checksum(self.body))
    }

    /// The one per-chunk decode step, into `out`, which is the chunk's
    /// `expected_len` bytes long: a raw chunk is copied out, any other is
    /// decoded by the codec (on the recorded `codec_id` for a selector).
    /// The caller runs [`Codec::check`] on the stream header first.
    ///
    /// # Errors
    ///
    /// Chunk bytes the codec rejects, a raw chunk of the wrong length for
    /// `out`, or [`Error::UnknownChunkCodec`] for a codec id an adaptive
    /// `codec` does not know.
    pub fn decode_into(&self, codec: Codec<'_>, out: &mut [u8]) -> Result<(), Error> {
        if self.raw {
            if self.body.len() != out.len() {
                return Err(Error::Corrupt("raw chunk length mismatch"));
            }
            out.copy_from_slice(self.body);
            return Ok(());
        }
        match codec {
            Codec::Fixed(c) => c.decode_into(self.body, out),
            Codec::Adaptive(c) => {
                if !c.knows_codec(self.codec_id) {
                    return Err(Error::UnknownChunkCodec {
                        chunk: self.index as u32,
                        codec: self.codec_id,
                    });
                }
                c.decode_into(self.codec_id, self.body, out)
            }
        }
    }
}

/// Incremental container parser: feed stream bytes as they arrive, pop
/// fully-received chunks one at a time.
///
/// It runs the one-shot paths' metadata parser over the bytes buffered so
/// far and their per-chunk verify step on each popped chunk, so the whole
/// stream never has to be resident. A pop lends the chunk's body straight
/// out of the buffer and only advances a consumed offset; the consumed
/// prefix is shifted out once, when [`StreamingDecoder::next_chunk`] runs
/// out of complete chunks, which moves less than one chunk. Memory is
/// bounded by the chunk table plus one in-flight chunk plus whatever the
/// caller feeds at a time, and every stream byte is copied once, into the
/// buffer. Header and table checksums are checked as soon as the metadata
/// region is complete, per-chunk checksums as each chunk is popped, and
/// the exact-length invariant at [`StreamingDecoder::finish`].
///
/// The decoder is codec-agnostic: it yields verified chunks
/// ([`StreamChunk`]); [`StreamChunk::decode_into`] materializes their
/// payload bytes, after [`Codec::check`] has run on the header.
#[derive(Default)]
pub struct StreamingDecoder {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already consumed (the metadata region
    /// and popped chunk bodies) that have not been shifted out yet.
    consumed: usize,
    /// Stream offset of `buf[0]`.
    base: usize,
    meta: Option<Meta>,
    next: usize,
}

impl StreamingDecoder {
    /// Creates an empty decoder.
    pub fn new() -> StreamingDecoder {
        StreamingDecoder::default()
    }

    /// Appends newly-arrived stream bytes.
    ///
    /// # Errors
    ///
    /// Fails as soon as the prefix received so far is provably not a valid
    /// stream: bad magic/version/header fields or checksum, inconsistent
    /// chunk table, or more bytes than the chunk table accounts for.
    /// Needing more bytes is not an error.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), Error> {
        self.buf.extend_from_slice(bytes);
        if self.meta.is_none() {
            // Nothing is consumed before the metadata region parses, so
            // `buf` still starts at stream offset 0.
            if let Some(meta) = parse_meta(&self.buf, false)? {
                self.consumed = meta.offsets[0];
                self.meta = Some(meta);
            }
        }
        if let Some(meta) = &self.meta {
            if self.base + self.buf.len() > meta.stream_len() {
                return Err(Error::Corrupt("stream length disagrees with chunk table"));
            }
        }
        Ok(())
    }

    /// The stream header, once enough bytes have arrived to parse and
    /// validate the metadata region.
    pub fn header(&self) -> Option<&Header> {
        self.meta.as_ref().map(|m| &m.header)
    }

    /// Bytes resident in the buffer: fed and not yet consumed, plus a
    /// consumed prefix that has not been shifted out yet.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Decoded length of the chunks whose bodies have fully arrived but
    /// have not been popped yet: what the pops before the next
    /// [`StreamingDecoder::feed`] will produce at most.
    pub fn ready_len(&self) -> usize {
        let Some(meta) = &self.meta else {
            return 0;
        };
        let received = self.base + self.buf.len();
        // `offsets[j + 1] <= received` holds for a prefix of chunks.
        let complete = meta.offsets[1..].partition_point(|&end| end <= received);
        let decoded_end = |chunks: usize| {
            let chunk_size = meta.header.chunk_size as usize;
            chunks
                .saturating_mul(chunk_size)
                .min(meta.header.payload_len as usize)
        };
        decoded_end(complete).saturating_sub(decoded_end(self.next))
    }

    /// Pops the next chunk if all of its bytes have arrived, verifying its
    /// stored checksum (v2) and the raw-length invariant. The chunk's body
    /// is borrowed from the internal buffer; popping only marks it
    /// consumed.
    ///
    /// Returns `Ok(None)` when the next chunk is incomplete (or the
    /// metadata region is), and after the last chunk has been popped. It
    /// then shifts the consumed bytes out of the buffer.
    ///
    /// # Errors
    ///
    /// Fails on a per-chunk checksum mismatch or raw-length violation.
    pub fn next_chunk(&mut self) -> Result<Option<StreamChunk<'_>>, Error> {
        let Some(meta) = &self.meta else {
            return Ok(None);
        };
        let i = self.next;
        if i >= meta.count() || meta.offsets[i + 1] > self.base + self.buf.len() {
            self.release_consumed();
            return Ok(None);
        }
        let (start, end) = (meta.offsets[i] - self.base, meta.offsets[i + 1] - self.base);
        debug_assert_eq!(start, self.consumed, "chunks pop in order");
        self.consumed = end;
        self.next = i + 1;
        meta.chunk(i, &self.buf[start..end]).map(Some)
    }

    /// Shifts the unconsumed tail of the buffer to its front.
    fn release_consumed(&mut self) {
        if self.consumed == 0 {
            return;
        }
        let len = self.buf.len();
        self.buf.copy_within(self.consumed..len, 0);
        self.buf.truncate(len - self.consumed);
        self.base += self.consumed;
        self.consumed = 0;
    }

    /// Validates stream completion: the metadata region parsed, every
    /// chunk was popped, and not a byte is missing or left over.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] for truncation (including a stream so
    /// short its metadata never parsed).
    pub fn finish(&self) -> Result<(), Error> {
        let Some(meta) = &self.meta else {
            return Err(Error::UnexpectedEof);
        };
        if self.next < meta.count() || self.consumed != self.buf.len() {
            return Err(Error::UnexpectedEof);
        }
        Ok(())
    }
}

/// Per-chunk damage record produced by [`verify`] and
/// [`decompress_tolerant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkDamage {
    /// Index of the damaged chunk.
    pub chunk: u32,
    /// Byte offset of the chunk's compressed body within the stream.
    pub offset: u64,
    /// What went wrong.
    pub error: Error,
}

/// Summary of a verification or tolerant-decode pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DamageReport {
    /// Total chunks in the stream.
    pub chunks: usize,
    /// Whether the stream carries checksums (v2) — if `false`, a clean
    /// report only means the structure is consistent, not that the payload
    /// bytes are intact.
    pub checksummed: bool,
    /// The damaged chunks, in index order.
    pub damaged: Vec<ChunkDamage>,
}

impl DamageReport {
    /// `true` when no chunk-level damage was found.
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty()
    }
}

/// Verifies a stream's integrity without materializing the output.
///
/// Checks magic, version, header checksum, chunk-table consistency, the
/// table checksum, and every chunk's checksum (v2). Chunk payloads are
/// *not* decoded, so this runs at hashing speed regardless of codec cost.
///
/// # Errors
///
/// Returns an error when the framing itself is unusable (bad magic or
/// version, truncation, header/table checksum mismatch, inconsistent
/// table). Per-chunk damage is reported in the returned [`DamageReport`]
/// instead, so one bad chunk does not mask the state of the rest.
pub fn verify(data: &[u8]) -> Result<(Header, DamageReport), Error> {
    let region = Region::parse(data)?;
    let mut report = region.report();
    for i in 0..region.chunks() {
        if let Err(error) = region.chunk(i) {
            report.damaged.push(region.damage(i, error));
        }
    }
    Ok((*region.header(), report))
}

/// Graceful-degradation decode: decompresses every verifiable chunk and
/// zero-fills the damaged ones, returning the payload alongside a
/// per-chunk damage report.
///
/// This is the building block for serving partially damaged archives: a
/// stream with one corrupted chunk still yields every other chunk's bytes
/// at their correct offsets (damaged spans read as zeros).
///
/// A chunk is "damaged" when its checksum mismatches (v2), its codec
/// rejects the bytes, it decodes to the wrong length, or (adaptive
/// `codec`) its table entry names an unknown codec id
/// ([`Error::UnknownChunkCodec`]) — so one hostile table byte cannot take
/// down the remaining chunks. Framing damage (header, chunk table) cannot
/// be tolerated — without a trustworthy table there are no chunk
/// boundaries to salvage — and is returned as an error.
///
/// # Errors
///
/// Fails only on unusable framing, as for [`verify`], or when the stream
/// layout does not match `codec` ([`Codec::check`]).
pub fn decompress_tolerant(
    data: &[u8],
    codec: Codec<'_>,
    threads: usize,
) -> Result<(Header, Vec<u8>, DamageReport), Error> {
    let region = Region::parse(data)?;
    codec.check(region.header())?;
    let mut report = region.report();
    // A damaged chunk's slot reads as zeros: `decode_slot` re-zeroes it.
    let payload = region.decode_span(
        0,
        region.payload_len(),
        threads,
        |chunk, out| chunk.decode_into(codec, out),
        |i, error| {
            report.damaged.push(region.damage(i, error));
            Ok(())
        },
    )?;
    Ok((*region.header(), payload, report))
}

/// A parsed container frame held open for random access.
///
/// Parsing validates the header, chunk table, and (v2) the header and
/// table checksums exactly once; every subsequent [`Region::chunk`] or
/// [`Region::decode_range`] call reuses that metadata and touches only
/// the chunks it needs. Per-chunk payload checksums are still verified
/// lazily, chunk by chunk, as each chunk is read.
///
/// Ranges are expressed in *payload* coordinates: `offset` is a byte
/// offset into the decoded chunked payload (`header.payload_len` bytes),
/// with inclusive start and exclusive end (`offset..offset + len`). For
/// algorithms whose payload equals the original data this is also an
/// original-data coordinate; algorithms with a global preprocessing stage
/// (DPratio) map coordinates above this layer.
pub struct Region<'a> {
    meta: Meta,
    data: &'a [u8],
}

impl<'a> Region<'a> {
    /// Parses and validates the stream's framing (header, chunk table,
    /// and for v2 the header/table checksums) without decoding any chunk.
    /// The stream is borrowed, never copied.
    ///
    /// # Errors
    ///
    /// Fails on malformed or truncated framing, as for [`decompress`].
    pub fn parse(data: &'a [u8]) -> Result<Region<'a>, Error> {
        // A complete parse never waits for more bytes, so `None` cannot
        // occur; it would mean truncation.
        let meta = parse_meta(data, true)?.ok_or(Error::UnexpectedEof)?;
        Ok(Region { meta, data })
    }

    /// The stream header.
    pub fn header(&self) -> &Header {
        &self.meta.header
    }

    /// Number of chunks in the stream.
    pub fn chunks(&self) -> usize {
        self.meta.count()
    }

    /// Decoded length of chunk `index` (the final chunk may be short).
    pub fn chunk_len(&self, index: usize) -> usize {
        if index >= self.chunks() {
            return 0;
        }
        self.meta.expected_len(index)
    }

    /// The per-chunk codec ids recorded in the chunk table, one per chunk
    /// (raw-stored chunks record id `0`). Empty for fixed-algorithm
    /// streams, which carry no codec table.
    pub fn chunk_codec_ids(&self) -> &[u8] {
        &self.meta.codec_ids
    }

    /// Whether chunk `index` is stored raw (uncompressed). A raw chunk's
    /// stored bytes *are* its decoded bytes, so content-addressed cache
    /// layers skip raw chunks — caching them would only duplicate the
    /// stream's own bytes. Out-of-range indices report `false`.
    pub fn chunk_raw(&self, index: usize) -> bool {
        index < self.chunks() && self.meta.raw(index)
    }

    /// Chunk `index` as a verified view: its checksum (v2) and, for raw
    /// chunks, the stored-length invariant are checked, the same verify
    /// step the streaming decoder runs, which makes the body safe to
    /// decode and to use as a content address. This is the
    /// random-access corollary of the paper's "each chunk is independent"
    /// design (§3).
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range index or a checksum/length mismatch.
    pub fn chunk(&self, index: usize) -> Result<StreamChunk<'a>, Error> {
        let (Some(&start), Some(&end)) = (
            self.meta.offsets.get(index),
            self.meta.offsets.get(index + 1),
        ) else {
            return Err(Error::Corrupt("chunk index out of range"));
        };
        self.meta.chunk(index, &self.data[start..end])
    }

    /// The stored (compressed, or raw) bytes of chunk `index`, verified
    /// as [`Region::chunk`] verifies them.
    ///
    /// # Errors
    ///
    /// As [`Region::chunk`].
    pub fn chunk_body(&self, index: usize) -> Result<&'a [u8], Error> {
        Ok(self.chunk(index)?.body)
    }

    /// An empty damage report for this stream, to be filled chunk by
    /// chunk.
    fn report(&self) -> DamageReport {
        DamageReport {
            chunks: self.chunks(),
            checksummed: self.meta.header.version >= VERSION,
            damaged: Vec::new(),
        }
    }

    fn damage(&self, index: usize, error: Error) -> ChunkDamage {
        ChunkDamage {
            chunk: index as u32,
            offset: self.meta.offsets[index] as u64,
            error,
        }
    }

    /// Decoded payload length (`header.payload_len`, which [`parse_meta`]
    /// checked fits in memory addresses).
    fn payload_len(&self) -> usize {
        self.meta.header.payload_len as usize
    }

    /// Verifies chunk `index` and writes its decoded bytes from `skip` on
    /// into `slot`, the part of the output the chunk covers. A raw chunk
    /// is copied from the stream. A chunk `slot` covers whole is decoded
    /// by `step` straight into the zero-filled slot, which a failed
    /// decode re-zeroes, so a damaged chunk reads as zeros. Only an edge
    /// chunk of a range decodes into the worker's scratch arena first.
    fn decode_slot<S>(
        &self,
        index: usize,
        skip: usize,
        slot: &mut OutSlot<'_>,
        step: &S,
    ) -> Result<(), Error>
    where
        S: Fn(&StreamChunk<'a>, &mut [u8]) -> Result<(), Error>,
    {
        let chunk = self.chunk(index)?;
        if chunk.raw {
            // The verify step pins a raw body to the chunk's decoded
            // length, which `skip + slot.len()` does not exceed.
            let covered = chunk.body.get(skip..skip + slot.len());
            slot.fill(covered.ok_or(Error::Corrupt("raw chunk length mismatch"))?);
            return Ok(());
        }
        if slot.len() == chunk.expected_len {
            let out = slot.zeroed();
            return step(&chunk, out).inspect_err(|_| out.fill(0));
        }
        fpc_pool::with_scratch(|buf| {
            buf.resize(chunk.expected_len, 0);
            step(&chunk, buf)?;
            slot.fill(&buf[skip..skip + slot.len()]);
            Ok(())
        })
    }

    /// The one in-place decode behind [`decompress`],
    /// [`decompress_tolerant`] and [`Region::decode_range`]: returns payload
    /// bytes `lo..hi` (in range), decoded chunk by chunk on the pool.
    ///
    /// Each touched chunk is verified and decoded by `step(chunk, out)`
    /// ([`Region::decode_slot`]) on the worker that claimed it, so each
    /// chunk lands at its table-known offset without a pass on the calling
    /// thread. The output grows one window ([`WINDOW_BYTES`], in whole
    /// chunks) at a time. After each window, `failed(i, error)` sees that
    /// window's failed chunks in index order (their slots read as zeros);
    /// an error it returns stops the decode.
    fn decode_span<S>(
        &self,
        lo: usize,
        hi: usize,
        threads: usize,
        step: S,
        mut failed: impl FnMut(usize, Error) -> Result<(), Error>,
    ) -> Result<Vec<u8>, Error>
    where
        S: Fn(&StreamChunk<'a>, &mut [u8]) -> Result<(), Error> + Sync,
    {
        let chunk_size = self.meta.header.chunk_size as usize;
        let window = WINDOW_BYTES.div_ceil(chunk_size) * chunk_size;
        let mut out = Vec::new();
        let mut start = lo;
        while start < hi {
            let (first, phase) = (start / chunk_size, start % chunk_size);
            let end = (start - phase).saturating_add(window).min(hi);
            let results = fpc_pool::fill_slots(
                &mut out,
                phase,
                chunk_size,
                end - start,
                threads,
                |j, slot| {
                    let skip = if j == 0 { phase } else { 0 };
                    self.decode_slot(first + j, skip, slot, &step)
                },
            );
            for (j, result) in results.into_iter().enumerate() {
                if let Err(error) = result {
                    failed(first + j, error)?;
                }
            }
            start = end;
        }
        Ok(out)
    }

    /// Decodes exactly the payload bytes `offset..offset + len`, touching
    /// only the chunks that overlap the range.
    ///
    /// The range is mapped to the minimal chunk subset
    /// `[offset / chunk_size, (offset + len - 1) / chunk_size]`, decoded
    /// in parallel on the shared pool. Each touched chunk is verified
    /// once, then `decode(chunk, out)` writes its `expected_len` decoded
    /// bytes into `out`: for a chunk the range covers whole, straight into
    /// its place in the returned buffer; for the (at most two) edge
    /// chunks, into the worker's scratch arena, of which the covered part
    /// is copied out. Raw chunks are copied straight from the stream and
    /// never reach `decode`. Pass `|chunk, out| chunk.decode_into(codec,
    /// out)` for a plain decode (after [`Codec::check`]), or put a cache
    /// in front of it. Chunks outside the range are never read, so damage
    /// there goes unnoticed, and damage inside the range is always
    /// detected (v2).
    ///
    /// # Errors
    ///
    /// [`Error::RangeOutOfBounds`] when `offset + len` overflows or
    /// exceeds the payload length; otherwise the error of the
    /// lowest-index chunk that failed its verify step or `decode`.
    pub fn decode_range<F>(
        &self,
        offset: u64,
        len: u64,
        threads: usize,
        decode: F,
    ) -> Result<Vec<u8>, Error>
    where
        F: Fn(&StreamChunk<'a>, &mut [u8]) -> Result<(), Error> + Sync,
    {
        let available = self.meta.header.payload_len;
        let out_of_bounds = Error::RangeOutOfBounds {
            offset,
            len,
            available,
        };
        let end = offset.checked_add(len).ok_or(out_of_bounds.clone())?;
        if end > available {
            return Err(out_of_bounds);
        }
        fpc_metrics::incr(fpc_metrics::Counter::ContainerRangeRequests, 1);
        fpc_metrics::incr(
            fpc_metrics::Counter::ContainerRangeChunksTotal,
            self.chunks() as u64,
        );
        if len == 0 {
            return Ok(Vec::new());
        }
        let (lo, hi) = (offset as usize, end as usize);
        let out = self.decode_span(lo, hi, threads, decode, |_, error| Err(error))?;
        let chunk_size = self.meta.header.chunk_size as usize;
        let (first, last) = (lo / chunk_size, (hi - 1) / chunk_size);
        fpc_metrics::incr(
            fpc_metrics::Counter::ContainerRangeChunksTouched,
            (last - first + 1) as u64,
        );
        fpc_metrics::incr(
            fpc_metrics::Counter::ContainerRangeBytesDecoded,
            (((last + 1).saturating_mul(chunk_size)).min(self.payload_len()) - first * chunk_size)
                as u64,
        );
        fpc_metrics::incr(fpc_metrics::Counter::ContainerRangeBytesReturned, len);
        Ok(out)
    }
}

/// Reads just the header of a container stream (for introspection).
///
/// # Errors
///
/// Fails if the stream is shorter than a header or the magic/version do not
/// match.
pub fn read_header(data: &[u8]) -> Result<Header, Error> {
    let mut pos = 0;
    Header::read(data, &mut pos)
}

/// Per-chunk compression statistics (for reporting and the ablation study).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// Number of chunks in the stream.
    pub chunks: usize,
    /// Chunks stored raw because the codec failed to shrink them.
    pub raw_chunks: usize,
    /// Total compressed payload bytes (excluding header and table).
    pub compressed_payload: usize,
    /// Per-codec pick counts `(codec_id, chunks)` for adaptive streams,
    /// sorted by id and counting only non-raw chunks (raw chunks are in
    /// [`ChunkStats::raw_chunks`]). Empty for fixed-algorithm streams.
    pub codec_picks: Vec<(u8, usize)>,
}

/// Computes [`ChunkStats`] from a container stream without decoding it.
///
/// # Errors
///
/// Fails on malformed headers or tables.
pub fn stats(data: &[u8]) -> Result<ChunkStats, Error> {
    let meta = Region::parse(data)?.meta;
    let mut stats = ChunkStats {
        chunks: meta.count(),
        ..ChunkStats::default()
    };
    let mut picks = [0usize; 256];
    for (i, &e) in meta.entries.iter().enumerate() {
        if e & RAW_FLAG != 0 {
            stats.raw_chunks += 1;
        } else if let Some(&id) = meta.codec_ids.get(i) {
            picks[id as usize] += 1;
        }
        stats.compressed_payload += (e & SIZE_MASK) as usize;
    }
    stats.codec_picks = picks
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(id, &n)| (id as u8, n))
        .collect();
    Ok(stats)
}

fn read_u32(data: &[u8], pos: &mut usize) -> Result<u32, Error> {
    let rest = data.get(*pos..).ok_or(Error::UnexpectedEof)?;
    let Some((bytes, _)) = rest.split_first_chunk::<4>() else {
        return Err(Error::UnexpectedEof);
    };
    *pos += 4;
    Ok(u32::from_le_bytes(*bytes))
}

fn read_u64(data: &[u8], pos: &mut usize) -> Result<u64, Error> {
    let rest = data.get(*pos..).ok_or(Error::UnexpectedEof)?;
    let Some((bytes, _)) = rest.split_first_chunk::<8>() else {
        return Err(Error::UnexpectedEof);
    };
    *pos += 8;
    Ok(u64::from_le_bytes(*bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity codec with a 1-byte marker so "compressed" ≠ raw.
    struct Identity;
    impl ChunkCodec for Identity {
        fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
            out.push(0xEE);
            out.extend_from_slice(chunk);
        }
        fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
            match data.split_first() {
                Some((0xEE, body)) if body.len() == out.len() => {
                    out.copy_from_slice(body);
                    Ok(())
                }
                _ => Err(Error::Corrupt("missing marker or wrong length")),
            }
        }
    }

    /// Codec that halves runs of identical bytes (so some chunks shrink).
    struct Rle;
    impl ChunkCodec for Rle {
        fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
            let mut i = 0;
            while i < chunk.len() {
                let b = chunk[i];
                let mut run = 1usize;
                while i + run < chunk.len() && chunk[i + run] == b && run < 255 {
                    run += 1;
                }
                out.push(run as u8);
                out.push(b);
                i += run;
            }
        }
        fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
            if !data.len().is_multiple_of(2) {
                return Err(Error::UnexpectedEof);
            }
            let mut at = 0;
            for pair in data.chunks_exact(2) {
                let run = at + pair[0] as usize;
                out.get_mut(at..run)
                    .ok_or(Error::Corrupt("runs overrun the chunk"))?
                    .fill(pair[1]);
                at = run;
            }
            if at != out.len() {
                return Err(Error::Corrupt("runs fall short of the chunk"));
            }
            Ok(())
        }
    }

    fn header_for(payload: &[u8]) -> Header {
        Header::new(ALGO_SP_SPEED, 4, payload.len() as u64, payload.len() as u64)
    }

    fn v1_header_for(payload: &[u8]) -> Header {
        let mut h = header_for(payload);
        h.version = VERSION_1;
        h
    }

    const RLE: Codec<'static> = Codec::Fixed(&Rle);
    const IDENTITY: Codec<'static> = Codec::Fixed(&Identity);
    const PICKY: Codec<'static> = Codec::Adaptive(&PickyAuto);

    /// Plain range decode through the step-taking range method.
    fn range(
        region: &Region<'_>,
        codec: Codec<'_>,
        offset: u64,
        len: u64,
        threads: usize,
    ) -> Result<Vec<u8>, Error> {
        codec.check(region.header())?;
        region.decode_range(offset, len, threads, |chunk, out| {
            chunk.decode_into(codec, out)
        })
    }

    /// Decodes one verified chunk into a fresh buffer.
    fn decoded(chunk: &StreamChunk<'_>, codec: Codec<'_>) -> Result<Vec<u8>, Error> {
        let mut out = vec![0; chunk.expected_len];
        chunk.decode_into(codec, &mut out)?;
        Ok(out)
    }

    /// Decodes one chunk of a parsed region into a fresh buffer.
    fn chunk_at(region: &Region<'_>, codec: Codec<'_>, index: usize) -> Result<Vec<u8>, Error> {
        codec.check(region.header())?;
        decoded(&region.chunk(index)?, codec)
    }

    /// Parses `stream` and decodes one chunk.
    fn chunk_of(stream: &[u8], codec: Codec<'_>, index: usize) -> Result<Vec<u8>, Error> {
        chunk_at(&Region::parse(stream)?, codec, index)
    }

    /// Decodes one streamed chunk into a fresh buffer.
    fn stream_chunk(chunk: &StreamChunk<'_>, codec: Codec<'_>) -> Vec<u8> {
        decoded(chunk, codec).unwrap()
    }

    fn roundtrip(payload: &[u8], codec: &dyn ChunkCodec, threads: usize) -> Vec<u8> {
        let stream = compress(header_for(payload), payload, codec, threads).unwrap();
        let (header, out) = decompress(&stream, codec, threads).unwrap();
        assert_eq!(out, payload);
        assert_eq!(header.original_len, payload.len() as u64);
        stream
    }

    #[test]
    fn empty_payload() {
        roundtrip(&[], &Identity, 1);
        roundtrip(&[], &Identity, 4);
    }

    #[test]
    fn single_partial_chunk() {
        let payload = vec![1u8, 2, 3];
        roundtrip(&payload, &Identity, 1);
    }

    #[test]
    fn exact_chunk_boundary() {
        let payload = vec![7u8; DEFAULT_CHUNK_SIZE];
        roundtrip(&payload, &Rle, 1);
        let payload = vec![7u8; DEFAULT_CHUNK_SIZE * 3];
        roundtrip(&payload, &Rle, 2);
    }

    #[test]
    fn many_chunks_parallel_matches_serial() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 7 + 123)
            .map(|i| (i % 251) as u8)
            .collect();
        let serial = roundtrip(&payload, &Rle, 1);
        let parallel = roundtrip(&payload, &Rle, 8);
        assert_eq!(
            serial, parallel,
            "stream must be deterministic across thread counts"
        );
    }

    #[test]
    fn v1_streams_still_roundtrip() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 2 + 17)
            .map(|i| (i % 7) as u8)
            .collect();
        let stream = compress(v1_header_for(&payload), &payload, &Rle, 2).unwrap();
        let (header, out) = decompress(&stream, &Rle, 2).unwrap();
        assert_eq!(out, payload);
        assert_eq!(header.version, VERSION_1);
        // The v1 frame has no checksum regions: 28-byte header + count +
        // table + payload only.
        let stats = stats(&stream).unwrap();
        let framing = Header::ENCODED_LEN + 4 + 4 * stats.chunks;
        assert_eq!(stats.compressed_payload + framing, stream.len());
    }

    #[test]
    fn v2_frame_overhead_is_exactly_checksums() {
        let payload = vec![5u8; DEFAULT_CHUNK_SIZE * 3];
        let v1 = compress(v1_header_for(&payload), &payload, &Rle, 1).unwrap();
        let v2 = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        // header sum (8) + per-chunk sums (8×3) + table sum (8).
        assert_eq!(v2.len(), v1.len() + 8 + 8 * 3 + 8);
    }

    #[test]
    fn incompressible_chunks_stored_raw() {
        // Identity codec always expands by 1 byte, so every chunk is raw.
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 2)
            .map(|i| (i % 256) as u8)
            .collect();
        let stream = roundtrip(&payload, &Identity, 2);
        let s = stats(&stream).unwrap();
        assert_eq!(s.chunks, 2);
        assert_eq!(s.raw_chunks, 2);
        assert_eq!(s.compressed_payload, payload.len());
    }

    #[test]
    fn compressible_chunks_not_raw() {
        let payload = vec![0u8; DEFAULT_CHUNK_SIZE * 2];
        let stream = roundtrip(&payload, &Rle, 2);
        let s = stats(&stream).unwrap();
        assert_eq!(s.raw_chunks, 0);
        assert!(s.compressed_payload < payload.len() / 10);
    }

    #[test]
    fn header_survives() {
        let payload = vec![9u8; 100];
        let mut h = header_for(&payload);
        h.algorithm = ALGO_DP_RATIO;
        h.element_width = 8;
        let stream = compress(h, &payload, &Rle, 1).unwrap();
        let parsed = read_header(&stream).unwrap();
        assert_eq!(parsed.algorithm, ALGO_DP_RATIO);
        assert_eq!(parsed.element_width, 8);
        assert_eq!(parsed.payload_len, 100);
        assert_eq!(parsed.version, VERSION);
    }

    #[test]
    fn compress_rejects_lying_headers() {
        let payload = vec![1u8; 100];

        // payload_len disagrees with the actual payload: a release build
        // must refuse instead of emitting an undecodable stream.
        let mut lying = header_for(&payload);
        lying.payload_len = 99;
        match compress(lying, &payload, &Rle, 1) {
            Err(Error::InvalidHeader { field, value }) => {
                assert_eq!(field, "payload_len");
                assert_eq!(value, 99);
            }
            other => panic!("expected InvalidHeader, got {other:?}"),
        }

        // Unknown format version.
        let mut future = header_for(&payload);
        future.version = 9;
        assert!(matches!(
            compress(future, &payload, &Rle, 1),
            Err(Error::UnsupportedVersion(9))
        ));

        // Zero chunk size would loop forever / divide by zero downstream.
        let mut zero = header_for(&payload);
        zero.chunk_size = 0;
        assert!(matches!(
            compress(zero, &payload, &Rle, 1),
            Err(Error::InvalidHeader {
                field: "chunk_size",
                ..
            })
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let payload = vec![3u8; DEFAULT_CHUNK_SIZE + 5];
        let stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        for cut in [1usize, 5, stream.len() / 2, stream.len() - 1] {
            assert!(decompress(&stream[..stream.len() - cut], &Rle, 1).is_err());
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let payload = vec![3u8; 50];
        let mut stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        stream[0] ^= 0xFF;
        assert!(matches!(decompress(&stream, &Rle, 1), Err(Error::BadMagic)));
    }

    #[test]
    fn corrupt_chunk_count_rejected() {
        let payload = vec![3u8; 50];
        let mut stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        // Chunk count lives right after the v2 header.
        let pos = Header::ENCODED_LEN_V2;
        stream[pos] = 99;
        assert!(decompress(&stream, &Rle, 1).is_err());
    }

    #[test]
    fn extra_trailing_bytes_rejected() {
        let payload = vec![3u8; 50];
        let mut stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        stream.push(0);
        assert!(matches!(
            decompress(&stream, &Rle, 1),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn every_payload_flip_detected_in_v2() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 2 + 99)
            .map(|i| (i % 13) as u8)
            .collect();
        let stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        let stats = stats(&stream).unwrap();
        let payload_start = stream.len() - stats.compressed_payload;
        for pos in payload_start..stream.len() {
            let mut bad = stream.clone();
            bad[pos] ^= 1;
            match decompress(&bad, &Rle, 1) {
                Err(Error::ChecksumMismatch { chunk: Some(_), .. }) => {}
                other => panic!("payload flip at {pos} gave {other:?}"),
            }
        }
    }

    #[test]
    fn table_and_header_flips_detected_in_v2() {
        let payload = vec![1u8; DEFAULT_CHUNK_SIZE + 7];
        let stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        let stats = stats(&stream).unwrap();
        let payload_start = stream.len() - stats.compressed_payload;
        for pos in 0..payload_start {
            let mut bad = stream.clone();
            bad[pos] ^= 0x10;
            assert!(
                decompress(&bad, &Rle, 1).is_err(),
                "metadata flip at {pos} accepted"
            );
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A tiny stream claiming a huge chunk count / payload length must be
        // rejected by the length pre-checks, not by the allocator.
        let mut h = header_for(&[]);
        h.payload_len = u64::MAX / 2;
        h.original_len = u64::MAX / 2;
        let mut data = Vec::new();
        h.write(&mut data);
        data.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd count
        let err = decompress(&data, &Rle, 1).unwrap_err();
        assert!(
            matches!(err, Error::Corrupt(_) | Error::LengthOverflow { .. }),
            "got {err:?}"
        );

        // Consistent count/payload pair that the stream cannot back.
        let mut h = header_for(&[]);
        h.payload_len = 1 << 40;
        h.original_len = 1 << 40;
        let mut data = Vec::new();
        h.write(&mut data);
        let count = (1u64 << 40).div_ceil(DEFAULT_CHUNK_SIZE as u64) as u32;
        data.extend_from_slice(&count.to_le_bytes());
        match decompress(&data, &Rle, 1).unwrap_err() {
            Error::LengthOverflow {
                requested,
                available,
                ..
            } => {
                assert!(requested > available);
            }
            other => panic!("expected LengthOverflow, got {other:?}"),
        }
    }

    #[test]
    fn forged_count_payload_pairs_fail_structurally() {
        // The last chunk's length is derived once, with checked
        // arithmetic, where the table is parsed; a header/count pair that
        // cannot tile the payload is a structured error on every path.
        let want = Error::Corrupt("chunk count does not match payload length");
        let cs = DEFAULT_CHUNK_SIZE as u64;
        for (payload_len, count) in [
            (cs * 3, 4u32),           // one chunk too many: the last would be empty
            (cs * 3 + 1, 3),          // one too few: the last would exceed chunk_size
            (1, 0),                   // bytes but no chunks
            (0, 1),                   // a chunk but no bytes
            (cs, u32::MAX),           // (count - 1) * chunk_size exceeds payload_len
            (u64::from(u32::MAX), 1), // one chunk claiming 4 GiB
        ] {
            let mut h = header_for(&[]);
            h.payload_len = payload_len;
            h.original_len = payload_len;
            let mut data = Vec::new();
            h.write(&mut data);
            data.extend_from_slice(&count.to_le_bytes());
            let case = format!("payload_len {payload_len}, count {count}");
            assert_eq!(decompress(&data, &Rle, 1).unwrap_err(), want, "{case}");
            assert_eq!(
                decompress_tolerant(&data, RLE, 1).unwrap_err(),
                want,
                "{case}"
            );
            assert_eq!(verify(&data).unwrap_err(), want, "{case}");
            assert_eq!(
                StreamingDecoder::new().feed(&data),
                Err(want.clone()),
                "{case}"
            );
        }
        assert_eq!(last_chunk_len(0, 0, 16), Some(0));
        assert_eq!(last_chunk_len(16 * 2 + 5, 3, 16), Some(5));
        assert_eq!(last_chunk_len(16 * 3, 3, 16), Some(16));
        assert_eq!(last_chunk_len(usize::MAX, usize::MAX, 2), None);
    }

    #[test]
    fn verify_reports_damage_without_decoding() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 3 + 50)
            .map(|i| (i % 17) as u8)
            .collect();
        let stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        let (header, report) = verify(&stream).unwrap();
        assert_eq!(header.version, VERSION);
        assert_eq!(report.chunks, 4);
        assert!(report.checksummed);
        assert!(report.is_clean());

        // Corrupt the middle of the payload region: exactly one chunk damaged.
        let stats = stats(&stream).unwrap();
        let payload_start = stream.len() - stats.compressed_payload;
        let mut bad = stream.clone();
        let hit = payload_start + stats.compressed_payload / 2;
        bad[hit] ^= 0xFF;
        let (_, report) = verify(&bad).unwrap();
        assert_eq!(report.damaged.len(), 1);
        let damage = &report.damaged[0];
        assert!(matches!(damage.error, Error::ChecksumMismatch { .. }));
        assert!((damage.offset as usize) <= hit);

        // v1 streams verify structurally but are not checksummed.
        let v1 = compress(v1_header_for(&payload), &payload, &Rle, 1).unwrap();
        let (_, report) = verify(&v1).unwrap();
        assert!(!report.checksummed);
        assert!(report.is_clean());
    }

    #[test]
    fn tolerant_decode_zero_fills_damaged_chunks() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 4)
            .map(|i| (i % 23) as u8)
            .collect();
        let stream = compress(header_for(&payload), &payload, &Rle, 2).unwrap();
        let stats = stats(&stream).unwrap();
        let payload_start = stream.len() - stats.compressed_payload;

        // Undamaged: tolerant == strict.
        let (_, out, report) = decompress_tolerant(&stream, RLE, 2).unwrap();
        assert_eq!(out, payload);
        assert!(report.is_clean());

        // Damage one byte in the payload: exactly one chunk zero-filled,
        // all others recovered bit-exactly.
        let mut bad = stream.clone();
        bad[payload_start] ^= 0x55;
        let (_, out, report) = decompress_tolerant(&bad, RLE, 2).unwrap();
        assert_eq!(out.len(), payload.len());
        assert_eq!(report.damaged.len(), 1);
        let damaged = report.damaged[0].chunk as usize;
        for i in 0..4 {
            let span = i * DEFAULT_CHUNK_SIZE..(i + 1) * DEFAULT_CHUNK_SIZE;
            if i == damaged {
                assert!(
                    out[span].iter().all(|&b| b == 0),
                    "damaged chunk not zeroed"
                );
            } else {
                assert_eq!(out[span.clone()], payload[span], "chunk {i} not recovered");
            }
        }
    }

    #[test]
    fn single_chunk_random_access() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 3 + 777)
            .map(|i| (i % 251) as u8)
            .collect();
        let stream = compress(header_for(&payload), &payload, &Rle, 2).unwrap();
        for index in 0..4 {
            let chunk = chunk_of(&stream, RLE, index).unwrap();
            let start = index * DEFAULT_CHUNK_SIZE;
            let end = (start + DEFAULT_CHUNK_SIZE).min(payload.len());
            assert_eq!(chunk, &payload[start..end], "chunk {index}");
        }
        assert!(chunk_of(&stream, RLE, 4).is_err(), "out-of-range index");
    }

    #[test]
    fn random_access_handles_raw_chunks() {
        // Identity codec expands, so chunks are stored raw.
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE + 100)
            .map(|i| (i % 256) as u8)
            .collect();
        let stream = compress(header_for(&payload), &payload, &Identity, 1).unwrap();
        assert_eq!(
            chunk_of(&stream, IDENTITY, 0).unwrap(),
            &payload[..DEFAULT_CHUNK_SIZE]
        );
        assert_eq!(
            chunk_of(&stream, IDENTITY, 1).unwrap(),
            &payload[DEFAULT_CHUNK_SIZE..]
        );
    }

    #[test]
    fn decode_range_matches_full_decode_slices() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 5 + 321)
            .map(|i| (i % 241) as u8)
            .collect();
        for header in [header_for(&payload), v1_header_for(&payload)] {
            let stream = compress(header, &payload, &Rle, 2).unwrap();
            let region = Region::parse(&stream).unwrap();
            assert_eq!(region.chunks(), 6);
            let cases: &[(u64, u64)] = &[
                (0, 0),                                                     // empty at start
                (payload.len() as u64, 0),                                  // empty at end
                (10, 100),                                                  // inside chunk 0
                (DEFAULT_CHUNK_SIZE as u64 - 3, 7),                         // spans a boundary
                (DEFAULT_CHUNK_SIZE as u64, DEFAULT_CHUNK_SIZE as u64 * 3), // whole chunks
                (DEFAULT_CHUNK_SIZE as u64 * 5, 321),                       // exactly the tail
                (DEFAULT_CHUNK_SIZE as u64 * 4 + 9, 16_000 + 312),          // spans into tail
                (0, payload.len() as u64),                                  // whole file
            ];
            for &(offset, len) in cases {
                let got = range(&region, RLE, offset, len, 2).unwrap();
                let want = &payload[offset as usize..(offset + len) as usize];
                assert_eq!(got, want, "range {offset}+{len} v{}", header.version);
                // The one-shot form agrees.
                assert_eq!(
                    range(&Region::parse(&stream).unwrap(), RLE, offset, len, 1).unwrap(),
                    want
                );
            }
        }
    }

    #[test]
    fn decode_range_rejects_out_of_bounds() {
        let payload = vec![2u8; 1000];
        let stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        let region = Region::parse(&stream).unwrap();
        for (offset, len) in [(1000u64, 1u64), (999, 2), (u64::MAX, 1), (0, 1001)] {
            match range(&region, RLE, offset, len, 1) {
                Err(Error::RangeOutOfBounds { available, .. }) => assert_eq!(available, 1000),
                other => panic!("range {offset}+{len} gave {other:?}"),
            }
        }
        // Zero-length at the very end is still in bounds.
        assert_eq!(range(&region, RLE, 1000, 0, 1).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn decode_range_detects_damage_only_inside_the_range() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 4)
            .map(|i| (i % 29) as u8)
            .collect();
        let stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        let stats = stats(&stream).unwrap();
        let payload_start = stream.len() - stats.compressed_payload;
        // Damage chunk 0's compressed body.
        let mut bad = stream.clone();
        bad[payload_start] ^= 0x40;
        let region = Region::parse(&bad).unwrap();
        // A range inside chunk 2 never touches the damage.
        let offset = DEFAULT_CHUNK_SIZE as u64 * 2 + 5;
        let got = range(&region, RLE, offset, 64, 1).unwrap();
        assert_eq!(got, &payload[offset as usize..offset as usize + 64]);
        // A range overlapping chunk 0 must report the checksum mismatch.
        assert!(matches!(
            range(&region, RLE, 0, 10, 1),
            Err(Error::ChecksumMismatch { chunk: Some(0), .. })
        ));
    }

    #[test]
    fn empty_container_survives_every_decode_path() {
        for header in [header_for(&[]), v1_header_for(&[])] {
            let stream = compress(header, &[], &Rle, 1).unwrap();
            let (_, out) = decompress(&stream, &Rle, 1).unwrap();
            assert!(out.is_empty());
            let (_, out, report) = decompress_tolerant(&stream, RLE, 1).unwrap();
            assert!(out.is_empty());
            assert!(report.is_clean());
            let region = Region::parse(&stream).unwrap();
            assert_eq!(region.chunks(), 0);
            // The empty range is the only valid one; it must not panic.
            assert_eq!(range(&region, RLE, 0, 0, 1).unwrap(), Vec::<u8>::new());
            assert!(matches!(
                range(&region, RLE, 0, 1, 1),
                Err(Error::RangeOutOfBounds { .. })
            ));
            // Individual chunk access reports out-of-range, not a panic.
            assert!(chunk_of(&stream, RLE, 0).is_err());
        }
    }

    /// Adaptive selector over the two test codecs: Rle (id 1) for chunks
    /// that open with a run, Identity (id 2) otherwise.
    struct PickyAuto;
    impl AdaptiveChunkCodec for PickyAuto {
        fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) -> u8 {
            if chunk.len() >= 2 && chunk[0] == chunk[1] {
                Rle.encode_chunk(chunk, out);
                1
            } else {
                Identity.encode_chunk(chunk, out);
                2
            }
        }
        fn knows_codec(&self, codec_id: u8) -> bool {
            codec_id == 1 || codec_id == 2
        }
        fn decode_into(&self, codec_id: u8, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
            match codec_id {
                1 => Rle.decode_into(data, out),
                2 => Identity.decode_into(data, out),
                _ => unreachable!("container checks knows_codec first"),
            }
        }
    }

    /// Chunk 0 and 2 compress under Rle; chunk 1 defeats both codecs and is
    /// stored raw; chunk 3 (the short tail) opens without a run, so
    /// Identity is picked and — since Identity expands — it also goes raw.
    fn mixed_payload() -> Vec<u8> {
        let mut payload = vec![7u8; DEFAULT_CHUNK_SIZE];
        payload.extend((0..DEFAULT_CHUNK_SIZE).map(|i| (i % 251) as u8));
        payload.extend(std::iter::repeat_n(9u8, DEFAULT_CHUNK_SIZE));
        payload.extend([1, 2, 3, 4, 5]);
        payload
    }

    #[test]
    fn adaptive_stream_mixes_codecs_and_roundtrips() {
        let payload = mixed_payload();
        for threads in [1usize, 4] {
            let stream =
                compress_adaptive(header_for(&payload), &payload, &PickyAuto, threads).unwrap();
            let (header, out) = decompress_adaptive(&stream, &PickyAuto, threads).unwrap();
            assert_eq!(out, payload);
            assert_eq!(header.flags & FLAG_CHUNK_CODECS, FLAG_CHUNK_CODECS);

            let s = stats(&stream).unwrap();
            assert_eq!(s.chunks, 4);
            assert_eq!(s.raw_chunks, 2);
            // The two Rle chunks are the only non-raw picks.
            assert_eq!(s.codec_picks, vec![(1, 2)]);
        }
    }

    #[test]
    fn adaptive_stream_is_deterministic_across_threads() {
        let payload = mixed_payload();
        let serial = compress_adaptive(header_for(&payload), &payload, &PickyAuto, 1).unwrap();
        let parallel = compress_adaptive(header_for(&payload), &payload, &PickyAuto, 8).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn adaptive_v1_stream_roundtrips() {
        let payload = mixed_payload();
        let stream = compress_adaptive(v1_header_for(&payload), &payload, &PickyAuto, 1).unwrap();
        let (header, out) = decompress_adaptive(&stream, &PickyAuto, 1).unwrap();
        assert_eq!(out, payload);
        assert_eq!(header.version, VERSION_1);
    }

    #[test]
    fn adaptive_random_access_dispatches_per_chunk() {
        let payload = mixed_payload();
        let stream = compress_adaptive(header_for(&payload), &payload, &PickyAuto, 2).unwrap();
        let region = Region::parse(&stream).unwrap();
        assert_eq!(region.chunk_codec_ids().len(), 4);
        for index in 0..4 {
            let start = index * DEFAULT_CHUNK_SIZE;
            let end = (start + DEFAULT_CHUNK_SIZE).min(payload.len());
            assert_eq!(
                chunk_at(&region, PICKY, index).unwrap(),
                &payload[start..end],
                "chunk {index}"
            );
        }
        // Ranges straddling chunks with different codecs decode exactly.
        for (offset, len) in [
            (0u64, 64u64),
            (DEFAULT_CHUNK_SIZE as u64 - 7, 20),    // Rle → raw
            (DEFAULT_CHUNK_SIZE as u64 * 2 - 3, 9), // raw → Rle
            (DEFAULT_CHUNK_SIZE as u64 * 3 - 2, 7), // Rle → raw tail
            (0, payload.len() as u64),              // everything
            (DEFAULT_CHUNK_SIZE as u64 * 3 + 1, 4), // inside the tail
        ] {
            let got = range(&region, PICKY, offset, len, 2).unwrap();
            assert_eq!(
                got,
                &payload[offset as usize..(offset + len) as usize],
                "range {offset}+{len}"
            );
            assert_eq!(
                range(&Region::parse(&stream).unwrap(), PICKY, offset, len, 1).unwrap(),
                got
            );
        }
        assert_eq!(
            chunk_of(&stream, PICKY, 0).unwrap(),
            &payload[..DEFAULT_CHUNK_SIZE]
        );
    }

    #[test]
    fn adaptive_tolerant_decode_zero_fills_damage() {
        let payload = mixed_payload();
        let stream = compress_adaptive(header_for(&payload), &payload, &PickyAuto, 1).unwrap();
        let (_, out, report) = decompress_tolerant(&stream, PICKY, 1).unwrap();
        assert_eq!(out, payload);
        assert!(report.is_clean());

        // Flip one byte in the payload region: the owning chunk zero-fills,
        // everything else is recovered bit-exactly.
        let s = stats(&stream).unwrap();
        let payload_start = stream.len() - s.compressed_payload;
        let mut bad = stream.clone();
        bad[payload_start + 2] ^= 0x55;
        let (_, out, report) = decompress_tolerant(&bad, PICKY, 1).unwrap();
        assert_eq!(out.len(), payload.len());
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.damaged[0].chunk, 0);
        assert!(out[..DEFAULT_CHUNK_SIZE].iter().all(|&b| b == 0));
        assert_eq!(out[DEFAULT_CHUNK_SIZE..], payload[DEFAULT_CHUNK_SIZE..]);
    }

    /// Patches chunk `i`'s codec-id byte to `id` and recomputes the table
    /// checksum, simulating a hostile-but-checksum-valid chunk table.
    fn forge_codec_id(stream: &[u8], count: usize, i: usize, id: u8) -> Vec<u8> {
        let mut bad = stream.to_vec();
        let ids_start = Header::ENCODED_LEN_V2 + 4 + 4 * count;
        bad[ids_start + i] = id;
        let table_start = Header::ENCODED_LEN_V2;
        let table_end = ids_start + count + 8 * count; // + chunk checksums
        let sum = frame_checksum(&bad[table_start..table_end]);
        bad[table_end..table_end + 8].copy_from_slice(&sum.to_le_bytes());
        bad
    }

    #[test]
    fn hostile_codec_ids_fail_structurally_without_panicking() {
        let payload = mixed_payload();
        let stream = compress_adaptive(header_for(&payload), &payload, &PickyAuto, 1).unwrap();
        // Chunk 0 is non-raw (Rle): an out-of-range id must surface as
        // UnknownChunkCodec from every decode path.
        let bad = forge_codec_id(&stream, 4, 0, 250);
        let want = Error::UnknownChunkCodec {
            chunk: 0,
            codec: 250,
        };
        assert_eq!(decompress_adaptive(&bad, &PickyAuto, 1).unwrap_err(), want);
        assert_eq!(chunk_of(&bad, PICKY, 0).unwrap_err(), want);
        assert_eq!(
            range(&Region::parse(&bad).unwrap(), PICKY, 0, 10, 1).unwrap_err(),
            want
        );
        // Tolerant decode degrades instead: the hostile chunk zero-fills.
        let (_, out, report) = decompress_tolerant(&bad, PICKY, 1).unwrap();
        assert_eq!(out.len(), payload.len());
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.damaged[0].error, want);
        // A hostile id on a *raw* chunk is inert: raw short-circuits.
        let bad_raw = forge_codec_id(&stream, 4, 1, 99);
        let (_, out) = decompress_adaptive(&bad_raw, &PickyAuto, 1).unwrap();
        assert_eq!(out, payload);
        // Without the checksum fix-up, the table checksum catches the edit.
        let mut unfixed = stream.clone();
        unfixed[Header::ENCODED_LEN_V2 + 4 + 4 * 4] ^= 0xFF;
        assert!(matches!(
            decompress_adaptive(&unfixed, &PickyAuto, 1),
            Err(Error::ChecksumMismatch { chunk: None, .. })
        ));
    }

    #[test]
    fn dispatch_mismatch_is_rejected_both_ways() {
        let payload = mixed_payload();
        let adaptive = compress_adaptive(header_for(&payload), &payload, &PickyAuto, 1).unwrap();
        let fixed = compress(header_for(&payload), &payload, &Rle, 1).unwrap();

        // Fixed decoder on an adaptive stream: structural error, not garbage.
        assert!(matches!(
            decompress(&adaptive, &Rle, 1),
            Err(Error::Corrupt(_))
        ));
        assert!(matches!(
            range(&Region::parse(&adaptive).unwrap(), RLE, 0, 8, 1),
            Err(Error::Corrupt(_))
        ));
        // Adaptive decoder on a fixed stream: no codec table to dispatch on.
        assert!(matches!(
            decompress_adaptive(&fixed, &PickyAuto, 1),
            Err(Error::Corrupt(_))
        ));
        assert!(matches!(
            decompress_tolerant(&fixed, PICKY, 1),
            Err(Error::Corrupt(_))
        ));
        // A fixed header claiming the flag without the adaptive entry point
        // is refused at compress time.
        let mut lying = header_for(&payload);
        lying.flags = FLAG_CHUNK_CODECS;
        assert!(matches!(
            compress(lying, &payload, &Rle, 1),
            Err(Error::InvalidHeader { field: "flags", .. })
        ));
        // verify() needs no codec and works on both layouts.
        let (_, report) = verify(&adaptive).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn fixed_streams_are_byte_identical_to_pre_flag_layout() {
        // The flags byte occupies what was the reserved-zero byte; fixed
        // streams must keep writing zero there and add no table bytes.
        let payload = vec![5u8; DEFAULT_CHUNK_SIZE * 2];
        let stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        assert_eq!(stream[7], 0, "flags byte must stay zero");
        let s = stats(&stream).unwrap();
        // header+sum, count, table, chunk sums, table sum, payload: no gap.
        let framing = Header::ENCODED_LEN_V2 + 4 + 4 * s.chunks + 8 * s.chunks + 8;
        assert_eq!(framing + s.compressed_payload, stream.len());
        assert!(s.codec_picks.is_empty());
    }

    #[test]
    fn adaptive_empty_payload_roundtrips() {
        let stream = compress_adaptive(header_for(&[]), &[], &PickyAuto, 1).unwrap();
        let (_, out) = decompress_adaptive(&stream, &PickyAuto, 1).unwrap();
        assert!(out.is_empty());
        let region = Region::parse(&stream).unwrap();
        assert_eq!(region.chunks(), 0);
        assert!(region.chunk_codec_ids().is_empty());
    }

    #[test]
    fn chunkwise_assembly_is_byte_identical_to_compress() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 3 + 41)
            .map(|i| (i % 13) as u8)
            .collect();
        // The header alone picks the layout: the same encoded chunks
        // finish as a v2 or a v1 frame.
        for version in [VERSION, VERSION_1] {
            let mut header = header_for(&payload);
            header.version = version;
            let whole = compress(header, &payload, &Rle, 2).unwrap();
            let mut asm = FrameAssembler::new();
            let mut copies = Vec::new();
            for chunk in payload.chunks(header.chunk_size as usize) {
                let encoded = asm.encode(chunk, RLE).unwrap();
                let (id, raw, sum) = (encoded.codec_id, encoded.raw, encoded.checksum);
                copies.push((id, raw, sum, encoded.body.to_vec()));
            }
            assert_eq!(asm.finish(header).unwrap(), whole, "version {version}");
            // Pushing copies of the encoded chunks, as a cache hit does,
            // writes the same stream.
            let mut asm = FrameAssembler::new();
            for (codec_id, raw, checksum, body) in &copies {
                asm.push(EncodedChunk {
                    codec_id: *codec_id,
                    raw: *raw,
                    checksum: *checksum,
                    body,
                })
                .unwrap();
            }
            assert_eq!(asm.finish(header).unwrap(), whole, "version {version}");
        }
        // A flagged header adds the codec-id column.
        let payload = mixed_payload();
        let whole = compress_adaptive(header_for(&payload), &payload, &PickyAuto, 2).unwrap();
        let mut asm = FrameAssembler::new();
        for chunk in payload.chunks(DEFAULT_CHUNK_SIZE) {
            asm.encode(chunk, PICKY).unwrap();
        }
        let mut header = header_for(&payload);
        header.flags = FLAG_CHUNK_CODECS;
        assert_eq!(asm.finish(header).unwrap(), whole);
    }

    #[test]
    fn assembler_rejects_count_and_header_mismatch() {
        let payload = vec![3u8; DEFAULT_CHUNK_SIZE * 2];
        let header = header_for(&payload);
        let full = || {
            let mut asm = FrameAssembler::new();
            for chunk in payload.chunks(DEFAULT_CHUNK_SIZE) {
                asm.encode(chunk, RLE).unwrap();
            }
            asm
        };
        // One chunk short of what payload_len promises.
        let mut asm = FrameAssembler::new();
        asm.encode(&payload[..DEFAULT_CHUNK_SIZE], RLE).unwrap();
        assert!(matches!(asm.finish(header), Err(Error::Corrupt(_))));
        // A header no frame can be written for.
        let mut future = header;
        future.version = 9;
        assert!(matches!(
            full().finish(future),
            Err(Error::UnsupportedVersion(9))
        ));
        let mut zero = header;
        zero.chunk_size = 0;
        assert!(matches!(
            full().finish(zero),
            Err(Error::InvalidHeader {
                field: "chunk_size",
                ..
            })
        ));
        assert!(full().finish(header).is_ok());
    }

    #[test]
    fn streaming_decoder_matches_whole_stream_decode() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 5 + 999)
            .map(|i| (i % 17) as u8)
            .collect();
        let stream = compress(header_for(&payload), &payload, &Rle, 2).unwrap();
        // Feed in awkward slice sizes; memory stays bounded by table + one
        // chunk + one feed, never the whole stream.
        for step in [1usize << 9, 7919, stream.len()] {
            let mut dec = StreamingDecoder::new();
            let mut out = Vec::new();
            for piece in stream.chunks(step) {
                dec.feed(piece).unwrap();
                while let Some(chunk) = dec.next_chunk().unwrap() {
                    out.extend_from_slice(&stream_chunk(&chunk, RLE));
                }
                assert!(
                    dec.buffered_bytes() <= DEFAULT_CHUNK_SIZE + 1 + step + 8,
                    "decoder buffered {} bytes at step {step}",
                    dec.buffered_bytes()
                );
            }
            dec.finish().unwrap();
            assert_eq!(out, payload);
            assert_eq!(dec.header().unwrap().payload_len, payload.len() as u64);
        }
    }

    #[test]
    fn streaming_decoder_handles_v1_and_empty_streams() {
        let payload = vec![9u8; DEFAULT_CHUNK_SIZE + 5];
        let stream = compress(v1_header_for(&payload), &payload, &Rle, 1).unwrap();
        let mut dec = StreamingDecoder::new();
        dec.feed(&stream).unwrap();
        let mut out = Vec::new();
        while let Some(chunk) = dec.next_chunk().unwrap() {
            out.extend_from_slice(&stream_chunk(&chunk, RLE));
        }
        dec.finish().unwrap();
        assert_eq!(out, payload);

        let empty = compress(header_for(&[]), &[], &Identity, 1).unwrap();
        let mut dec = StreamingDecoder::new();
        dec.feed(&empty).unwrap();
        assert!(dec.next_chunk().unwrap().is_none());
        dec.finish().unwrap();
    }

    #[test]
    fn streaming_decoder_rejects_truncation_and_trailing_bytes() {
        let payload = vec![1u8; DEFAULT_CHUNK_SIZE * 2];
        let stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        // Truncated: feed accepts the prefix, finish flags the EOF.
        let mut dec = StreamingDecoder::new();
        dec.feed(&stream[..stream.len() - 3]).unwrap();
        while dec.next_chunk().unwrap().is_some() {}
        assert_eq!(dec.finish(), Err(Error::UnexpectedEof));
        // Trailing garbage is rejected at feed time.
        let mut dec = StreamingDecoder::new();
        let mut long = stream.clone();
        long.push(0);
        assert!(matches!(dec.feed(&long), Err(Error::Corrupt(_))));
    }

    #[test]
    fn streaming_decoder_detects_body_corruption() {
        let payload: Vec<u8> = (0..DEFAULT_CHUNK_SIZE * 2).map(|i| (i % 5) as u8).collect();
        let mut stream = compress(header_for(&payload), &payload, &Rle, 1).unwrap();
        let n = stream.len();
        stream[n - 1] ^= 0x40; // inside the last chunk's body
        let mut dec = StreamingDecoder::new();
        dec.feed(&stream).unwrap();
        assert!(dec.next_chunk().unwrap().is_some()); // chunk 0 intact
        assert!(matches!(
            dec.next_chunk(),
            Err(Error::ChecksumMismatch { chunk: Some(1), .. })
        ));
    }

    #[test]
    fn streaming_decoder_adaptive_stream_roundtrips() {
        let mut payload = vec![0u8; DEFAULT_CHUNK_SIZE * 2];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = if i < DEFAULT_CHUNK_SIZE {
                7
            } else {
                (i % 256) as u8
            };
        }
        let stream = compress_adaptive(header_for(&payload), &payload, &PickyAuto, 1).unwrap();
        let mut dec = StreamingDecoder::new();
        dec.feed(&stream).unwrap();
        assert!(dec.header().unwrap().flags & FLAG_CHUNK_CODECS != 0);
        let mut out = Vec::new();
        while let Some(chunk) = dec.next_chunk().unwrap() {
            out.extend_from_slice(&stream_chunk(&chunk, PICKY));
        }
        dec.finish().unwrap();
        assert_eq!(out, payload);
    }
}

//! The allocation bound of SPspeed and DPspeed range decode and streaming
//! compress, uncached and through a warm cache. Range decode verifies
//! each touched chunk once and decodes every chunk the range covers whole
//! straight into its place in the output (only the two edge chunks go
//! through a worker's scratch arena); a hit is copied straight there
//! too. Streaming compress encodes every chunk straight onto the frame
//! assembler's one body buffer, or copies its hit there, and finishes in
//! that buffer. So both allocate per call, feed or window, never per
//! chunk.
//!
//! The counting global allocator is the container's
//! (`crates/container/tests/counting`). It is process-wide, so this binary
//! holds exactly one test.

#[path = "../crates/container/tests/counting/mod.rs"]
mod counting;

use fpc_cache::ChunkCache;
use fpc_prng::Rng;
use fpc_serve::wire::DATA_CHUNK;
use fpcompress::container::{DEFAULT_CHUNK_SIZE, WINDOW_BYTES};
use fpcompress::core::{
    decompress_range_cached_with, decompress_range_with, Algorithm, Compressor, StreamingCompressor,
};
use std::sync::Arc;

/// Streams `payload` through a fresh engine in `piece`-byte feeds.
/// Returns the stream and the number of feeds.
fn stream_compress(
    algo: Algorithm,
    payload: &[u8],
    piece: usize,
    cache: Option<&Arc<ChunkCache>>,
) -> (Vec<u8>, usize) {
    let mut eng = StreamingCompressor::new(algo, 1);
    if let Some(cache) = cache {
        eng = eng.with_cache(Arc::clone(cache));
    }
    let mut feeds = 0;
    for bytes in payload.chunks(piece) {
        eng.feed(bytes).unwrap();
        feeds += 1;
    }
    (eng.finish().unwrap(), feeds)
}

#[test]
fn range_decode_and_streaming_compress_allocate_nothing_per_chunk() {
    let windows = 3;
    let chunks = windows * WINDOW_BYTES / DEFAULT_CHUNK_SIZE;
    let threads = 2;
    let mut rng = Rng::seed_from_u64(27);
    for algo in [Algorithm::SpSpeed, Algorithm::DpSpeed] {
        // Smooth values with a noisy low byte: chunks encode, none raw.
        let width = usize::from(algo.element_width());
        let payload: Vec<u8> = (0..windows * WINDOW_BYTES / width)
            .flat_map(|i| {
                let x = ((i as f64) * 1e-4).sin();
                let noise = rng.next_u32() & 0xFF;
                if width == 4 {
                    ((x as f32).to_bits() ^ noise).to_le_bytes().to_vec()
                } else {
                    (x.to_bits() ^ u64::from(noise)).to_le_bytes().to_vec()
                }
            })
            .collect();
        let stream = Compressor::new(algo)
            .with_threads(1)
            .compress_bytes(&payload);
        let info = fpcompress::core::info(&stream).unwrap();
        assert_eq!((info.chunks, info.raw_chunks), (chunks, 0), "{algo}");

        // Every chunk, the two edge ones cut: both edges go through
        // scratch, every other chunk decodes into the output.
        let (offset, len) = (100u64, payload.len() as u64 - 200);
        let want = &payload[offset as usize..(offset + len) as usize];
        let cache = Arc::new(ChunkCache::new(64 << 20));
        // The first calls start the pool's workers, warm their arenas and
        // the codec's thread-local state, and fill the cache.
        assert_eq!(
            decompress_range_with(&stream, offset, len, threads).unwrap(),
            want
        );
        assert_eq!(
            decompress_range_cached_with(&stream, offset, len, threads, &cache).unwrap(),
            want
        );
        for (label, cache) in [("uncached", None), ("warm cache", Some(&cache))] {
            let hits = cache.map(|c| c.stats().hits);
            let (got, usage) = counting::usage(|| match cache {
                Some(cache) => decompress_range_cached_with(&stream, offset, len, threads, cache),
                None => decompress_range_with(&stream, offset, len, threads),
            });
            assert_eq!(got.unwrap(), want, "{algo} {label} range");
            if let (Some(cache), Some(hits)) = (cache, hits) {
                assert_eq!(cache.stats().hits - hits, chunks as u64, "{algo}: misses");
            }
            // Per window, the output's growth by one window, the pool job
            // and its result slots; per call, the chunk table's entries,
            // offsets and checksums, the boxed codec, and for each of the
            // two edge chunks the scratch arena of a worker that has not
            // held a chunk yet. Nothing per chunk.
            let bound = 3 * windows + 3 + 1 + 2;
            assert!(
                usage.allocations <= bound,
                "{algo} {label}: range decode made {} allocations for {chunks} chunks, \
                 bound {bound}",
                usage.allocations
            );
        }

        // Streaming compress, whole and in wire frames; a first run warms
        // the cache with every chunk.
        let cache = Arc::new(ChunkCache::new(64 << 20));
        let (warm, _) = stream_compress(algo, &payload, payload.len(), Some(&cache));
        assert_eq!(warm, stream, "{algo}");
        for (label, cache) in [("uncached", None), ("warm cache", Some(&cache))] {
            for piece in [payload.len(), DATA_CHUNK] {
                let hits = cache.map(|c| c.stats().hits);
                let ((got, feeds), usage) =
                    counting::usage(|| stream_compress(algo, &payload, piece, cache));
                assert_eq!(got, stream, "{algo} {label} piece {piece}");
                if let (Some(cache), Some(hits)) = (cache, hits) {
                    assert_eq!(cache.stats().hits - hits, chunks as u64, "{algo}: misses");
                }
                // Per call: the boxed codec, the partial-chunk buffer, the
                // metadata and the final shift's growth. Per feed: the
                // table entries' and the body buffer's reservations for
                // the chunks it completes. Nothing per chunk: each
                // encodes, or copies its hit, onto the body buffer.
                let bound = 4 + 2 * feeds;
                assert!(
                    usage.allocations <= bound,
                    "{algo} {label} piece {piece}: streaming compress made {} allocations \
                     for {chunks} chunks in {feeds} feeds, bound {bound}",
                    usage.allocations
                );
            }
        }
    }
}

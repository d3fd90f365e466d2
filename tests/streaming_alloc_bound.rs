//! The allocation bound of streaming SPspeed and DPspeed decompress: the
//! container decoder lends each chunk's body out of its buffer, and the
//! engine decodes every chunk, or copies its cache hit, straight onto the
//! end of its one output buffer, so a stream allocates per feed and per
//! call, never per chunk, whether it arrives whole or in wire frames.
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
use fpcompress::core::{Algorithm, Compressor, StreamingDecompressor};
use std::sync::Arc;

/// Streams `stream` through a fresh engine in `piece`-byte feeds, taking
/// the output into `out` after every feed and after finish. Returns the
/// number of feeds.
fn stream_decode(
    stream: &[u8],
    piece: usize,
    cache: Option<&Arc<ChunkCache>>,
    out: &mut Vec<u8>,
) -> usize {
    let mut eng = StreamingDecompressor::new();
    if let Some(cache) = cache {
        eng = eng.with_cache(Arc::clone(cache));
    }
    let mut feeds = 0;
    for bytes in stream.chunks(piece) {
        eng.feed(bytes).unwrap();
        feeds += 1;
        if let Some(output) = eng.take_output() {
            out.extend_from_slice(&output);
        }
    }
    eng.finish().unwrap();
    assert!(eng.take_output().is_none(), "finish left output behind");
    feeds
}

#[test]
fn streaming_decompress_allocates_nothing_per_chunk() {
    let windows = 3;
    let chunks = windows * WINDOW_BYTES / DEFAULT_CHUNK_SIZE;
    let mut rng = Rng::seed_from_u64(26);
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
        assert!(stream.len() > 2 * DATA_CHUNK, "{algo}: too few frames");

        // A first decode warms the cache with every chunk and the codec's
        // thread-local state; the measured decodes run warm.
        let cache = Arc::new(ChunkCache::new(64 << 20));
        let mut out = Vec::with_capacity(payload.len());
        stream_decode(&stream, stream.len(), Some(&cache), &mut out);
        assert_eq!(out, payload, "{algo}");

        for (label, cache) in [("uncached", None), ("warm cache", Some(&cache))] {
            for piece in [stream.len(), DATA_CHUNK] {
                let hits = cache.map(|c| c.stats().hits);
                out.clear();
                let (feeds, usage) =
                    counting::usage(|| stream_decode(&stream, piece, cache, &mut out));
                assert_eq!(out, payload, "{algo} {label} piece {piece}");
                if let (Some(cache), Some(hits)) = (cache, hits) {
                    assert_eq!(cache.stats().hits - hits, chunks as u64, "{algo}: misses");
                }

                // Per call: the boxed codec and the chunk table's entries,
                // checksums and offsets. Per feed: the input buffer's
                // growth and the output's reservation for the chunks the
                // feed completed (capped at a window). Per window of one
                // feed's output, one more growth of the output. Nothing
                // per chunk: each body is borrowed from the input buffer
                // and decodes, or copies its hit, onto the output's end.
                let bound = 4 + 2 * feeds + windows;
                assert!(
                    usage.allocations <= bound,
                    "{algo} {label}: {} allocations for {chunks} chunks in {feeds} feeds, \
                     bound {bound}",
                    usage.allocations
                );
            }
        }
    }
}

//! The allocation bound of one-shot SPspeed and DPspeed compress and
//! decompress: the chunk encoders read their words straight from the chunk
//! bytes, and the decoders write theirs straight into the output, through
//! a stack buffer, so either direction allocates per group or window and
//! per call, as the container does, and never per chunk.
//!
//! The counting global allocator is the container's
//! (`crates/container/tests/counting`). It is process-wide, so this binary
//! holds exactly one test.

#[path = "../crates/container/tests/counting/mod.rs"]
mod counting;

use fpc_prng::Rng;
use fpcompress::container::{DEFAULT_CHUNK_SIZE, WINDOW_BYTES};
use fpcompress::core::{Algorithm, Compressor};

#[test]
fn speed_tier_compress_allocates_nothing_per_chunk() {
    // Decompress is bounded here too: one test per binary.
    let windows = 3;
    let chunks = windows * WINDOW_BYTES / DEFAULT_CHUNK_SIZE;
    let threads = 2;
    let mut rng = Rng::seed_from_u64(24);
    for algo in [Algorithm::SpSpeed, Algorithm::DpSpeed] {
        // Smooth values with a noisy low byte: chunks encode, and MPLG's
        // subchunk widths vary.
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
        let compressor = Compressor::new(algo).with_threads(threads);
        // The first call starts the pool's workers and warms every
        // thread's arena; measure the second.
        let warm = compressor.compress_bytes(&payload);
        let info = fpcompress::core::info(&warm).unwrap();
        assert_eq!((info.chunks, info.raw_chunks), (chunks, 0), "{algo}");
        let (stream, usage) = counting::usage(|| compressor.compress_bytes(&payload));
        assert_eq!(stream, warm, "{algo}");

        // The container's terms (crates/container/tests/encode_alloc_bound.rs):
        // per group, the arena's reserve and its shrink back to one chunk;
        // per window, the pool job, its look-back chain and its result
        // slots, plus one spare; per call, the output, the table, its
        // metadata and the final fit. Plus one for the boxed codec.
        let groups = windows * 4 * fpc_pool::effective_threads(threads, chunks);
        let bound = 2 * groups + 4 * windows + 4 + 1;
        assert!(
            usage.allocations <= bound,
            "{algo}: {} allocations for {chunks} chunks in {groups} groups, bound {bound}",
            usage.allocations
        );

        let warm = fpcompress::core::decompress_bytes_with(&stream, threads).unwrap();
        assert_eq!(warm, payload, "{algo}");
        let (out, usage) =
            counting::usage(|| fpcompress::core::decompress_bytes_with(&stream, threads).unwrap());
        assert_eq!(out, payload, "{algo}");

        // Per window, the output's growth by one window, the pool job and
        // its result slots; per call, the chunk table's entries, offsets
        // and checksums, and the boxed codec. Nothing per chunk: each chunk
        // decodes straight into its slot of the output.
        let bound = 3 * windows + 3 + 1;
        assert!(
            usage.allocations <= bound,
            "{algo}: {} allocations to decode {chunks} chunks, bound {bound}",
            usage.allocations
        );
    }
}

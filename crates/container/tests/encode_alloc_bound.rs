//! The allocation bound of one-shot compress: bodies are encoded into
//! each worker's scratch arena and copied once into the output, so the
//! allocations a compress makes scale with its groups and windows, never
//! with its chunks, and no thread keeps more than one chunk of arena once
//! it is done.
//!
//! A counting global allocator (`counting`) counts allocations and live
//! bytes. It is process-wide, so this binary holds exactly one test.

mod counting;

use fpc_container::WINDOW_BYTES;
use fpc_container::{compress, ChunkCodec, Error, Header, ALGO_SP_SPEED, DEFAULT_CHUNK_SIZE};
use fpc_prng::Rng;

/// Allocation-free run-length codec: runs shrink, noise goes raw.
struct Runs;

impl ChunkCodec for Runs {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        let mut rest = chunk;
        while let Some(&b) = rest.first() {
            let run = rest.iter().take(255).take_while(|&&x| x == b).count();
            out.extend_from_slice(&[run as u8, b]);
            rest = &rest[run..];
        }
    }

    fn decode_into(&self, _: &[u8], _: &mut [u8]) -> Result<(), Error> {
        unreachable!("encode only")
    }
}

#[test]
fn one_shot_compress_allocates_per_group_and_hands_arenas_back() {
    let chunk = DEFAULT_CHUNK_SIZE;
    let windows = 3;
    let chunks = windows * WINDOW_BYTES / chunk;
    // Runs and noise in alternating 40 000-byte stretches: encoded and
    // raw chunks both.
    let mut rng = Rng::seed_from_u64(4);
    let payload: Vec<u8> = (0..chunks * chunk / 40_000 + 1)
        .flat_map(|i| {
            if i % 2 == 0 {
                vec![i as u8; 40_000]
            } else {
                rng.bytes(40_000)
            }
        })
        .take(chunks * chunk)
        .collect();
    let header = Header::new(ALGO_SP_SPEED, 4, payload.len() as u64, payload.len() as u64);
    let threads = 2;
    // The first call starts the pool's workers; measure the second.
    let warm = compress(header, &payload, &Runs, threads).unwrap();
    let (stream, usage) = counting::usage(|| compress(header, &payload, &Runs, threads).unwrap());
    assert_eq!(stream, warm);

    // Per group: the arena's reserve and its shrink back to one chunk.
    // Per window: the pool job, its look-back chain and its result slots,
    // plus one spare. Per call: the output, the table, its metadata and
    // the final fit.
    let groups = windows * 4 * fpc_pool::effective_threads(threads, chunks);
    let bound = 2 * groups + 4 * windows + 4;
    assert!(
        usage.allocations <= bound,
        "{} allocations for {chunks} chunks in {groups} groups, bound {bound}",
        usage.allocations
    );

    // Afterwards every arena holds at most one chunk: the caller's, and
    // all the pool workers' together (each may have started from none).
    fpc_pool::with_scratch(|arena| assert!(arena.capacity() <= chunk));
    let participants = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
    let arenas = usage.kept.saturating_sub(stream.capacity());
    assert!(
        arenas <= participants * chunk,
        "{arenas} bytes kept beyond the stream, bound {} (one chunk per thread)",
        participants * chunk
    );
}

//! One-shot compress against its oracle: [`FrameAssembler::encode`], the
//! streaming writer, chunk by chunk on one thread.
//!
//! One-shot compress writes each group of chunk bodies straight to the
//! offset a look-back over earlier groups gives it, and the chunk table
//! last. Every byte of that must match the serial assembly, for every
//! thread count, chunk count around the group and window edges, frame
//! version, codec kind and mix of raw and encoded chunks.

use fpc_container::{
    compress, compress_adaptive, decompress, decompress_adaptive, AdaptiveChunkCodec, ChunkCodec,
    Codec, Error, FrameAssembler, Header, ALGO_SP_SPEED, DEFAULT_CHUNK_SIZE, FLAG_CHUNK_CODECS,
    VERSION_1, WINDOW_BYTES,
};
use fpc_prng::Rng;

/// Run-length codec: runs shrink, noise doubles (and goes raw).
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

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        if !data.len().is_multiple_of(2) {
            return Err(Error::UnexpectedEof);
        }
        let mut at = 0;
        for pair in data.chunks_exact(2) {
            let run = at + usize::from(pair[0]);
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

/// Selector between [`Runs`] (id 1) and nibble packing (id 2), which
/// halves chunks whose bytes are all below 16 and grows any other.
struct RunsOrNibbles;

impl AdaptiveChunkCodec for RunsOrNibbles {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) -> u8 {
        let start = out.len();
        Runs.encode_chunk(chunk, out);
        let runs = out.len() - start;
        if chunk.iter().all(|&b| b < 16) && chunk.len().div_ceil(2) < runs {
            out.truncate(start);
            out.extend(
                chunk
                    .chunks(2)
                    .map(|p| p[0] | p.get(1).map_or(0, |b| b << 4)),
            );
            return 2;
        }
        1
    }

    fn knows_codec(&self, codec_id: u8) -> bool {
        matches!(codec_id, 1 | 2)
    }

    fn decode_into(&self, codec_id: u8, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        if codec_id == 1 {
            return Runs.decode_into(data, out);
        }
        if data.len() != out.len().div_ceil(2) {
            return Err(Error::Corrupt("nibble body length"));
        }
        for (pair, &b) in out.chunks_mut(2).zip(data) {
            pair[0] = b & 15;
            if let Some(hi) = pair.get_mut(1) {
                *hi = b >> 4;
            }
        }
        Ok(())
    }
}

/// `len` bytes in 6000-byte blocks of runs, small values or noise, so
/// chunks mix raw and encoded bodies and both adaptive picks.
fn mixed(len: usize, rng: &mut Rng) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let n = 6000.min(len - out.len());
        match rng.gen_range(0u8..3) {
            0 => out.resize(out.len() + n, rng.next_u32() as u8),
            1 => out.extend((0..n).map(|_| rng.gen_range(0u8..16))),
            _ => out.extend(rng.bytes(n)),
        }
    }
    out
}

fn oracle(header: Header, payload: &[u8], codec: Codec<'_>) -> Vec<u8> {
    let mut asm = FrameAssembler::new();
    for chunk in payload.chunks(header.chunk_size as usize) {
        asm.encode(chunk, codec).unwrap();
    }
    asm.finish(header).unwrap()
}

#[test]
fn one_shot_compress_is_byte_identical_to_the_frame_assembler() {
    let window = WINDOW_BYTES / DEFAULT_CHUNK_SIZE;
    // (chunk size, chunks, last chunk length): counts around the group
    // edges with a chunk size that divides neither the window nor the
    // payload, then one window ±1 chunk and two windows plus a partial
    // chunk at the default chunk size.
    let mut cases: Vec<(usize, usize, usize)> =
        [0, 1, 7, 8, 9].map(|count| (1000, count, 777)).to_vec();
    cases.extend(
        [window - 1, window, window + 1].map(|c| (DEFAULT_CHUNK_SIZE, c, DEFAULT_CHUNK_SIZE)),
    );
    cases.push((DEFAULT_CHUNK_SIZE, 2 * window + 1, 5000));
    let mut rng = Rng::seed_from_u64(22);
    for (chunk_size, count, last) in cases {
        let len = if count == 0 {
            0
        } else {
            (count - 1) * chunk_size + last
        };
        let payloads = [("mixed", mixed(len, &mut rng)), ("noise", rng.bytes(len))];
        for (kind, payload) in &payloads {
            for v1 in [false, true] {
                let mut header = Header::new(ALGO_SP_SPEED, 4, len as u64, len as u64);
                header.chunk_size = chunk_size as u32;
                if v1 {
                    header.version = VERSION_1;
                }
                let mut flagged = header;
                flagged.flags |= FLAG_CHUNK_CODECS;
                let fixed = oracle(header, payload, Codec::Fixed(&Runs));
                let adaptive = oracle(flagged, payload, Codec::Adaptive(&RunsOrNibbles));
                for threads in [1, 2, 3, 8] {
                    let case =
                        format!("{kind} chunk {chunk_size} x{count} v1 {v1} threads {threads}");
                    assert_eq!(
                        compress(header, payload, &Runs, threads).unwrap(),
                        fixed,
                        "fixed {case}"
                    );
                    assert_eq!(
                        compress_adaptive(header, payload, &RunsOrNibbles, threads).unwrap(),
                        adaptive,
                        "adaptive {case}"
                    );
                }
                assert_eq!(decompress(&fixed, &Runs, 2).unwrap().1, *payload);
                assert_eq!(
                    decompress_adaptive(&adaptive, &RunsOrNibbles, 2).unwrap().1,
                    *payload
                );
            }
        }
    }
}

#[test]
fn noise_is_stored_raw_and_mixed_payloads_mix() {
    let mut rng = Rng::seed_from_u64(7);
    let len = 40 * DEFAULT_CHUNK_SIZE + 123;
    let header = Header::new(ALGO_SP_SPEED, 4, len as u64, len as u64);
    let raw_chunks = |payload: &[u8]| {
        let stream = compress(header, payload, &Runs, 2).unwrap();
        let stats = fpc_container::stats(&stream).unwrap();
        (stats.raw_chunks, stats.chunks)
    };
    let (raw, chunks) = raw_chunks(&rng.bytes(len));
    assert_eq!(raw, chunks, "noise must be stored raw");
    let payload = mixed(len, &mut rng);
    let (raw, chunks) = raw_chunks(&payload);
    assert!(raw > 0 && raw < chunks, "{raw} of {chunks} chunks raw");
    let stream = compress_adaptive(header, &payload, &RunsOrNibbles, 2).unwrap();
    let picks = fpc_container::stats(&stream).unwrap().codec_picks;
    for id in [1, 2] {
        assert!(
            picks.iter().any(|&(pick, n)| pick == id && n > 0),
            "{picks:?}"
        );
    }
}

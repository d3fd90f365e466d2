//! The allocation bound of windowed in-place decode: the output grows one
//! window at a time, so a stream that claims a huge payload allocates at
//! most one window beyond the chunks that actually decoded.
//!
//! A counting global allocator (`counting`) records the live-byte
//! high-water mark. It is process-wide, so this binary holds exactly one
//! test.

mod counting;

use fpc_container::checksum::frame_checksum;
use fpc_container::{
    decompress, decompress_tolerant, ChunkCodec, Codec, EncodedChunk, Error, FrameAssembler,
    Header, ALGO_SP_SPEED, MAX_CHUNK_SIZE, WINDOW_BYTES,
};

/// Runs `f` and returns its result with the most bytes that were live at
/// once during the call, above what was live when it started.
fn high_water<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (result, usage) = counting::usage(f);
    (result, usage.peak)
}

/// Chunks whose one-byte body decodes to `expected_len` copies of it.
struct Fill;

impl ChunkCodec for Fill {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        out.push(chunk[0]);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        let [byte] = data else {
            return Err(Error::Corrupt("fill body is one byte"));
        };
        out.fill(*byte);
        Ok(())
    }
}

/// A stream of `count` chunks of `MAX_CHUNK_SIZE` bytes, the last one
/// `last_len` bytes: chunk 0 stored raw, the rest one-byte `Fill` bodies,
/// and chunk 1's body damaged after its checksum was taken. With chunks
/// this large a window is one chunk, so the damage sits in the second
/// window.
fn stream(count: usize, last_len: usize) -> Vec<u8> {
    let mut asm = FrameAssembler::new();
    for i in 0..count {
        let raw = i == 0;
        let mut body = if raw {
            vec![7u8; MAX_CHUNK_SIZE]
        } else {
            vec![i as u8]
        };
        let checksum = frame_checksum(&body);
        if i == 1 {
            body[0] ^= 0xFF;
        }
        asm.push(EncodedChunk {
            codec_id: 0,
            raw,
            checksum,
            body: &body,
        })
        .unwrap();
    }
    let payload_len = ((count - 1) * MAX_CHUNK_SIZE + last_len) as u64;
    let mut header = Header::new(ALGO_SP_SPEED, 4, payload_len, payload_len);
    header.chunk_size = MAX_CHUNK_SIZE as u32;
    asm.finish(header).unwrap()
}

/// The parsed chunk table (size, checksum and offset per chunk) plus a
/// fixed allowance for per-window bookkeeping.
fn metadata(count: usize) -> usize {
    32 * count + (64 << 10)
}

#[test]
fn decode_allocates_at_most_one_window_past_the_decoded_chunks() {
    let window = WINDOW_BYTES.div_ceil(MAX_CHUNK_SIZE) * MAX_CHUNK_SIZE;
    assert_eq!(window, MAX_CHUNK_SIZE, "one chunk per window");

    // Claims 16 GiB; only chunk 0 decodes before the damaged chunk 1.
    let count = 1024;
    let hostile = stream(count, MAX_CHUNK_SIZE);
    for threads in [1, 2] {
        let (result, peak) = high_water(|| decompress(&hostile, &Fill, threads));
        match result {
            Err(Error::ChecksumMismatch { chunk: Some(1), .. }) => {}
            other => panic!("threads {threads}: expected chunk 1's checksum error, got {other:?}"),
        }
        let bound = MAX_CHUNK_SIZE + window + metadata(count);
        assert!(
            peak <= bound,
            "threads {threads}: one-shot decode peaked at {peak} bytes, bound {bound}"
        );
    }

    // Tolerant decode keeps going, so its claim must be one it can back:
    // three chunks, the short last one decoded through the scratch arena.
    let last_len = 1000;
    let damaged = stream(3, last_len);
    for threads in [1, 2] {
        let (result, peak) =
            high_water(|| decompress_tolerant(&damaged, Codec::Fixed(&Fill), threads));
        let (_, payload, report) = result.unwrap();
        assert_eq!(payload.len(), 2 * MAX_CHUNK_SIZE + last_len);
        assert!(payload[..MAX_CHUNK_SIZE].iter().all(|&b| b == 7));
        assert!(payload[MAX_CHUNK_SIZE..2 * MAX_CHUNK_SIZE]
            .iter()
            .all(|&b| b == 0));
        assert!(payload[2 * MAX_CHUNK_SIZE..].iter().all(|&b| b == 2));
        assert_eq!(report.chunks, 3);
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.damaged[0].chunk, 1);
        assert!(matches!(
            report.damaged[0].error,
            Error::ChecksumMismatch { chunk: Some(1), .. }
        ));
        let bound = payload.len() + window + metadata(3);
        assert!(
            peak <= bound,
            "threads {threads}: tolerant decode peaked at {peak} bytes, bound {bound}"
        );
    }
}

//! Deterministic property tests over the container format and parallel
//! executor (in-repo fuzz driver; no external dependencies).

use fpc_container::{ChunkCodec, Codec, Error, Header, Region, ALGO_SP_SPEED, VERSION_1};
use fpc_prng::fuzz::{run_cases, Mutation};
use fpc_prng::Rng;

/// Marker codec: expands by one byte, so all chunks take the raw fallback.
struct Expanding;
impl ChunkCodec for Expanding {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        out.push(0xA5);
        out.extend_from_slice(chunk);
    }
    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        match data.split_first() {
            Some((0xA5, body)) if body.len() == out.len() => {
                out.copy_from_slice(body);
                Ok(())
            }
            _ => Err(Error::Corrupt("marker missing or wrong length")),
        }
    }
}

/// Run-collapsing codec: many chunks genuinely shrink.
struct Collapsing;
impl ChunkCodec for Collapsing {
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

fn header_for(payload: &[u8], chunk_size: u32) -> Header {
    let mut h = Header::new(ALGO_SP_SPEED, 4, payload.len() as u64, payload.len() as u64);
    h.chunk_size = chunk_size;
    h
}

fn narrow_payload(rng: &mut Rng, max_len: usize, alphabet: u8) -> Vec<u8> {
    let len = rng.gen_range(0usize..max_len);
    (0..len).map(|_| rng.gen_range(0u8..alphabet)).collect()
}

#[test]
fn roundtrip_any_payload_any_chunking() {
    run_cases("container/roundtrip", 48, |rng, _| {
        let payload = rng.bytes_range(0usize..40_000);
        let chunk_size = rng.gen_range(1u32..70_000);
        let threads = rng.gen_range(0usize..6);
        for codec in [&Expanding as &dyn ChunkCodec, &Collapsing] {
            let stream =
                fpc_container::compress(header_for(&payload, chunk_size), &payload, codec, threads)
                    .unwrap();
            let (header, out) = fpc_container::decompress(&stream, codec, threads).unwrap();
            assert_eq!(out, payload);
            assert_eq!(header.original_len, payload.len() as u64);
            // Checksum-only verification agrees without decoding.
            let (_, report) = fpc_container::verify(&stream).unwrap();
            assert!(report.is_clean());
            assert!(report.checksummed);
        }
    });
}

#[test]
fn v1_and_v2_roundtrip_identical_payloads() {
    run_cases("container/v1-v2-agree", 24, |rng, _| {
        let payload = narrow_payload(rng, 30_000, 8);
        let mut h1 = header_for(&payload, 4096);
        h1.version = VERSION_1;
        let v1 = fpc_container::compress(h1, &payload, &Collapsing, 2).unwrap();
        let v2 =
            fpc_container::compress(header_for(&payload, 4096), &payload, &Collapsing, 2).unwrap();
        let (_, out1) = fpc_container::decompress(&v1, &Collapsing, 2).unwrap();
        let (_, out2) = fpc_container::decompress(&v2, &Collapsing, 2).unwrap();
        assert_eq!(out1, payload);
        assert_eq!(out2, payload);
        assert!(v2.len() > v1.len(), "v2 must carry checksum overhead");
    });
}

#[test]
fn stream_is_thread_count_invariant() {
    run_cases("container/thread-invariant", 24, |rng, _| {
        let payload = narrow_payload(rng, 30_000, 8);
        let reference =
            fpc_container::compress(header_for(&payload, 4096), &payload, &Collapsing, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let stream =
                fpc_container::compress(header_for(&payload, 4096), &payload, &Collapsing, threads)
                    .unwrap();
            assert_eq!(stream, reference);
        }
    });
}

#[test]
fn truncations_always_rejected() {
    run_cases("container/truncations", 48, |rng, _| {
        let payload = rng.bytes_range(1usize..20_000);
        let stream =
            fpc_container::compress(header_for(&payload, 4096), &payload, &Collapsing, 2).unwrap();
        let cut = ((stream.len() as f64 * rng.next_f64()) as usize).clamp(1, stream.len());
        let truncated = &stream[..stream.len() - cut];
        assert!(fpc_container::decompress(truncated, &Collapsing, 2).is_err());
    });
}

#[test]
fn stats_are_consistent() {
    run_cases("container/stats", 32, |rng, _| {
        let payload = narrow_payload(rng, 30_000, 4);
        let stream =
            fpc_container::compress(header_for(&payload, 1024), &payload, &Collapsing, 2).unwrap();
        let stats = fpc_container::stats(&stream).unwrap();
        assert_eq!(stats.chunks, payload.len().div_ceil(1024));
        assert!(stats.raw_chunks <= stats.chunks);
        // Compressed payload accounts for the stream minus v2 framing:
        // header+checksum, count, table, per-chunk checksums, table checksum.
        let framing = Header::ENCODED_LEN_V2 + 4 + (4 + 8) * stats.chunks + 8;
        assert_eq!(stats.compressed_payload + framing, stream.len());
    });
}

#[test]
fn random_bytes_never_panic_decoder() {
    run_cases("container/random-bytes", 256, |rng, _| {
        let data = rng.bytes_range(0usize..600);
        let _ = fpc_container::decompress(&data, &Collapsing, 2);
        let _ = fpc_container::decompress_tolerant(&data, Codec::Fixed(&Collapsing), 2);
        let _ = fpc_container::verify(&data);
        let _ = fpc_container::read_header(&data);
        let _ = fpc_container::stats(&data);
        let _ = Region::parse(&data).and_then(|r| {
            let codec = Codec::Fixed(&Collapsing);
            codec.check(r.header())?;
            let chunk = r.chunk(0)?;
            chunk.decode_into(codec, &mut vec![0; chunk.expected_len])
        });
    });
}

#[test]
fn mutated_valid_streams_never_panic_and_never_lie() {
    run_cases("container/mutations", 192, |rng, _| {
        let payload = narrow_payload(rng, 20_000, 16);
        let stream =
            fpc_container::compress(header_for(&payload, 2048), &payload, &Collapsing, 2).unwrap();
        let mutation = Mutation::arbitrary(rng, stream.len());
        let bad = mutation.apply(&stream, rng);
        if bad == stream {
            return; // mutation landed on itself (e.g. truncate to full length)
        }
        // Must never panic; if it "succeeds", v2 checksums make a silent
        // wrong-output decode essentially impossible, so the payload must
        // be the original.
        if let Ok((_, out)) = fpc_container::decompress(&bad, &Collapsing, 2) {
            assert_eq!(
                out, payload,
                "mutation {mutation:?} silently altered payload"
            );
        }
        let _ = fpc_container::decompress_tolerant(&bad, Codec::Fixed(&Collapsing), 2);
        let _ = fpc_container::verify(&bad);
    });
}

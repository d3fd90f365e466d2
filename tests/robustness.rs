//! Failure-injection tests: decoders must reject (never panic on, never
//! silently mis-decode past) corrupted and truncated streams.
//!
//! Format v2 streams carry checksums over the header, the chunk table, and
//! every chunk payload, so *detection* is guaranteed: any bit flip anywhere
//! in the stream must surface as an error. Legacy v1 streams have no
//! integrity layer; for them the container still guarantees structural
//! honesty (a decode that "succeeds" yields the original length).

use fpcompress::container::{self, Header, VERSION_1};
use fpcompress::core::{Algorithm, Compressor, PipelineOptions, SpSpeedCodec};
use fpcompress::transforms::mplg::SUBCHUNK_VALUES_32;

fn sample_bytes(algo: Algorithm) -> Vec<u8> {
    match algo.element_width() {
        4 => (0..30_000)
            .flat_map(|i| ((i as f32 * 1e-3).sin()).to_bits().to_le_bytes().to_vec())
            .collect(),
        _ => (0..20_000)
            .flat_map(|i| ((i as f64 * 1e-3).cos()).to_bits().to_le_bytes().to_vec())
            .collect(),
    }
}

fn sample_stream(algo: Algorithm) -> (Vec<u8>, Vec<u8>) {
    let bytes = sample_bytes(algo);
    let stream = Compressor::new(algo).compress_bytes(&bytes);
    (bytes, stream)
}

/// A v1 (checksum-free) SPspeed stream plus its original bytes, built by
/// driving the container directly with a legacy header.
fn v1_stream() -> (Vec<u8>, Vec<u8>) {
    let bytes = sample_bytes(Algorithm::SpSpeed);
    let mut header = Header::new(
        Algorithm::SpSpeed.id(),
        Algorithm::SpSpeed.element_width(),
        bytes.len() as u64,
        bytes.len() as u64,
    );
    header.version = VERSION_1;
    let stream = container::compress(header, &bytes, &SpSpeedCodec { fallback: true }, 1).unwrap();
    (bytes, stream)
}

#[test]
fn truncation_at_every_region_errors() {
    for algo in Algorithm::ALL {
        let (_, stream) = sample_stream(algo);
        // Cut in the header, the checksum region, the chunk table, and the
        // payload.
        for cut in [
            1usize,
            8,
            20,
            30,
            40,
            stream.len() / 4,
            stream.len() / 2,
            stream.len() - 1,
        ] {
            let truncated = &stream[..stream.len() - cut];
            assert!(
                fpcompress::core::decompress_bytes(truncated).is_err(),
                "{algo}: truncation by {cut} accepted"
            );
        }
    }
}

#[test]
fn v2_single_bit_flips_are_always_detected() {
    // The tentpole guarantee: with checksums over every region, a flipped
    // bit anywhere in the stream must yield an error — never garbage, and
    // never the original data presented as a successful decode of a
    // corrupted stream.
    for algo in Algorithm::ALL {
        let (_, stream) = sample_stream(algo);
        let step = (stream.len() / 200).max(1);
        for pos in (0..stream.len()).step_by(step) {
            for bit in [0u8, 4] {
                let mut bad = stream.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    fpcompress::core::decompress_bytes(&bad).is_err(),
                    "{algo}: flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }
}

#[test]
fn v2_payload_flips_report_checksum_mismatch_with_location() {
    let (_, stream) = sample_stream(Algorithm::SpSpeed);
    let stats = container::stats(&stream).unwrap();
    let payload_start = stream.len() - stats.compressed_payload;
    for pos in [
        payload_start,
        payload_start + stats.compressed_payload / 2,
        stream.len() - 1,
    ] {
        let mut bad = stream.clone();
        bad[pos] ^= 0x01;
        match fpcompress::core::decompress_bytes(&bad) {
            Err(fpcompress::core::Error::Container(container::Error::ChecksumMismatch {
                chunk: Some(c),
                offset,
            })) => {
                assert!((c as usize) < stats.chunks, "chunk index {c} out of range");
                assert!((offset as usize) <= pos, "offset {offset} past flip {pos}");
            }
            other => panic!("payload flip at {pos} gave {other:?}"),
        }
    }
}

#[test]
fn v1_streams_decode_and_stay_honest_about_length() {
    // Legacy streams still decompress bit-identically...
    let (bytes, stream) = v1_stream();
    assert_eq!(stream[4], VERSION_1, "test must exercise a v1 stream");
    assert_eq!(fpcompress::core::decompress_bytes(&stream).unwrap(), bytes);

    // ...and with no checksums the only guarantee is structural: a decode
    // that succeeds must produce the original length (length-only case).
    let step = (stream.len() / 200).max(1);
    for pos in (0..stream.len()).step_by(step) {
        let mut bad = stream.clone();
        bad[pos] ^= 0x10;
        if let Ok(out) = fpcompress::core::decompress_bytes(&bad) {
            assert_eq!(
                out.len(),
                bytes.len(),
                "v1 flip at {pos} changed output length"
            );
        }
    }
}

#[test]
fn v1_tolerant_decode_zeroes_a_chunk_that_fails_inside_mplg() {
    // No checksums in v1, so the damage reaches the codec. The fused
    // decoder stores each MPLG subchunk into the output as it goes: the
    // middle chunk has partly decoded when its fifth subchunk's header
    // fails, and tolerant decode must still read it as zeros.
    let (bytes, mut stream) = v1_stream();
    let region = container::Region::parse(&stream).unwrap();
    let chunk_size = region.header().chunk_size as usize;
    let mid = region.chunks() / 2;
    assert!(!region.chunk_raw(mid), "the middle chunk must be encoded");
    let body = region.chunk_body(mid).unwrap();
    let mut at = 0;
    for _ in 0..4 {
        at += 1 + (SUBCHUNK_VALUES_32 * usize::from(body[at] & 0x7F)).div_ceil(8);
    }
    let header_at = body.as_ptr() as usize - stream.as_ptr() as usize + at;
    stream[header_at] = 0x7F; // a width above 32 bits

    let codec = Algorithm::SpSpeed.codec(&PipelineOptions::default());
    let (_, out, report) = container::decompress_tolerant(&stream, codec.as_codec(), 2).unwrap();
    let damaged: Vec<_> = report.damaged.iter().map(|d| (d.chunk, &d.error)).collect();
    assert_eq!(
        damaged,
        [(
            mid as u32,
            &container::Error::Corrupt("mplg width exceeds 32 bits")
        )]
    );
    assert_eq!(out.len(), bytes.len());
    for (i, (got, want)) in out
        .chunks(chunk_size)
        .zip(bytes.chunks(chunk_size))
        .enumerate()
    {
        if i == mid {
            assert!(got.iter().all(|&b| b == 0), "chunk {i} not zeroed");
        } else {
            assert_eq!(got, want, "clean chunk {i}");
        }
    }
}

#[test]
fn foreign_and_garbage_inputs_rejected() {
    assert!(fpcompress::core::decompress_bytes(&[]).is_err());
    assert!(fpcompress::core::decompress_bytes(b"not a stream at all").is_err());
    // Valid magic, unsupported version.
    let mut fake = b"FPCR".to_vec();
    fake.push(200);
    fake.extend_from_slice(&[0u8; 64]);
    assert!(fpcompress::core::decompress_bytes(&fake).is_err());
    // A v2 header with a tampered algorithm byte fails its own checksum
    // before the algorithm id is even looked at.
    let (_, mut stream) = sample_stream(Algorithm::SpSpeed);
    stream[5] = 99;
    assert!(matches!(
        fpcompress::core::decompress_bytes(&stream),
        Err(fpcompress::core::Error::Container(
            container::Error::ChecksumMismatch { chunk: None, .. }
        ))
    ));
    // On a v1 stream the same tamper is caught by algorithm validation.
    let (_, mut stream) = v1_stream();
    stream[5] = 99;
    assert!(matches!(
        fpcompress::core::decompress_bytes(&stream),
        Err(fpcompress::core::Error::UnknownAlgorithm(99))
    ));
}

#[test]
fn chunk_table_lies_are_caught() {
    let (_, stream) = sample_stream(Algorithm::SpSpeed);
    // Chunk count lives right after the 36-byte v2 header; corrupt it.
    let mut bad = stream.clone();
    let count_pos = Header::ENCODED_LEN_V2;
    bad[count_pos] = bad[count_pos].wrapping_add(1);
    assert!(fpcompress::core::decompress_bytes(&bad).is_err());
    // Inflate the first chunk size: the table checksum (and, independently,
    // the total-length check) must fire.
    let mut bad = stream.clone();
    bad[count_pos + 4] = bad[count_pos + 4].wrapping_add(5);
    assert!(fpcompress::core::decompress_bytes(&bad).is_err());
    // Same lies against a v1 stream (count at 28, table at 32): no
    // checksums there, but the structural checks still reject.
    let (_, stream) = v1_stream();
    let mut bad = stream.clone();
    bad[Header::ENCODED_LEN] = bad[Header::ENCODED_LEN].wrapping_add(1);
    assert!(fpcompress::core::decompress_bytes(&bad).is_err());
    let mut bad = stream.clone();
    bad[Header::ENCODED_LEN + 4] = bad[Header::ENCODED_LEN + 4].wrapping_add(5);
    assert!(fpcompress::core::decompress_bytes(&bad).is_err());
}

#[test]
fn hostile_length_fields_never_cause_huge_allocations() {
    // Forge tiny streams whose headers claim enormous sizes; parsing must
    // fail with a length/structure error, not attempt the allocation.
    for (payload_len, count) in [
        (u64::MAX / 2, u32::MAX),
        (1 << 50, 1 << 30),
        (1 << 40, (1u64 << 40).div_ceil(16384) as u32),
    ] {
        let mut h = Header::new(Algorithm::SpSpeed.id(), 4, payload_len, payload_len);
        h.chunk_size = 16384;
        let mut data = Vec::new();
        h.write(&mut data);
        data.extend_from_slice(&count.to_le_bytes());
        let err = fpcompress::core::decompress_bytes(&data);
        assert!(
            err.is_err(),
            "hostile header ({payload_len}, {count}) accepted"
        );
    }
}

/// Serializes tests that install a process-global fault plan. Uses the
/// poisoned-lock contents on panic so one failing test cannot wedge the
/// rest of the file.
fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn injected_chunk_damage_is_caught_and_tolerated_across_algorithms() {
    // The fpc-faults chunk-damage hook flips one deterministic bit in a
    // chunk body *after* its checksum is computed — bit-rot between
    // encode and decode. Every algorithm must (a) reject the stream under
    // strict decode, (b) enumerate the damage via verify() without
    // decoding, and (c) salvage every clean chunk byte-identically via
    // decompress_tolerant().
    if !fpc_faults::ENABLED {
        return; // hooks compiled out; nothing to exercise
    }
    let _serial = fault_lock();
    for algo in Algorithm::ALL {
        let bytes = sample_bytes(algo);
        // The clean container payload is the per-chunk reference. For
        // DPratio it is the FCM-doubled values+distances intermediate,
        // not the original bytes, so derive it from a fault-free stream.
        let codec = algo.codec(&PipelineOptions::default());
        let clean = Compressor::new(algo).compress_bytes(&bytes);
        let (_, clean_payload, report) =
            container::decompress_tolerant(&clean, codec.as_codec(), 2).unwrap();
        assert!(
            report.is_clean(),
            "{algo}: fault-free stream reported damage"
        );
        let seed = 0xC0FFEE ^ u64::from(algo.id());
        let plan = || fpc_faults::Plan::single(fpc_faults::FaultKind::ChunkDamage, 0.35, seed);
        let damaged = {
            let _guard = fpc_faults::install(plan());
            Compressor::new(algo).compress_bytes(&bytes)
        };
        // Same plan, same seed: injection must be bit-reproducible.
        let again = {
            let _guard = fpc_faults::install(plan());
            Compressor::new(algo).compress_bytes(&bytes)
        };
        assert_eq!(damaged, again, "{algo}: injection is not deterministic");

        // (a) strict decode rejects.
        assert!(
            fpcompress::core::decompress_bytes(&damaged).is_err(),
            "{algo}: strict decode accepted a damaged stream"
        );

        // (b) verify() locates the damage without materializing output.
        let (_, report) = container::verify(&damaged).unwrap();
        assert!(report.checksummed, "{algo}: expected a v2 stream");
        assert!(
            !report.is_clean(),
            "{algo}: seed {seed:#x} injected no damage; pick another seed"
        );
        assert!(
            report.damaged.len() < report.chunks,
            "{algo}: every chunk damaged; clean-chunk salvage untestable"
        );

        // (c) tolerant decode zero-fills damage and salvages the rest.
        let (header, out, tolerant) =
            container::decompress_tolerant(&damaged, codec.as_codec(), 2).unwrap();
        assert_eq!(
            out.len(),
            clean_payload.len(),
            "{algo}: tolerated length drifted"
        );
        let damaged_chunks: Vec<u32> = report.damaged.iter().map(|d| d.chunk).collect();
        let tolerated_chunks: Vec<u32> = tolerant.damaged.iter().map(|d| d.chunk).collect();
        assert_eq!(
            damaged_chunks, tolerated_chunks,
            "{algo}: verify and tolerant decode disagree on damage"
        );
        let chunk_size = header.chunk_size as usize;
        for (i, chunk) in clean_payload.chunks(chunk_size).enumerate() {
            let start = i * chunk_size;
            let got = &out[start..start + chunk.len()];
            if damaged_chunks.contains(&(i as u32)) {
                assert!(
                    got.iter().all(|&b| b == 0),
                    "{algo}: damaged chunk {i} not zero-filled"
                );
            } else {
                assert_eq!(got, chunk, "{algo}: clean chunk {i} not byte-identical");
            }
        }
    }
}

#[test]
fn injected_damage_reports_name_the_chunk() {
    if !fpc_faults::ENABLED {
        return;
    }
    let _serial = fault_lock();
    let bytes = sample_bytes(Algorithm::SpSpeed);
    let damaged = {
        let _guard = fpc_faults::install(fpc_faults::Plan::single(
            fpc_faults::FaultKind::ChunkDamage,
            1.0,
            11,
        ));
        Compressor::new(Algorithm::SpSpeed).compress_bytes(&bytes)
    };
    // With certainty-one probability every chunk is damaged, and the
    // strict decoder's first complaint must carry a chunk index.
    match fpcompress::core::decompress_bytes(&damaged) {
        Err(fpcompress::core::Error::Container(container::Error::ChecksumMismatch {
            chunk: Some(_),
            ..
        })) => {}
        other => panic!("expected a located checksum mismatch, got {other:?}"),
    }
    let (_, report) = container::verify(&damaged).unwrap();
    assert_eq!(
        report.damaged.len(),
        report.chunks,
        "certainty-one damage must hit every chunk"
    );
}

#[test]
fn baseline_decoders_survive_corruption() {
    use fpcompress::baselines::{roster, Meta};
    let bytes: Vec<u8> = (0..10_000)
        .flat_map(|i| ((i as f64).ln_1p()).to_bits().to_le_bytes())
        .collect();
    let meta = Meta::f64_flat(10_000);
    for codec in roster() {
        if !codec.datatype().supports_width(8) {
            continue;
        }
        let stream = codec.compress(&bytes, &meta);
        let step = (stream.len() / 50).max(1);
        for pos in (0..stream.len()).step_by(step) {
            let mut bad = stream.clone();
            bad[pos] ^= 0xFF;
            // Must not panic; error or garbage both acceptable.
            let _ = codec.decompress(&bad, &meta);
        }
    }
}

/// Re-frames a valid fixed-codec v2 stream as a per-chunk codec stream:
/// sets [`container::FLAG_CHUNK_CODECS`], inserts a zero codec id per chunk
/// after the size entries, and re-fixes the header and table checksums, so
/// every integrity check passes and only the frame-mode check can object.
fn forge_chunk_codec_flag(stream: &[u8]) -> Vec<u8> {
    use container::checksum::frame_checksum;
    let count = container::stats(stream).unwrap().chunks;
    let mut forged = stream.to_vec();
    forged[7] |= container::FLAG_CHUNK_CODECS;
    let sum = frame_checksum(&forged[..Header::ENCODED_LEN]);
    forged[Header::ENCODED_LEN..Header::ENCODED_LEN_V2].copy_from_slice(&sum.to_le_bytes());
    let table_start = Header::ENCODED_LEN_V2;
    let ids_at = table_start + 4 + 4 * count;
    forged.splice(ids_at..ids_at, std::iter::repeat_n(0u8, count));
    let table_end = ids_at + count + 8 * count;
    let sum = frame_checksum(&forged[table_start..table_end]);
    forged[table_end..table_end + 8].copy_from_slice(&sum.to_le_bytes());
    forged
}

#[test]
fn frame_mode_check_holds_on_every_decode_path_even_with_a_warm_cache() {
    // A checksum-valid SPspeed stream claiming a per-chunk codec table must
    // be rejected by every decode path with the same error — including a
    // cached range whose cache already holds the legitimate stream's
    // chunks, which must not be served for a stream this decoder cannot
    // read.
    use fpcompress::core::{
        decompress_range_cached_with, decompress_range_with, Error, StreamingDecompressor,
    };
    let bytes = sample_bytes(Algorithm::SpSpeed)[..32 * 1024].to_vec();
    let n = bytes.len() as u64;
    let stream = Compressor::new(Algorithm::SpSpeed)
        .with_threads(1)
        .compress_bytes(&bytes);
    assert_eq!(container::stats(&stream).unwrap().raw_chunks, 0);
    let forged = forge_chunk_codec_flag(&stream);
    assert!(container::verify(&forged).unwrap().1.is_clean());

    let warm = std::sync::Arc::new(fpc_cache::ChunkCache::new(8 << 20));
    assert_eq!(
        decompress_range_cached_with(&stream, 0, n, 1, &warm).unwrap(),
        bytes
    );
    let cold = std::sync::Arc::new(fpc_cache::ChunkCache::new(8 << 20));
    let want = Error::Container(container::Error::Corrupt(
        "per-chunk codec stream requires an adaptive decoder",
    ));
    let mut streaming = StreamingDecompressor::new();
    for (path, got) in [
        ("one-shot", fpcompress::core::decompress_bytes(&forged)),
        ("range", decompress_range_with(&forged, 0, n, 1)),
        (
            "cold cached range",
            decompress_range_cached_with(&forged, 0, n, 1, &cold),
        ),
        (
            "warm cached range",
            decompress_range_cached_with(&forged, 0, n, 1, &warm),
        ),
        ("streaming", streaming.feed(&forged).map(|()| Vec::new())),
    ] {
        assert_eq!(got.map(|out| out.len()), Err(want.clone()), "{path}");
    }
}

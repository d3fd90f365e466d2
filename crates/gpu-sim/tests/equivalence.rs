//! Exhaustive CPU/GPU equivalence: the property the paper's design rests
//! on, checked deterministically over arbitrary inputs and over every
//! synthetic dataset suite.

use fpc_core::{Algorithm, Compressor};
use fpc_gpu_sim::GpuCompressor;
use fpc_prng::fuzz::run_cases;

#[test]
fn streams_identical_on_arbitrary_bytes() {
    run_cases("gpu/bytes-equivalence", 24, |rng, _| {
        let data = rng.bytes_range(0usize..20_000);
        for algo in Algorithm::ALL {
            let cpu = Compressor::new(algo).with_threads(1).compress_bytes(&data);
            let gpu = GpuCompressor::new(algo)
                .with_threads(1)
                .compress_bytes(&data);
            assert_eq!(cpu, gpu, "{algo} diverged");
            // And all four decode paths agree.
            let via_cpu = fpc_core::decompress_bytes(&cpu).unwrap();
            let via_gpu = GpuCompressor::new(algo).decompress_bytes(&cpu).unwrap();
            assert_eq!(via_cpu, data);
            assert_eq!(via_gpu, data);
        }
    });
}

#[test]
fn streams_identical_on_arbitrary_floats() {
    run_cases("gpu/float-equivalence", 24, |rng, _| {
        let n = rng.gen_range(0usize..5_000);
        let values: Vec<f32> = (0..n).map(|_| f32::from_bits(rng.next_u32())).collect();
        for algo in [Algorithm::SpSpeed, Algorithm::SpRatio] {
            let cpu = Compressor::new(algo).with_threads(2).compress_f32(&values);
            let gpu = GpuCompressor::new(algo)
                .with_threads(2)
                .compress_f32(&values);
            assert_eq!(cpu, gpu, "{algo} diverged");
        }
    });
}

#[test]
fn streams_identical_on_every_dataset_suite() {
    use fpc_datagen::{double_precision_suites, single_precision_suites, Scale};
    for suite in single_precision_suites(Scale::Small) {
        let file = &suite.files[0];
        for algo in [Algorithm::SpSpeed, Algorithm::SpRatio] {
            let cpu = Compressor::new(algo).compress_f32(&file.values);
            let gpu = GpuCompressor::new(algo).compress_f32(&file.values);
            assert_eq!(cpu, gpu, "{algo} diverged on {}", file.name);
        }
    }
    for suite in double_precision_suites(Scale::Small) {
        let file = &suite.files[0];
        for algo in [Algorithm::DpSpeed, Algorithm::DpRatio] {
            let cpu = Compressor::new(algo).compress_f64(&file.values);
            let gpu = GpuCompressor::new(algo).compress_f64(&file.values);
            assert_eq!(cpu, gpu, "{algo} diverged on {}", file.name);
        }
    }
}

#[test]
fn dpratio_with_forged_original_len_fails_like_cpu() {
    // A checksum-valid header whose `original_len` the FCM payload cannot
    // back: splitting the payload must not overflow, and gpu-sim must
    // report the same structured error as the CPU decoder.
    let values: Vec<f64> = (0..300).map(|i| (i % 7) as f64 * 0.5).collect();
    let stream = Compressor::new(Algorithm::DpRatio).compress_f64(&values);
    let header = fpc_container::read_header(&stream).unwrap();
    let header_len = header.encoded_len();
    for original_len in [u64::MAX, u64::MAX - 7, (1 << 61) + 3] {
        let forged = fpc_container::Header {
            original_len,
            ..header
        };
        let mut bad = Vec::new();
        forged.write(&mut bad);
        bad.extend_from_slice(&stream[header_len..]);
        let cpu = fpc_core::decompress_bytes(&bad).unwrap_err();
        let gpu = GpuCompressor::new(Algorithm::DpRatio)
            .decompress_bytes(&bad)
            .unwrap_err();
        assert_eq!(gpu, cpu, "original_len {original_len}");
    }
}

/// A scalar codec that appends one byte to every chunk it encodes, so the
/// container frames (and checksums) a body with a byte no pipeline wrote.
struct TrailingByte(Box<dyn fpc_container::ChunkCodec + Send + Sync>);

impl fpc_container::ChunkCodec for TrailingByte {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        self.0.encode_chunk(chunk, out);
        out.push(0xA5);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), fpc_container::Error> {
        self.0.decode_into(data, out)
    }
}

/// The scalar chunk codec of a fixed algorithm.
fn scalar_codec(algo: Algorithm) -> Box<dyn fpc_container::ChunkCodec + Send + Sync> {
    match algo.codec(&fpc_core::PipelineOptions::default()) {
        fpc_core::AlgorithmCodec::Fixed(codec) => codec,
        fpc_core::AlgorithmCodec::Adaptive(_) => unreachable!("{algo} is a fixed algorithm"),
    }
}

/// Smooth values of `algo`'s width: every chunk shrinks, so none is
/// stored raw and every chunk body reaches the codec.
fn smooth_bytes(algo: Algorithm) -> Vec<u8> {
    if algo.is_single_precision() {
        let values: Vec<f32> = (0..12_000).map(|i| (i as f32 * 0.001).sin()).collect();
        fpc_transforms::words::f32_slice_to_bytes(&values)
    } else {
        let values: Vec<f64> = (0..6_000).map(|i| (i as f64 * 0.001).cos()).collect();
        fpc_transforms::words::f64_slice_to_bytes(&values)
    }
}

/// Decodes a checksum-valid forged stream on both paths and requires the
/// same structured error from each.
fn assert_rejected_alike(algo: Algorithm, stream: &[u8], what: &str) {
    // Compare decoded lengths, not bytes, so a failure prints briefly.
    let cpu = fpc_core::decompress_bytes(stream).map(|bytes| bytes.len());
    assert!(cpu.is_err(), "{algo} {what}: the CPU decoder accepted it");
    let gpu = GpuCompressor::new(algo)
        .decompress_bytes(stream)
        .map(|bytes| bytes.len());
    assert_eq!(gpu, cpu, "{algo} {what}");
}

#[test]
fn chunk_with_a_trailing_byte_fails_like_cpu() {
    // Chunk decoders must consume the whole body, on both paths.
    for algo in [Algorithm::SpSpeed, Algorithm::SpRatio, Algorithm::DpSpeed] {
        let data = smooth_bytes(algo);
        let len = data.len() as u64;
        let header = fpc_container::Header::new(algo.id(), algo.element_width(), len, len);
        let codec = TrailingByte(scalar_codec(algo));
        let stream = fpc_container::compress(header, &data, &codec, 1).unwrap();
        assert_rejected_alike(algo, &stream, "trailing chunk byte");
    }
}

#[test]
fn fixed_header_with_original_len_off_payload_len_fails_like_cpu() {
    // Without a global stage, a fixed algorithm's payload is the original
    // data: a header claiming any other length is corrupt on both paths.
    for algo in [Algorithm::SpSpeed, Algorithm::SpRatio, Algorithm::DpSpeed] {
        let data = smooth_bytes(algo);
        let len = data.len() as u64;
        for original_len in [len + 4, len - 4] {
            let header =
                fpc_container::Header::new(algo.id(), algo.element_width(), original_len, len);
            let stream =
                fpc_container::compress(header, &data, scalar_codec(algo).as_ref(), 1).unwrap();
            assert_rejected_alike(algo, &stream, &format!("original_len {original_len}"));
        }
    }
}

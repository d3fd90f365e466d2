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

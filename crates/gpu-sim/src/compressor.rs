//! The simulated-GPU compressor: `fpc-core` streams produced by the
//! GPU-style kernels.
//!
//! Everything but the kernels is `fpc-core`'s: the stream plumbing
//! ([`fpc_core::compress_stream`], [`fpc_core::decompress_stream`]), the
//! typed width checks, and the FCM payload layout. This file holds only the
//! algorithm-to-kernel table and the two parallel FCM formulations.

use crate::device::DeviceProfile;
use crate::kernels::{GpuDpRatioChunkCodec, GpuDpSpeedCodec, GpuSpRatioCodec, GpuSpSpeedCodec};
use crate::{radix, unionfind};
use fpc_container::ChunkCodec;
use fpc_core::{Algorithm, AlgorithmCodec, Error, PipelineOptions};
use fpc_transforms::{fcm, words, DecodeError};

/// Compresses and decompresses with the simulated GPU execution path.
///
/// Streams are bit-identical to those of [`fpc_core::Compressor`], so data
/// compressed "on the GPU" decompresses on the CPU and vice versa — the
/// compatibility property the paper's design centres on.
#[derive(Debug, Clone)]
pub struct GpuCompressor {
    algorithm: Algorithm,
    profile: DeviceProfile,
    threads: usize,
}

impl GpuCompressor {
    /// Creates a compressor for `algorithm` on the RTX 4090 profile.
    pub fn new(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            profile: DeviceProfile::rtx4090(),
            threads: 0,
        }
    }

    /// Selects a device profile (affects only the modeled throughput).
    pub fn with_profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Limits simulation worker threads (0 = all available).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Compresses raw little-endian bytes (same stream as the CPU path).
    pub fn compress_bytes(&self, data: &[u8]) -> Vec<u8> {
        self.compress_width(data, self.algorithm.element_width())
    }

    /// Compresses single-precision values.
    ///
    /// # Panics
    ///
    /// Panics if the configured algorithm targets double precision.
    pub fn compress_f32(&self, data: &[f32]) -> Vec<u8> {
        let width = self.algorithm.typed_width(4);
        self.compress_width(&words::f32_slice_to_bytes(data), width)
    }

    /// Compresses double-precision values.
    ///
    /// # Panics
    ///
    /// Panics if the configured algorithm targets single precision.
    pub fn compress_f64(&self, data: &[f64]) -> Vec<u8> {
        let width = self.algorithm.typed_width(8);
        self.compress_width(&words::f64_slice_to_bytes(data), width)
    }

    /// DPratio's global FCM stage runs the paper's sort-based encoder with
    /// the CUB-style radix sort (§3.2).
    fn compress_width(&self, data: &[u8], element_width: u8) -> Vec<u8> {
        fpc_core::compress_stream(
            self.algorithm,
            element_width,
            fpc_container::DEFAULT_CHUNK_SIZE,
            data,
            &codec(self.algorithm),
            self.threads,
            |data| fcm::encode_payload_sorted(data, fcm::MATCH_WINDOW, radix::sort_pairs),
        )
    }

    /// Decompresses any FPcompress stream with the GPU-style decoders
    /// (chunk kernels plus, for DPratio, the parallel union-find FCM
    /// decode).
    ///
    /// # Errors
    ///
    /// Fails on corrupt or truncated streams.
    pub fn decompress_bytes(&self, stream: &[u8]) -> Result<Vec<u8>, Error> {
        let threads = if self.threads == 0 { 8 } else { self.threads };
        fpc_core::decompress_stream(stream, self.threads, codec, |payload, original_len| {
            fcm::decode_payload_with(payload, original_len, |values, distances| {
                unionfind::decode(values, distances, threads)
                    .map_err(|_| DecodeError::Corrupt("fcm distance before start"))
            })
        })
    }

    /// Decompresses a single-precision stream.
    ///
    /// # Errors
    ///
    /// Fails on corrupt streams or width mismatch.
    pub fn decompress_f32(&self, stream: &[u8]) -> Result<Vec<f32>, Error> {
        fpc_core::decompress_f32_via(stream, |stream| self.decompress_bytes(stream))
    }

    /// Decompresses a double-precision stream.
    ///
    /// # Errors
    ///
    /// Fails on corrupt streams or width mismatch.
    pub fn decompress_f64(&self, stream: &[u8]) -> Result<Vec<f64>, Error> {
        fpc_core::decompress_f64_via(stream, |stream| self.decompress_bytes(stream))
    }
}

/// The one algorithm-to-kernel table, for both directions. AUTO's
/// per-chunk selection has no GPU kernels of its own, so it runs the CPU
/// selector, which produces the canonical adaptive stream.
pub(crate) fn codec(algorithm: Algorithm) -> AlgorithmCodec {
    let kernel: Box<dyn ChunkCodec + Send + Sync> = match algorithm {
        Algorithm::SpSpeed => Box::new(GpuSpSpeedCodec),
        Algorithm::SpRatio => Box::new(GpuSpRatioCodec),
        Algorithm::DpSpeed => Box::new(GpuDpSpeedCodec),
        Algorithm::DpRatio => Box::new(GpuDpRatioChunkCodec),
        Algorithm::Auto => return algorithm.codec(&PipelineOptions::default()),
    };
    AlgorithmCodec::Fixed(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpc_core::Compressor;

    fn smooth_f32(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.0007).sin() * 40.0).collect()
    }

    fn smooth_f64(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.0003).cos() * 7.0 + 2.0)
            .collect()
    }

    #[test]
    fn gpu_streams_bit_identical_to_cpu_sp() {
        let data = smooth_f32(60_000);
        for algo in [Algorithm::SpSpeed, Algorithm::SpRatio] {
            let gpu = GpuCompressor::new(algo).compress_f32(&data);
            let cpu = Compressor::new(algo).compress_f32(&data);
            assert_eq!(gpu, cpu, "{algo}: GPU and CPU streams must be identical");
        }
    }

    #[test]
    fn gpu_streams_bit_identical_to_cpu_dp() {
        let data = smooth_f64(30_000);
        for algo in [Algorithm::DpSpeed, Algorithm::DpRatio] {
            let gpu = GpuCompressor::new(algo).compress_f64(&data);
            let cpu = Compressor::new(algo).compress_f64(&data);
            assert_eq!(gpu, cpu, "{algo}");
        }
    }

    #[test]
    fn compress_on_gpu_decompress_on_cpu() {
        let data = smooth_f64(25_000);
        let stream = GpuCompressor::new(Algorithm::DpRatio).compress_f64(&data);
        let back = fpc_core::decompress_f64(&stream).unwrap();
        assert!(data
            .iter()
            .zip(&back)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn compress_on_cpu_decompress_on_gpu() {
        let data = smooth_f32(25_000);
        for algo in [Algorithm::SpSpeed, Algorithm::SpRatio] {
            let stream = Compressor::new(algo).compress_f32(&data);
            let back = GpuCompressor::new(algo).decompress_f32(&stream).unwrap();
            assert!(
                data.iter()
                    .zip(&back)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{algo}"
            );
        }
        let data64 = smooth_f64(25_000);
        for algo in [Algorithm::DpSpeed, Algorithm::DpRatio] {
            let stream = Compressor::new(algo).compress_f64(&data64);
            let back = GpuCompressor::new(algo).decompress_f64(&stream).unwrap();
            assert!(
                data64
                    .iter()
                    .zip(&back)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{algo}"
            );
        }
    }

    #[test]
    fn profiles_only_affect_model_not_bytes() {
        let data = smooth_f32(10_000);
        let rtx = GpuCompressor::new(Algorithm::SpRatio).compress_f32(&data);
        let a100 = GpuCompressor::new(Algorithm::SpRatio)
            .with_profile(DeviceProfile::a100())
            .compress_f32(&data);
        assert_eq!(rtx, a100);
    }

    #[test]
    fn width_mismatch_rejected() {
        let stream = GpuCompressor::new(Algorithm::SpSpeed).compress_f32(&smooth_f32(64));
        assert!(GpuCompressor::new(Algorithm::DpSpeed)
            .decompress_f64(&stream)
            .is_err());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let data = smooth_f64(8_000);
        let stream = GpuCompressor::new(Algorithm::DpRatio).compress_f64(&data);
        assert!(GpuCompressor::new(Algorithm::DpRatio)
            .decompress_bytes(&stream[..stream.len() - 7])
            .is_err());
    }
}

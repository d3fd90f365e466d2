//! The simulated-GPU compressor: `fpc-core`-compatible streams produced by
//! the GPU-style kernels.

use crate::device::DeviceProfile;
use crate::kernels::{GpuDpRatioChunkCodec, GpuDpSpeedCodec, GpuSpRatioCodec, GpuSpSpeedCodec};
use crate::{radix, unionfind};
use fpc_container::Header;
use fpc_core::{Algorithm, Error};
use fpc_transforms::{fcm, words};

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
        let algo = self.algorithm;
        if algo == Algorithm::Auto {
            // AUTO's per-chunk selection has no GPU-specific kernels; the
            // CPU path already produces the canonical adaptive stream.
            return fpc_core::Compressor::new(Algorithm::Auto)
                .with_threads(self.threads)
                .compress_bytes(data);
        }
        let mut header = Header::new(
            algo.id(),
            algo.element_width(),
            data.len() as u64,
            data.len() as u64,
        );
        match algo {
            Algorithm::SpSpeed => {
                fpc_container::compress(header, data, &GpuSpSpeedCodec, self.threads)
                    .expect("header matches payload")
            }
            Algorithm::SpRatio => {
                fpc_container::compress(header, data, &GpuSpRatioCodec, self.threads)
                    .expect("header matches payload")
            }
            Algorithm::DpSpeed => {
                fpc_container::compress(header, data, &GpuDpSpeedCodec, self.threads)
                    .expect("header matches payload")
            }
            Algorithm::DpRatio => {
                // Global FCM with the CUB-style radix sort (paper §3.2).
                let (w, tail) = words::bytes_to_u64(data);
                let mut pairs = fcm::hash_pairs(&w);
                radix::sort_pairs(&mut pairs);
                let enc = fcm::resolve_matches(&w, &pairs, fcm::MATCH_WINDOW);
                let mut payload = Vec::with_capacity(w.len() * 16 + tail.len());
                words::u64_to_bytes(&enc.values, &mut payload);
                words::u64_to_bytes(&enc.distances, &mut payload);
                payload.extend_from_slice(tail);
                header.payload_len = payload.len() as u64;
                fpc_container::compress(header, &payload, &GpuDpRatioChunkCodec, self.threads)
                    .expect("header matches payload")
            }
            Algorithm::Auto => unreachable!("delegated to the CPU path above"),
        }
    }

    /// Compresses single-precision values.
    ///
    /// # Panics
    ///
    /// Panics if the configured algorithm targets double precision.
    pub fn compress_f32(&self, data: &[f32]) -> Vec<u8> {
        assert!(
            self.algorithm.is_single_precision() || self.algorithm == Algorithm::Auto,
            "{} targets doubles",
            self.algorithm
        );
        if self.algorithm == Algorithm::Auto {
            // Delegate at the typed level so the header records width 4.
            return fpc_core::Compressor::new(Algorithm::Auto)
                .with_threads(self.threads)
                .compress_f32(data);
        }
        self.compress_bytes(&words::f32_slice_to_bytes(data))
    }

    /// Compresses double-precision values.
    ///
    /// # Panics
    ///
    /// Panics if the configured algorithm targets single precision.
    pub fn compress_f64(&self, data: &[f64]) -> Vec<u8> {
        assert!(
            !self.algorithm.is_single_precision(),
            "{} targets singles",
            self.algorithm
        );
        self.compress_bytes(&words::f64_slice_to_bytes(data))
    }

    /// Decompresses any FPcompress stream with the GPU-style decoders
    /// (chunk kernels plus, for DPratio, the parallel union-find FCM
    /// decode).
    ///
    /// # Errors
    ///
    /// Fails on corrupt or truncated streams.
    pub fn decompress_bytes(&self, stream: &[u8]) -> Result<Vec<u8>, Error> {
        let header = fpc_container::read_header(stream)?;
        let algorithm = Algorithm::from_id(header.algorithm)?;
        match algorithm {
            Algorithm::SpSpeed => {
                let (_, payload) =
                    fpc_container::decompress(stream, &GpuSpSpeedCodec, self.threads)?;
                Ok(payload)
            }
            Algorithm::SpRatio => {
                let (_, payload) =
                    fpc_container::decompress(stream, &GpuSpRatioCodec, self.threads)?;
                Ok(payload)
            }
            Algorithm::DpSpeed => {
                let (_, payload) =
                    fpc_container::decompress(stream, &GpuDpSpeedCodec, self.threads)?;
                Ok(payload)
            }
            Algorithm::DpRatio => {
                let (_, payload) =
                    fpc_container::decompress(stream, &GpuDpRatioChunkCodec, self.threads)?;
                let original_len = usize::try_from(header.original_len).map_err(|_| {
                    Error::Container(fpc_container::Error::Corrupt("length overflow"))
                })?;
                let (values, distances, tail) = fcm::split_payload(&payload, original_len)
                    .map_err(|e| Error::Container(crate::kernels::map_decode(e)))?;
                let (values, _) = words::bytes_to_u64(values);
                let (distances, _) = words::bytes_to_u64(distances);
                let threads = if self.threads == 0 { 8 } else { self.threads };
                let decoded = unionfind::decode(&values, &distances, threads).map_err(|_| {
                    Error::Container(fpc_container::Error::Corrupt("fcm distance before start"))
                })?;
                let mut out = Vec::with_capacity(original_len);
                words::u64_to_bytes(&decoded, &mut out);
                out.extend_from_slice(tail);
                Ok(out)
            }
            Algorithm::Auto => {
                // Adaptive streams decode through the CPU dispatcher; the
                // per-chunk kernels are shared with the fixed paths.
                fpc_core::decompress_bytes_with(stream, self.threads)
            }
        }
    }

    /// Decompresses a single-precision stream.
    ///
    /// # Errors
    ///
    /// Fails on corrupt streams or width mismatch.
    pub fn decompress_f32(&self, stream: &[u8]) -> Result<Vec<f32>, Error> {
        let header = fpc_container::read_header(stream)?;
        if header.element_width != 4 {
            return Err(Error::ElementMismatch {
                expected: 4,
                actual: header.element_width,
            });
        }
        let bytes = self.decompress_bytes(stream)?;
        words::bytes_to_f32_vec(&bytes).ok_or(Error::LengthIndivisible {
            len: bytes.len() as u64,
            width: 4,
        })
    }

    /// Decompresses a double-precision stream.
    ///
    /// # Errors
    ///
    /// Fails on corrupt streams or width mismatch.
    pub fn decompress_f64(&self, stream: &[u8]) -> Result<Vec<f64>, Error> {
        let header = fpc_container::read_header(stream)?;
        if header.element_width != 8 {
            return Err(Error::ElementMismatch {
                expected: 8,
                actual: header.element_width,
            });
        }
        let bytes = self.decompress_bytes(stream)?;
        words::bytes_to_f64_vec(&bytes).ok_or(Error::LengthIndivisible {
            len: bytes.len() as u64,
            width: 8,
        })
    }
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

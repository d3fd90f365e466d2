//! # fpcompress
//!
//! Facade crate for FPcompress-rs, a Rust reproduction of *"Efficient
//! Lossless Compression of Scientific Floating-Point Data on CPUs and GPUs"*
//! (ASPLOS 2025): the SPspeed, SPratio, DPspeed, and DPratio lossless
//! floating-point compression algorithms together with their substrates.
//!
//! Most users only need [`fpc_core`] (re-exported as [`core`]):
//!
//! ```
//! use fpcompress::core::{Algorithm, Compressor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.001).sin()).collect();
//! let compressor = Compressor::new(Algorithm::SpRatio);
//! let compressed = compressor.compress_f32(&data);
//! let restored = compressor.decompress_f32(&compressed)?;
//! assert_eq!(data.len(), restored.len());
//! assert!(data.iter().zip(&restored).all(|(a, b)| a.to_bits() == b.to_bits()));
//! # Ok(())
//! # }
//! ```

/// The four compression algorithms and the public compression API.
pub use fpc_core as core;

/// The chunked container format shared by all algorithms.
pub use fpc_container as container;

/// The individual data transformations (DIFFMS, MPLG, BIT, RZE, FCM, RAZE,
/// RARE).
pub use fpc_transforms as transforms;

/// The entropy-coding substrate (huffman, rANS, LZ, RLE, varint, bitpack).
pub use fpc_entropy as entropy;

/// Runtime-dispatched SWAR/AVX2 kernels behind the hot per-word loops.
pub use fpc_simd as simd;

/// The simulated-GPU execution path (warp/block model, cost model).
pub use fpc_gpu_sim as gpu;

/// From-scratch reimplementations of the comparator roster.
pub use fpc_baselines as baselines;

/// Synthetic SDRBench-like dataset generators.
pub use fpc_datagen as datagen;

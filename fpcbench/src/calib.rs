//! Machine-drift normalization.
//!
//! The host is shared, so its speed drifts over minutes: raw GB/s moved by
//! a third between runs an hour apart while the code stayed the same. The
//! measured phase therefore pauses about every [`CALIB_EVERY_S`] seconds to
//! time a fixed kernel, and every timing is rescaled by
//! `REF_CALIB_GBPS / median(samples)`: a run on a host that is 10% slow
//! right now reads as if it ran at reference speed.
//!
//! The kernel is single-threaded and resident in a core's own L2 cache, so
//! it measures the speed of a core and nothing another tenant shares with
//! it. (A two-thread kernel was tried: whether a second core is free
//! flips from one millisecond to the next, which made its samples
//! bimodal and the normalization noisier than none.) The kernel lives
//! here, not in the program under test, so no change to the program can
//! move the yardstick.

use crate::stats::median;
use std::time::Instant;

/// Median calibration speed of the reference host; normalized timings read
/// as if the host ran at exactly this speed.
pub const REF_CALIB_GBPS: f64 = 14.5;

/// Measured seconds between calibration pauses: short pauses, often, so
/// the median of a run's samples is steady.
pub const CALIB_EVERY_S: f64 = 0.5;

/// Words in the kernel's buffer: 256 KiB, inside any core's L2.
const WORDS: usize = 1 << 15;
const PASSES: usize = 256;

/// Calibration state for one run: the kernel's buffer (allocated once, so
/// sampling inside the measured phase does not move its heap high-water
/// mark) and the samples taken so far.
pub struct Drift {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for Drift {
    fn default() -> Self {
        Drift {
            buf: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            samples: Vec::new(),
        }
    }
}

impl Drift {
    /// Times the kernel — a branch-free xor-rotate reduction, after one
    /// warm-up pass — and records its speed in GB/s.
    pub fn sample(&mut self) {
        let mut acc = 0u64;
        for &w in &self.buf {
            acc ^= w.rotate_left(17);
        }
        let start = Instant::now();
        for p in 0..PASSES {
            for &w in &self.buf {
                acc ^= w.rotate_left(p as u32 + 11);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        self.samples
            .push((WORDS * 8 * PASSES) as f64 / 1e9 / secs.max(1e-12));
    }

    /// Median calibration speed of this run.
    pub fn host_gbps(&self) -> f64 {
        median(&self.samples)
    }

    /// The multiplier that maps this run onto the reference host.
    pub fn factor(&self) -> f64 {
        factor(&self.samples)
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// `REF_CALIB_GBPS / median(samples)`; 1 without samples.
pub fn factor(samples: &[f64]) -> f64 {
    let host = median(samples);
    if host > 0.0 {
        REF_CALIB_GBPS / host
    } else {
        1.0
    }
}

/// How a metric scales with host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Work per time (GB/s, ops/s): multiplied by the factor.
    Rate,
    /// Time per work (s, us): divided by the factor.
    Time,
    /// Counts, ratios, shares and bytes: unchanged.
    None,
}

/// Normalizes one raw value.
pub fn normalize(raw: f64, scaling: Scaling, factor: f64) -> f64 {
    match scaling {
        Scaling::Rate => raw * factor,
        Scaling::Time => raw / factor,
        Scaling::None => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_maps_a_slow_host_onto_the_reference() {
        // Host at half reference speed: the median ignores the outlier.
        let samples = [REF_CALIB_GBPS / 2.0, REF_CALIB_GBPS / 2.0, 1000.0];
        let f = factor(&samples);
        assert!((f - 2.0).abs() < 1e-12);
        assert!((normalize(1.5, Scaling::Rate, f) - 3.0).abs() < 1e-12);
        assert!((normalize(40.0, Scaling::Time, f) - 20.0).abs() < 1e-12);
        assert_eq!(normalize(7.0, Scaling::None, f), 7.0);
        assert_eq!(factor(&[]), 1.0);
        // A rate and the matching time stay reciprocal after scaling.
        let (bytes, secs) = (8.0e9, 4.0);
        let rate = normalize(bytes / 1e9 / secs, Scaling::Rate, f);
        let time = normalize(secs, Scaling::Time, f);
        assert!((rate - bytes / 1e9 / time).abs() < 1e-12);
    }

    #[test]
    fn kernel_reports_a_positive_speed() {
        let mut d = Drift::default();
        d.sample();
        assert_eq!(d.samples().len(), 1);
        assert!(d.host_gbps() > 0.0);
    }
}

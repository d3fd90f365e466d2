//! Golden-ratio regression tests: dataset generation is seeded, so the
//! geo-mean compression ratios on the quick-scale suites are stable
//! numbers. Pinning them (with a small tolerance for intentional tuning)
//! catches silent regressions in either the algorithms or the generators —
//! a ratio drop is a compression bug, a ratio jump usually means the data
//! got accidentally easier.

use fpcompress::core::{Algorithm, Compressor};
use fpcompress::datagen::{double_precision_suites, single_precision_suites, Scale};

fn geo_mean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sp_geo_mean(algo: Algorithm) -> f64 {
    let compressor = Compressor::new(algo);
    let mut suite_means = Vec::new();
    for suite in single_precision_suites(Scale::Small) {
        let ratios: Vec<f64> = suite
            .files
            .iter()
            .map(|f| {
                let bytes: Vec<u8> = f
                    .values
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes())
                    .collect();
                bytes.len() as f64 / compressor.compress_bytes(&bytes).len() as f64
            })
            .collect();
        suite_means.push(geo_mean(&ratios));
    }
    geo_mean(&suite_means)
}

fn dp_geo_mean(algo: Algorithm) -> f64 {
    let compressor = Compressor::new(algo);
    let mut suite_means = Vec::new();
    for suite in double_precision_suites(Scale::Small) {
        let ratios: Vec<f64> = suite
            .files
            .iter()
            .map(|f| {
                let bytes: Vec<u8> = f
                    .values
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes())
                    .collect();
                bytes.len() as f64 / compressor.compress_bytes(&bytes).len() as f64
            })
            .collect();
        suite_means.push(geo_mean(&ratios));
    }
    geo_mean(&suite_means)
}

/// Expected geo-mean ratios at `Scale::Small`, recorded from the run behind
/// EXPERIMENTS.md. Tolerance ±5% relative: loose enough for deliberate
/// generator tweaks, tight enough to flag real regressions.
#[test]
fn algorithm_geo_means_are_stable() {
    let cases = [
        (Algorithm::SpSpeed, sp_geo_mean(Algorithm::SpSpeed), 1.37),
        (Algorithm::SpRatio, sp_geo_mean(Algorithm::SpRatio), 1.45),
        (Algorithm::DpSpeed, dp_geo_mean(Algorithm::DpSpeed), 1.22),
        (Algorithm::DpRatio, dp_geo_mean(Algorithm::DpRatio), 1.58),
    ];
    for (algo, measured, expected) in cases {
        let rel = (measured - expected).abs() / expected;
        assert!(
            rel < 0.05,
            "{algo}: geo-mean ratio {measured:.4} drifted from golden {expected:.4} \
             (rel {rel:.3}); update tests/golden.rs if the change is intentional"
        );
    }
}

/// The compressed streams themselves are deterministic: same input, same
/// bytes, forever. Pin the FNV-1a checksum of one stream per algorithm
/// (plus AUTO on both inputs) so format changes are deliberate (they
/// require a version bump in the container), and check the stream depends
/// neither on the thread count nor on the run.
#[test]
fn stream_bytes_are_deterministic() {
    fn fnv(data: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
    let sp: Vec<u8> = (0..20_000)
        .flat_map(|i| (1.0f32 + i as f32 * 1e-5).to_bits().to_le_bytes())
        .collect();
    let dp: Vec<u8> = (0..10_000)
        .flat_map(|i| (1.0f64 + i as f64 * 1e-9).to_bits().to_le_bytes())
        .collect();
    let cases = [
        (Algorithm::SpSpeed, &sp, 0xa791_465d_8fc5_92e5u64),
        (Algorithm::SpRatio, &sp, 0xcd2b_950f_0c7f_bd5a),
        (Algorithm::DpSpeed, &dp, 0xac4d_aaa7_1b2d_833e),
        (Algorithm::DpRatio, &dp, 0xaa9d_fabc_e8bf_cd59),
        (Algorithm::Auto, &sp, 0x43f9_7134_9194_0192),
        (Algorithm::Auto, &dp, 0x8024_e431_c330_d686),
    ];
    for (algo, data, golden) in cases {
        let a = Compressor::new(algo).with_threads(1).compress_bytes(data);
        assert_eq!(
            fnv(&a),
            golden,
            "{algo}: stream checksum changed; a format change needs a container \
             version bump and a new golden value"
        );
        let b = Compressor::new(algo).with_threads(4).compress_bytes(data);
        assert_eq!(fnv(&a), fnv(&b), "{algo}: stream depends on thread count");
        // Compress twice: identical.
        let c = Compressor::new(algo).compress_bytes(data);
        assert_eq!(fnv(&a), fnv(&c), "{algo}: stream is nondeterministic");
    }
}

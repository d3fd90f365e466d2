//! Timing and aggregation following the paper's methodology (§4):
//! throughput = original size / time, median of N identical runs,
//! geometric means per suite and across suites.

use crate::entries::Entry;
use crate::geo_mean;
use fpc_baselines::Meta;
use fpc_datagen::{Dataset, Dims, Suite};
use fpc_gpu_sim::{DeviceProfile, Direction};
use std::time::Instant;

/// Measurement configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Identical runs per timing (median taken); the paper uses 5.
    pub repetitions: usize,
    /// Verify every decompression bit-for-bit (slower, on by default).
    pub verify: bool,
    /// Worker threads for the paper's algorithms (`0` = all cores).
    /// Baselines are serial and ignore this.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            repetitions: 5,
            verify: true,
            threads: 0,
        }
    }
}

impl Config {
    /// Fast configuration for smoke runs.
    pub fn quick() -> Self {
        Self {
            repetitions: 2,
            verify: true,
            threads: 0,
        }
    }
}

/// Aggregated result of one codec over all suites.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecResult {
    /// Codec name.
    pub name: String,
    /// Whether it is one of the paper's algorithms.
    pub ours: bool,
    /// Geo-mean of per-suite geo-mean compression ratios.
    pub ratio: f64,
    /// Geo-mean compression throughput in GB/s.
    pub compress_gbps: f64,
    /// Geo-mean decompression throughput in GB/s.
    pub decompress_gbps: f64,
}

fn meta_for(dims: Dims, element_width: u8) -> Meta {
    let dims = match dims {
        Dims::D1(n) => [1, 1, n],
        Dims::D2(r, c) => [1, r, c],
        Dims::D3(s, r, c) => [s, r, c],
    };
    Meta {
        element_width,
        dims,
    }
}

pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Per-file measurement: (ratio, compress GB/s, decompress GB/s).
fn measure_file(entry: &Entry, bytes: &[u8], meta: &Meta, config: &Config) -> (f64, f64, f64) {
    let gb = bytes.len() as f64 / 1e9;
    // One untimed warm-up per direction: the first iteration pays for cold
    // allocator state, page faults, and lazy pool spin-up, and used to skew
    // the median at low repetition counts.
    let stream = entry.compress_with(bytes, meta, config.threads);
    let mut comp_times = Vec::with_capacity(config.repetitions);
    for _ in 0..config.repetitions.max(1) {
        let start = Instant::now();
        let s = entry.compress_with(bytes, meta, config.threads);
        comp_times.push(start.elapsed().as_secs_f64());
        assert_eq!(s.len(), stream.len(), "{} is nondeterministic", entry.name);
    }
    let mut out = entry.decompress_with(&stream, meta, config.threads);
    let mut dec_times = Vec::with_capacity(config.repetitions);
    for _ in 0..config.repetitions.max(1) {
        let start = Instant::now();
        out = entry.decompress_with(&stream, meta, config.threads);
        dec_times.push(start.elapsed().as_secs_f64());
    }
    if config.verify {
        assert_eq!(out, bytes, "{} corrupted a dataset", entry.name);
    }
    // An empty stream (possible only for empty input) would otherwise make
    // the ratio infinite and poison every downstream geo-mean.
    let ratio = if stream.is_empty() {
        0.0
    } else {
        bytes.len() as f64 / stream.len() as f64
    };
    (ratio, gb / median(comp_times), gb / median(dec_times))
}

fn dataset_bytes_f32(d: &Dataset<f32>) -> Vec<u8> {
    d.values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect()
}

fn dataset_bytes_f64(d: &Dataset<f64>) -> Vec<u8> {
    d.values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect()
}

/// A dataset suite converted to raw bytes plus per-file metadata.
pub struct ByteSuite {
    /// Domain name.
    pub domain: &'static str,
    /// (file name, bytes, meta) triples.
    pub files: Vec<(String, Vec<u8>, Meta)>,
}

/// Converts the typed single-precision suites.
pub fn byte_suites_f32(suites: &[Suite<f32>]) -> Vec<ByteSuite> {
    suites
        .iter()
        .map(|s| ByteSuite {
            domain: s.domain,
            files: s
                .files
                .iter()
                .map(|f| (f.name.clone(), dataset_bytes_f32(f), meta_for(f.dims, 4)))
                .collect(),
        })
        .collect()
}

/// Converts raw-byte suites (mixed MPI-like rank buffers). The metadata
/// records width 8 — only the roster baselines read it, and the mixed
/// streams are measured against the paper's self-describing algorithms.
pub fn byte_suites_u8(suites: &[Suite<u8>]) -> Vec<ByteSuite> {
    suites
        .iter()
        .map(|s| ByteSuite {
            domain: s.domain,
            files: s
                .files
                .iter()
                .map(|f| (f.name.clone(), f.values.clone(), meta_for(f.dims, 8)))
                .collect(),
        })
        .collect()
}

/// Converts the typed double-precision suites.
pub fn byte_suites_f64(suites: &[Suite<f64>]) -> Vec<ByteSuite> {
    suites
        .iter()
        .map(|s| ByteSuite {
            domain: s.domain,
            files: s
                .files
                .iter()
                .map(|f| (f.name.clone(), dataset_bytes_f64(f), meta_for(f.dims, 8)))
                .collect(),
        })
        .collect()
}

/// Measures one codec over all suites on the CPU (real timings).
pub fn measure_cpu(entry: &Entry, suites: &[ByteSuite], config: &Config) -> CodecResult {
    let mut suite_ratios = Vec::new();
    let mut suite_comp = Vec::new();
    let mut suite_dec = Vec::new();
    for suite in suites {
        let mut ratios = Vec::new();
        let mut comps = Vec::new();
        let mut decs = Vec::new();
        for (_, bytes, meta) in &suite.files {
            let (r, c, d) = measure_file(entry, bytes, meta, config);
            ratios.push(r);
            comps.push(c);
            decs.push(d);
        }
        suite_ratios.push(geo_mean(&ratios));
        suite_comp.push(geo_mean(&comps));
        suite_dec.push(geo_mean(&decs));
    }
    CodecResult {
        name: entry.name.clone(),
        ours: entry.is_ours(),
        ratio: geo_mean(&suite_ratios),
        compress_gbps: geo_mean(&suite_comp),
        decompress_gbps: geo_mean(&suite_dec),
    }
}

/// Measures one codec's *ratio* over all suites and attaches the modeled
/// GPU throughput for `profile` (used for Figures 8–11 and 14–17).
///
/// Returns `None` if the codec has no GPU model (CPU-only comparator).
pub fn measure_gpu_modeled(
    entry: &Entry,
    suites: &[ByteSuite],
    profile: &DeviceProfile,
    config: &Config,
) -> Option<CodecResult> {
    let comp = profile.modeled_gbps(&entry.name, Direction::Compress)?;
    let dec = profile.modeled_gbps(&entry.name, Direction::Decompress)?;
    let mut suite_ratios = Vec::new();
    for suite in suites {
        let mut ratios = Vec::new();
        for (_, bytes, meta) in &suite.files {
            let stream = entry.compress(bytes, meta);
            if config.verify {
                assert_eq!(&entry.decompress(&stream, meta), bytes, "{}", entry.name);
            }
            ratios.push(bytes.len() as f64 / stream.len() as f64);
        }
        suite_ratios.push(geo_mean(&ratios));
    }
    Some(CodecResult {
        name: entry.name.clone(),
        ours: entry.is_ours(),
        ratio: geo_mean(&suite_ratios),
        compress_gbps: comp,
        decompress_gbps: dec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entries::Entry;
    use fpc_core::Algorithm;
    use fpc_datagen::{single_precision_suites, Scale};

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0]), 4.0); // upper median
    }

    #[test]
    fn measure_cpu_produces_sane_numbers() {
        let suites = byte_suites_f32(&single_precision_suites(Scale::Small)[..2]);
        let entry = Entry::ours(Algorithm::SpSpeed);
        let result = measure_cpu(
            &entry,
            &suites,
            &Config {
                repetitions: 1,
                verify: true,
                threads: 0,
            },
        );
        assert!(result.ratio > 1.0, "ratio {}", result.ratio);
        assert!(result.compress_gbps > 0.0);
        assert!(result.decompress_gbps > 0.0);
        assert!(result.ours);
    }

    #[test]
    fn gpu_modeled_uses_table_speeds() {
        let suites = byte_suites_f32(&single_precision_suites(Scale::Small)[..1]);
        let entry = Entry::ours(Algorithm::SpSpeed);
        let profile = DeviceProfile::rtx4090();
        let result = measure_gpu_modeled(
            &entry,
            &suites,
            &profile,
            &Config {
                repetitions: 1,
                verify: true,
                threads: 0,
            },
        )
        .expect("SPspeed has a GPU model");
        assert!(result.compress_gbps > 500.0);
        assert!(result.ratio > 1.0);
    }

    #[test]
    fn cpu_only_codec_has_no_gpu_result() {
        let suites = byte_suites_f32(&single_precision_suites(Scale::Small)[..1]);
        let entry = Entry::baseline(fpc_baselines::by_name("Gzip-fast").expect("roster"));
        let profile = DeviceProfile::rtx4090();
        assert!(measure_gpu_modeled(&entry, &suites, &profile, &Config::quick()).is_none());
    }
}

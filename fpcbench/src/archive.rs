//! The archive workloads: one-shot compress and decompress of whole files,
//! the way `fpcc compress`/`decompress` run, on [`THREADS`] threads.

use crate::calib::{Drift, Scaling, CALIB_EVERY_S};
use crate::data::Corpus;
use crate::report::{Audit, Metric};
use crate::stats::{lower_quartile, percentile, suite_geomean, tail_eligible};
use crate::THREADS;
use fpc_core::Compressor;
use fpc_prng::Rng;
use std::time::Instant;

/// Reference streams: every item compressed once. The measured phase
/// checks each compress output against these byte for byte, and
/// decompresses them.
pub fn reference_streams(corpus: &Corpus) -> Vec<Vec<u8>> {
    corpus
        .items
        .iter()
        .map(|item| {
            Compressor::new(item.algo)
                .with_threads(THREADS)
                .compress_bytes(&item.data)
        })
        .collect()
}

/// Per-file timings of one measured phase.
pub struct Timings {
    /// Seconds per compress, one list per item.
    pub compress: Vec<Vec<f64>>,
    /// Seconds per decompress, one list per item.
    pub decompress: Vec<Vec<f64>>,
    /// Busy seconds across all operations.
    pub busy_s: f64,
}

/// Visits every item once per pass, in an order the seed shuffles anew for
/// each pass, until at least `seconds` of operation time has accumulated.
/// Only whole passes run, so every run times the same mix of files.
pub fn measure(
    corpus: &Corpus,
    refs: &[Vec<u8>],
    seed: u64,
    seconds: f64,
    drift: &mut Drift,
    audit: &mut Audit,
) -> Timings {
    let n = corpus.items.len();
    let mut t = Timings {
        compress: vec![Vec::new(); n],
        decompress: vec![Vec::new(); n],
        busy_s: 0.0,
    };
    let mut rng = Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut since_calib = 0.0;
    while t.busy_s < seconds {
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let item = &corpus.items[i];
            let start = Instant::now();
            let stream = Compressor::new(item.algo)
                .with_threads(THREADS)
                .compress_bytes(&item.data);
            let tc = start.elapsed().as_secs_f64();
            audit.record(stream == refs[i], || format!("compress {}", item.name));
            drop(stream);

            let start = Instant::now();
            let out = fpc_core::decompress_bytes_with(&refs[i], THREADS);
            let td = start.elapsed().as_secs_f64();
            audit.record(out.as_deref() == Ok(&item.data[..]), || {
                format!("decompress {}", item.name)
            });
            drop(out);

            t.compress[i].push(tc);
            t.decompress[i].push(td);
            t.busy_s += tc + td;
            since_calib += tc + td;
            if since_calib >= CALIB_EVERY_S {
                drift.sample();
                since_calib = 0.0;
            }
        }
    }
    t
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle(order: &mut [usize], rng: &mut Rng) {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
}

/// The paper's compression ratio: per file, then geo-means per suite and
/// across suites.
pub fn ratio(corpus: &Corpus, refs: &[Vec<u8>]) -> f64 {
    let rows: Vec<(usize, f64)> = corpus
        .items
        .iter()
        .zip(refs)
        .map(|(item, r)| (item.suite, item.data.len() as f64 / r.len() as f64))
        .collect();
    suite_geomean(&rows)
}

/// End-to-end metrics of an archive run; `tail_p` is the workload's latency
/// tail percentile. Every timing comes from each operation's
/// lower-quartile time over the passes (see [`lower_quartile`]):
/// throughput divides each file's bytes by it, then aggregates as the paper
/// does; operations per second are a pass's operations over the sum of
/// those times, and the latencies are percentiles of them.
pub fn metrics(corpus: &Corpus, refs: &[Vec<u8>], t: &Timings, tail_p: f64) -> Vec<Metric> {
    let gbps = |times: &[Vec<f64>]| {
        let rows: Vec<(usize, f64)> = corpus
            .items
            .iter()
            .zip(times)
            .map(|(item, ts)| {
                (
                    item.suite,
                    item.data.len() as f64 / 1e9 / lower_quartile(ts),
                )
            })
            .collect();
        suite_geomean(&rows)
    };
    // One pass at every operation's lower-quartile time.
    let mut pass: Vec<f64> = t
        .compress
        .iter()
        .chain(&t.decompress)
        .map(|ts| lower_quartile(ts))
        .collect();
    pass.sort_by(f64::total_cmp);
    let pass_s: f64 = pass.iter().sum();
    let passes = t.compress.first().map_or(0, Vec::len);
    let ops = pass.len() * passes;
    let files = format!("{} files x {passes} passes", corpus.items.len());
    let tail_note = format!(
        "p{tail_p} of {} operations, {ops} runs{}",
        pass.len(),
        if tail_eligible(ops, tail_p) {
            ""
        } else {
            ", fewer than 10 beyond it"
        }
    );
    vec![
        Metric::timed("compress_gbps", gbps(&t.compress), "GB/s", Scaling::Rate)
            .with_note(files.clone()),
        Metric::timed(
            "decompress_gbps",
            gbps(&t.decompress),
            "GB/s",
            Scaling::Rate,
        )
        .with_note(files),
        Metric::plain("ratio", ratio(corpus, refs), "x"),
        Metric::timed(
            "ops_per_s",
            pass.len() as f64 / pass_s,
            "1/s",
            Scaling::Rate,
        ),
        Metric::timed(
            "latency_p50_us",
            percentile(&pass, 50.0) * 1e6,
            "us",
            Scaling::Time,
        )
        .with_note(format!("{} operations, {ops} runs", pass.len())),
        Metric::timed(
            "latency_tail_us",
            percentile(&pass, tail_p) * 1e6,
            "us",
            Scaling::Time,
        )
        .with_note(tail_note),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let run = |seed| {
            let mut order: Vec<usize> = (0..31).collect();
            let mut rng = Rng::seed_from_u64(seed);
            shuffle(&mut order, &mut rng);
            shuffle(&mut order, &mut rng);
            order
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let mut sorted = run(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..31).collect::<Vec<_>>());
    }
}

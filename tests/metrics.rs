//! Metrics subsystem integration: thread-safety of the global counters,
//! true no-op behavior with the feature off, and the JSON surface shared
//! by `fpcc --metrics json`, `fpcc stats`, and the faultgen report.
//!
//! Every test works in both feature states: with `metrics` off it asserts
//! the snapshot stays structurally valid and empty; with `metrics` on it
//! asserts the recorded totals add up exactly — even when many OS threads
//! plus the worker pool hammer the counters concurrently.

use fpc_metrics::json::Value;
use fpc_metrics::report::{render_value, MetricsReport};
use fpcompress::container;
use fpcompress::core::{Algorithm, Compressor};
use std::sync::Mutex;

/// The metrics sinks are process-global; tests that `reset()` them must
/// not interleave.
static GLOBALS: Mutex<()> = Mutex::new(());

fn sample(n_floats: usize) -> Vec<u8> {
    (0..n_floats)
        .flat_map(|i| ((i as f32 * 1e-3).sin()).to_bits().to_le_bytes())
        .collect()
}

#[test]
fn concurrent_compressions_account_every_byte() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let data = sample(32 * 1024); // 128 KiB = 8 container chunks
    let stream = Compressor::new(Algorithm::SpSpeed)
        .with_threads(2)
        .compress_bytes(&data);
    let chunks_per_stream = container::stats(&stream).unwrap().chunks as u64;
    assert!(chunks_per_stream >= 4);

    const WRITERS: u64 = 4;
    fpc_metrics::reset();
    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            s.spawn(|| {
                // threads=2 forces the pool's parallel path (and its
                // telemetry) even on a single-core machine.
                let stream = Compressor::new(Algorithm::SpSpeed)
                    .with_threads(2)
                    .compress_bytes(&data);
                assert_eq!(fpcompress::core::decompress_bytes(&stream).unwrap(), data);
            });
        }
    });
    let report = fpc_metrics::snapshot();
    if !fpc_metrics::ENABLED {
        assert!(!report.enabled);
        assert!(report.stages.is_empty() && report.counters.is_empty());
        return;
    }
    assert!(report.enabled);
    let stage = |name: &str| {
        report
            .stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("stage '{name}' not recorded"))
    };
    // Exact accounting under concurrency: relaxed atomics lose nothing.
    let compress = stage("container.compress");
    assert_eq!(compress.calls, WRITERS);
    assert_eq!(compress.bytes, WRITERS * data.len() as u64);
    let decode = stage("container.decode");
    assert_eq!(decode.calls, WRITERS);
    assert_eq!(decode.bytes, WRITERS * data.len() as u64);
    // Histogram mass equals the call count.
    for s in [compress, decode] {
        let hist_total: u64 = s.hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(hist_total, s.calls, "{}: histogram lost samples", s.name);
        assert!(s.nanos > 0);
    }
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or_else(|| panic!("counter '{name}' not recorded"))
    };
    // The chunk counter is recorded on the compress side only.
    assert_eq!(counter("container.chunks"), WRITERS * chunks_per_stream);
    // Each compress submits one pool job; whether decompress adds more
    // depends on the machine's core count, so only lower-bound it.
    assert!(counter("pool.jobs") >= WRITERS);
    assert!(counter("pool.batches") >= counter("pool.jobs"));
}

#[test]
fn one_shot_auto_counts_exactly_what_the_chunk_table_records() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    // Smooth single- and double-precision stretches plus noise, so AUTO
    // picks several codecs and stores some chunks raw.
    let mut data = sample(64 * 1024);
    data.extend((0..32 * 1024).flat_map(|i| ((i as f64 * 1e-4).cos()).to_bits().to_le_bytes()));
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    data.extend((0..64 * 1024).map(|_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 56) as u8
    }));
    fpc_metrics::reset();
    let stream = Compressor::new(Algorithm::Auto)
        .with_threads(2)
        .compress_bytes(&data);
    let counters = fpc_metrics::snapshot().counters;
    if !fpc_metrics::ENABLED {
        return;
    }
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let region = container::Region::parse(&stream).unwrap();
    let raw: Vec<bool> = (0..region.chunks()).map(|i| region.chunk_raw(i)).collect();
    let raw_count = raw.iter().filter(|&&r| r).count() as u64;
    assert!(raw_count > 0, "the noise must be stored raw");
    assert_eq!(counter("container.chunks"), region.chunks() as u64);
    assert_eq!(counter("container.chunks.raw"), raw_count);
    assert_eq!(counter("container.auto.pick.raw"), raw_count);
    let mut picked = 0;
    for (id, name) in [
        (container::ALGO_SP_SPEED, "spspeed"),
        (container::ALGO_SP_RATIO, "spratio"),
        (container::ALGO_DP_SPEED, "dpspeed"),
        (container::ALGO_DP_RATIO, "dpratio"),
    ] {
        let recorded = region
            .chunk_codec_ids()
            .iter()
            .zip(&raw)
            .filter(|&(&codec, &raw)| codec == id && !raw)
            .count() as u64;
        assert_eq!(
            counter(&format!("container.auto.pick.{name}")),
            recorded,
            "{name}"
        );
        picked += recorded;
    }
    assert_eq!(picked + raw_count, region.chunks() as u64);
}

#[test]
fn snapshot_roundtrips_through_stats_renderer() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    fpc_metrics::reset();
    let data = sample(8 * 1024);
    let stream = Compressor::new(Algorithm::DpRatio)
        .with_threads(2)
        .compress_bytes(&data);
    assert_eq!(fpcompress::core::decompress_bytes(&stream).unwrap(), data);

    // Exactly what `fpcc --metrics json` emits...
    let report = fpc_metrics::snapshot();
    let json = report.to_value().to_json_pretty();
    // ...and exactly what `fpcc stats` does with a saved file.
    let parsed = Value::parse(&json).expect("emitted JSON must parse");
    let reparsed = MetricsReport::from_value(&parsed).expect("schema roundtrip");
    assert_eq!(reparsed, report);
    let rendered = render_value(&parsed).expect("renderable");
    if fpc_metrics::ENABLED {
        assert!(rendered.contains("FCM.encode"), "got: {rendered}");
        assert!(rendered.contains("pool.jobs"), "got: {rendered}");
    } else {
        assert!(rendered.contains("disabled"), "got: {rendered}");
    }
}

#[test]
fn reset_clears_everything() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let data = sample(4 * 1024);
    let _ = Compressor::new(Algorithm::SpRatio)
        .with_threads(1)
        .compress_bytes(&data);
    fpc_metrics::reset();
    let report = fpc_metrics::snapshot();
    assert!(report.stages.is_empty());
    assert!(report.counters.is_empty());
}

#[test]
fn feature_state_is_consistent() {
    // `ENABLED` is the single source of truth the instrumented crates
    // branch on; the snapshot must agree with it.
    let report = fpc_metrics::snapshot();
    assert_eq!(report.enabled, fpc_metrics::ENABLED);
    assert_eq!(fpc_metrics::ENABLED, cfg!(feature = "metrics"));
}

#[test]
fn compressed_output_is_identical_to_uninstrumented_build() {
    // The instrumentation only observes; it must never change the stream.
    // The golden-stream tests pin the exact bytes across builds, so here
    // it suffices to check determinism under instrumentation and that
    // serial and pooled compression still agree bit-for-bit. Compressing
    // records into the global sinks, so hold the lock the exact-accounting
    // tests count under.
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let data = sample(16 * 1024);
    for algo in Algorithm::ALL {
        let serial = Compressor::new(algo).with_threads(1).compress_bytes(&data);
        let pooled = Compressor::new(algo).with_threads(3).compress_bytes(&data);
        assert_eq!(serial, pooled, "{algo}: threading changed the stream");
        assert_eq!(
            serial,
            Compressor::new(algo).with_threads(1).compress_bytes(&data),
            "{algo}: nondeterministic stream"
        );
    }
}

/// Range selectivity: on a 64-chunk stream a sub-chunk range decodes one
/// chunk (two if it straddled a boundary), which the counters prove and the
/// per-stage byte totals confirm against a full decode. DPratio's payload
/// is not chunk-addressable, so its range path decodes the whole stream
/// and slices, and never counts a touched chunk.
#[test]
fn single_chunk_range_touches_at_most_two_chunks_of_sixty_four() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let chunk = container::DEFAULT_CHUNK_SIZE as u64;
    let (offset, len) = (31 * chunk + 100, 1_000u64);
    let counter = |name: &str| {
        fpc_metrics::snapshot()
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let stage_bytes = || -> u64 { fpc_metrics::snapshot().stages.iter().map(|s| s.bytes).sum() };
    for algo in Algorithm::ALL {
        // 1 MiB either way: 64 chunks at the default chunk size.
        let data: Vec<u8> = if algo.is_single_precision() {
            (0..262_144)
                .flat_map(|i| ((i as f32 * 1e-3).sin() * 7.0).to_bits().to_le_bytes())
                .collect()
        } else {
            (0..131_072)
                .flat_map(|i| ((i as f64 * 1e-3).cos() * 3.0).to_bits().to_le_bytes())
                .collect()
        };
        let stream = Compressor::new(algo).with_threads(1).compress_bytes(&data);

        fpc_metrics::reset();
        fpcompress::core::decompress_bytes_with(&stream, 1).unwrap();
        let full_bytes = stage_bytes();

        fpc_metrics::reset();
        let got = fpcompress::core::decompress_range_with(&stream, offset, len, 1).unwrap();
        assert_eq!(
            got,
            &data[offset as usize..(offset + len) as usize],
            "{algo}"
        );
        let (touched, range_bytes) = (counter("container.range.chunks.touched"), stage_bytes());
        if !fpc_metrics::ENABLED {
            continue;
        }
        if algo == Algorithm::DpRatio {
            assert_eq!(
                touched, 0,
                "{algo}: the full-decode fallback touched chunks"
            );
            continue;
        }
        assert_eq!(counter("container.range.chunks.total"), 64, "{algo}");
        assert!(
            (1..=2).contains(&touched),
            "{algo}: a sub-chunk range decoded {touched} of 64 chunks"
        );
        assert!(
            range_bytes * 16 <= full_bytes,
            "{algo}: range decode staged {range_bytes} bytes, full decode {full_bytes}"
        );
    }
}

//! `fpcbench`: the end-to-end and per-layer benchmark of FPcompress-rs.
//!
//! ```text
//! fpcbench run --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! fpcbench repeat [--sets <n>] [--seconds <s>] [--seed <n>]
//! ```
//!
//! `run` measures one workload in this process and prints every metric as
//! a JSON line, then the result object as the last line. `--trace 0` (the
//! default) reports the end-to-end metrics; `--trace 1` the per-layer
//! ones. The exit status is non-zero when any output differed from its
//! reference by a single byte. `repeat` runs every workload in child
//! processes, in alternating order, and checks each end-to-end metric's
//! run-to-run spread against its bound in `BENCHMARK.json`. See README.md.

mod alloc;
mod archive;
mod calib;
mod data;
mod layers;
mod repeat;
mod report;
mod serve;
mod stats;

use calib::{Drift, Scaling};
use data::{Corpus, Family, Item};
use fpc_core::Algorithm;
use report::{Audit, Metric};
use serve::{ClientState, Dist, OpKind, OpStream, Running, Spec};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Codec threads per operation; the reference host has two cores.
pub const THREADS: usize = 2;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

const MIB: f64 = (1u64 << 20) as f64;

/// Measured seconds when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Keys the traced run of an archive workload serves, and files or keys
/// its layer replay covers at most.
const PROBE_KEYS: usize = 48;
const REPLAY_ITEMS: usize = 16;
/// Chunks the stage probe runs through every pipeline (4 MiB).
const STAGE_SAMPLE_CHUNKS: usize = 256;
/// Recorded requests the in-process mirror replays.
const MIRROR_OPS: usize = 3000;

/// Server configuration of the archive workloads' traced serve probe: the
/// serve-cold shape over the workload's own bytes and codecs.
const PROBE_SPEC: Spec = Spec {
    cache_bytes: 16 << 20,
    dist: Dist::Uniform,
    warm_keys: 32,
};

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// One-shot file compress/decompress; `ratio` selects the ratio tier.
    Archive { ratio: bool },
    /// Traffic against an in-process server; `hot` keys are the 16-key
    /// zipfian set, otherwise every 1 MiB slice uniformly.
    Serve { hot: bool, spec: Spec },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    /// The latency tail percentile this workload reports, one with at least
    /// ten samples beyond it at the run length.
    tail_p: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "archive-speed",
        kind: Kind::Archive { ratio: false },
        // p99 would qualify (~6000 operations) but lands inside the
        // slowest file's own spread and moved 13% run to run.
        tail_p: 95.0,
    },
    Workload {
        name: "archive-ratio",
        kind: Kind::Archive { ratio: true },
        tail_p: 95.0,
    },
    Workload {
        name: "serve-hot",
        kind: Kind::Serve {
            hot: true,
            spec: Spec {
                cache_bytes: 64 << 20,
                dist: Dist::Zipf(1.0),
                warm_keys: 16,
            },
        },
        tail_p: 99.0,
    },
    Workload {
        name: "serve-cold",
        kind: Kind::Serve {
            hot: false,
            spec: Spec {
                cache_bytes: 16 << 20,
                dist: Dist::Uniform,
                warm_keys: 32,
            },
        },
        tail_p: 99.0,
    },
];

/// Generates the workload's inputs from the datagen suites.
fn corpus(kind: Kind) -> Corpus {
    match kind {
        Kind::Archive { ratio: false } => {
            data::whole_files(data::generate(&[Family::Sp, Family::Dp]), |f| match f {
                Family::Sp => Algorithm::SpSpeed,
                _ => Algorithm::DpSpeed,
            })
        }
        Kind::Archive { ratio: true } => data::whole_files(
            data::generate(&[Family::Sp, Family::Dp, Family::Mixed]),
            |f| match f {
                Family::Sp => Algorithm::SpRatio,
                Family::Dp => Algorithm::DpRatio,
                Family::Mixed => Algorithm::Auto,
            },
        ),
        Kind::Serve { hot, .. } => {
            let keys = data::key_slices(data::generate(&[Family::Sp, Family::Dp, Family::Mixed]));
            if hot {
                data::stratified(keys, 16)
            } else {
                keys
            }
        }
    }
}

struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--workload" => {
                let name = value.ok_or("--workload needs a name")?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs an unsigned integer")?,
                );
            }
            "--seconds" => {
                seconds = value
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => match value.map(String::as_str) {
                Some("0") => trace = false,
                Some("1") => trace = true,
                // A bare `--trace` turns tracing on.
                _ => {
                    trace = true;
                    i += 1;
                    continue;
                }
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

const USAGE: &str =
    "usage: fpcbench run --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
       fpcbench repeat [--sets <n>] [--seconds <s>] [--seed <n>]
workloads: archive-speed archive-ratio serve-hot serve-cold";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run_args) => run_command(&run_args),
            Err(e) => {
                eprintln!("fpcbench: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("repeat") => repeat::main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_command(a: &RunArgs) -> ExitCode {
    match run(a) {
        Ok((audit, metrics)) => {
            for m in &metrics {
                println!("{}", m.line());
            }
            println!("{}", report::result_line(&audit, &metrics));
            if audit.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "fpcbench: {} of {} operations failed or differed from their reference",
                    audit.failed, audit.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fpcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(a: &RunArgs) -> Result<(Audit, Vec<Metric>), String> {
    let w = a.workload;
    let start = Instant::now();
    let corpus = corpus(w.kind);
    let datagen_s = start.elapsed().as_secs_f64();
    eprintln!(
        "fpcbench: {}: {} inputs, {:.1} MiB, datagen {datagen_s:.1} s",
        w.name,
        corpus.items.len(),
        corpus.total_bytes() as f64 / MIB
    );
    let mut audit = Audit::default();
    let mut drift = Drift::default();
    let mut metrics = match (w.kind, a.trace) {
        (Kind::Archive { .. }, false) => archive_run(w, &corpus, a, &mut drift, &mut audit),
        (Kind::Serve { spec, .. }, false) => {
            serve_run(w, &corpus, &spec, a, &mut drift, &mut audit)?
        }
        (Kind::Archive { .. }, true) => archive_trace(&corpus, a, &mut drift, &mut audit)?,
        (Kind::Serve { spec, .. }, true) => serve_trace(&corpus, &spec, a, &mut drift, &mut audit)?,
    };
    if a.trace {
        metrics.push(
            Metric::plain("host.calib_gbps", drift.host_gbps(), "GB/s").with_note(format!(
                "median of {} samples, reference {}",
                drift.samples().len(),
                calib::REF_CALIB_GBPS
            )),
        );
        metrics.push(Metric::plain("bench.datagen_s", datagen_s, "s"));
    }
    eprintln!(
        "fpcbench: calibration {:.2} GB/s (median of {} samples), reference {}",
        drift.host_gbps(),
        drift.samples().len(),
        calib::REF_CALIB_GBPS
    );
    let factor = drift.factor();
    Ok((
        audit,
        metrics.into_iter().map(|m| m.normalized(factor)).collect(),
    ))
}

/// What the set-up leaves for the measured phase.
struct SetUp<T> {
    refs: Vec<Vec<u8>>,
    state: T,
    /// `setup_s`: the median of the repetitions.
    metric: Metric,
}

/// Repeats the set-up `SETUP_REPS` times, checking that every repetition
/// builds byte-identical references and tearing down all but the last.
fn setup_reps<T>(
    audit: &mut Audit,
    mut setup: impl FnMut(&mut Audit) -> Result<(Vec<Vec<u8>>, T), String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<SetUp<T>, String> {
    let mut times = Vec::new();
    let mut kept: Option<(Vec<Vec<u8>>, T)> = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let (refs, state) = setup(audit)?;
        times.push(start.elapsed().as_secs_f64());
        if let Some((first, old)) = kept.take() {
            audit.record(first == refs, || {
                format!("set-up repetition {rep} references")
            });
            teardown(old)?;
        }
        kept = Some((refs, state));
    }
    let (refs, state) = kept.expect("at least one set-up");
    let metric = Metric::timed("setup_s", stats::median(&times), "s", Scaling::Time)
        .with_note(format!("median of {} set-ups", times.len()));
    Ok(SetUp {
        refs,
        state,
        metric,
    })
}

fn peak_metric(peak_bytes: usize, baseline: usize) -> Metric {
    Metric::plain(
        "peak_mem_mib",
        peak_bytes.saturating_sub(baseline) as f64 / MIB,
        "MiB",
    )
    .with_note(format!(
        "heap high-water above {:.1} MiB resident",
        baseline as f64 / MIB
    ))
}

fn archive_run(
    w: &Workload,
    corpus: &Corpus,
    a: &RunArgs,
    drift: &mut Drift,
    audit: &mut Audit,
) -> Vec<Metric> {
    let setup = setup_reps(
        audit,
        |_| Ok((archive::reference_streams(corpus), ())),
        |()| Ok(()),
    )
    .expect("archive set-up cannot fail");
    drift.sample();
    let baseline = alloc::reset_peak();
    let timings = archive::measure(corpus, &setup.refs, a.seed, a.seconds, drift, audit);
    let peak = alloc::peak();
    drift.sample();
    let mut m = archive::metrics(corpus, &setup.refs, &timings, w.tail_p);
    m.push(setup.metric);
    m.push(peak_metric(peak, baseline));
    m
}

/// A server with warmed cache and connected clients.
struct Serving {
    running: Running,
    clients: Vec<ClientState>,
}

impl Serving {
    fn start(
        keys: &Corpus,
        refs: &[Vec<u8>],
        spec: &Spec,
        seed: u64,
        audit: &mut Audit,
    ) -> Result<Serving, String> {
        let running = Running::start(spec).map_err(|e| format!("server start: {e}"))?;
        let key_lens: Vec<usize> = keys.items.iter().map(|k| k.data.len()).collect();
        let mut clients = (0..serve::CLIENTS)
            .map(|c| {
                ClientState::new(
                    running.addr,
                    OpStream::new(seed, c, key_lens.clone(), spec.dist),
                )
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("connect: {e}"))?;
        serve::warm(&mut clients[0].client, keys, refs, spec, audit);
        Ok(Serving { running, clients })
    }

    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.running.stop().map_err(|e| format!("server stop: {e}"))
    }
}

fn serve_run(
    w: &Workload,
    keys: &Corpus,
    spec: &Spec,
    a: &RunArgs,
    drift: &mut Drift,
    audit: &mut Audit,
) -> Result<Vec<Metric>, String> {
    let SetUp {
        refs,
        state: mut serving,
        metric: setup_s,
    } = setup_reps(
        audit,
        |audit| {
            let refs = archive::reference_streams(keys);
            let serving = Serving::start(keys, &refs, spec, a.seed, audit)?;
            Ok((refs, serving))
        },
        Serving::stop,
    )?;
    drift.sample();
    let baseline = alloc::reset_peak();
    serve::measure(&mut serving.clients, keys, &refs, a.seconds, drift);
    let peak = alloc::peak();
    drift.sample();
    let records = serve::merged(&serving.clients);
    serve::audit_records(&records, keys, audit);
    serving.stop()?;
    let mut m = serve::metrics(&records, keys, &refs, spec, w.tail_p);
    m.push(setup_s);
    m.push(peak_metric(peak, baseline));
    Ok(m)
}

/// Traced run of an archive workload: a serve probe over 1 MiB slices of
/// the workload's files (with its codecs), then the layer replay.
fn archive_trace(
    corpus: &Corpus,
    a: &RunArgs,
    drift: &mut Drift,
    audit: &mut Audit,
) -> Result<Vec<Metric>, String> {
    let refs = archive::reference_streams(corpus);
    drift.sample();
    let keys = data::sample_slices(corpus, PROBE_KEYS);
    let key_refs = archive::reference_streams(&keys);
    let mut m = serve_layers(
        &keys,
        &key_refs,
        &PROBE_SPEC,
        a.seed,
        a.seconds / 2.0,
        drift,
        audit,
    )?;
    m.extend(replay_layers(corpus, &refs, audit));
    drift.sample();
    Ok(m)
}

/// Traced run of a serve workload: the workload's traffic with per-op
/// and cache detail, then the layer replay over its keys.
fn serve_trace(
    keys: &Corpus,
    spec: &Spec,
    a: &RunArgs,
    drift: &mut Drift,
    audit: &mut Audit,
) -> Result<Vec<Metric>, String> {
    let refs = archive::reference_streams(keys);
    drift.sample();
    let mut m = serve_layers(keys, &refs, spec, a.seed, a.seconds, drift, audit)?;
    m.extend(replay_layers(keys, &refs, audit));
    drift.sample();
    Ok(m)
}

/// fpc-serve and fpc-cache metrics from one measured traffic phase.
fn serve_layers(
    keys: &Corpus,
    refs: &[Vec<u8>],
    spec: &Spec,
    seed: u64,
    seconds: f64,
    drift: &mut Drift,
    audit: &mut Audit,
) -> Result<Vec<Metric>, String> {
    let mut serving = Serving::start(keys, refs, spec, seed, audit)?;
    let cache = serving
        .running
        .cache
        .clone()
        .ok_or("the server runs without a cache")?;
    let before = cache.stats();
    serve::measure(&mut serving.clients, keys, refs, seconds, drift);
    let after = cache.stats();
    let records = serve::merged(&serving.clients);
    serve::audit_records(&records, keys, audit);
    let busy: u64 = serving.clients.iter().map(|c| c.busy).sum();
    serving.stop()?;

    let mut m = Vec::new();
    let mirror = serve::mirror(&records, keys, refs, spec, MIRROR_OPS, audit);
    let core_names = ["stream_compress", "stream_decompress", "range_cached"];
    for (kind, core_name) in OpKind::ALL.into_iter().zip(core_names) {
        let (p50, p99, n) = serve::op_percentiles(&records, kind);
        let eligible = if stats::tail_eligible(n, 99.0) {
            ""
        } else {
            ", fewer than 10 samples beyond p99"
        };
        let local = &mirror[kind as usize];
        let local_p50 = stats::percentile(local, 50.0);
        let op = kind.name();
        m.push(
            Metric::timed(format!("serve.{op}.p50_us"), p50 * 1e6, "us", Scaling::Time)
                .with_note(format!("{n} requests")),
        );
        m.push(
            Metric::timed(format!("serve.{op}.p99_us"), p99 * 1e6, "us", Scaling::Time)
                .with_note(format!("{n} requests{eligible}")),
        );
        m.push(
            Metric::timed(
                format!("serve.{op}.self_us"),
                (p50 - local_p50) * 1e6,
                "us",
                Scaling::Time,
            )
            .with_note("client round-trip p50 minus in-process p50"),
        );
        m.push(
            Metric::timed(
                format!("core.{core_name}.p50_us"),
                local_p50 * 1e6,
                "us",
                Scaling::Time,
            )
            .with_note(format!("{} in-process requests", local.len())),
        );
    }
    m.push(Metric::plain("serve.busy", busy as f64, "count"));

    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    m.push(
        Metric::plain(
            "cache.hit_rate",
            (after.hits - before.hits) as f64 / lookups.max(1) as f64,
            "frac",
        )
        .with_note(format!("{} MiB budget", spec.cache_bytes >> 20)),
    );
    m.push(Metric::plain(
        "cache.hits",
        (after.hits - before.hits) as f64,
        "count",
    ));
    m.push(Metric::plain(
        "cache.misses",
        (after.misses - before.misses) as f64,
        "count",
    ));
    m.push(Metric::plain(
        "cache.insertions",
        (after.insertions - before.insertions) as f64,
        "count",
    ));
    m.push(Metric::plain(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    ));
    m.push(Metric::plain(
        "cache.resident_mib",
        after.resident_bytes as f64 / MIB,
        "MiB",
    ));

    let key_items: Vec<&Item> = keys.items.iter().collect();
    let key_refs: Vec<&[u8]> = refs.iter().map(Vec::as_slice).collect();
    let ops: Vec<serve::Op> = records.iter().map(|r| r.op).collect();
    m.extend(layers::cache_probe(
        &key_items,
        &key_refs,
        &ops,
        spec.cache_bytes,
    ));
    Ok(m)
}

/// fpc-core, fpc-container, fpc-transforms and fpc-pool metrics from the
/// single-threaded layer replay over (at most `REPLAY_ITEMS` of) the
/// workload's inputs.
fn replay_layers(corpus: &Corpus, refs: &[Vec<u8>], audit: &mut Audit) -> Vec<Metric> {
    let n = corpus.items.len();
    let picked: Vec<usize> = (0..n.min(REPLAY_ITEMS))
        .map(|k| k * n / n.min(REPLAY_ITEMS))
        .collect();
    let items: Vec<(&Item, &[u8])> = picked
        .iter()
        .map(|&i| (&corpus.items[i], refs[i].as_slice()))
        .collect();
    let attribution = layers::attribute(&items, audit);
    let mut m = attribution.metrics();

    let chunks: Vec<&[u8]> = items
        .iter()
        .flat_map(|(item, _)| item.data.chunks_exact(fpc_container::DEFAULT_CHUNK_SIZE))
        .collect();
    let take = chunks.len().min(STAGE_SAMPLE_CHUNKS);
    let sample: Vec<&[u8]> = (0..take).map(|k| chunks[k * chunks.len() / take]).collect();
    let mut mismatches = attribution.mismatches;
    m.extend(layers::stage_probe(&sample, &mut mismatches));
    m.push(Metric::plain(
        "trace.replay_mismatches",
        mismatches as f64,
        "count",
    ));
    let streams: Vec<&[u8]> = refs.iter().map(Vec::as_slice).collect();
    m.extend(layers::auto_picks(&streams));

    let (c, d) = (
        attribution.compress.shares(),
        attribution.decompress.shares(),
    );
    for (dir, s) in [("compress", c), ("decompress", d)] {
        eprintln!(
            "fpcbench: {dir} time shares: transforms {:.3} codec {:.3} auto-select {:.3} container {:.3} residue {:.3}",
            s.transforms, s.codec, s.auto_select, s.container, s.residue
        );
        if s.residue < -0.05 {
            eprintln!(
                "fpcbench: warning: layers claim {:.1}% more than the {dir} time",
                -s.residue * 100.0
            );
        }
    }
    m
}

//! `fpcc` — command-line front end for the FPcompress algorithms.
//!
//! ```text
//! fpcc compress   --algo spratio [--threads N] <input> <output>
//! fpcc decompress [--threads N] <input> <output>
//! fpcc cat        [--range OFFSET:LEN] [--threads N] <file>  # decoded bytes to stdout
//! fpcc info       <file>
//! fpcc verify     <file>                  # checksum audit, no decompression
//! fpcc survey     --width 4|8 [--threads N] <file>  # run every applicable codec
//! fpcc gen        --precision sp|dp --out DIR   # synthetic datasets + manifest
//! fpcc anatomy    --algo spratio <file>    # per-stage volume breakdown
//! fpcc stats      <report.json>            # pretty-print a metrics/bench JSON
//! fpcc serve      [--addr A] [--threads N] [--max-conns M]  # fpc-wire-v1 server
//! fpcc remote     <compress|decompress|verify|range|ping> --addr A ...  # client
//! ```
//!
//! Every command accepts `--metrics json|text`: after the command finishes,
//! a per-stage instrumentation report is written to **stderr** (stdout stays
//! reserved for the command's own output). The report is only populated in
//! binaries built with `--features metrics`; without the feature the probes
//! are compiled out and the report says so.
//!
//! # Exit codes
//!
//! Failure classes get distinct exit codes so scripts and CI can react to
//! them: **2** usage error (bad flags/arguments), **3** I/O or transport
//! failure (filesystem, sockets, server busy/timeout), **4** corrupt or
//! damaged stream (container parse/checksum/decode failures, roundtrip
//! mismatches). 0 is success.

use fpc_baselines::Meta;
use fpc_core::{Algorithm, Compressor};
use fpc_serve::{Client, ClientError, ErrorCode, RetryPolicy, ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Exit code for usage errors (unknown command, bad flag, missing operand).
const EXIT_USAGE: u8 = 2;
/// Exit code for I/O and transport failures.
const EXIT_IO: u8 = 3;
/// Exit code for corrupt/damaged streams.
const EXIT_CORRUPT: u8 = 4;

/// A classified command failure: the message goes to stderr, the code
/// becomes the process exit status.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: EXIT_USAGE,
            message: message.into(),
        }
    }

    fn io(message: impl Into<String>) -> CliError {
        CliError {
            code: EXIT_IO,
            message: message.into(),
        }
    }

    fn corrupt(message: impl Into<String>) -> CliError {
        CliError {
            code: EXIT_CORRUPT,
            message: message.into(),
        }
    }
}

/// Classifies a remote-operation failure: server-reported stream damage is
/// "corrupt" (4); everything else (transport, protocol, saturation,
/// timeouts) is I/O (3).
impl From<ClientError> for CliError {
    fn from(e: ClientError) -> CliError {
        match &e {
            ClientError::Remote(we) if we.code == ErrorCode::CorruptStream => {
                CliError::corrupt(e.to_string())
            }
            ClientError::Remote(we) if we.code == ErrorCode::UnknownAlgorithm => {
                CliError::usage(e.to_string())
            }
            // An out-of-bounds range is the caller asking for bytes that
            // don't exist — a usage error, same as the local `cat --range`.
            ClientError::Remote(we) if we.code == ErrorCode::RangeOutOfBounds => {
                CliError::usage(e.to_string())
            }
            _ => CliError::io(e.to_string()),
        }
    }
}

type CliResult = Result<(), CliError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_fmt = match parse_metrics_flag(&args) {
        Ok(fmt) => fmt,
        Err(msg) => {
            eprintln!("fpcc: {msg}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("compress") => cmd_compress(&args[1..]),
        Some("decompress") => cmd_decompress(&args[1..]),
        Some("cat") => cmd_cat(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("survey") => cmd_survey(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("anatomy") => cmd_anatomy(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("remote") => cmd_remote(&args[1..]),
        _ => {
            eprintln!(
                "usage: fpcc <compress|decompress|cat|info|verify|survey|gen|anatomy|stats|serve|remote> ...\n\
                 \n\
                 compress   --algo <spspeed|spratio|dpspeed|dpratio|auto> [--threads N] <in> <out>\n\
                 decompress [--threads N] <in> <out>\n\
                 cat        [--range OFFSET:LEN] [--threads N] <file>   # decoded bytes to stdout\n\
                 info       <file>\n\
                 verify     <file>   # per-chunk checksum audit, exit 4 on damage\n\
                 survey     --width <4|8> [--threads N] <file>\n\
                 gen        --precision <sp|dp> --out <dir>\n\
                 anatomy    --algo <name> <file>   # per-stage volume breakdown\n\
                 stats      <report.json>   # pretty-print a metrics/bench JSON report\n\
                 serve      [--addr HOST:PORT] [--threads N] [--max-conns M] [--max-frame BYTES]\n\
                 \u{20}          [--timeout-secs S] [--idle-secs S] [--progress-secs S] [--shed-inflight BYTES]\n\
                 \u{20}          [--cache-bytes BYTES]   # content-addressed hot-chunk cache (0 = off)\n\
                 remote     compress   --addr HOST:PORT --algo <name> <in> <out>\n\
                 remote     decompress --addr HOST:PORT <in> <out>\n\
                 remote     verify     --addr HOST:PORT <file>\n\
                 remote     range      --addr HOST:PORT --range OFFSET:LEN <file>   # to stdout\n\
                 remote     ping       --addr HOST:PORT\n\
                 \u{20}          remote flags: [--timeout-secs S] [--retries N] [--deadline-secs S]\n\
                 \n\
                 global: --metrics <json|text>   # instrumentation report on stderr\n\
                         (populated only in builds with --features metrics)\n\
                 exit codes: 2 usage, 3 I/O or transport, 4 corrupt stream"
            );
            return ExitCode::from(EXIT_USAGE);
        }
    };
    emit_metrics(metrics_fmt);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fpcc: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

/// Output format for the shared `--metrics` flag.
#[derive(Clone, Copy, PartialEq)]
enum MetricsFormat {
    Off,
    Json,
    Text,
}

fn parse_metrics_flag(args: &[String]) -> Result<MetricsFormat, String> {
    match flag_value(args, "--metrics") {
        None => Ok(MetricsFormat::Off),
        Some("json") => Ok(MetricsFormat::Json),
        Some("text") => Ok(MetricsFormat::Text),
        Some(other) => Err(format!("--metrics must be 'json' or 'text', got '{other}'")),
    }
}

/// Writes the end-of-run instrumentation snapshot to stderr.
fn emit_metrics(fmt: MetricsFormat) {
    if fmt == MetricsFormat::Off {
        return;
    }
    let report = fpc_metrics::snapshot();
    match fmt {
        MetricsFormat::Json => eprint!("{}", report.to_value().to_json_pretty()),
        MetricsFormat::Text => eprint!("{}", report.render_text()),
        MetricsFormat::Off => unreachable!(),
    }
}

fn cmd_stats(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [input] = pos.as_slice() else {
        return Err(CliError::usage("expected <report.json>"));
    };
    let text = std::fs::read_to_string(input)
        .map_err(|e| CliError::io(format!("reading {input}: {e}")))?;
    let value = fpc_metrics::json::Value::parse(&text)
        .map_err(|e| CliError::corrupt(format!("parsing {input}: {e}")))?;
    let rendered = fpc_metrics::report::render_value(&value)
        .map_err(|e| CliError::corrupt(format!("rendering {input}: {e}")))?;
    print!("{rendered}");
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn positional(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            // All our flags take a value.
            skip = args.get(i + 1).is_some();
            continue;
        }
        out.push(a.as_str());
    }
    out
}

/// Parses the shared `--threads N` flag (0 = all cores, the default).
fn parse_threads(args: &[String]) -> Result<usize, CliError> {
    flag_value(args, "--threads")
        .map(|t| {
            t.parse()
                .map_err(|_| CliError::usage("invalid --threads".to_string()))
        })
        .transpose()
        .map(|t| t.unwrap_or(0))
}

/// The `--algo` vocabulary, for error messages and usage text.
const ALGO_CHOICES: &str = "spspeed, spratio, dpspeed, dpratio, auto";

fn parse_algo(name: &str) -> Result<Algorithm, CliError> {
    Algorithm::from_name(name).ok_or_else(|| {
        CliError::usage(format!(
            "unknown algorithm '{name}' (valid choices: {ALGO_CHOICES})"
        ))
    })
}

fn read_file(path: &str) -> Result<Vec<u8>, CliError> {
    if let Some(e) = fpc_faults::file_fault(fpc_faults::FaultKind::FileRead) {
        return Err(CliError::io(format!("reading {path}: {e}")));
    }
    std::fs::read(path).map_err(|e| CliError::io(format!("reading {path}: {e}")))
}

/// Crash-safe output: writes to a same-directory temp file and renames it
/// over `path` only once every byte landed. An interrupt, crash, or
/// injected I/O error mid-write can leave a stray temp file, but never a
/// truncated artifact at the destination (rename is atomic on POSIX when
/// source and target share a filesystem — hence same-directory).
fn write_file(path: &str, bytes: &[u8]) -> CliResult {
    if let Some(e) = fpc_faults::file_fault(fpc_faults::FaultKind::FileWrite) {
        return Err(CliError::io(format!("writing {path}: {e}")));
    }
    let target = std::path::Path::new(path);
    let dir = target.parent().filter(|d| !d.as_os_str().is_empty());
    let name = target
        .file_name()
        .ok_or_else(|| CliError::usage(format!("'{path}' is not a file path")))?;
    let tmp_name = format!(
        ".{}.fpcc-tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, target));
    result.map_err(|e| {
        // Best-effort cleanup; the destination was never touched.
        let _ = std::fs::remove_file(&tmp);
        CliError::io(format!("writing {path}: {e}"))
    })
}

fn cmd_compress(args: &[String]) -> CliResult {
    let algo = parse_algo(
        flag_value(args, "--algo").ok_or_else(|| CliError::usage("--algo is required"))?,
    )?;
    let threads = parse_threads(args)?;
    let pos = positional(args);
    let [input, output] = pos.as_slice() else {
        return Err(CliError::usage("expected <input> <output>"));
    };
    let data = read_file(input)?;
    let start = std::time::Instant::now();
    let stream = Compressor::new(algo)
        .with_threads(threads)
        .compress_bytes(&data);
    let dt = start.elapsed().as_secs_f64();
    write_file(output, &stream)?;
    println!(
        "{algo}: {} -> {} bytes (ratio {:.3}) in {:.3}s ({:.3} GB/s)",
        data.len(),
        stream.len(),
        data.len() as f64 / stream.len() as f64,
        dt,
        data.len() as f64 / 1e9 / dt
    );
    Ok(())
}

fn cmd_decompress(args: &[String]) -> CliResult {
    let threads = parse_threads(args)?;
    let pos = positional(args);
    let [input, output] = pos.as_slice() else {
        return Err(CliError::usage("expected <input> <output>"));
    };
    let stream = read_file(input)?;
    let start = std::time::Instant::now();
    let data = fpc_core::decompress_bytes_with(&stream, threads)
        .map_err(|e| CliError::corrupt(e.to_string()))?;
    let dt = start.elapsed().as_secs_f64();
    write_file(output, &data)?;
    println!(
        "{} -> {} bytes in {:.3}s ({:.3} GB/s)",
        stream.len(),
        data.len(),
        dt,
        data.len() as f64 / 1e9 / dt
    );
    Ok(())
}

/// Parses the shared `--range OFFSET:LEN` flag (decimal byte coordinates
/// into the *original* data; `None` when the flag is absent).
fn parse_range(args: &[String]) -> Result<Option<(u64, u64)>, CliError> {
    let Some(spec) = flag_value(args, "--range") else {
        return Ok(None);
    };
    let err = || {
        CliError::usage(format!(
            "--range must be OFFSET:LEN in decimal bytes, got '{spec}'"
        ))
    };
    let (offset, len) = spec.split_once(':').ok_or_else(err)?;
    let offset = offset.parse().map_err(|_| err())?;
    let len = len.parse().map_err(|_| err())?;
    Ok(Some((offset, len)))
}

/// Maps a local decode failure to the exit taxonomy: asking for bytes the
/// container never held is a usage error (2); everything else on the
/// decode path means the stream is damaged (4).
fn classify_decode_error(e: fpc_core::Error) -> CliError {
    match e {
        fpc_core::Error::RangeOutOfBounds { .. } => CliError::usage(e.to_string()),
        e => CliError::corrupt(e.to_string()),
    }
}

fn cmd_cat(args: &[String]) -> CliResult {
    let threads = parse_threads(args)?;
    let range = parse_range(args)?;
    let pos = positional(args);
    let [input] = pos.as_slice() else {
        return Err(CliError::usage("expected <file>"));
    };
    let stream = read_file(input)?;
    // With --range only the chunks overlapping the request are decoded
    // (see fpc_container::Region); without it this is a full decode.
    let data = match range {
        Some((offset, len)) => fpc_core::decompress_range_with(&stream, offset, len, threads)
            .map_err(classify_decode_error)?,
        None => fpc_core::decompress_bytes_with(&stream, threads).map_err(classify_decode_error)?,
    };
    use std::io::Write;
    std::io::stdout()
        .write_all(&data)
        .map_err(|e| CliError::io(format!("writing stdout: {e}")))?;
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [input] = pos.as_slice() else {
        return Err(CliError::usage("expected <file>"));
    };
    let stream = read_file(input)?;
    let info = fpc_core::info(&stream).map_err(|e| CliError::corrupt(e.to_string()))?;
    println!("algorithm:      {}", info.algorithm);
    println!("stages:         {}", info.algorithm.stages().join(" -> "));
    println!("original bytes: {}", info.original_len);
    println!("stream bytes:   {}", info.compressed_len);
    println!("ratio:          {:.4}", info.ratio());
    println!(
        "chunks:         {} ({} stored raw)",
        info.chunks, info.raw_chunks
    );
    if !info.codec_picks.is_empty() {
        let picks: Vec<String> = info
            .codec_picks
            .iter()
            .map(|&(id, n)| {
                let name = Algorithm::from_id(id)
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| format!("codec#{id}"));
                format!("{name}={n}")
            })
            .collect();
        println!("codec picks:    {}", picks.join(" "));
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [input] = pos.as_slice() else {
        return Err(CliError::usage("expected <file>"));
    };
    let stream = read_file(input)?;
    // verify() walks the chunk table and re-hashes each compressed chunk in
    // place — nothing is decompressed or materialized.
    let (header, report) =
        fpc_container::verify(&stream).map_err(|e| CliError::corrupt(e.to_string()))?;
    println!("format version: {}", header.version);
    println!("chunks:         {}", report.chunks);
    if !report.checksummed {
        println!("checksums:      none (v1 stream) — integrity cannot be audited");
        return Ok(());
    }
    if report.is_clean() {
        println!("checksums:      all {} chunk(s) verified OK", report.chunks);
        return Ok(());
    }
    for d in &report.damaged {
        println!(
            "DAMAGED chunk {:>6} at byte offset {:>10}: {}",
            d.chunk, d.offset, d.error
        );
    }
    Err(CliError::corrupt(format!(
        "{} of {} chunk(s) damaged",
        report.damaged.len(),
        report.chunks
    )))
}

fn cmd_survey(args: &[String]) -> CliResult {
    let width: u8 = flag_value(args, "--width")
        .unwrap_or("4")
        .parse()
        .map_err(|_| CliError::usage("bad --width"))?;
    if width != 4 && width != 8 {
        return Err(CliError::usage("--width must be 4 or 8"));
    }
    let threads = parse_threads(args)?;
    let pos = positional(args);
    let [input] = pos.as_slice() else {
        return Err(CliError::usage("expected <file>"));
    };
    let data = read_file(input)?;
    let meta = Meta {
        element_width: width,
        dims: [1, 1, data.len() / usize::from(width)],
    };
    println!("| codec | ratio | compress GB/s | decompress GB/s |");
    println!("|---|---|---|---|");
    // Ours first.
    let our_algos: &[Algorithm] = if width == 4 {
        &[Algorithm::SpSpeed, Algorithm::SpRatio]
    } else {
        &[Algorithm::DpSpeed, Algorithm::DpRatio]
    };
    for &algo in our_algos {
        let compressor = Compressor::new(algo).with_threads(threads);
        let t0 = std::time::Instant::now();
        let stream = compressor.compress_bytes(&data);
        let ct = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let back = fpc_core::decompress_bytes_with(&stream, threads)
            .map_err(|e| CliError::corrupt(e.to_string()))?;
        let dt = t1.elapsed().as_secs_f64();
        if back != data {
            return Err(CliError::corrupt(format!("{algo} roundtrip mismatch")));
        }
        print_survey_row(&algo.to_string(), &data, &stream, ct, dt);
    }
    for codec in fpc_baselines::roster() {
        if !codec.datatype().supports_width(width) {
            continue;
        }
        let t0 = std::time::Instant::now();
        let stream = codec.compress(&data, &meta);
        let ct = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let back = codec
            .decompress(&stream, &meta)
            .map_err(|e| CliError::corrupt(e.to_string()))?;
        let dt = t1.elapsed().as_secs_f64();
        if back != data {
            return Err(CliError::corrupt(format!(
                "{} roundtrip mismatch",
                codec.name()
            )));
        }
        print_survey_row(codec.name(), &data, &stream, ct, dt);
    }
    Ok(())
}

fn print_survey_row(name: &str, data: &[u8], stream: &[u8], ct: f64, dt: f64) {
    println!(
        "| {name} | {:.3} | {:.3} | {:.3} |",
        data.len() as f64 / stream.len() as f64,
        data.len() as f64 / 1e9 / ct,
        data.len() as f64 / 1e9 / dt
    );
}

fn cmd_anatomy(args: &[String]) -> CliResult {
    let algo = parse_algo(
        flag_value(args, "--algo").ok_or_else(|| CliError::usage("--algo is required"))?,
    )?;
    let pos = positional(args);
    let [input] = pos.as_slice() else {
        return Err(CliError::usage("expected <file>"));
    };
    let data = read_file(input)?;
    print!("{}", fpc_core::analyze_bytes(&data, algo));
    Ok(())
}

fn cmd_gen(args: &[String]) -> CliResult {
    let precision = flag_value(args, "--precision").unwrap_or("sp");
    let out_dir = PathBuf::from(flag_value(args, "--out").unwrap_or("datasets"));
    let scale = match flag_value(args, "--scale").unwrap_or("small") {
        "small" => fpc_datagen::Scale::Small,
        "full" => fpc_datagen::Scale::Full,
        other => return Err(CliError::usage(format!("unknown scale '{other}'"))),
    };
    match precision {
        "sp" => {
            let suites = fpc_datagen::single_precision_suites(scale);
            fpc_datagen::external::write_manifest_f32(&out_dir, &suites)
                .map_err(|e| CliError::io(e.to_string()))?;
        }
        "dp" => {
            let suites = fpc_datagen::double_precision_suites(scale);
            fpc_datagen::external::write_manifest_f64(&out_dir, &suites)
                .map_err(|e| CliError::io(e.to_string()))?;
        }
        other => return Err(CliError::usage(format!("unknown precision '{other}'"))),
    }
    println!(
        "datasets and manifest written to {} (harness: --data {})",
        out_dir.display(),
        out_dir.display()
    );
    Ok(())
}

/// Default service address for `fpcc serve` / `fpcc remote`.
const DEFAULT_ADDR: &str = "127.0.0.1:9463";

fn cmd_serve(args: &[String]) -> CliResult {
    let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let threads = parse_threads(args)?;
    let parse_num = |flag: &str| -> Result<Option<u64>, CliError> {
        flag_value(args, flag)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| CliError::usage(format!("invalid {flag}")))
            })
            .transpose()
    };
    let mut config = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    if let Some(m) = parse_num("--max-conns")? {
        config.max_conns = m as usize;
    }
    if let Some(f) = parse_num("--max-frame")? {
        let f = u32::try_from(f).map_err(|_| CliError::usage("--max-frame too large"))?;
        if f == 0 {
            return Err(CliError::usage("--max-frame must be positive"));
        }
        config.max_frame = f;
    }
    if let Some(r) = parse_num("--max-request")? {
        config.max_request = r;
    }
    if let Some(t) = parse_num("--timeout-secs")? {
        let t = (t > 0).then(|| Duration::from_secs(t));
        config.read_timeout = t;
        config.write_timeout = t;
    }
    if let Some(t) = parse_num("--idle-secs")? {
        config.idle_timeout = (t > 0).then(|| Duration::from_secs(t));
    }
    if let Some(t) = parse_num("--progress-secs")? {
        config.progress_deadline = (t > 0).then(|| Duration::from_secs(t));
    }
    if let Some(s) = parse_num("--shed-inflight")? {
        config.shed_inflight = s;
    }
    if let Some(c) = parse_num("--cache-bytes")? {
        config.cache_bytes = c;
    }
    let conns = config.effective_conns();
    let server =
        Server::bind(addr, config).map_err(|e| CliError::io(format!("binding {addr}: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| CliError::io(e.to_string()))?;
    println!(
        "fpcc serve: listening on {local} ({conns} connection workers); SIGINT/SIGTERM for graceful shutdown"
    );
    // Bridge SIGINT/SIGTERM to the server's shutdown flag: the handler
    // itself only stores an atomic; this watcher thread does the
    // cross-Arc plumbing.
    let sig = fpc_serve::shutdown_signal_flag();
    let shutdown = server.shutdown_flag();
    std::thread::spawn(move || loop {
        if sig.load(std::sync::atomic::Ordering::SeqCst) {
            shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
    server.run().map_err(|e| CliError::io(e.to_string()))?;
    println!("fpcc serve: drained and stopped");
    Ok(())
}

fn remote_addr(args: &[String]) -> &str {
    flag_value(args, "--addr").unwrap_or(DEFAULT_ADDR)
}

fn connect(args: &[String]) -> Result<Client, CliError> {
    let addr = remote_addr(args);
    let timeout = match flag_value(args, "--timeout-secs") {
        None => Some(Duration::from_secs(30)),
        Some(v) => {
            let secs: u64 = v
                .parse()
                .map_err(|_| CliError::usage("invalid --timeout-secs"))?;
            (secs > 0).then(|| Duration::from_secs(secs))
        }
    };
    let mut policy = RetryPolicy::default();
    if let Some(v) = flag_value(args, "--retries") {
        let retries: u32 = v
            .parse()
            .map_err(|_| CliError::usage("invalid --retries"))?;
        policy.attempts = retries + 1;
    }
    if let Some(v) = flag_value(args, "--deadline-secs") {
        let secs: u64 = v
            .parse()
            .map_err(|_| CliError::usage("invalid --deadline-secs"))?;
        policy.deadline = (secs > 0).then(|| Duration::from_secs(secs));
    }
    Client::connect_with_policy(addr, timeout, policy)
        .map_err(|e| CliError::io(format!("connecting {addr}: {}", ClientError::Io(e))))
}

fn cmd_remote(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("compress") => cmd_remote_compress(&args[1..]),
        Some("decompress") => cmd_remote_decompress(&args[1..]),
        Some("verify") => cmd_remote_verify(&args[1..]),
        Some("range") => cmd_remote_range(&args[1..]),
        Some("ping") => cmd_remote_ping(&args[1..]),
        _ => Err(CliError::usage(
            "expected remote <compress|decompress|verify|range|ping> --addr HOST:PORT ...",
        )),
    }
}

fn cmd_remote_compress(args: &[String]) -> CliResult {
    let algo = parse_algo(
        flag_value(args, "--algo").ok_or_else(|| CliError::usage("--algo is required"))?,
    )?;
    let pos = positional(args);
    let [input, output] = pos.as_slice() else {
        return Err(CliError::usage("expected <input> <output>"));
    };
    let data = read_file(input)?;
    let mut client = connect(args)?;
    let start = std::time::Instant::now();
    let stream = client.compress(algo, &data)?;
    let dt = start.elapsed().as_secs_f64();
    write_file(output, &stream)?;
    println!(
        "{algo} (remote): {} -> {} bytes (ratio {:.3}) in {:.3}s ({:.3} GB/s incl. wire)",
        data.len(),
        stream.len(),
        data.len() as f64 / stream.len() as f64,
        dt,
        data.len() as f64 / 1e9 / dt
    );
    Ok(())
}

fn cmd_remote_decompress(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [input, output] = pos.as_slice() else {
        return Err(CliError::usage("expected <input> <output>"));
    };
    let stream = read_file(input)?;
    let mut client = connect(args)?;
    let start = std::time::Instant::now();
    let data = client.decompress(&stream)?;
    let dt = start.elapsed().as_secs_f64();
    write_file(output, &data)?;
    println!(
        "remote: {} -> {} bytes in {:.3}s ({:.3} GB/s incl. wire)",
        stream.len(),
        data.len(),
        dt,
        data.len() as f64 / 1e9 / dt
    );
    Ok(())
}

fn cmd_remote_verify(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [input] = pos.as_slice() else {
        return Err(CliError::usage("expected <file>"));
    };
    let stream = read_file(input)?;
    let mut client = connect(args)?;
    let report = client.verify(&stream)?;
    println!("format version: {}", report.format_version);
    println!("chunks:         {}", report.chunks);
    if !report.checksummed {
        println!("checksums:      none (v1 stream) — integrity cannot be audited");
        return Ok(());
    }
    if report.is_clean() {
        println!("checksums:      all {} chunk(s) verified OK", report.chunks);
        return Ok(());
    }
    for &(chunk, offset) in &report.damaged {
        println!("DAMAGED chunk {chunk:>6} at byte offset {offset:>10}");
    }
    Err(CliError::corrupt(format!(
        "{} of {} chunk(s) damaged",
        report.damaged_count, report.chunks
    )))
}

fn cmd_remote_range(args: &[String]) -> CliResult {
    let (offset, len) =
        parse_range(args)?.ok_or_else(|| CliError::usage("--range OFFSET:LEN is required"))?;
    let pos = positional(args);
    let [input] = pos.as_slice() else {
        return Err(CliError::usage("expected <file>"));
    };
    let stream = read_file(input)?;
    let mut client = connect(args)?;
    let data = client.range(&stream, offset, len)?;
    use std::io::Write;
    std::io::stdout()
        .write_all(&data)
        .map_err(|e| CliError::io(format!("writing stdout: {e}")))?;
    Ok(())
}

fn cmd_remote_ping(args: &[String]) -> CliResult {
    let mut client = connect(args)?;
    let start = std::time::Instant::now();
    client.ping(b"fpcc")?;
    println!("pong from {} in {:.1?}", remote_addr(args), start.elapsed());
    Ok(())
}

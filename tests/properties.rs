//! Deterministic property tests on the end-to-end pipelines and the core
//! invariants the formats rely on (in-repo fuzz driver).

use fpc_prng::fuzz::run_cases;
use fpc_prng::Rng;
use fpcompress::core::{Algorithm, Compressor};
use fpcompress::gpu::GpuCompressor;

/// Arbitrary f32 bit patterns, including NaNs, infinities, and subnormals.
fn vec_f32(rng: &mut Rng, max_len: usize) -> Vec<f32> {
    let n = rng.gen_range(0usize..max_len);
    (0..n).map(|_| f32::from_bits(rng.next_u32())).collect()
}

fn vec_f64(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    let n = rng.gen_range(0usize..max_len);
    (0..n).map(|_| f64::from_bits(rng.next_u64())).collect()
}

#[test]
fn sp_roundtrip_arbitrary_bits() {
    run_cases("e2e/sp-roundtrip", 32, |rng, _| {
        let values = vec_f32(rng, 3000);
        for algo in [Algorithm::SpSpeed, Algorithm::SpRatio] {
            let compressor = Compressor::new(algo).with_threads(2);
            let stream = compressor.compress_f32(&values);
            let restored = compressor.decompress_f32(&stream).unwrap();
            assert_eq!(values.len(), restored.len());
            for (a, b) in values.iter().zip(&restored) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    });
}

#[test]
fn dp_roundtrip_arbitrary_bits() {
    run_cases("e2e/dp-roundtrip", 32, |rng, _| {
        let values = vec_f64(rng, 2000);
        for algo in [Algorithm::DpSpeed, Algorithm::DpRatio] {
            let compressor = Compressor::new(algo).with_threads(2);
            let stream = compressor.compress_f64(&values);
            let restored = compressor.decompress_f64(&stream).unwrap();
            assert_eq!(values.len(), restored.len());
            for (a, b) in values.iter().zip(&restored) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    });
}

#[test]
fn arbitrary_bytes_roundtrip_any_algorithm() {
    run_cases("e2e/bytes-roundtrip", 32, |rng, _| {
        let data = rng.bytes_range(0usize..5000);
        for algo in Algorithm::ALL {
            let compressor = Compressor::new(algo).with_threads(1);
            let stream = compressor.compress_bytes(&data);
            assert_eq!(compressor.decompress_bytes(&stream).unwrap(), data);
        }
    });
}

#[test]
fn range_decode_matches_full_decode_slice() {
    // decompress_range(o, l) must be byte-identical to the same slice of
    // the full decompression, for every algorithm, at edge ranges (empty
    // at both ends, whole file) and random chunk-straddling ones.
    run_cases("e2e/range-slice", 24, |rng, _| {
        let data = rng.bytes_range(0usize..80_000);
        let n = data.len() as u64;
        for algo in Algorithm::ALL {
            let stream = Compressor::new(algo).with_threads(2).compress_bytes(&data);
            let full = fpcompress::core::decompress_bytes(&stream).unwrap();
            let mut ranges = vec![(0, 0), (n, 0), (0, n)];
            for _ in 0..4 {
                let offset = rng.gen_range(0..n + 1);
                ranges.push((offset, rng.gen_range(0..n - offset + 1)));
            }
            for (offset, len) in ranges {
                let got = fpcompress::core::decompress_range(&stream, offset, len).unwrap();
                assert_eq!(
                    got,
                    &full[offset as usize..(offset + len) as usize],
                    "{algo}: range {offset}+{len} differs from the full-decode slice"
                );
            }
            // One byte past the end must be rejected, never truncated.
            assert!(fpcompress::core::decompress_range(&stream, n, 1).is_err());
        }
    });
}

/// Heterogeneous rank-buffer-like bytes: a smooth f32 field, a quantized
/// f64 field, raw noise, and a small-magnitude f64 message segment, with
/// randomized segment lengths so chunk boundaries land everywhere.
fn mixed_stream_bytes(rng: &mut Rng) -> Vec<u8> {
    let mut data = Vec::new();
    let nf = rng.gen_range(0usize..12_000);
    let base = f32::from_bits(rng.next_u32() & 0x3F7F_FFFF);
    data.extend((0..nf).flat_map(|i| (base + i as f32 * 1e-4).to_bits().to_le_bytes()));
    let nq = rng.gen_range(0usize..6_000);
    data.extend((0..nq).flat_map(|i| {
        let q = ((i % 257) as f64 / 16.0).floor() * 16.0;
        q.to_bits().to_le_bytes()
    }));
    data.extend(rng.bytes_range(0usize..20_000));
    let nm = rng.gen_range(0usize..4_000);
    data.extend((0..nm).flat_map(|i| ((i % 31) as f64).to_bits().to_le_bytes()));
    data
}

#[test]
fn auto_roundtrips_and_range_decodes_mixed_codec_streams() {
    // AUTO mixes codecs chunk-by-chunk inside one container; the stream
    // must still round-trip byte-identically, and decompress_range must
    // dispatch the right codec per chunk — its output byte-identical to
    // the same slice of the full decompression.
    run_cases("e2e/auto-mixed", 16, |rng, _| {
        let data = mixed_stream_bytes(rng);
        let n = data.len() as u64;
        let compressor = Compressor::new(Algorithm::Auto).with_threads(2);
        let stream = compressor.compress_bytes(&data);
        let full = fpcompress::core::decompress_bytes(&stream).unwrap();
        assert_eq!(full, data, "AUTO round-trip differs");
        let mut ranges = vec![(0, 0), (n, 0), (0, n)];
        for _ in 0..4 {
            let offset = rng.gen_range(0..n + 1);
            ranges.push((offset, rng.gen_range(0..n - offset + 1)));
        }
        for (offset, len) in ranges {
            let got = fpcompress::core::decompress_range(&stream, offset, len).unwrap();
            assert_eq!(
                got,
                &full[offset as usize..(offset + len) as usize],
                "AUTO: range {offset}+{len} differs from the full-decode slice"
            );
        }
        assert!(fpcompress::core::decompress_range(&stream, n, 1).is_err());
        // The info path must account for every chunk exactly once across
        // the per-codec picks and the raw fallback.
        let info = fpcompress::core::info(&stream).unwrap();
        let picked: usize = info.codec_picks.iter().map(|&(_, c)| c).sum();
        let chunks = data.len().div_ceil(16 * 1024);
        assert_eq!(picked + info.raw_chunks, chunks, "chunk accounting leaks");
    });
}

#[test]
fn gpu_equals_cpu_on_arbitrary_bytes() {
    run_cases("e2e/gpu-cpu", 32, |rng, _| {
        let data = rng.bytes_range(0usize..4000);
        for algo in Algorithm::ALL {
            let cpu = Compressor::new(algo).with_threads(1).compress_bytes(&data);
            let gpu = GpuCompressor::new(algo)
                .with_threads(1)
                .compress_bytes(&data);
            assert_eq!(cpu, gpu);
        }
    });
}

#[test]
fn expansion_is_bounded() {
    run_cases("e2e/expansion-bound", 24, |rng, _| {
        // Worst-case expansion cap: header + chunk table + checksums + raw
        // chunks, amortized < 0.2% + constant.
        let data = rng.bytes_range(0usize..60_000);
        for algo in Algorithm::ALL {
            let stream = Compressor::new(algo).with_threads(1).compress_bytes(&data);
            let chunks = data.len().div_ceil(16 * 1024).max(1);
            // DPratio's FCM doubles the payload but halves back after RZE of
            // zeros; bound generously while staying linear. v2 framing adds
            // 12 bytes per chunk (table entry + checksum) plus constants.
            let bound = data.len() + data.len() / 4 + chunks * 16 + 128;
            assert!(
                stream.len() <= bound,
                "{algo}: {} -> {} exceeds bound {bound}",
                data.len(),
                stream.len()
            );
        }
    });
}

#[test]
fn baseline_roundtrip_arbitrary_doubles() {
    run_cases("e2e/baselines", 24, |rng, _| {
        use fpcompress::baselines::{roster, Meta};
        let n = rng.gen_range(0usize..1500);
        let values: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let meta = Meta::f64_flat(values.len());
        for codec in roster() {
            if !codec.datatype().supports_width(8) {
                continue;
            }
            let stream = codec.compress(&bytes, &meta);
            let restored = codec.decompress(&stream, &meta).unwrap();
            assert_eq!(restored, bytes, "{}", codec.name());
        }
    });
}

#[test]
fn transform_stack_preserves_word_multiset_sizes() {
    run_cases("e2e/transform-stack", 32, |rng, _| {
        // DIFFMS and BIT are bijections on the word vector (same length,
        // reversible); RZE conserves the byte count through a roundtrip.
        use fpcompress::transforms::{bit_transpose, diffms, rze};
        let n = rng.gen_range(0usize..2000);
        let words: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
        let mut w = words.clone();
        diffms::encode32(&mut w);
        bit_transpose::transpose32(&mut w);
        assert_eq!(w.len(), words.len());
        bit_transpose::transpose32(&mut w);
        diffms::decode32(&mut w);
        assert_eq!(w, words);

        let bytes: Vec<u8> = words.iter().flat_map(|x| x.to_le_bytes()).collect();
        let mut enc = Vec::new();
        rze::encode(&bytes, &mut enc);
        let mut pos = 0;
        let mut dec = Vec::new();
        rze::decode(&enc, &mut pos, bytes.len(), &mut dec).unwrap();
        assert_eq!(dec, bytes);
    });
}

/// Every suite file (both precisions, `Scale::Small`) as little-endian
/// bytes, generated once per test binary.
fn suite_files() -> &'static [Vec<u8>] {
    use fpcompress::datagen::{double_precision_suites, single_precision_suites, Scale};
    static FILES: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    FILES.get_or_init(|| {
        let sp = single_precision_suites(Scale::Small)
            .into_iter()
            .flat_map(|s| s.files)
            .map(|f| f.values.iter().flat_map(|v| v.to_le_bytes()).collect());
        let dp = double_precision_suites(Scale::Small)
            .into_iter()
            .flat_map(|s| s.files)
            .map(|f| f.values.iter().flat_map(|v| v.to_le_bytes()).collect());
        sp.chain(dp).collect()
    })
}

/// Tolerant decode mapped to original bytes; `None` unless the call
/// succeeds with a clean damage report.
fn tolerant_decode(stream: &[u8], algo: Algorithm, threads: usize) -> Option<Vec<u8>> {
    use fpcompress::core::PipelineOptions;
    let codec = algo.codec(&PipelineOptions::default());
    let (header, payload, report) =
        fpcompress::container::decompress_tolerant(stream, codec.as_codec(), threads).ok()?;
    if !report.is_clean() {
        return None;
    }
    if algo != Algorithm::DpRatio {
        return Some(payload);
    }
    // The FCM payload is never shorter than the data it encodes.
    let original_len = usize::try_from(header.original_len).ok()?;
    if original_len > payload.len() {
        return None;
    }
    let mut out = vec![0; original_len];
    fpcompress::transforms::fcm::decode_payload(&payload, &mut out).ok()?;
    Some(out)
}

/// `StreamingDecompressor` fed `pieces` in order, draining after every
/// feed; `None` on any error.
fn streamed_decode(
    pieces: &[&[u8]],
    cache: Option<&std::sync::Arc<fpc_cache::ChunkCache>>,
) -> Option<Vec<u8>> {
    use fpcompress::core::StreamingDecompressor;
    let mut eng = StreamingDecompressor::new();
    if let Some(cache) = cache {
        eng = eng.with_cache(std::sync::Arc::clone(cache));
    }
    let mut out = Vec::new();
    for piece in pieces {
        eng.feed(piece).ok()?;
        if let Some(block) = eng.take_output() {
            out.extend_from_slice(&block);
        }
    }
    eng.finish().ok()?;
    if let Some(block) = eng.take_output() {
        out.extend_from_slice(&block);
    }
    Some(out)
}

/// `StreamingCompressor` for `algo` over `data`, through `cache`.
fn streamed_compress(
    data: &[u8],
    algo: Algorithm,
    cache: &std::sync::Arc<fpc_cache::ChunkCache>,
) -> Vec<u8> {
    let mut eng = fpcompress::core::StreamingCompressor::new(algo, 1)
        .with_cache(std::sync::Arc::clone(cache));
    eng.feed(data).unwrap();
    eng.finish().unwrap()
}

/// One decode path's result: a label, the original-data span it should
/// reproduce, and its output (`None` = error or damage reported).
type PathResult = (String, (u64, u64), Option<Vec<u8>>);

/// Runs `stream` through every in-process decode path: one-shot, gpu-sim,
/// tolerant, uncached range and cached range (cold, warm, and against `warm`, a
/// cache filled from the undamaged stream) for each of `ranges`, and
/// `StreamingDecompressor` fed whole, one byte at a time, and split at the
/// `splits` offsets, uncached and cached. The paths that take a thread
/// count run at each of `threads`; cold and pre-warmed cached ranges run
/// single-threaded.
fn every_decode_path(
    stream: &[u8],
    algo: Algorithm,
    n: u64,
    ranges: &[(u64, u64)],
    splits: &[usize],
    warm: &std::sync::Arc<fpc_cache::ChunkCache>,
    threads: &[usize],
) -> Vec<PathResult> {
    use fpc_cache::ChunkCache;
    use fpcompress::core::{
        decompress_bytes_with, decompress_range_cached_with, decompress_range_with,
    };
    use std::sync::Arc;
    let whole = (0, n);
    let mut results: Vec<PathResult> = Vec::new();
    for &t in threads {
        results.extend([
            (
                format!("one-shot t{t}"),
                whole,
                decompress_bytes_with(stream, t).ok(),
            ),
            (
                format!("gpu-sim t{t}"),
                whole,
                GpuCompressor::new(algo)
                    .with_threads(t)
                    .decompress_bytes(stream)
                    .ok(),
            ),
            (
                format!("tolerant t{t}"),
                whole,
                tolerant_decode(stream, algo, t),
            ),
        ]);
    }
    for &(offset, len) in ranges {
        let span = (offset, len);
        let cold = Arc::new(ChunkCache::new(8 << 20));
        let mut push =
            |label: String, got| results.push((format!("{label} {offset}+{len}"), span, got));
        push(
            "cached range cold".into(),
            decompress_range_cached_with(stream, offset, len, 1, &cold).ok(),
        );
        for &t in threads {
            push(
                format!("range t{t}"),
                decompress_range_with(stream, offset, len, t).ok(),
            );
            push(
                format!("cached range warm t{t}"),
                decompress_range_cached_with(stream, offset, len, t, &cold).ok(),
            );
        }
        for pass in ["cached range pre-warmed", "cached range pre-warmed again"] {
            push(
                pass.into(),
                decompress_range_cached_with(stream, offset, len, 1, warm).ok(),
            );
        }
    }
    let mut cuts = vec![0];
    cuts.extend(
        splits
            .iter()
            .copied()
            .filter(|&s| s > 0 && s < stream.len()),
    );
    cuts.push(stream.len());
    let split: Vec<&[u8]> = cuts.windows(2).map(|w| &stream[w[0]..w[1]]).collect();
    let bytewise: Vec<&[u8]> = stream.chunks(1).collect();
    let cache = Arc::new(ChunkCache::new(8 << 20));
    results.extend([
        (
            "streaming whole".into(),
            whole,
            streamed_decode(&[stream], None),
        ),
        (
            "streaming bytewise".into(),
            whole,
            streamed_decode(&bytewise, None),
        ),
        (
            "streaming split".into(),
            whole,
            streamed_decode(&split, None),
        ),
        (
            "cached streaming cold".into(),
            whole,
            streamed_decode(&split, Some(&cache)),
        ),
        (
            "cached streaming warm".into(),
            whole,
            streamed_decode(&[stream], Some(&cache)),
        ),
        (
            "cached streaming pre-warmed".into(),
            whole,
            streamed_decode(&bytewise, Some(warm)),
        ),
    ]);
    results
}

/// The decode oracle's check on one input: for all five algorithms, every
/// decode path (at every count in `threads`) must return the original
/// bytes on the valid stream, and on `mutations` single-byte mutations of
/// it every path must agree on success vs failure. `ranges` join the
/// empty, whole and three random ranges every input is checked on.
///
/// The pre-warmed cached paths share one cache across the algorithms,
/// seeded first by streaming compress (twice: cold, then all hits) and
/// streaming decompress of `data` under every algorithm, so encode and
/// decode entries of every algorithm sit side by side: a key whose
/// context collided with another's would return that entry's bytes.
fn assert_decode_paths_agree(
    rng: &mut Rng,
    data: &[u8],
    chunk_size: usize,
    ranges: &[(u64, u64)],
    threads: &[usize],
    mutations: usize,
) {
    use fpc_cache::ChunkCache;
    use fpcompress::container::{self, Header};
    use std::sync::Arc;
    let n = data.len() as u64;
    let algos = [
        Algorithm::SpSpeed,
        Algorithm::SpRatio,
        Algorithm::DpSpeed,
        Algorithm::DpRatio,
        Algorithm::Auto,
    ];
    let warm = Arc::new(ChunkCache::new(64 << 20));
    for algo in algos {
        let want = Compressor::new(algo).with_threads(1).compress_bytes(data);
        for pass in ["cold", "warm"] {
            let stream = streamed_compress(data, algo, &warm);
            assert!(stream == want, "{algo}: {pass} cached compress differs");
        }
        let got = streamed_decode(&[&want], Some(&warm));
        assert!(got.as_deref() == Some(data), "{algo}: seeding decompress");
    }
    for algo in algos {
        let stream = Compressor::new(algo)
            .with_threads(2)
            .with_chunk_size(chunk_size)
            .compress_bytes(data);
        let body_start = stream.len() - container::stats(&stream).unwrap().compressed_payload;
        let header_end = Header::ENCODED_LEN_V2;
        let splits = [
            header_end - 1,
            header_end,
            header_end + 4,
            body_start - 1,
            body_start,
            body_start + 1,
            (body_start + stream.len()) / 2,
        ];
        let mut all_ranges = vec![(0, 0), (n, 0), (0, n)];
        all_ranges.extend_from_slice(ranges);
        for _ in 0..3 {
            let offset = rng.gen_range(0..n + 1);
            all_ranges.push((offset, rng.gen_range(0..n - offset + 1)));
        }
        for (label, (offset, len), got) in
            every_decode_path(&stream, algo, n, &all_ranges, &splits, &warm, threads)
        {
            let want = &data[offset as usize..(offset + len) as usize];
            assert!(
                got.as_deref() == Some(want),
                "{algo} chunk {chunk_size}: {label} returned {:?} bytes, want {}",
                got.map(|g| g.len()),
                want.len()
            );
        }

        // Single-byte mutations: the whole-range paths must agree on
        // Ok vs Err (and on the bytes, should all succeed).
        for _ in 0..mutations {
            let mut bad = stream.clone();
            let pos = rng.gen_range(0..bad.len());
            bad[pos] ^= rng.gen_range(1u32..256) as u8;
            fpc_prng::fuzz::record_input(&bad);
            let results = every_decode_path(&bad, algo, n, &[(0, n)], &splits, &warm, threads);
            let (first_label, _, first) = &results[0];
            for (label, _, got) in &results[1..] {
                assert_eq!(
                    got.is_some(),
                    first.is_some(),
                    "{algo} chunk {chunk_size}: flip at {pos}: {label} disagrees with {first_label}"
                );
            }
        }
    }
}

/// (window + 1) chunks, the last one short, so decode crosses an output
/// window boundary, with every third chunk random bytes that no codec
/// shrinks (stored raw).
fn window_boundary_bytes(rng: &mut Rng, chunk_size: usize) -> Vec<u8> {
    use fpcompress::container::WINDOW_BYTES;
    let files = suite_files();
    let window_chunks = WINDOW_BYTES.div_ceil(chunk_size);
    let mut data = Vec::new();
    for i in 0..=window_chunks {
        let len = if i == window_chunks {
            chunk_size / 3 + 5
        } else {
            chunk_size
        };
        if i % 3 == 1 {
            data.extend(rng.bytes(len));
            continue;
        }
        let file = &files[rng.gen_range(0..files.len())];
        data.extend(
            file.iter()
                .cycle()
                .skip(rng.gen_range(0..file.len()) / 8 * 8)
                .take(len),
        );
    }
    data
}

#[test]
fn every_decode_path_agrees_on_valid_and_mutated_streams() {
    // The in-process decode oracle on suite and mixed data at several
    // chunk sizes, then on inputs that cross an output window boundary
    // at every thread count.
    run_cases("e2e/decode-paths", 16, |rng, case| {
        let mut data = if case % 2 == 0 {
            let files = suite_files();
            let file = &files[rng.gen_range(0..files.len())];
            let len = rng.gen_range(1..file.len().min(48_000) + 1);
            let start = rng.gen_range(0..file.len() - len + 1) / 8 * 8;
            file[start..start + len].to_vec()
        } else {
            mixed_stream_bytes(rng)
        };
        data.truncate(48_000);
        if data.is_empty() {
            data.push(0x3F);
        }
        let chunk_size = [1024usize, 4096, 16 * 1024][rng.gen_range(0..3usize)];
        assert_decode_paths_agree(rng, &data, chunk_size, &[], &[2], 3);
    });
    run_cases("e2e/decode-paths-windows", 1, |rng, _| {
        use fpcompress::container::WINDOW_BYTES;
        // Windows of 4 or of 16 chunks.
        let chunk_size = [WINDOW_BYTES / 4, WINDOW_BYTES / 16][rng.gen_range(0..2usize)];
        let data = window_boundary_bytes(rng, chunk_size);
        let (boundary, n) = (WINDOW_BYTES as u64, data.len() as u64);
        let ranges = [
            (boundary - 7, 20), // straddles the window boundary
            (
                boundary - chunk_size as u64,
                n - boundary + chunk_size as u64,
            ), // last window's chunks
            (n - 3, 3),         // inside the short last chunk
        ];
        assert_decode_paths_agree(rng, &data, chunk_size, &ranges, &[1, 2, 3, 8], 1);
    });
}

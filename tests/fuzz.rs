//! The deterministic corruption sweep: the acceptance gate for the
//! integrity-verified container.
//!
//! For every algorithm, every chunk of a v2 stream is corrupted at ≥200
//! evenly spread flip positions; detection must be 100% with zero panics.
//! Beyond the sweep, structure-aware mutations, truncations, and wholesale
//! random bytes are fed into the container, every entropy decoder, every
//! transform decoder, and the baseline roster — each must return `Err` (or
//! a bounded `Ok`), never panic, and never allocate unboundedly.

use fpc_prng::fuzz::{flip_positions, run_cases, Mutation};
use fpcompress::container::{self, Header, VERSION_1};
use fpcompress::core::{Algorithm, AlgorithmCodec, Compressor, PipelineOptions, SpSpeedCodec};

fn sample_bytes(algo: Algorithm, n: usize) -> Vec<u8> {
    match algo.element_width() {
        4 => (0..n)
            .flat_map(|i| ((i as f32 * 2e-3).sin()).to_bits().to_le_bytes())
            .collect(),
        _ => (0..n)
            .flat_map(|i| ((i as f64 * 1e-3).cos()).to_bits().to_le_bytes())
            .collect(),
    }
}

#[test]
fn corruption_sweep_every_chunk_every_algorithm() {
    for algo in Algorithm::ALL {
        // Several chunks' worth of data so the sweep spans chunk boundaries.
        let bytes = sample_bytes(algo, 20_000);
        let stream = Compressor::new(algo).with_threads(1).compress_bytes(&bytes);
        let stats = container::stats(&stream).unwrap();
        assert!(stats.chunks >= 4, "{algo}: want a multi-chunk stream");

        // ≥200 flip positions covering the full stream: header, checksums,
        // chunk table, and every chunk's payload bytes.
        let positions = flip_positions(stream.len(), 200);
        assert!(positions.len() >= 200);
        let mut detected = 0usize;
        for &(pos, bit) in &positions {
            let mut bad = stream.clone();
            bad[pos] ^= 1 << bit;
            match fpcompress::core::decompress_bytes(&bad) {
                Err(_) => detected += 1,
                Ok(out) => panic!(
                    "{algo}: flip at {pos}.{bit} decoded {} bytes undetected",
                    out.len()
                ),
            }
        }
        assert_eq!(detected, positions.len(), "{algo}: detection must be 100%");

        // Explicitly corrupt *every chunk's* payload region once.
        let payload_start = stream.len() - stats.compressed_payload;
        let (_, report) = container::verify(&stream).unwrap();
        assert!(report.is_clean() && report.checksummed);
        for chunk in 0..stats.chunks {
            // Hit a byte inside this chunk via the verify report's offsets:
            // damage it and confirm verify pins the damage to that chunk.
            let span = stats.compressed_payload / stats.chunks;
            let pos = payload_start + chunk * span + span / 2;
            let mut bad = stream.clone();
            bad[pos.min(stream.len() - 1)] ^= 0x80;
            let (_, report) = container::verify(&bad).unwrap();
            assert_eq!(
                report.damaged.len(),
                1,
                "{algo}: chunk {chunk} damage missed"
            );
            assert!(fpcompress::core::decompress_bytes(&bad).is_err());
        }
    }
}

#[test]
fn tolerant_decode_recovers_all_undamaged_chunks() {
    // decompress_tolerant must return every intact chunk bit-exactly and
    // zero-fill only the damaged span, for each algorithm's own codec.
    let algo = Algorithm::SpSpeed;
    let bytes = sample_bytes(algo, 20_000);
    let stream = Compressor::new(algo).with_threads(1).compress_bytes(&bytes);
    let stats = container::stats(&stream).unwrap();
    let chunk_size = container::read_header(&stream).unwrap().chunk_size as usize;
    let payload_start = stream.len() - stats.compressed_payload;
    let codec = SpSpeedCodec { fallback: true };

    for victim in 0..stats.chunks {
        let span = stats.compressed_payload / stats.chunks;
        let pos = (payload_start + victim * span + span / 2).min(stream.len() - 1);
        let mut bad = stream.clone();
        bad[pos] ^= 0x40;
        let (header, out, report) =
            container::decompress_tolerant(&bad, container::Codec::Fixed(&codec), 1).unwrap();
        assert_eq!(out.len(), header.payload_len as usize);
        assert_eq!(report.chunks, stats.chunks);
        assert_eq!(
            report.damaged.len(),
            1,
            "exactly one chunk should be damaged"
        );
        let damaged = report.damaged[0].chunk as usize;
        for chunk in 0..stats.chunks {
            let lo = chunk * chunk_size;
            let hi = ((chunk + 1) * chunk_size).min(bytes.len());
            if chunk == damaged {
                assert!(
                    out[lo..hi].iter().all(|&b| b == 0),
                    "damaged chunk not zero-filled"
                );
            } else {
                assert_eq!(
                    &out[lo..hi],
                    &bytes[lo..hi],
                    "intact chunk {chunk} not recovered"
                );
            }
        }
    }
}

#[test]
fn v1_streams_decode_bit_identically() {
    // Backward compatibility: the checksum-free v1 frame written by older
    // releases must keep decoding to the exact original bytes.
    for algo in Algorithm::ALL {
        let bytes = sample_bytes(algo, 20_000);
        // DPratio runs a whole-input FCM stage before chunking; mirror the
        // compressor's payload construction for it.
        let payload = if algo == Algorithm::DpRatio {
            let (words, tail) = fpcompress::transforms::words::bytes_to_u64(&bytes);
            let enc = fpcompress::transforms::fcm::encode(&words);
            let mut payload = Vec::with_capacity(words.len() * 16 + tail.len());
            fpcompress::transforms::words::u64_to_bytes(&enc.values, &mut payload);
            fpcompress::transforms::words::u64_to_bytes(&enc.distances, &mut payload);
            payload.extend_from_slice(tail);
            payload
        } else {
            bytes.clone()
        };
        // `Algorithm::ALL` holds only the fixed algorithms.
        let AlgorithmCodec::Fixed(codec) = algo.codec(&PipelineOptions::default()) else {
            unreachable!("AUTO is not in Algorithm::ALL");
        };
        let mut header = Header::new(
            algo.id(),
            algo.element_width(),
            bytes.len() as u64,
            payload.len() as u64,
        );
        header.version = VERSION_1;
        let stream = container::compress(header, &payload, codec.as_ref(), 1).unwrap();
        assert_eq!(stream[4], VERSION_1);
        assert_eq!(fpcompress::core::decompress_bytes(&stream).unwrap(), bytes);
        // Range decode works on checksum-free v1 frames too (unverified,
        // as documented): edge ranges and a chunk-straddling slice must
        // all match the original.
        let n = bytes.len() as u64;
        for (offset, len) in [(0, 0), (n, 0), (0, n), (16_380, 8), (n - 5, 5)] {
            assert_eq!(
                fpcompress::core::decompress_range(&stream, offset, len).unwrap(),
                &bytes[offset as usize..(offset + len) as usize],
                "{algo}: v1 range {offset}+{len} differs"
            );
        }
        assert!(fpcompress::core::decompress_range(&stream, n, 1).is_err());
        // And the v2 path compresses the same payload decodably too.
        let v2 = Compressor::new(algo).with_threads(1).compress_bytes(&bytes);
        assert_eq!(fpcompress::core::decompress_bytes(&v2).unwrap(), bytes);
    }
}

#[test]
fn structure_aware_mutations_never_panic_any_algorithm() {
    // Random mutations (bit flips, byte patches, truncations, extensions)
    // of valid streams, plus targeted corruption of the header / count /
    // table / checksum regions.
    for algo in Algorithm::ALL {
        let bytes = sample_bytes(algo, 6_000);
        let stream = Compressor::new(algo).with_threads(1).compress_bytes(&bytes);
        run_cases(&format!("fuzz/mutations-{algo}"), 64, |rng, _| {
            let m = Mutation::arbitrary(rng, stream.len());
            let bad = m.apply(&stream, rng);
            if bad == stream {
                return;
            }
            fpc_prng::fuzz::record_input(&bad);
            assert!(
                fpcompress::core::decompress_bytes(&bad).is_err(),
                "{algo}: mutation {m:?} undetected"
            );
            let _ = container::verify(&bad);
            let _ = container::stats(&bad);
        });
        // Structure-aware: corrupt each metadata field region specifically.
        let count_pos = Header::ENCODED_LEN_V2;
        for pos in [
            4usize,
            5,
            6,
            8,
            16,
            24,
            28,
            count_pos,
            count_pos + 1,
            count_pos + 4,
        ] {
            let mut bad = stream.clone();
            bad[pos] ^= 0x21;
            assert!(
                fpcompress::core::decompress_bytes(&bad).is_err(),
                "{algo}: metadata corruption at {pos} undetected"
            );
        }
    }
}

#[test]
fn hostile_auto_chunk_tables_fail_structurally() {
    // AUTO streams carry a per-chunk codec-id table; a forged out-of-range
    // id (with the table checksum re-fixed so it reaches codec dispatch)
    // must surface as a structured "unknown codec" error — never a panic,
    // never garbage output. Raw chunks short-circuit the table, so only
    // non-raw chunks are forged.
    let mut bytes: Vec<u8> = (0..30_000usize)
        .flat_map(|i| ((i as f32 * 2e-3).sin()).to_bits().to_le_bytes())
        .collect();
    // A noise tail gives AUTO raw-fallback chunks alongside coded ones.
    bytes.extend((0..24_000usize).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8));
    let stream = Compressor::new(Algorithm::Auto)
        .with_threads(1)
        .compress_bytes(&bytes);
    let stats = container::stats(&stream).unwrap();
    assert!(stats.chunks >= 4, "want a multi-chunk AUTO stream");

    let count = stats.chunks;
    let table_start = Header::ENCODED_LEN_V2;
    let ids_start = table_start + 4 + 4 * count;
    let table_end = ids_start + count + 8 * count;
    let entry = |s: &[u8], i: usize| {
        let pos = table_start + 4 + 4 * i;
        u32::from_le_bytes(s[pos..pos + 4].try_into().unwrap())
    };
    let raw_flag = 0x8000_0000u32;
    let coded: Vec<usize> = (0..count)
        .filter(|&i| entry(&stream, i) & raw_flag == 0)
        .collect();
    assert!(!coded.is_empty(), "want at least one non-raw chunk");

    run_cases("fuzz/auto-codec-ids", 64, |rng, _| {
        let victim = coded[rng.gen_range(0usize..coded.len())];
        // Ids 0..=5 are assigned (4 fixed algorithms, AUTO, plus 0); pick
        // strictly above them so the forge is always out of range.
        let hostile = 6 + (rng.next_u32() % 250) as u8;
        let mut bad = stream.clone();
        bad[ids_start + victim] = hostile;
        let sum = fpcompress::container::checksum::frame_checksum(&bad[table_start..table_end]);
        bad[table_end..table_end + 8].copy_from_slice(&sum.to_le_bytes());
        fpc_prng::fuzz::record_input(&bad);

        let err = fpcompress::core::decompress_bytes(&bad)
            .expect_err("forged codec id decoded undetected");
        let msg = err.to_string();
        assert!(
            msg.contains("unknown codec"),
            "want a structured unknown-codec error, got: {msg}"
        );
        // Range decode through the forged chunk must refuse too; ranges
        // confined to intact chunks may still succeed byte-exactly.
        let offset = rng.gen_range(0u64..bytes.len() as u64);
        let len = rng.gen_range(0u64..bytes.len() as u64 - offset + 1);
        if let Ok(got) = fpcompress::core::decompress_range(&bad, offset, len) {
            assert_eq!(got, &bytes[offset as usize..(offset + len) as usize]);
        }
        // Structural probes must stay panic-free on the forged table.
        let _ = container::verify(&bad);
        let _ = container::stats(&bad);
    });

    // Without the checksum fix-up the table checksum itself must catch a
    // hostile id byte before dispatch.
    let mut unfixed = stream.clone();
    unfixed[ids_start + coded[0]] ^= 0xFF;
    assert!(fpcompress::core::decompress_bytes(&unfixed).is_err());

    // And general mutations over an AUTO stream (excluded from
    // `Algorithm::ALL`, so the sweep above never covers it) must be
    // detected like any fixed-algorithm stream.
    run_cases("fuzz/mutations-auto", 64, |rng, _| {
        let m = Mutation::arbitrary(rng, stream.len());
        let bad = m.apply(&stream, rng);
        if bad == stream {
            return;
        }
        fpc_prng::fuzz::record_input(&bad);
        assert!(
            fpcompress::core::decompress_bytes(&bad).is_err(),
            "AUTO: mutation {m:?} undetected"
        );
        let _ = container::verify(&bad);
        let _ = container::stats(&bad);
    });
}

#[test]
fn range_requests_survive_hostile_containers_and_coordinates() {
    // Two hostile axes for decompress_range: mutated v2 streams under
    // valid coordinates, and extreme coordinates against intact streams.
    // Either way the decoder must return Err or the exact original slice
    // — never panic, never wrong bytes. (A v2 checksum failure inside the
    // requested chunks surfaces as Err; damage outside them is invisible
    // to the range path by design, and then the slice is intact.)
    for algo in Algorithm::ALL {
        let bytes = sample_bytes(algo, 6_000);
        let original_len = bytes.len() as u64;
        let stream = Compressor::new(algo).with_threads(1).compress_bytes(&bytes);
        run_cases(&format!("fuzz/range-{algo}"), 64, |rng, case| {
            if case % 2 == 0 {
                let m = Mutation::arbitrary(rng, stream.len());
                let bad = m.apply(&stream, rng);
                if bad == stream {
                    return;
                }
                fpc_prng::fuzz::record_input(&bad);
                let offset = rng.gen_range(0u64..original_len);
                let len = rng.gen_range(0u64..original_len - offset + 1);
                if let Ok(got) = fpcompress::core::decompress_range(&bad, offset, len) {
                    assert_eq!(
                        got,
                        &bytes[offset as usize..(offset + len) as usize],
                        "{algo}: mutation {m:?} returned wrong bytes for {offset}+{len}"
                    );
                }
            } else {
                // Hostile coordinates (including overflow-adjacent ones) on
                // an intact stream: Ok only in-bounds and byte-exact.
                let offset = rng.next_u64() >> rng.gen_range(0u32..64);
                let len = rng.next_u64() >> rng.gen_range(0u32..64);
                if let Ok(got) = fpcompress::core::decompress_range(&stream, offset, len) {
                    let end = offset.checked_add(len).expect("accepted overflow");
                    assert!(end <= original_len, "{algo}: accepted {offset}+{len}");
                    assert_eq!(got, &bytes[offset as usize..end as usize]);
                }
            }
        });
    }
}

#[test]
fn entropy_decoders_survive_hostile_bytes() {
    use fpcompress::entropy::lz;
    use fpcompress::entropy::{bitpack, huffman, rans, rle, varint};
    run_cases("fuzz/entropy", 512, |rng, case| {
        // Alternate wholesale random bytes with mutated valid streams so
        // both shallow and deep decoder states are exercised.
        let data = if case % 2 == 0 {
            rng.bytes_range(0usize..2_000)
        } else {
            let original = rng.bytes_range(0usize..2_000);
            let valid = match case % 8 {
                1 => huffman::compress_bytes(&original),
                3 => rans::compress(&original),
                5 => lz::compress_block(&original, lz::Effort::Fast),
                _ => rle::compress_bytes(&original),
            };
            let m = Mutation::arbitrary(rng, valid.len());
            m.apply(&valid, rng)
        };
        fpc_prng::fuzz::record_input(&data);
        let _ = huffman::decompress_bytes(&data);
        let _ = rans::decompress(&data, 1 << 20);
        let _ = lz::decompress_block(&data, 1 << 20);
        let _ = rle::decompress_bytes(&data, 1 << 20);
        let mut pos = 0;
        let _ = varint::read_u64(&data, &mut pos);
        let mut sink = Vec::new();
        let _ = bitpack::unpack_u64(
            &data,
            rng.gen_range(0u32..65),
            rng.gen_range(0usize..256),
            &mut sink,
        );
    });
}

#[test]
fn transform_decoders_survive_hostile_bytes() {
    use fpcompress::transforms::{fcm, mplg, rare, raze, rze};
    run_cases("fuzz/transforms", 512, |rng, _| {
        let data = rng.bytes_range(0usize..1_000);
        fpc_prng::fuzz::record_input(&data);
        let expected = rng.gen_range(0usize..4096);
        let mut pos = 0;
        let mut s32 = Vec::new();
        let _ = mplg::decode32(&data, &mut pos, expected, &mut s32);
        let mut pos = 0;
        let mut s64 = Vec::new();
        let _ = mplg::decode64(&data, &mut pos, expected, &mut s64);
        let mut pos = 0;
        let mut sb = Vec::new();
        let _ = rze::decode(&data, &mut pos, expected, &mut sb);
        let mut pos = 0;
        let mut sr = Vec::new();
        let _ = raze::decode(&data, &mut pos, expected, &mut sr);
        let mut pos = 0;
        let mut sa = Vec::new();
        let _ = rare::decode(&data, &mut pos, expected, &mut sa);
        // FCM arrays with arbitrary (often out-of-range) distances.
        let n = rng.gen_range(0usize..128);
        let values: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 32).collect();
        let distances: Vec<u64> = (0..n)
            .map(|_| rng.next_u64() >> rng.gen_range(0u32..64))
            .collect();
        let _ = fcm::decode_arrays(&values, &distances);
    });
}

#[path = "../crates/transforms/tests/common/mod.rs"]
mod fcm_links;

/// The FCM link encoder against the paper's sort-based oracle, on the
/// adversarial inputs and boundary sizes of `fcm_links` (the same property
/// fpc-transforms runs, here at the fuzz job's case count).
#[test]
fn fcm_link_encoder_matches_sort_oracle() {
    run_cases("fuzz/fcm-links", 30, fcm_links::check_fcm_links);
}

/// The adversarial word corpora for the kernel differentials: all-zero,
/// all-ones, denormal-heavy, and NaN-payload floats, plus fuzz-random words.
/// These target the lane-boundary hazards of the vector kernels (carry
/// propagation, sign replication, mask gathering).
fn adversarial_u32(rng: &mut fpc_prng::Rng, family: u64, n: usize) -> Vec<u32> {
    match family % 5 {
        0 => vec![0u32; n],
        1 => vec![u32::MAX; n],
        // Denormal-heavy: exponent bits zero, small mantissas (the worst
        // case for leading-zero-based stages).
        2 => (0..n)
            .map(|_| f32::from_bits(rng.next_u32() & 0x0000_03FF).to_bits())
            .collect(),
        // NaN payloads: exponent all-ones, arbitrary mantissa/sign.
        3 => (0..n)
            .map(|_| 0x7F80_0000 | (rng.next_u32() & 0x807F_FFFF) | 1)
            .collect(),
        _ => (0..n).map(|_| rng.next_u32()).collect(),
    }
}

fn adversarial_u64(rng: &mut fpc_prng::Rng, family: u64, n: usize) -> Vec<u64> {
    match family % 5 {
        0 => vec![0u64; n],
        1 => vec![u64::MAX; n],
        2 => (0..n)
            .map(|_| f64::from_bits(rng.next_u64() & 0xF_FFFF).to_bits())
            .collect(),
        3 => (0..n)
            .map(|_| 0x7FF0_0000_0000_0000 | (rng.next_u64() & 0x800F_FFFF_FFFF_FFFF) | 1)
            .collect(),
        _ => (0..n).map(|_| rng.next_u64()).collect(),
    }
}

fn words_as_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Kernel-level differential: every dispatched fpc-simd entry point must
/// produce byte-identical results to its scalar reference on adversarial
/// inputs. This runs *within one process*, so it compares whatever tier the
/// host selects (AVX2 on CI's x86 runners, SWAR on aarch64) against the
/// scalar loops directly. The SWAR byte scans that an AVX2 host never
/// dispatches are called by name, so x86 CI checks every SWAR kernel too;
/// the `differential-dispatch` CI job additionally diffs whole compressed
/// streams across processes.
#[test]
fn dispatched_kernels_match_scalar_on_adversarial_inputs() {
    use fpcompress::entropy::bitio::{BitReader, BitWriter};
    use fpcompress::entropy::bitpack::{min_width_u32, min_width_u64};
    use fpcompress::simd::{bitpack, bytescan, diffms, transpose};

    run_cases("fuzz/kernel-differential", 120, |rng, case| {
        // Lengths straddle the vector widths: empty, sub-lane, exact
        // multiples of 8/32, and ragged tails.
        let n = match case % 4 {
            0 => rng.gen_range(0usize..9),
            1 => 32 * rng.gen_range(1usize..5),
            2 => 32 * rng.gen_range(1usize..5) + rng.gen_range(1usize..32),
            _ => rng.gen_range(0usize..600),
        };
        let w32 = adversarial_u32(rng, case, n);
        let w64 = adversarial_u64(rng, case, n);
        let bytes = words_as_bytes(&w32);
        fpc_prng::fuzz::record_input(&bytes);

        // DIFFMS: the fused encode (little-endian load) and decode (store)
        // the codecs run, 32- and 64-bit, from a carried non-zero `prev`.
        // Each decode runs on the encoding (it must give the bytes back)
        // and on the adversarial words themselves. `prev` comes from the
        // case number, so the cases' random inputs stay what they were.
        let fam = case % 5;
        let prev32 = (case as u32).wrapping_mul(0x9E37_79B9) | 1;
        let (mut a, mut b) = (vec![0u32; n], vec![0u32; n]);
        let last = diffms::encode32_le(prev32, &bytes, &mut a);
        assert_eq!(last, diffms::encode32_le_scalar(prev32, &bytes, &mut b));
        assert_eq!(a, b, "diffms enc32 diverged (n={n}, family {fam})");
        for (src, what) in [(&a, "encoding"), (&w32, "words")] {
            let (mut x, mut y) = (vec![0u8; n * 4], vec![0u8; n * 4]);
            let sum = diffms::decode32_le(prev32, src, &mut x);
            assert_eq!(sum, diffms::decode32_le_scalar(prev32, src, &mut y));
            assert_eq!(
                x, y,
                "diffms dec32 of the {what} diverged (n={n}, family {fam})"
            );
        }
        let mut back = vec![0u8; n * 4];
        diffms::decode32_le(prev32, &a, &mut back);
        assert_eq!(back, bytes, "diffms dec32 not inverse");
        let bytes64: Vec<u8> = w64.iter().flat_map(|w| w.to_le_bytes()).collect();
        let prev64 = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let (mut a, mut b) = (vec![0u64; n], vec![0u64; n]);
        let last = diffms::encode64_le(prev64, &bytes64, &mut a);
        assert_eq!(last, diffms::encode64_le_scalar(prev64, &bytes64, &mut b));
        assert_eq!(a, b, "diffms enc64 diverged (n={n}, family {fam})");
        for (src, what) in [(&a, "encoding"), (&w64, "words")] {
            let (mut x, mut y) = (vec![0u8; n * 8], vec![0u8; n * 8]);
            let sum = diffms::decode64_le(prev64, src, &mut x);
            assert_eq!(sum, diffms::decode64_le_scalar(prev64, src, &mut y));
            assert_eq!(
                x, y,
                "diffms dec64 of the {what} diverged (n={n}, family {fam})"
            );
        }
        let mut back = vec![0u8; n * 8];
        diffms::decode64_le(prev64, &a, &mut back);
        assert_eq!(back, bytes64, "diffms dec64 not inverse");

        // BIT transpose: dispatched whole-slice vs per-group scalar network.
        let (mut a, mut b) = (w32.clone(), w32.clone());
        transpose::transpose32(&mut a);
        for group in b.chunks_exact_mut(32) {
            transpose::transpose32_group_scalar(group.try_into().unwrap());
        }
        assert_eq!(a, b, "transpose32 diverged (n={n}, family {})", case % 5);
        transpose::transpose32(&mut a);
        assert_eq!(a, w32, "transpose32 not an involution");

        // RZE byte scans: dispatched and SWAR bitmap builders vs the scalar
        // tail helpers run over the whole input, then the dispatched and
        // SWAR expanders must invert them while consuming exactly the kept
        // bytes.
        let bm_len = bytes.len().div_ceil(8);
        let (mut bm_a, mut kept_a) = (vec![0u8; bm_len], Vec::new());
        let (mut bm_b, mut kept_b) = (vec![0u8; bm_len], Vec::new());
        let (mut bm_s, mut kept_s) = (vec![0u8; bm_len], Vec::new());
        bytescan::zero_bitmap(&bytes, &mut bm_a, &mut kept_a);
        bytescan::zero_bitmap_tail(&bytes, 0, &mut bm_b, &mut kept_b);
        bytescan::zero_bitmap_swar(&bytes, &mut bm_s, &mut kept_s);
        assert_eq!((&bm_a, &kept_a), (&bm_b, &kept_b), "zero_bitmap diverged");
        assert_eq!(
            (&bm_s, &kept_s),
            (&bm_b, &kept_b),
            "zero_bitmap_swar diverged"
        );
        let mut back = Vec::new();
        let used = bytescan::expand_nonzero(&bm_a, bytes.len(), &kept_a, &mut back).unwrap();
        assert_eq!(used, kept_a.len());
        assert_eq!(back, bytes, "expand_nonzero not inverse");
        let mut back = Vec::new();
        let used = bytescan::expand_nonzero_swar(&bm_a, bytes.len(), &kept_a, &mut back);
        assert_eq!(used, Some(kept_a.len()));
        assert_eq!(back, bytes, "expand_nonzero_swar not inverse");
        let (mut bm_a, mut kept_a) = (vec![0u8; bm_len], Vec::new());
        let (mut bm_b, mut kept_b) = (vec![0u8; bm_len], Vec::new());
        let (mut bm_s, mut kept_s) = (vec![0u8; bm_len], Vec::new());
        bytescan::repeat_bitmap(&bytes, &mut bm_a, &mut kept_a);
        bytescan::repeat_bitmap_tail(&bytes, 0, 0, &mut bm_b, &mut kept_b);
        bytescan::repeat_bitmap_swar(&bytes, &mut bm_s, &mut kept_s);
        assert_eq!((&bm_a, &kept_a), (&bm_b, &kept_b), "repeat_bitmap diverged");
        assert_eq!(
            (&bm_s, &kept_s),
            (&bm_b, &kept_b),
            "repeat_bitmap_swar diverged"
        );
        let mut back = Vec::new();
        let used = bytescan::expand_repeat(&bm_a, bytes.len(), &kept_a, &mut back).unwrap();
        assert_eq!(used, kept_a.len());
        assert_eq!(back, bytes, "expand_repeat not inverse");
        let mut back = Vec::new();
        let used = bytescan::expand_repeat_swar(&bm_a, bytes.len(), &kept_a, &mut back);
        assert_eq!(used, Some(kept_a.len()));
        assert_eq!(back, bytes, "expand_repeat_swar not inverse");
        // Truncated kept-byte stream must be refused, never panic.
        if !kept_a.is_empty() {
            let mut sink = Vec::new();
            assert!(bytescan::expand_repeat(
                &bm_a,
                bytes.len(),
                &kept_a[..kept_a.len() - 1],
                &mut sink
            )
            .is_none());
        }

        // RLE run scan at every seventh position of a run-heavy byte string:
        // each input byte repeated 1..=13 times, so runs end at every
        // offset of an 8- or 32-byte window.
        let runs: Vec<u8> = bytes
            .iter()
            .flat_map(|&b| std::iter::repeat_n(b, usize::from(b % 13) + 1))
            .collect();
        for i in (0..runs.len()).step_by(7) {
            let want = bytescan::run_len_scalar(&runs, i);
            assert_eq!(bytescan::run_len(&runs, i), want, "run_len diverged at {i}");
            assert_eq!(
                bytescan::run_len_swar(&runs, i),
                want,
                "run_len_swar diverged at {i}"
            );
        }

        // Bitpack: dispatched pack of *unmasked* values appended after a
        // non-empty prefix vs the scalar BitWriter over `v & mask` (callers
        // such as the Bitcomp-class baseline rely on the kernel masking),
        // then dispatched unpack vs the scalar BitReader, at a fuzzed width.
        let prefix = rng.bytes_range(1usize..9);
        let width = rng.gen_range(1u32..33);
        let mask = u32::MAX >> (32 - width);
        let masked: Vec<u32> = w32.iter().map(|&v| v & mask).collect();
        let mut packed = prefix.clone();
        bitpack::pack_u32(&w32, width, &mut packed);
        assert_eq!(
            packed[..prefix.len()],
            prefix,
            "pack_u32 clobbered its prefix"
        );
        let packed = packed.split_off(prefix.len());
        let mut w = BitWriter::new();
        for &v in &masked {
            w.write_bits(v as u64, width);
        }
        assert_eq!(packed, w.finish(), "pack_u32 diverged at width {width}");
        let mut out = vec![0; masked.len()];
        assert!(bitpack::unpack_u32_into(&packed, width, &mut out));
        assert_eq!(out, masked, "unpack_u32 not inverse at width {width}");
        let mut r = BitReader::new(&packed);
        for &v in &masked {
            assert_eq!(r.read_bits(width).unwrap() as u32, v);
        }
        let width = rng.gen_range(1u32..65);
        let mask = u64::MAX >> (64 - width);
        let masked: Vec<u64> = w64.iter().map(|&v| v & mask).collect();
        let mut packed = prefix.clone();
        bitpack::pack_u64(&w64, width, &mut packed);
        assert_eq!(
            packed[..prefix.len()],
            prefix,
            "pack_u64 clobbered its prefix"
        );
        let packed = packed.split_off(prefix.len());
        let mut w = BitWriter::new();
        for &v in &masked {
            w.write_bits(v, width);
        }
        assert_eq!(packed, w.finish(), "pack_u64 diverged at width {width}");
        let mut out = vec![0; masked.len()];
        assert!(bitpack::unpack_u64_into(&packed, width, &mut out));
        assert_eq!(out, masked, "unpack_u64 not inverse at width {width}");
        // Truncated packed stream must be refused.
        if !packed.is_empty() {
            let mut sink = vec![0; masked.len()];
            assert!(!bitpack::unpack_u64_into(
                &packed[..packed.len() - 1],
                width,
                &mut sink
            ));
        }

        // Width scan: the OR-based minimum width vs the iterator maximum's.
        let max32 = w32.iter().copied().max().unwrap_or(0);
        let max64 = w64.iter().copied().max().unwrap_or(0);
        assert_eq!(min_width_u32(&w32), 32 - max32.leading_zeros());
        assert_eq!(min_width_u64(&w64), 64 - max64.leading_zeros());
    });
}

#[test]
fn baselines_survive_hostile_bytes() {
    use fpcompress::baselines::{roster, Meta};
    let meta = Meta::f64_flat(256);
    run_cases("fuzz/baselines", 48, |rng, _| {
        let data = rng.bytes_range(0usize..2_048);
        fpc_prng::fuzz::record_input(&data);
        for codec in roster() {
            if !codec.datatype().supports_width(8) {
                continue;
            }
            // Error or garbage both fine; panics and runaway allocations are
            // not.
            let _ = codec.decompress(&data, &meta);
        }
    });
}

//! Differential tests of the fused DIFFMS kernels.
//!
//! The load + encode kernels (`fpc_simd::diffms::encode32_le`/`encode64_le`)
//! must give what splitting the bytes into words and running the in-place
//! DIFFMS encode gives, on every length, at every source alignment and
//! from any carried predecessor; the decode + store kernels
//! (`decode32_le`/`decode64_le`) must write what the in-place decode and
//! `u32_to_bytes` give. The dispatched entry point and the scalar
//! reference are both checked, whatever `FPC_FORCE_SCALAR` says. The fused
//! MPLG decoders built on them must agree with the unfused chain on valid
//! streams and fail the same way on hostile ones.

use fpc_prng::Rng;
use fpc_simd::diffms as kernels;
use fpc_transforms::{diffms, mplg, words, zigzag, DecodeError};

/// Byte lengths: every length up to 300 (all the AVX2 block tails, and
/// more than two MPLG subchunks of 64-bit words), plus a 16 KiB chunk and
/// its neighbours.
fn lengths() -> impl Iterator<Item = usize> {
    (0..=300).chain([16383, 16384, 16385])
}

/// Noisy bytes with long runs of near-equal words, so differences of both
/// signs and both magnitudes occur.
fn source(len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
            if (i / 64) % 2 == 0 {
                h as u8
            } else {
                (i / 8) as u8
            }
        })
        .collect()
}

#[test]
fn fused_encode32_matches_split_then_encode() {
    let buf = source(16385 + 8);
    for len in lengths() {
        for offset in 0..8 {
            let src = &buf[offset..offset + len];
            for prev in [0, 1, u32::MAX] {
                // Reference: the predecessor as a leading word, then the
                // in-place encode; its first output belongs to `prev`.
                let (words, _) = words::bytes_to_u32(src);
                let mut want = Vec::with_capacity(words.len() + 1);
                want.push(prev);
                want.extend_from_slice(&words);
                diffms::encode32(&mut want);
                let want_last = words.last().copied().unwrap_or(prev);
                let tag = format!("len {len} offset {offset} prev {prev:#x}");
                for (name, kernel) in [
                    (
                        "dispatched",
                        kernels::encode32_le as fn(u32, &[u8], &mut [u32]) -> u32,
                    ),
                    ("scalar", kernels::encode32_le_scalar),
                ] {
                    let mut got = vec![0u32; words.len()];
                    let last = kernel(prev, src, &mut got);
                    assert_eq!(got, want[1..], "{name} {tag}");
                    assert_eq!(last, want_last, "{name} last word, {tag}");
                }
            }
        }
    }
}

#[test]
fn fused_encode64_matches_split_then_encode() {
    let buf = source(16385 + 8);
    for len in lengths() {
        for offset in 0..8 {
            let src = &buf[offset..offset + len];
            for prev in [0, 1, u64::MAX] {
                let (words, _) = words::bytes_to_u64(src);
                let mut want = Vec::with_capacity(words.len() + 1);
                want.push(prev);
                want.extend_from_slice(&words);
                diffms::encode64(&mut want);
                let want_last = words.last().copied().unwrap_or(prev);
                let tag = format!("len {len} offset {offset} prev {prev:#x}");
                for (name, kernel) in [
                    (
                        "dispatched",
                        kernels::encode64_le as fn(u64, &[u8], &mut [u64]) -> u64,
                    ),
                    ("scalar", kernels::encode64_le_scalar),
                ] {
                    let mut got = vec![0u64; words.len()];
                    let last = kernel(prev, src, &mut got);
                    assert_eq!(got, want[1..], "{name} {tag}");
                    assert_eq!(last, want_last, "{name} last word, {tag}");
                }
            }
        }
    }
}

/// Block by block from `prev = 0` equals the whole sequence at once, for
/// block sizes on and off the kernel's vector width.
#[test]
fn fused_encode_carries_prev_across_blocks() {
    let src = source(4096 + 5);
    let (w32, _) = words::bytes_to_u32(&src);
    let mut want32 = w32.clone();
    diffms::encode32(&mut want32);
    let (w64, _) = words::bytes_to_u64(&src);
    let mut want64 = w64.clone();
    diffms::encode64(&mut want64);
    for block in [1, 7, 8, 9, 64, 128] {
        let mut got = vec![0u32; w32.len()];
        let mut prev = 0;
        for (i, dst) in got.chunks_mut(block).enumerate() {
            prev = kernels::encode32_le(prev, &src[i * block * 4..], dst);
        }
        assert_eq!(got, want32, "u32 block {block}");
        let mut got = vec![0u64; w64.len()];
        let mut prev = 0;
        for (i, dst) in got.chunks_mut(block).enumerate() {
            prev = kernels::encode64_le(prev, &src[i * block * 8..], dst);
        }
        assert_eq!(got, want64, "u64 block {block}");
    }
}

/// Word counts for the decode kernels: every SSE2 block tail, and one
/// MPLG subchunk of 32-bit words and its neighbours.
fn decode_counts() -> impl Iterator<Item = usize> {
    (0..=40).chain([127, 128, 129])
}

#[test]
fn fused_decode_matches_scalar_and_decode_then_store() {
    let mut rng = Rng::seed_from_u64(25);
    for n in decode_counts() {
        for offset in 0..8 {
            let src32: Vec<u32> = (0..n)
                .map(|_| rng.next_u32() >> (rng.next_u32() % 32))
                .collect();
            let src64: Vec<u64> = (0..n)
                .map(|_| rng.next_u64() >> (rng.next_u32() % 64))
                .collect();
            let (prev32, prev64) = (rng.next_u32(), rng.next_u64());
            let tag = format!("n {n} offset {offset}");

            // Reference: the predecessor as a leading word whose decode is
            // `prev`, then the in-place decode and the store.
            let mut w = vec![zigzag::encode32(prev32)];
            w.extend_from_slice(&src32);
            diffms::decode32(&mut w);
            let mut want = vec![0xA5; offset];
            words::u32_to_bytes(&w[1..], &mut want);
            want.extend([0xA5; 5]);
            for (name, kernel) in [
                (
                    "dispatched",
                    kernels::decode32_le as fn(u32, &[u32], &mut [u8]) -> u32,
                ),
                ("scalar", kernels::decode32_le_scalar),
            ] {
                let mut got = vec![0xA5; offset + n * 4 + 5];
                let last = kernel(prev32, &src32, &mut got[offset..]);
                assert_eq!(got, want, "{name} u32 {tag}");
                assert_eq!(last, *w.last().unwrap(), "{name} u32 last, {tag}");
            }

            let mut w = vec![zigzag::encode64(prev64)];
            w.extend_from_slice(&src64);
            diffms::decode64(&mut w);
            let mut want = vec![0xA5; offset];
            words::u64_to_bytes(&w[1..], &mut want);
            want.extend([0xA5; 5]);
            for (name, kernel) in [
                (
                    "dispatched",
                    kernels::decode64_le as fn(u64, &[u64], &mut [u8]) -> u64,
                ),
                ("scalar", kernels::decode64_le_scalar),
            ] {
                let mut got = vec![0xA5; offset + n * 8 + 5];
                let last = kernel(prev64, &src64, &mut got[offset..]);
                assert_eq!(got, want, "{name} u64 {tag}");
                assert_eq!(last, *w.last().unwrap(), "{name} u64 last, {tag}");
            }
        }
    }
}

type Decoded = (Result<Vec<u8>, DecodeError>, usize);

/// The unfused chain: MPLG into a word `Vec`, the in-place DIFFMS decode,
/// then the store; `tail` bytes of `0xA5` stand for the chunk's tail.
fn unfused(data: &[u8], count: usize, width: usize, tail: usize) -> Decoded {
    let mut pos = 0;
    let mut out = Vec::new();
    let result = if width == 4 {
        let mut w = Vec::new();
        mplg::decode32(data, &mut pos, count, &mut w).map(|()| {
            diffms::decode32(&mut w);
            words::u32_to_bytes(&w, &mut out);
        })
    } else {
        let mut w = Vec::new();
        mplg::decode64(data, &mut pos, count, &mut w).map(|()| {
            diffms::decode64(&mut w);
            words::u64_to_bytes(&w, &mut out);
        })
    };
    out.extend(std::iter::repeat_n(0xA5, tail));
    (result.map(|()| out), pos)
}

fn fused(data: &[u8], count: usize, width: usize, tail: usize) -> Decoded {
    let mut pos = 0;
    let mut out = vec![0xA5; count * width + tail];
    let result = if width == 4 {
        mplg::decode32_le(data, &mut pos, &mut out)
    } else {
        mplg::decode64_le(data, &mut pos, &mut out)
    };
    (result.map(|()| out), pos)
}

/// Both decoders on `data`: equal bytes and end position, or equal errors.
fn agree(data: &[u8], count: usize, width: usize, tail: usize, what: &str) {
    let (want, want_pos) = unfused(data, count, width, tail);
    let (got, got_pos) = fused(data, count, width, tail);
    assert_eq!(got, want, "{what}");
    if want.is_ok() {
        assert_eq!(got_pos, want_pos, "{what}: end position");
    }
}

/// DIFFMS-domain words with every kind of MPLG subchunk: small values,
/// leading ones (the zigzag conversion), full width, all zero, and a
/// partial last subchunk.
fn mplg_words(rng: &mut Rng, per_subchunk: usize, bits: u32) -> Vec<u64> {
    let mask = u64::MAX >> (64 - bits);
    let mut w = Vec::new();
    for kind in 0..5 {
        let n = if kind == 4 {
            per_subchunk / 3
        } else {
            per_subchunk
        };
        w.extend((0..n).map(|i| match kind {
            0 => rng.next_u64() % 1000,
            1 => !(i as u64 % 16) & mask,
            2 => rng.next_u64() & mask,
            3 => 0,
            _ => rng.next_u64() >> (64 - bits / 2),
        }));
    }
    w
}

/// Offsets of the subchunk header bytes of a valid MPLG stream.
fn headers(enc: &[u8], count: usize, per_subchunk: usize) -> Vec<usize> {
    let (mut at, mut left, mut out) = (0, count, Vec::new());
    while left > 0 {
        let n = left.min(per_subchunk);
        out.push(at);
        at += 1 + (n * usize::from(enc[at] & 0x7F)).div_ceil(8);
        left -= n;
    }
    out
}

#[test]
fn fused_mplg_decode_matches_the_unfused_chain_on_valid_and_hostile_streams() {
    let mut rng = Rng::seed_from_u64(2525);
    for (width, per_subchunk) in [
        (4usize, mplg::SUBCHUNK_VALUES_32),
        (8, mplg::SUBCHUNK_VALUES_64),
    ] {
        let bits = width as u32 * 8;
        let w = mplg_words(&mut rng, per_subchunk, bits);
        let mut enc = Vec::new();
        if width == 4 {
            let w: Vec<u32> = w.iter().map(|&v| v as u32).collect();
            mplg::encode32(&w, &mut enc);
        } else {
            mplg::encode64(&w, &mut enc);
        }
        let count = w.len();
        let heads = headers(&enc, count, per_subchunk);
        assert_eq!(heads.len(), 5);
        assert!(
            heads.iter().any(|&h| enc[h] & 0x80 != 0),
            "a converted subchunk"
        );
        for tail in [0, width - 1] {
            agree(
                &enc,
                count,
                width,
                tail,
                &format!("valid u{bits} tail {tail}"),
            );
            let (ok, _) = fused(&enc, count, width, tail);
            assert!(ok.is_ok(), "valid u{bits}");
        }
        for cut in 0..enc.len() {
            agree(&enc[..cut], count, width, 0, &format!("u{bits} cut {cut}"));
            let (cut_result, _) = fused(&enc[..cut], count, width, 0);
            assert_eq!(
                cut_result,
                Err(DecodeError::UnexpectedEof),
                "u{bits} cut {cut}"
            );
        }
        for &h in &heads {
            for header in [bits as u8 + 1, 0x7F, 0x80 | (bits as u8 + 1)] {
                let mut bad = enc.clone();
                bad[h] = header;
                agree(
                    &bad,
                    count,
                    width,
                    0,
                    &format!("u{bits} header {header:#x} at {h}"),
                );
                let (too_wide, _) = fused(&bad, count, width, 0);
                assert!(matches!(too_wide, Err(DecodeError::Corrupt(_))));
            }
            let mut flagged = enc.clone();
            flagged[h] ^= 0x80;
            agree(
                &flagged,
                count,
                width,
                0,
                &format!("u{bits} flag flipped at {h}"),
            );
        }
    }
}

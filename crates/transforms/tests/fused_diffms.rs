//! Differential test of the fused load + DIFFMS encoders
//! (`fpc_simd::diffms::encode32_le`/`encode64_le`): for every input they
//! must give what splitting the bytes into words and running the in-place
//! DIFFMS encode gives, on every length, at every source alignment and
//! from any carried predecessor. The dispatched entry point and the scalar
//! reference are both checked, whatever `FPC_FORCE_SCALAR` says.

use fpc_simd::diffms as kernels;
use fpc_transforms::{diffms, words};

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

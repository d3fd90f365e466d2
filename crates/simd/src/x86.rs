//! `core::arch::x86_64` kernel implementations: the AVX2 tier's kernels,
//! the SSE2 DIFFMS prefix-sum decoders that also run at that tier
//! (SSE2 is part of the x86_64 baseline), and the AVX-512 tier's bit
//! transpose and RZE level-0 kernels. DIFFMS has one kernel per
//! direction and width, fused with the little-endian load (encode) or
//! store (decode); the in-place word-slice loops in
//! `fpc_transforms::diffms` are its scalar definition, not a second kernel.
//!
//! Every `unsafe` block of the workspace's vector plumbing lives in this
//! module. Each public function is a safe wrapper that asserts the required
//! CPU feature before entering the `#[target_feature]` implementation; the
//! dispatcher only routes here after `is_x86_feature_detected!` succeeded,
//! so the asserts are belt-and-braces for direct callers (differential
//! tests, benchmarks).
//!
//! All kernels use unaligned loads/stores (`loadu`/`storeu`) and finish
//! trailing elements with the same scalar ops as the reference loops, so
//! output is byte-identical to scalar for every slice length. The RZE
//! bitmap kernels move bytes in 8-byte blocks through 256-entry `pshufb`
//! tables (SSSE3, which `avx2` implies): compaction stores whole blocks
//! and advances by the popcount, expansion loads whole blocks.

#![allow(clippy::missing_safety_doc)] // internal impls; safety = target_feature

use crate::diffms::{dec32, dec64, enc32, enc64};
use core::arch::x86_64::*;

#[inline]
fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Whether the host has every feature the AVX-512 tier's kernels enable.
/// `popcnt` rides along for the kernels' advance counts; every AVX-512
/// CPU has it.
pub(crate) fn have_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vbmi")
        && std::arch::is_x86_feature_detected!("avx512vbmi2")
        && std::arch::is_x86_feature_detected!("gfni")
        && std::arch::is_x86_feature_detected!("popcnt")
}

// ---------------------------------------------------------------- diffms --

/// Fused little-endian load + DIFFMS encode of `dst.len()` `u32` words
/// from `src` with AVX2 (see `diffms::encode32_le`). Source and destination
/// are distinct, so blocks run left-to-right; each loads its words and
/// their predecessors straight from the bytes.
pub fn diffms_encode32_le_avx2(prev: u32, src: &[u8], dst: &mut [u32]) -> u32 {
    assert!(have_avx2(), "AVX2 unavailable");
    let n = dst.len();
    let src = &src[..n * 4];
    let word =
        |i: usize| u32::from_le_bytes([src[4 * i], src[4 * i + 1], src[4 * i + 2], src[4 * i + 3]]);
    let Some(first) = dst.first_mut() else {
        return prev;
    };
    *first = enc32(word(0).wrapping_sub(prev));
    // SAFETY: AVX2 was checked above; every block reads bytes
    // 4(i-1)..4(i+8) of `src` and writes words i..i+8 of `dst`, with
    // i + 8 <= n, inside both slices.
    let mut i = unsafe { diffms_encode32_le_avx2_impl(src, dst) };
    while i < n {
        dst[i] = enc32(word(i).wrapping_sub(word(i - 1)));
        i += 1;
    }
    word(n - 1)
}

/// Encodes words `1..` in whole 8-word blocks; returns where it stopped.
#[target_feature(enable = "avx2")]
unsafe fn diffms_encode32_le_avx2_impl(src: &[u8], dst: &mut [u32]) -> usize {
    let n = dst.len();
    let s = src.as_ptr();
    let d = dst.as_mut_ptr();
    let mut i = 1;
    while i + 8 <= n {
        let cur = _mm256_loadu_si256(s.add(4 * i) as *const __m256i);
        let prev = _mm256_loadu_si256(s.add(4 * (i - 1)) as *const __m256i);
        let x = _mm256_sub_epi32(cur, prev);
        let e = _mm256_xor_si256(_mm256_slli_epi32(x, 1), _mm256_srai_epi32(x, 31));
        _mm256_storeu_si256(d.add(i) as *mut __m256i, e);
        i += 8;
    }
    i
}

/// Fused DIFFMS decode + little-endian store of the `src.len()` `u32`
/// words of `src` into `dst` with SSE2 (see `diffms::decode32_le`).
///
/// Wrapping addition is associative, so the log-step prefix sum over each
/// 4-word block, started from `prev`, is bit-identical to the sequential
/// loop.
pub fn diffms_decode32_le_sse2(prev: u32, src: &[u32], dst: &mut [u8]) -> u32 {
    let n = src.len();
    let dst = &mut dst[..n * 4];
    // SAFETY: SSE2 is part of the x86_64 baseline; every block reads words
    // i..i+4 of `src` and writes bytes 4i..4(i+4) of `dst`, with
    // i + 4 <= n, inside both slices.
    let (mut i, mut prev) = unsafe { diffms_decode32_le_sse2_impl(prev, src, dst) };
    while i < n {
        prev = dec32(src[i]).wrapping_add(prev);
        dst[4 * i..4 * i + 4].copy_from_slice(&prev.to_le_bytes());
        i += 1;
    }
    prev
}

/// Decodes whole 4-word blocks; returns where it stopped and the sum there.
///
/// # Safety
///
/// `dst` must hold at least `src.len()` words' bytes.
#[target_feature(enable = "sse2")]
unsafe fn diffms_decode32_le_sse2_impl(prev: u32, src: &[u32], dst: &mut [u8]) -> (usize, u32) {
    let n = src.len();
    let s = src.as_ptr();
    let d = dst.as_mut_ptr();
    let zero = _mm_setzero_si128();
    let one = _mm_set1_epi32(1);
    let mut run = _mm_set1_epi32(prev as i32);
    let mut i = 0;
    while i + 4 <= n {
        let x = _mm_loadu_si128(s.add(i) as *const __m128i);
        let sign = _mm_sub_epi32(zero, _mm_and_si128(x, one));
        let v = _mm_xor_si128(_mm_srli_epi32(x, 1), sign);
        // Inclusive prefix sum across the 4 lanes, then add the running
        // total (broadcast in every lane of `run`).
        let v = _mm_add_epi32(v, _mm_slli_si128(v, 4));
        let v = _mm_add_epi32(v, _mm_slli_si128(v, 8));
        let sum = _mm_add_epi32(v, run);
        // x86 is little-endian: the lanes store as LE words.
        _mm_storeu_si128(d.add(4 * i) as *mut __m128i, sum);
        run = _mm_shuffle_epi32(sum, 0b1111_1111);
        i += 4;
    }
    (i, _mm_cvtsi128_si32(run) as u32)
}

/// Fused little-endian load + DIFFMS encode of `dst.len()` `u64` words
/// from `src` with AVX2 (see `diffms::encode64_le`).
pub fn diffms_encode64_le_avx2(prev: u64, src: &[u8], dst: &mut [u64]) -> u64 {
    assert!(have_avx2(), "AVX2 unavailable");
    let n = dst.len();
    let src = &src[..n * 8];
    let word = |i: usize| {
        let b = &src[8 * i..8 * i + 8];
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    };
    let Some(first) = dst.first_mut() else {
        return prev;
    };
    *first = enc64(word(0).wrapping_sub(prev));
    // SAFETY: AVX2 was checked above; every block reads bytes
    // 8(i-1)..8(i+4) of `src` and writes words i..i+4 of `dst`, with
    // i + 4 <= n, inside both slices.
    let mut i = unsafe { diffms_encode64_le_avx2_impl(src, dst) };
    while i < n {
        dst[i] = enc64(word(i).wrapping_sub(word(i - 1)));
        i += 1;
    }
    word(n - 1)
}

/// Encodes words `1..` in whole 4-word blocks; returns where it stopped.
#[target_feature(enable = "avx2")]
unsafe fn diffms_encode64_le_avx2_impl(src: &[u8], dst: &mut [u64]) -> usize {
    let n = dst.len();
    let s = src.as_ptr();
    let d = dst.as_mut_ptr();
    let zero = _mm256_setzero_si256();
    let mut i = 1;
    while i + 4 <= n {
        let cur = _mm256_loadu_si256(s.add(8 * i) as *const __m256i);
        let prev = _mm256_loadu_si256(s.add(8 * (i - 1)) as *const __m256i);
        let x = _mm256_sub_epi64(cur, prev);
        let sign = _mm256_cmpgt_epi64(zero, x);
        let e = _mm256_xor_si256(_mm256_slli_epi64(x, 1), sign);
        _mm256_storeu_si256(d.add(i) as *mut __m256i, e);
        i += 4;
    }
    i
}

/// Fused DIFFMS decode + little-endian store of `u64` words with SSE2
/// (see `diffms::decode64_le`).
pub fn diffms_decode64_le_sse2(prev: u64, src: &[u64], dst: &mut [u8]) -> u64 {
    let n = src.len();
    let dst = &mut dst[..n * 8];
    // SAFETY: SSE2 is part of the x86_64 baseline; every block reads words
    // i..i+2 of `src` and writes bytes 8i..8(i+2) of `dst`, with
    // i + 2 <= n, inside both slices.
    let (mut i, mut prev) = unsafe { diffms_decode64_le_sse2_impl(prev, src, dst) };
    while i < n {
        prev = dec64(src[i]).wrapping_add(prev);
        dst[8 * i..8 * i + 8].copy_from_slice(&prev.to_le_bytes());
        i += 1;
    }
    prev
}

/// Decodes whole 2-word blocks; returns where it stopped and the sum there.
///
/// # Safety
///
/// `dst` must hold at least `src.len()` words' bytes.
#[target_feature(enable = "sse2")]
unsafe fn diffms_decode64_le_sse2_impl(prev: u64, src: &[u64], dst: &mut [u8]) -> (usize, u64) {
    let n = src.len();
    let s = src.as_ptr();
    let d = dst.as_mut_ptr();
    let zero = _mm_setzero_si128();
    let one = _mm_set1_epi64x(1);
    let mut run = _mm_set1_epi64x(prev as i64);
    let mut i = 0;
    while i + 2 <= n {
        let x = _mm_loadu_si128(s.add(i) as *const __m128i);
        let sign = _mm_sub_epi64(zero, _mm_and_si128(x, one));
        let v = _mm_xor_si128(_mm_srli_epi64(x, 1), sign);
        let v = _mm_add_epi64(v, _mm_slli_si128(v, 8));
        let sum = _mm_add_epi64(v, run);
        _mm_storeu_si128(d.add(8 * i) as *mut __m128i, sum);
        // Broadcast the high 64-bit lane as the next running total.
        run = _mm_shuffle_epi32(sum, 0b1110_1110);
        i += 2;
    }
    (i, _mm_cvtsi128_si64(run) as u64)
}

// ------------------------------------------------------------- transpose --

/// In-place 32×32 bit-matrix transpose with AVX2.
///
/// The whole matrix lives in four 256-bit registers (8 rows each). The
/// masked-swap network's first two levels pair rows across registers; the
/// last three pair lanes within a register, handled by building the partner
/// vector with a permute and blending the two half-updates.
pub fn transpose32_avx2(group: &mut [u32; 32]) {
    assert!(have_avx2(), "AVX2 unavailable");
    unsafe { transpose32_avx2_impl(group) }
}

#[target_feature(enable = "avx2")]
unsafe fn transpose32_avx2_impl(group: &mut [u32; 32]) {
    let p = group.as_mut_ptr();
    let mut r0 = _mm256_loadu_si256(p as *const __m256i);
    let mut r1 = _mm256_loadu_si256(p.add(8) as *const __m256i);
    let mut r2 = _mm256_loadu_si256(p.add(16) as *const __m256i);
    let mut r3 = _mm256_loadu_si256(p.add(24) as *const __m256i);

    // j = 16: rows k ↔ k+16 (register pairs (r0,r2), (r1,r3)).
    let m = _mm256_set1_epi32(0x0000_FFFF);
    let t = _mm256_and_si256(_mm256_xor_si256(r0, _mm256_srli_epi32(r2, 16)), m);
    r0 = _mm256_xor_si256(r0, t);
    r2 = _mm256_xor_si256(r2, _mm256_slli_epi32(t, 16));
    let t = _mm256_and_si256(_mm256_xor_si256(r1, _mm256_srli_epi32(r3, 16)), m);
    r1 = _mm256_xor_si256(r1, t);
    r3 = _mm256_xor_si256(r3, _mm256_slli_epi32(t, 16));

    // j = 8: rows k ↔ k+8 (register pairs (r0,r1), (r2,r3)).
    let m = _mm256_set1_epi32(0x00FF_00FF);
    let t = _mm256_and_si256(_mm256_xor_si256(r0, _mm256_srli_epi32(r1, 8)), m);
    r0 = _mm256_xor_si256(r0, t);
    r1 = _mm256_xor_si256(r1, _mm256_slli_epi32(t, 8));
    let t = _mm256_and_si256(_mm256_xor_si256(r2, _mm256_srli_epi32(r3, 8)), m);
    r2 = _mm256_xor_si256(r2, t);
    r3 = _mm256_xor_si256(r3, _mm256_slli_epi32(t, 8));

    // j = 4: lanes k ↔ k+4 within each register (128-bit halves swap).
    let m = _mm256_set1_epi32(0x0F0F_0F0F);
    r0 = swap_step::<4, 0b1111_0000>(r0, m, |r| _mm256_permute2x128_si256(r, r, 0x01));
    r1 = swap_step::<4, 0b1111_0000>(r1, m, |r| _mm256_permute2x128_si256(r, r, 0x01));
    r2 = swap_step::<4, 0b1111_0000>(r2, m, |r| _mm256_permute2x128_si256(r, r, 0x01));
    r3 = swap_step::<4, 0b1111_0000>(r3, m, |r| _mm256_permute2x128_si256(r, r, 0x01));

    // j = 2: lanes k ↔ k+2 within 128-bit halves.
    let m = _mm256_set1_epi32(0x3333_3333);
    r0 = swap_step::<2, 0b1100_1100>(r0, m, |r| _mm256_shuffle_epi32(r, 0b0100_1110));
    r1 = swap_step::<2, 0b1100_1100>(r1, m, |r| _mm256_shuffle_epi32(r, 0b0100_1110));
    r2 = swap_step::<2, 0b1100_1100>(r2, m, |r| _mm256_shuffle_epi32(r, 0b0100_1110));
    r3 = swap_step::<2, 0b1100_1100>(r3, m, |r| _mm256_shuffle_epi32(r, 0b0100_1110));

    // j = 1: adjacent lanes.
    let m = _mm256_set1_epi32(0x5555_5555);
    r0 = swap_step::<1, 0b1010_1010>(r0, m, |r| _mm256_shuffle_epi32(r, 0b1011_0001));
    r1 = swap_step::<1, 0b1010_1010>(r1, m, |r| _mm256_shuffle_epi32(r, 0b1011_0001));
    r2 = swap_step::<1, 0b1010_1010>(r2, m, |r| _mm256_shuffle_epi32(r, 0b1011_0001));
    r3 = swap_step::<1, 0b1010_1010>(r3, m, |r| _mm256_shuffle_epi32(r, 0b1011_0001));

    _mm256_storeu_si256(p as *mut __m256i, r0);
    _mm256_storeu_si256(p.add(8) as *mut __m256i, r1);
    _mm256_storeu_si256(p.add(16) as *mut __m256i, r2);
    _mm256_storeu_si256(p.add(24) as *mut __m256i, r3);
}

/// One within-register masked-swap level: rows in the low lanes of each
/// pair update with `t`, rows in the high lanes with `t << J` (`BLEND`
/// selects the high lanes of each pair).
#[target_feature(enable = "avx2")]
unsafe fn swap_step<const J: i32, const BLEND: i32>(
    r: __m256i,
    m: __m256i,
    partner: impl Fn(__m256i) -> __m256i,
) -> __m256i {
    let pr = partner(r);
    // In a low lane, `pr` holds the pair's high row: tl = (a[k] ^ (a[k+j] >> j)) & m.
    let tl = _mm256_and_si256(_mm256_xor_si256(r, _mm256_srli_epi32(pr, J)), m);
    // In a high lane, `pr` holds the pair's low row: th = (a[k] ^ (a[k+j] >> j)) & m
    // computed from the high lane's perspective.
    let th = _mm256_and_si256(_mm256_xor_si256(pr, _mm256_srli_epi32(r, J)), m);
    let update = _mm256_blend_epi32::<BLEND>(tl, _mm256_slli_epi32(th, J));
    _mm256_xor_si256(r, update)
}

/// `vpermt2b` indices gathering each 8×8 bit block of a 32-word group
/// into one qword. The group is 128 bytes, byte `4r + q` holding bits
/// `8q..8q + 8` of row `r`. Qword `4R + q` collects byte `q` of rows
/// `8R..8R + 8`, row `8R + u` in its byte `u`.
#[rustfmt::skip]
pub(crate) static TRANSPOSE_GATHER: [u8; 128] = [
      0,   4,   8,  12,  16,  20,  24,  28,   1,   5,   9,  13,  17,  21,  25,  29,
      2,   6,  10,  14,  18,  22,  26,  30,   3,   7,  11,  15,  19,  23,  27,  31,
     32,  36,  40,  44,  48,  52,  56,  60,  33,  37,  41,  45,  49,  53,  57,  61,
     34,  38,  42,  46,  50,  54,  58,  62,  35,  39,  43,  47,  51,  55,  59,  63,
     64,  68,  72,  76,  80,  84,  88,  92,  65,  69,  73,  77,  81,  85,  89,  93,
     66,  70,  74,  78,  82,  86,  90,  94,  67,  71,  75,  79,  83,  87,  91,  95,
     96, 100, 104, 108, 112, 116, 120, 124,  97, 101, 105, 109, 113, 117, 121, 125,
     98, 102, 106, 110, 114, 118, 122, 126,  99, 103, 107, 111, 115, 119, 123, 127,
];

/// `vpermt2b` indices scattering the transposed blocks into place. The
/// reference network maps bit `b` of row `r` to bit `31 - r` of row
/// `31 - b`, so after the affine op, byte `j` of qword `4R + q` is byte
/// `3 - R` of row `31 - 8q - j`, bit for bit. The unit test
/// `transpose::tests::avx512_tables_derive_from_reference` rebuilds both
/// tables from the scalar network alone.
#[rustfmt::skip]
pub(crate) static TRANSPOSE_SCATTER: [u8; 128] = [
    127,  95,  63,  31, 126,  94,  62,  30, 125,  93,  61,  29, 124,  92,  60,  28,
    123,  91,  59,  27, 122,  90,  58,  26, 121,  89,  57,  25, 120,  88,  56,  24,
    119,  87,  55,  23, 118,  86,  54,  22, 117,  85,  53,  21, 116,  84,  52,  20,
    115,  83,  51,  19, 114,  82,  50,  18, 113,  81,  49,  17, 112,  80,  48,  16,
    111,  79,  47,  15, 110,  78,  46,  14, 109,  77,  45,  13, 108,  76,  44,  12,
    107,  75,  43,  11, 106,  74,  42,  10, 105,  73,  41,   9, 104,  72,  40,   8,
    103,  71,  39,   7, 102,  70,  38,   6, 101,  69,  37,   5, 100,  68,  36,   4,
     99,  67,  35,   3,  98,  66,  34,   2,  97,  65,  33,   1,  96,  64,  32,   0,
];

/// Transposes every complete 32-word group of `values` in place with
/// AVX-512 VBMI and GFNI; trailing words that do not fill a group are
/// untouched.
pub fn transpose32_avx512(values: &mut [u32]) {
    assert!(have_avx512(), "AVX-512 VBMI/VBMI2/GFNI unavailable");
    // SAFETY: the features were checked above; every group is 32 whole
    // words of `values`.
    unsafe { transpose32_avx512_impl(values) }
}

/// Per group: two `vpermt2b` gather the sixteen 8×8 blocks into qwords,
/// one `vgf2p8affineqb` per register transposes each block (with `x`
/// byte `j` = `1 << j`, output byte `j` bit `i` is matrix byte `7 - i`
/// bit `j`), and two `vpermt2b` scatter the bytes to their rows.
///
/// # Safety
///
/// The host must have the features `have_avx512` checks.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,gfni")]
unsafe fn transpose32_avx512_impl(values: &mut [u32]) {
    let gather_lo = _mm512_loadu_si512(TRANSPOSE_GATHER.as_ptr().cast());
    let gather_hi = _mm512_loadu_si512(TRANSPOSE_GATHER.as_ptr().add(64).cast());
    let scatter_lo = _mm512_loadu_si512(TRANSPOSE_SCATTER.as_ptr().cast());
    let scatter_hi = _mm512_loadu_si512(TRANSPOSE_SCATTER.as_ptr().add(64).cast());
    let unit = _mm512_set1_epi64(0x8040_2010_0804_0201_u64 as i64);
    for group in values.chunks_exact_mut(32) {
        let p = group.as_mut_ptr();
        let a = _mm512_loadu_si512(p.cast());
        let b = _mm512_loadu_si512(p.add(16).cast());
        let blocks_lo = _mm512_permutex2var_epi8(a, gather_lo, b);
        let blocks_hi = _mm512_permutex2var_epi8(a, gather_hi, b);
        let t_lo = _mm512_gf2p8affine_epi64_epi8::<0>(unit, blocks_lo);
        let t_hi = _mm512_gf2p8affine_epi64_epi8::<0>(unit, blocks_hi);
        _mm512_storeu_si512(p.cast(), _mm512_permutex2var_epi8(t_lo, scatter_lo, t_hi));
        _mm512_storeu_si512(
            p.add(16).cast(),
            _mm512_permutex2var_epi8(t_lo, scatter_hi, t_hi),
        );
    }
}

// -------------------------------------------------------------- bytescan --

/// 256 `pshufb` controls indexed by one bitmap byte, one 8-byte lane list
/// per entry. Cache-line aligned so no entry straddles two lines.
#[repr(align(64))]
struct ShuffleTable([[u8; 8]; 256]);

/// Compaction: entry `m` lists the positions of `m`'s set bits in ascending
/// order. Lanes past the popcount are overwritten or cut off afterwards.
static COMPACT: ShuffleTable = {
    let mut t = [[0u8; 8]; 256];
    let mut m = 0;
    while m < 256 {
        let (mut k, mut n) = (0, 0);
        while k < 8 {
            if m & (1 << k) != 0 {
                t[m][n] = k as u8;
                n += 1;
            }
            k += 1;
        }
        m += 1;
    }
    ShuffleTable(t)
};

/// Nonzero expansion: a set bit takes the next source byte, a clear bit is
/// zero (`0x80` zeroes the lane).
static EXPAND_NONZERO: ShuffleTable = expand_table(false);

/// Repeat expansion: every byte repeats the last source byte taken at or
/// before it; before the block's first set bit that is the carried
/// predecessor, which the kernel keeps in lane 8.
static EXPAND_REPEAT: ShuffleTable = expand_table(true);

const fn expand_table(repeat: bool) -> ShuffleTable {
    let mut t = [[0u8; 8]; 256];
    let mut m = 0;
    while m < 256 {
        // `taken`: source bytes consumed by lanes 0..=k.
        let (mut k, mut taken) = (0, 0u8);
        while k < 8 {
            if m & (1 << k) != 0 {
                taken += 1;
                t[m][k] = taken - 1;
            } else if !repeat {
                t[m][k] = 0x80;
            } else if taken == 0 {
                t[m][k] = 8;
            } else {
                t[m][k] = taken - 1;
            }
            k += 1;
        }
        m += 1;
    }
    ShuffleTable(t)
}

/// Set bits per bitmap byte. `POPCNT` is not implied by `avx2`, so under
/// that feature alone `count_ones` compiles to a bit-twiddling sequence.
static POPCOUNT: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut m = 0;
    while m < 256 {
        t[m] = (m as u8).count_ones() as u8;
        m += 1;
    }
    t
};

/// Builds the nonzero bitmap of `data` and collects nonzero bytes (AVX2).
///
/// `bitmap` must be zeroed and at least `data.len().div_ceil(8)` long.
pub fn zero_bitmap_avx2(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    assert!(have_avx2(), "AVX2 unavailable");
    let blocks = data.len() / 32 * 32;
    assert!(bitmap.len() >= blocks / 8, "bitmap too short");
    kept.reserve(data.len());
    // SAFETY: AVX2 was detected above; the bitmap holds the blocks' bytes
    // and `kept` has spare capacity for every block byte.
    unsafe { zero_bitmap_avx2_impl(&data[..blocks], bitmap, kept) }
    crate::bytescan::zero_bitmap_tail(data, blocks, bitmap, kept);
}

/// # Safety
///
/// AVX2 must be available, `data` must be whole 32-byte blocks, `bitmap`
/// must hold `data.len() / 8` bytes, and `kept` must have `data.len()`
/// bytes of spare capacity.
#[target_feature(enable = "avx2")]
unsafe fn zero_bitmap_avx2_impl(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    let zero = _mm256_setzero_si256();
    let dst = kept.as_mut_ptr().add(kept.len());
    let mut w = 0;
    for (i, block) in data.chunks_exact(32).enumerate() {
        let v = _mm256_loadu_si256(block.as_ptr() as *const __m256i);
        let nz = !(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)) as u32);
        bitmap[i * 4..i * 4 + 4].copy_from_slice(&nz.to_le_bytes());
        w = compact32(block.as_ptr(), nz, dst, w);
    }
    kept.set_len(kept.len() + w);
}

/// Builds the nonzero bitmap of `data` and collects nonzero bytes
/// (AVX-512): same contract as [`zero_bitmap_avx2`].
pub fn zero_bitmap_avx512(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    assert!(have_avx512(), "AVX-512 VBMI/VBMI2/GFNI unavailable");
    kept.reserve(data.len());
    // SAFETY: the features were checked above, and `kept` has spare
    // capacity for every byte of `data`.
    let done = unsafe { zero_bitmap_avx512_impl(data, bitmap, kept) };
    crate::bytescan::zero_bitmap_tail(data, done, bitmap, kept);
}

/// Scans whole 64-byte blocks while `bitmap` has 8 bytes for them and
/// returns the bytes scanned. Per block, `vptestmb` gives the 64 bitmap
/// bits, `vpcompressb` packs the nonzero bytes to the front of a register,
/// which is stored whole at the write position; that advances by the
/// mask's popcount, so the next store overwrites the unkept lanes.
///
/// # Safety
///
/// The host must have the features `have_avx512` checks, and `kept` must
/// have `data.len()` bytes of spare capacity.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi2,popcnt")]
unsafe fn zero_bitmap_avx512_impl(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) -> usize {
    let dst = kept.as_mut_ptr().add(kept.len());
    let (blocks, _) = data.as_chunks::<64>();
    let (bitmap_words, _) = bitmap.as_chunks_mut::<8>();
    let (mut w, mut done) = (0, 0);
    for (block, bits) in blocks.iter().zip(bitmap_words) {
        let v = _mm512_loadu_si512(block.as_ptr().cast());
        let nonzero = _mm512_test_epi8_mask(v, v);
        *bits = nonzero.to_le_bytes();
        // Kept bytes never outnumber scanned bytes: w + 64 <= done + 64.
        _mm512_storeu_si512(dst.add(w).cast(), _mm512_maskz_compress_epi8(nonzero, v));
        w += nonzero.count_ones() as usize;
        done += 64;
    }
    kept.set_len(kept.len() + w);
    done
}

/// Builds the differs-from-predecessor bitmap and collects differing bytes
/// (AVX2). Byte 0 compares against 0x00, as in the scalar reference.
pub fn repeat_bitmap_avx2(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    assert!(have_avx2(), "AVX2 unavailable");
    let blocks = data.len() / 32 * 32;
    assert!(bitmap.len() >= blocks / 8, "bitmap too short");
    kept.reserve(data.len());
    // SAFETY: as in `zero_bitmap_avx2`.
    unsafe { repeat_bitmap_avx2_impl(&data[..blocks], bitmap, kept) }
    let prev = blocks.checked_sub(1).map_or(0, |i| data[i]);
    crate::bytescan::repeat_bitmap_tail(data, blocks, prev, bitmap, kept);
}

/// # Safety
///
/// As for [`zero_bitmap_avx2_impl`].
#[target_feature(enable = "avx2")]
unsafe fn repeat_bitmap_avx2_impl(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    let dst = kept.as_mut_ptr().add(kept.len());
    let mut w = 0;
    let mut prev = 0u8;
    for (i, block) in data.chunks_exact(32).enumerate() {
        let v = _mm256_loadu_si256(block.as_ptr() as *const __m256i);
        // Shift the whole vector one byte toward high addresses, pulling the
        // low lane's top byte across the 128-bit boundary, then seed byte 0
        // with the carry byte from the previous block.
        let lo = _mm256_permute2x128_si256(v, v, 0x08);
        let shifted = _mm256_alignr_epi8(v, lo, 15);
        let carry = _mm256_zextsi128_si256(_mm_cvtsi32_si128(prev as i32));
        let shifted = _mm256_or_si256(shifted, carry);
        let eq = _mm256_cmpeq_epi8(v, shifted);
        let differs = !(_mm256_movemask_epi8(eq) as u32);
        bitmap[i * 4..i * 4 + 4].copy_from_slice(&differs.to_le_bytes());
        w = compact32(block.as_ptr(), differs, dst, w);
        prev = block[31];
    }
    kept.set_len(kept.len() + w);
}

/// Writes the bytes of the 32-byte block at `src` whose `mask` bit is set
/// to `dst + w` onward and returns the new write offset. Each 8-byte
/// sub-block is shuffled through [`COMPACT`] and stored whole; the offset
/// then advances by the sub-block's popcount, so later stores overwrite
/// the unkept lanes.
///
/// # Safety
///
/// AVX2 must be available, `src` must be readable for 32 bytes, and `dst`
/// writable for `w + 32` bytes (kept bytes never outnumber scanned bytes).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn compact32(src: *const u8, mask: u32, dst: *mut u8, mut w: usize) -> usize {
    for k in 0..4 {
        let m = (mask >> (8 * k)) as u8 as usize;
        let block = _mm_loadl_epi64(src.add(8 * k) as *const __m128i);
        let ctl = _mm_loadl_epi64(COMPACT.0[m].as_ptr() as *const __m128i);
        _mm_storel_epi64(dst.add(w) as *mut __m128i, _mm_shuffle_epi8(block, ctl));
        w += POPCOUNT[m] as usize;
    }
    w
}

/// Expands the bitmap-coded bytes `0..count` onto `out` (AVX2): `None` for
/// `repeat` reconstructs a nonzero bitmap (clear bit ⇔ zero byte), and
/// `Some(prev)` a repeat bitmap (clear bit ⇔ repeat of the previous byte,
/// starting from `prev`). Set bits consume `src` bytes in order.
///
/// Returns what the scalar references `expand_nonzero_tail` /
/// `expand_repeat_tail` return (from `start = 0, pos = 0`) and appends the
/// same bytes, also on hostile input: when the whole bytes of `bitmap`
/// below `count` have more set bits than `src` holds, or `bitmap` is
/// short, it runs the scalar reference itself.
pub fn expand_avx2(
    bitmap: &[u8],
    count: usize,
    repeat: Option<u8>,
    src: &[u8],
    out: &mut Vec<u8>,
) -> Option<usize> {
    use crate::bytescan::{expand_nonzero_tail, expand_repeat_tail};
    assert!(have_avx2(), "AVX2 unavailable");
    let full = count / 8;
    let fits = bitmap
        .get(..full)
        .is_some_and(|blocks| set_bits(blocks) <= src.len());
    // Where the block loop stops, the scalar tail goes on: from the start
    // when the input does not fit.
    let (start, prev, pos) = if fits {
        out.reserve(count);
        // SAFETY: AVX2 was detected above; `out` has spare capacity for
        // the `8 * full` bytes written, and the blocks' set bits fit in
        // `src`.
        unsafe {
            let dst = out.as_mut_ptr().add(out.len());
            let (pos, prev) = match repeat {
                Some(prev) => expand_avx2_impl::<true>(&bitmap[..full], prev, src, dst),
                None => expand_avx2_impl::<false>(&bitmap[..full], 0, src, dst),
            };
            out.set_len(out.len() + full * 8);
            (full * 8, prev, pos)
        }
    } else {
        (0, repeat.unwrap_or(0), 0)
    };
    match repeat {
        Some(_) => expand_repeat_tail(bitmap, start, count, prev, src, pos, out),
        None => expand_nonzero_tail(bitmap, start, count, src, pos, out),
    }
}

/// Expands the nonzero-bitmap-coded bytes `0..count` onto `out`
/// (AVX-512). Returns what `expand_nonzero_tail` returns (from `start = 0,
/// pos = 0`) and appends the same bytes, also on hostile input: like
/// [`expand_avx2`], it runs the scalar reference from the start when the
/// whole bitmap bytes below `count` have more set bits than `src` holds,
/// or `bitmap` is short.
pub fn expand_nonzero_avx512(
    bitmap: &[u8],
    count: usize,
    src: &[u8],
    out: &mut Vec<u8>,
) -> Option<usize> {
    assert!(have_avx512(), "AVX-512 VBMI/VBMI2/GFNI unavailable");
    let fits = bitmap
        .get(..count / 8)
        .is_some_and(|blocks| set_bits(blocks) <= src.len());
    let (start, pos) = if fits {
        let groups = bitmap
            .as_chunks::<8>()
            .0
            .get(..count / 64)
            .unwrap_or_default();
        out.reserve(count);
        // SAFETY: the features were checked above; `out` has spare
        // capacity for the `64 * groups.len() <= count` bytes written, and
        // the groups' set bits fit in `src`.
        unsafe {
            let dst = out.as_mut_ptr().add(out.len());
            let pos = expand_nonzero_avx512_impl(groups, src, dst);
            out.set_len(out.len() + 64 * groups.len());
            (64 * groups.len(), pos)
        }
    } else {
        (0, 0)
    };
    crate::bytescan::expand_nonzero_tail(bitmap, start, count, src, pos, out)
}

/// Writes `64 * groups.len()` expanded bytes to `dst` and returns the
/// `src` bytes consumed. Per group of 8 bitmap bytes: a masked load of
/// the next `popcount` source bytes (lanes past them are neither read nor
/// faulted on), then `vpexpandb` places them at the set bits and zeroes
/// the rest.
///
/// # Safety
///
/// The host must have the features `have_avx512` checks, `dst` must be
/// writable for `64 * groups.len()` bytes, and `src` must hold at least
/// as many bytes as `groups` has set bits.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi2,popcnt")]
unsafe fn expand_nonzero_avx512_impl(groups: &[[u8; 8]], src: &[u8], dst: *mut u8) -> usize {
    let mut pos = 0;
    for (g, bits) in groups.iter().enumerate() {
        let mask = u64::from_le_bytes(*bits);
        let n = mask.count_ones();
        let take = u64::MAX.checked_shr(64 - n).unwrap_or(0);
        let v = _mm512_maskz_loadu_epi8(take, src.as_ptr().add(pos).cast());
        _mm512_storeu_si512(dst.add(64 * g).cast(), _mm512_maskz_expand_epi8(mask, v));
        pos += n as usize;
    }
    pos
}

/// Number of set bits in `bytes`.
fn set_bits(bytes: &[u8]) -> usize {
    let mut words = bytes.chunks_exact(8);
    let n: u32 = words
        .by_ref()
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")).count_ones())
        .sum();
    let rest: u32 = words.remainder().iter().map(|b| b.count_ones()).sum();
    (n + rest) as usize
}

/// Writes `8 * bitmap.len()` expanded bytes to `dst` and returns the `src`
/// bytes consumed and the last byte written (`prev` if none). Per bitmap
/// byte: load the next 8 source bytes (in repeat mode with the predecessor
/// in lane 8), shuffle them through the mode's table, store 8 bytes, and
/// advance by the popcount.
///
/// # Safety
///
/// AVX2 must be available, `dst` must be writable for `8 * bitmap.len()`
/// bytes, and `src` must hold at least as many bytes as `bitmap` has set
/// bits.
#[target_feature(enable = "avx2")]
unsafe fn expand_avx2_impl<const REPEAT: bool>(
    bitmap: &[u8],
    prev: u8,
    src: &[u8],
    dst: *mut u8,
) -> (usize, u8) {
    let table = if REPEAT {
        &EXPAND_REPEAT
    } else {
        &EXPAND_NONZERO
    };
    // Byte 0 of `carry` is the predecessor; it is built in registers, as a
    // stack-built source would stall on store forwarding every block.
    let mut carry = _mm_cvtsi32_si128(i32::from(prev));
    let mut pos = 0;
    for (b, &m) in bitmap.iter().enumerate() {
        let m = m as usize;
        let block = if src.len() - pos >= 8 {
            _mm_loadl_epi64(src.as_ptr().add(pos) as *const __m128i)
        } else {
            // The final short block: never load past the end of `src`.
            let mut last = [0u8; 8];
            last[..src.len() - pos].copy_from_slice(&src[pos..]);
            _mm_loadl_epi64(last.as_ptr() as *const __m128i)
        };
        let ctl = _mm_loadl_epi64(table.0[m].as_ptr() as *const __m128i);
        let block = if REPEAT {
            _mm_unpacklo_epi64(block, carry)
        } else {
            block
        };
        let bytes = _mm_shuffle_epi8(block, ctl);
        _mm_storel_epi64(dst.add(8 * b) as *mut __m128i, bytes);
        if REPEAT {
            carry = _mm_srli_si128(bytes, 7);
        }
        pos += POPCOUNT[m] as usize;
    }
    (pos, _mm_cvtsi128_si32(carry) as u8)
}

/// Length of the run of `data[start]` beginning at `start` (AVX2).
pub fn run_len_avx2(data: &[u8], start: usize) -> usize {
    assert!(have_avx2(), "AVX2 unavailable");
    unsafe { run_len_avx2_impl(data, start) }
}

#[target_feature(enable = "avx2")]
unsafe fn run_len_avx2_impl(data: &[u8], start: usize) -> usize {
    let b = data[start];
    let needle = _mm256_set1_epi8(b as i8);
    let mut i = start + 1;
    while i + 32 <= data.len() {
        let v = _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i);
        let ne = !(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, needle)) as u32);
        if ne != 0 {
            return i + ne.trailing_zeros() as usize - start;
        }
        i += 32;
    }
    while i < data.len() && data[i] == b {
        i += 1;
    }
    i - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avx2_transpose_is_involution() {
        if !have_avx2() {
            return;
        }
        let mut g = [0u32; 32];
        for (i, v) in g.iter_mut().enumerate() {
            *v = (i as u32).wrapping_mul(0x85EB_CA6B).rotate_left(i as u32);
        }
        let orig = g;
        transpose32_avx2(&mut g);
        assert_ne!(g, orig);
        transpose32_avx2(&mut g);
        assert_eq!(g, orig);
    }
}

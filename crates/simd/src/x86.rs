//! `core::arch::x86_64` kernel implementations: the AVX2 tier's kernels,
//! plus the two SSE2 DIFFMS prefix-sum decoders that also run at that tier
//! (SSE2 is part of the x86_64 baseline).
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
//! output is byte-identical to scalar for every slice length.

#![allow(clippy::missing_safety_doc)] // internal impls; safety = target_feature

use crate::diffms::{dec32, dec64, enc32, enc64};
use core::arch::x86_64::*;

#[inline]
fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

// ---------------------------------------------------------------- diffms --

/// DIFFMS encode (difference + zigzag) of a `u32` slice with AVX2.
///
/// Processes blocks right-to-left so in-place stores never clobber a
/// yet-to-be-read predecessor.
pub fn diffms_encode32_avx2(values: &mut [u32]) {
    assert!(have_avx2(), "AVX2 unavailable");
    unsafe { diffms_encode32_avx2_impl(values) }
}

#[target_feature(enable = "avx2")]
unsafe fn diffms_encode32_avx2_impl(values: &mut [u32]) {
    let n = values.len();
    let p = values.as_mut_ptr();
    let mut i = n;
    while i >= 9 {
        i -= 8;
        let cur = _mm256_loadu_si256(p.add(i) as *const __m256i);
        let prev = _mm256_loadu_si256(p.add(i - 1) as *const __m256i);
        let d = _mm256_sub_epi32(cur, prev);
        let e = _mm256_xor_si256(_mm256_slli_epi32(d, 1), _mm256_srai_epi32(d, 31));
        _mm256_storeu_si256(p.add(i) as *mut __m256i, e);
    }
    while i > 1 {
        i -= 1;
        values[i] = enc32(values[i].wrapping_sub(values[i - 1]));
    }
    if let Some(first) = values.first_mut() {
        *first = enc32(*first);
    }
}

/// DIFFMS decode (zigzag + prefix sum) of a `u32` slice with SSE2.
///
/// Wrapping addition is associative, so the vectorized prefix sum is
/// bit-identical to the sequential one.
pub fn diffms_decode32_sse2(values: &mut [u32]) {
    unsafe { diffms_decode32_sse2_impl(values) }
}

#[target_feature(enable = "sse2")]
unsafe fn diffms_decode32_sse2_impl(values: &mut [u32]) {
    let n = values.len();
    if n == 0 {
        return;
    }
    values[0] = dec32(values[0]);
    let p = values.as_mut_ptr();
    let zero = _mm_setzero_si128();
    let one = _mm_set1_epi32(1);
    let mut run = _mm_set1_epi32(values[0] as i32);
    let mut i = 1;
    while i + 4 <= n {
        let x = _mm_loadu_si128(p.add(i) as *const __m128i);
        let sign = _mm_sub_epi32(zero, _mm_and_si128(x, one));
        let d = _mm_xor_si128(_mm_srli_epi32(x, 1), sign);
        // Inclusive prefix sum across the 4 lanes, then add the running
        // total (broadcast in every lane of `run`).
        let d = _mm_add_epi32(d, _mm_slli_si128(d, 4));
        let d = _mm_add_epi32(d, _mm_slli_si128(d, 8));
        let s = _mm_add_epi32(d, run);
        _mm_storeu_si128(p.add(i) as *mut __m128i, s);
        run = _mm_shuffle_epi32(s, 0b1111_1111);
        i += 4;
    }
    let mut prev = _mm_cvtsi128_si32(run) as u32;
    for v in values.iter_mut().take(n).skip(i) {
        *v = dec32(*v).wrapping_add(prev);
        prev = *v;
    }
}

/// DIFFMS encode of a `u64` slice with AVX2.
pub fn diffms_encode64_avx2(values: &mut [u64]) {
    assert!(have_avx2(), "AVX2 unavailable");
    unsafe { diffms_encode64_avx2_impl(values) }
}

#[target_feature(enable = "avx2")]
unsafe fn diffms_encode64_avx2_impl(values: &mut [u64]) {
    let n = values.len();
    let p = values.as_mut_ptr();
    let zero = _mm256_setzero_si256();
    let mut i = n;
    while i >= 5 {
        i -= 4;
        let cur = _mm256_loadu_si256(p.add(i) as *const __m256i);
        let prev = _mm256_loadu_si256(p.add(i - 1) as *const __m256i);
        let d = _mm256_sub_epi64(cur, prev);
        let sign = _mm256_cmpgt_epi64(zero, d);
        let e = _mm256_xor_si256(_mm256_slli_epi64(d, 1), sign);
        _mm256_storeu_si256(p.add(i) as *mut __m256i, e);
    }
    while i > 1 {
        i -= 1;
        values[i] = enc64(values[i].wrapping_sub(values[i - 1]));
    }
    if let Some(first) = values.first_mut() {
        *first = enc64(*first);
    }
}

/// DIFFMS decode of a `u64` slice with SSE2 (2-lane prefix sum).
pub fn diffms_decode64_sse2(values: &mut [u64]) {
    unsafe { diffms_decode64_sse2_impl(values) }
}

#[target_feature(enable = "sse2")]
unsafe fn diffms_decode64_sse2_impl(values: &mut [u64]) {
    let n = values.len();
    if n == 0 {
        return;
    }
    values[0] = dec64(values[0]);
    let p = values.as_mut_ptr();
    let zero = _mm_setzero_si128();
    let one = _mm_set1_epi64x(1);
    let mut run = _mm_set1_epi64x(values[0] as i64);
    let mut i = 1;
    while i + 2 <= n {
        let x = _mm_loadu_si128(p.add(i) as *const __m128i);
        let sign = _mm_sub_epi64(zero, _mm_and_si128(x, one));
        let d = _mm_xor_si128(_mm_srli_epi64(x, 1), sign);
        let d = _mm_add_epi64(d, _mm_slli_si128(d, 8));
        let s = _mm_add_epi64(d, run);
        _mm_storeu_si128(p.add(i) as *mut __m128i, s);
        // Broadcast the high 64-bit lane as the next running total.
        run = _mm_shuffle_epi32(s, 0b1110_1110);
        i += 2;
    }
    let lanes: [u64; 2] = core::mem::transmute(run);
    let mut prev = lanes[0];
    for v in values.iter_mut().take(n).skip(i) {
        *v = dec64(*v).wrapping_add(prev);
        prev = *v;
    }
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

// -------------------------------------------------------------- bytescan --

/// Builds the nonzero bitmap of `data` and collects nonzero bytes (AVX2).
///
/// `bitmap` must be zeroed and at least `data.len().div_ceil(8)` long.
pub fn zero_bitmap_avx2(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    assert!(have_avx2(), "AVX2 unavailable");
    unsafe { zero_bitmap_avx2_impl(data, bitmap, kept) }
}

#[target_feature(enable = "avx2")]
unsafe fn zero_bitmap_avx2_impl(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    let zero = _mm256_setzero_si256();
    let mut i = 0;
    while i + 32 <= data.len() {
        let v = _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i);
        let eq0 = _mm256_cmpeq_epi8(v, zero);
        let nz = !(_mm256_movemask_epi8(eq0) as u32);
        bitmap[i / 8..i / 8 + 4].copy_from_slice(&nz.to_le_bytes());
        push_kept(&data[i..i + 32], nz, kept);
        i += 32;
    }
    crate::bytescan::zero_bitmap_tail(data, i, bitmap, kept);
}

/// Builds the differs-from-predecessor bitmap and collects differing bytes
/// (AVX2). Byte 0 compares against 0x00, as in the scalar reference.
pub fn repeat_bitmap_avx2(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    assert!(have_avx2(), "AVX2 unavailable");
    unsafe { repeat_bitmap_avx2_impl(data, bitmap, kept) }
}

#[target_feature(enable = "avx2")]
unsafe fn repeat_bitmap_avx2_impl(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    let mut prev = 0u8;
    let mut i = 0;
    while i + 32 <= data.len() {
        let v = _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i);
        // Shift the whole vector one byte toward high addresses, pulling the
        // low lane's top byte across the 128-bit boundary, then seed byte 0
        // with the carry byte from the previous block.
        let lo = _mm256_permute2x128_si256(v, v, 0x08);
        let shifted = _mm256_alignr_epi8(v, lo, 15);
        let carry = _mm256_zextsi128_si256(_mm_cvtsi32_si128(prev as i32));
        let shifted = _mm256_or_si256(shifted, carry);
        let eq = _mm256_cmpeq_epi8(v, shifted);
        let differs = !(_mm256_movemask_epi8(eq) as u32);
        bitmap[i / 8..i / 8 + 4].copy_from_slice(&differs.to_le_bytes());
        push_kept(&data[i..i + 32], differs, kept);
        prev = data[i + 31];
        i += 32;
    }
    crate::bytescan::repeat_bitmap_tail(data, i, prev, bitmap, kept);
}

/// Appends the bytes of `block` whose mask bit is set (bit k ⇔ byte k).
#[inline]
fn push_kept(block: &[u8], mask: u32, kept: &mut Vec<u8>) {
    if mask == 0 {
        return;
    }
    let full = if block.len() == 32 {
        u32::MAX
    } else {
        (1u32 << block.len()) - 1
    };
    if mask == full {
        kept.extend_from_slice(block);
        return;
    }
    let mut m = mask;
    while m != 0 {
        kept.push(block[m.trailing_zeros() as usize]);
        m &= m - 1;
    }
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

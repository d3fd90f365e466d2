//! Dispatched DIFFMS (difference + zigzag) slice kernels.
//!
//! Encode subtracts each word from its successor (modulo word size) and
//! zigzags the result; it runs right-to-left so the subtraction can be done
//! in place. The AVX2 kernels load overlapping `cur`/`prev` blocks and
//! process whole blocks right-to-left, which touches exactly the same
//! values in a compatible order (a block's stores never overlap a later
//! block's loads).
//!
//! The `_le` encoders fuse the little-endian load into the pass: they read
//! words from a byte slice into a separate destination, carrying the
//! preceding word in `prev`, so a caller can encode a chunk one block at a
//! time without first copying it into a word buffer. Source and destination
//! never alias, so these run left-to-right.
//!
//! Decode is a zigzag decode followed by an inclusive prefix sum. Wrapping
//! addition is associative, so the SSE2 log-step prefix sum is bit-identical
//! to the sequential loop; it runs at the x86 tier. The `_le` decoders fuse
//! the little-endian store into the pass the same way: they read the
//! encoded words of one block, add them onto the carried `prev` and write
//! the sums straight into a byte slice. A SWAR prefix sum would
//! need carries to cross the packed lanes, so decode has no SWAR form and
//! non-x86 hosts run the scalar loops.

use crate::Tier;

/// Converts a 32-bit word from two's complement to magnitude-sign.
#[inline]
pub(crate) fn enc32(v: u32) -> u32 {
    (v << 1) ^ (((v as i32) >> 31) as u32)
}

/// Inverts [`enc32`].
#[inline]
pub(crate) fn dec32(v: u32) -> u32 {
    (v >> 1) ^ (v & 1).wrapping_neg()
}

/// Converts a 64-bit word from two's complement to magnitude-sign.
#[inline]
pub(crate) fn enc64(v: u64) -> u64 {
    (v << 1) ^ (((v as i64) >> 63) as u64)
}

/// Inverts [`enc64`].
#[inline]
pub(crate) fn dec64(v: u64) -> u64 {
    (v >> 1) ^ (v & 1).wrapping_neg()
}

/// Tier used by the 32-bit encode kernel under the current dispatch.
pub fn chosen_encode32() -> Tier {
    crate::choose(&[Tier::Avx2])
}

/// Tier used by the 32-bit decode kernel (the SSE2 prefix sum).
pub fn chosen_decode32() -> Tier {
    crate::choose(&[Tier::Avx2])
}

/// Tier used by the 64-bit encode kernel.
pub fn chosen_encode64() -> Tier {
    crate::choose(&[Tier::Avx2])
}

/// Tier used by the 64-bit decode kernel (the SSE2 prefix sum).
pub fn chosen_decode64() -> Tier {
    crate::choose(&[Tier::Avx2])
}

/// Scalar reference (run under `FPC_FORCE_SCALAR=1`).
///
/// # Panics
///
/// Panics if `src` holds fewer than `dst.len()` words.
pub fn encode32_le_scalar(mut prev: u32, src: &[u8], dst: &mut [u32]) -> u32 {
    let src = &src[..dst.len() * 4];
    for (d, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
        let cur = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        *d = enc32(cur.wrapping_sub(prev));
        prev = cur;
    }
    prev
}

/// Scalar reference (run under `FPC_FORCE_SCALAR=1`).
///
/// # Panics
///
/// Panics if `src` holds fewer than `dst.len()` words.
pub fn encode64_le_scalar(mut prev: u64, src: &[u8], dst: &mut [u64]) -> u64 {
    let src = &src[..dst.len() * 8];
    for (d, c) in dst.iter_mut().zip(src.chunks_exact(8)) {
        let cur = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        *d = enc64(cur.wrapping_sub(prev));
        prev = cur;
    }
    prev
}

/// Scalar reference (run under `FPC_FORCE_SCALAR=1`).
///
/// # Panics
///
/// Panics if `dst` holds fewer than `src.len()` words.
pub fn decode32_le_scalar(mut prev: u32, src: &[u32], dst: &mut [u8]) -> u32 {
    let dst = &mut dst[..src.len() * 4];
    for (d, &x) in dst.chunks_exact_mut(4).zip(src) {
        prev = dec32(x).wrapping_add(prev);
        d.copy_from_slice(&prev.to_le_bytes());
    }
    prev
}

/// Scalar reference (run under `FPC_FORCE_SCALAR=1`).
///
/// # Panics
///
/// Panics if `dst` holds fewer than `src.len()` words.
pub fn decode64_le_scalar(mut prev: u64, src: &[u64], dst: &mut [u8]) -> u64 {
    let dst = &mut dst[..src.len() * 8];
    for (d, &x) in dst.chunks_exact_mut(8).zip(src) {
        prev = dec64(x).wrapping_add(prev);
        d.copy_from_slice(&prev.to_le_bytes());
    }
    prev
}

/// Scalar reference (run under `FPC_FORCE_SCALAR=1`).
pub fn encode32_scalar(values: &mut [u32]) {
    for i in (1..values.len()).rev() {
        values[i] = enc32(values[i].wrapping_sub(values[i - 1]));
    }
    if let Some(first) = values.first_mut() {
        *first = enc32(*first);
    }
}

/// Scalar reference (run under `FPC_FORCE_SCALAR=1`).
pub fn decode32_scalar(values: &mut [u32]) {
    if let Some(first) = values.first_mut() {
        *first = dec32(*first);
    }
    for i in 1..values.len() {
        values[i] = dec32(values[i]).wrapping_add(values[i - 1]);
    }
}

/// Scalar reference (run under `FPC_FORCE_SCALAR=1`).
pub fn encode64_scalar(values: &mut [u64]) {
    for i in (1..values.len()).rev() {
        values[i] = enc64(values[i].wrapping_sub(values[i - 1]));
    }
    if let Some(first) = values.first_mut() {
        *first = enc64(*first);
    }
}

/// Scalar reference (run under `FPC_FORCE_SCALAR=1`).
pub fn decode64_scalar(values: &mut [u64]) {
    if let Some(first) = values.first_mut() {
        *first = dec64(*first);
    }
    for i in 1..values.len() {
        values[i] = dec64(values[i]).wrapping_add(values[i - 1]);
    }
}

/// Dispatched in-place DIFFMS encode of a `u32` slice.
pub fn encode32(values: &mut [u32]) {
    let tier = chosen_encode32();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::diffms_encode32_avx2(values),
        _ => encode32_scalar(values),
    }
}

/// Dispatched fused load + DIFFMS encode: reads `dst.len()` little-endian
/// words from the front of `src`, differences each against its predecessor
/// (`prev` for the first) and stores the zigzagged results in `dst`.
///
/// Returns the last word read (`prev` if `dst` is empty), which is the
/// `prev` of the next block of the same sequence. Encoding a sequence block
/// by block from `prev = 0` gives exactly what [`encode32`] gives on the
/// whole sequence.
///
/// # Panics
///
/// Panics if `src` holds fewer than `dst.len()` words.
pub fn encode32_le(prev: u32, src: &[u8], dst: &mut [u32]) -> u32 {
    let tier = chosen_encode32();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::diffms_encode32_le_avx2(prev, src, dst),
        _ => encode32_le_scalar(prev, src, dst),
    }
}

/// Dispatched in-place DIFFMS decode of a `u32` slice.
pub fn decode32(values: &mut [u32]) {
    let tier = chosen_decode32();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::diffms_decode32_sse2(values),
        _ => decode32_scalar(values),
    }
}

/// Dispatched fused DIFFMS decode + little-endian store: zigzag-decodes
/// the `src.len()` words of `src`, adds each onto the running sum (which
/// starts at `prev`) and writes the sums as little-endian words to the
/// front of `dst`.
///
/// Returns the last sum (`prev` if `src` is empty), which is the `prev` of
/// the next block of the same sequence. Decoding a sequence block by block
/// from `prev = 0` writes exactly the bytes of [`decode32`] on the whole
/// sequence.
///
/// # Panics
///
/// Panics if `dst` holds fewer than `src.len()` words.
pub fn decode32_le(prev: u32, src: &[u32], dst: &mut [u8]) -> u32 {
    let tier = chosen_decode32();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::diffms_decode32_le_sse2(prev, src, dst),
        _ => decode32_le_scalar(prev, src, dst),
    }
}

/// Dispatched in-place DIFFMS encode of a `u64` slice.
pub fn encode64(values: &mut [u64]) {
    let tier = chosen_encode64();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::diffms_encode64_avx2(values),
        _ => encode64_scalar(values),
    }
}

/// The 64-bit twin of [`encode32_le`].
///
/// # Panics
///
/// Panics if `src` holds fewer than `dst.len()` words.
pub fn encode64_le(prev: u64, src: &[u8], dst: &mut [u64]) -> u64 {
    let tier = chosen_encode64();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::diffms_encode64_le_avx2(prev, src, dst),
        _ => encode64_le_scalar(prev, src, dst),
    }
}

/// Dispatched in-place DIFFMS decode of a `u64` slice.
pub fn decode64(values: &mut [u64]) {
    let tier = chosen_decode64();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::diffms_decode64_sse2(values),
        _ => decode64_scalar(values),
    }
}

/// The 64-bit twin of [`decode32_le`].
///
/// # Panics
///
/// Panics if `dst` holds fewer than `src.len()` words.
pub fn decode64_le(prev: u64, src: &[u64], dst: &mut [u8]) -> u64 {
    let tier = chosen_decode64();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::diffms_decode64_le_sse2(prev, src, dst),
        _ => decode64_le_scalar(prev, src, dst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample32(n: usize) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(0x0101_0101).rotate_left(i % 13))
            .chain([u32::MAX, 0, u32::MAX, 5, 0x8000_0000])
            .collect()
    }

    #[test]
    fn dispatched_matches_scalar_all_lengths() {
        for n in 0..40 {
            let orig = sample32(n);
            let mut a = orig.clone();
            let mut b = orig.clone();
            encode32(&mut a);
            encode32_scalar(&mut b);
            assert_eq!(a, b, "len {n}");
            decode32(&mut a);
            assert_eq!(a, orig, "roundtrip len {n}");
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn x86_matches_scalar() {
        use crate::x86;
        for n in [0usize, 1, 2, 3, 5, 8, 9, 16, 17, 33, 100] {
            let orig = sample32(n);
            let mut want = orig.clone();
            encode32_scalar(&mut want);
            if Tier::Avx2.available() {
                let mut got = orig.clone();
                x86::diffms_encode32_avx2(&mut got);
                assert_eq!(got, want, "avx2 enc32 len {n}");
            }
            let mut dec = want.clone();
            x86::diffms_decode32_sse2(&mut dec);
            assert_eq!(dec, orig, "sse2 dec32 len {n}");

            let orig64: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .chain([u64::MAX, 0, 1 << 63, 3])
                .collect();
            let mut want = orig64.clone();
            encode64_scalar(&mut want);
            if Tier::Avx2.available() {
                let mut got = orig64.clone();
                x86::diffms_encode64_avx2(&mut got);
                assert_eq!(got, want, "avx2 enc64 len {n}");
            }
            let mut dec = want.clone();
            x86::diffms_decode64_sse2(&mut dec);
            assert_eq!(dec, orig64, "sse2 dec64 len {n}");
        }
    }
}

//! DIFFMS: difference coding with magnitude-sign representation.
//!
//! The first stage of SPspeed/DPspeed/SPratio and the second stage of
//! DPratio (paper §3.1, Figure 2). Each value is replaced by its difference
//! (modulo 2³² or 2⁶⁴) from the preceding value in the chunk — the first
//! element uses an implicit preceding value of 0 — and the difference is
//! stored in magnitude-sign (zigzag) format so that both small positive and
//! small negative differences have many leading zero bits.
//!
//! The codecs run the fused kernels of `fpc_simd::diffms`, which this
//! module times: [`encode32_le`]/[`encode64_le`] fuse the little-endian
//! load into the encode, so chunk codecs read their words straight from
//! the chunk bytes, one block at a time; [`decode32_le`]/[`decode64_le`]
//! fuse the store into the decode, so they write straight into the output
//! chunk. The in-place [`encode32`]/[`decode32`]/[`encode64`]/[`decode64`]
//! are the plain scalar definition of the transform over a word slice: the
//! reference the fused kernels are tested against, not a production path.

use crate::zigzag;
use fpc_metrics::Stage;

/// Applies DIFFMS in place to a chunk of 32-bit words: the scalar
/// definition, one word at a time.
pub fn encode32(values: &mut [u32]) {
    let mut prev = 0;
    for v in values {
        let cur = *v;
        *v = zigzag::encode32(cur.wrapping_sub(prev));
        prev = cur;
    }
}

/// Fused load + DIFFMS encode: `dst.len()` little-endian words read from
/// the front of `src`, differenced against their predecessors (`prev` for
/// the first) and zigzagged into `dst`. Returns the last word read, the
/// `prev` of the next block (see `fpc_simd::diffms::encode32_le`).
///
/// # Panics
///
/// Panics if `src` holds fewer than `dst.len()` words.
pub fn encode32_le(prev: u32, src: &[u8], dst: &mut [u32]) -> u32 {
    let t = fpc_metrics::timer(Stage::DiffmsEncode);
    let last = fpc_simd::diffms::encode32_le(prev, src, dst);
    t.finish(dst.len() as u64 * 4);
    last
}

/// Inverts [`encode32`] in place.
pub fn decode32(values: &mut [u32]) {
    let mut prev = 0;
    for v in values {
        prev = zigzag::decode32(*v).wrapping_add(prev);
        *v = prev;
    }
}

/// Fused DIFFMS decode + little-endian store: the `src.len()` words of
/// `src` decoded onto the running sum `prev` and written to the front of
/// `dst`. Returns the last sum, the `prev` of the next block (see
/// `fpc_simd::diffms::decode32_le`).
///
/// # Panics
///
/// Panics if `dst` holds fewer than `src.len()` words.
pub fn decode32_le(prev: u32, src: &[u32], dst: &mut [u8]) -> u32 {
    let t = fpc_metrics::timer(Stage::DiffmsDecode);
    let last = fpc_simd::diffms::decode32_le(prev, src, dst);
    t.finish(src.len() as u64 * 4);
    last
}

/// The 64-bit twin of [`encode32`].
pub fn encode64(values: &mut [u64]) {
    let mut prev = 0;
    for v in values {
        let cur = *v;
        *v = zigzag::encode64(cur.wrapping_sub(prev));
        prev = cur;
    }
}

/// The 64-bit twin of [`encode32_le`].
///
/// # Panics
///
/// Panics if `src` holds fewer than `dst.len()` words.
pub fn encode64_le(prev: u64, src: &[u8], dst: &mut [u64]) -> u64 {
    let t = fpc_metrics::timer(Stage::DiffmsEncode);
    let last = fpc_simd::diffms::encode64_le(prev, src, dst);
    t.finish(dst.len() as u64 * 8);
    last
}

/// Inverts [`encode64`] in place.
pub fn decode64(values: &mut [u64]) {
    let mut prev = 0;
    for v in values {
        prev = zigzag::decode64(*v).wrapping_add(prev);
        *v = prev;
    }
}

/// The 64-bit twin of [`decode32_le`].
///
/// # Panics
///
/// Panics if `dst` holds fewer than `src.len()` words.
pub fn decode64_le(prev: u64, src: &[u64], dst: &mut [u8]) -> u64 {
    let t = fpc_metrics::timer(Stage::DiffmsDecode);
    let last = fpc_simd::diffms::decode64_le(prev, src, dst);
    t.finish(src.len() as u64 * 8);
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single() {
        let mut v: Vec<u32> = vec![];
        encode32(&mut v);
        decode32(&mut v);
        assert!(v.is_empty());

        let mut v = vec![0xDEAD_BEEFu32];
        encode32(&mut v);
        decode32(&mut v);
        assert_eq!(v, vec![0xDEAD_BEEF]);
    }

    #[test]
    fn roundtrip32() {
        let orig: Vec<u32> = (0..4096u32)
            .map(|i| i.wrapping_mul(0x0101_0101).rotate_left(7))
            .collect();
        let mut v = orig.clone();
        encode32(&mut v);
        assert_ne!(v, orig);
        decode32(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn roundtrip64() {
        let orig: Vec<u64> = (0..2048u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut v = orig.clone();
        encode64(&mut v);
        decode64(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn smooth_data_gains_leading_zeros() {
        // Nearby floats: differences are small, so after DIFFMS most words
        // should have many leading zeros (the whole point of the stage).
        let floats: Vec<f32> = (0..1024).map(|i| 1.0 + i as f32 * 1e-6).collect();
        let mut words: Vec<u32> = floats.iter().map(|f| f.to_bits()).collect();
        encode32(&mut words);
        let avg_lz: u32 =
            words[1..].iter().map(|w| w.leading_zeros()).sum::<u32>() / (words.len() as u32 - 1);
        assert!(avg_lz >= 16, "average leading zeros only {avg_lz}");
    }

    #[test]
    fn negative_differences_still_small() {
        // Strictly decreasing sequence: all diffs negative.
        let mut v: Vec<u32> = (0..100u32).map(|i| 1_000_000 - i * 3).collect();
        let orig = v.clone();
        encode32(&mut v);
        for &w in &v[1..] {
            assert!(w <= 6, "magnitude-sign of -3 should be tiny, got {w}");
        }
        decode32(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn wrapping_differences() {
        let orig = vec![u32::MAX, 0, u32::MAX, 5, u32::MAX - 5];
        let mut v = orig.clone();
        encode32(&mut v);
        decode32(&mut v);
        assert_eq!(v, orig);

        let orig64 = vec![u64::MAX, 0, 1 << 63, 3];
        let mut v = orig64.clone();
        encode64(&mut v);
        decode64(&mut v);
        assert_eq!(v, orig64);
    }

    #[test]
    fn first_element_uses_zero_predecessor() {
        let mut v = vec![7u32];
        encode32(&mut v);
        assert_eq!(v[0], crate::zigzag::encode32(7));
    }
}

//! Fixed-width bit packing of integer slices.
//!
//! This is the workhorse of the MPLG stage (leading-zero elimination packs
//! every value of a subchunk at one common width) and of the Cascaded- and
//! Bitcomp-class baselines.
//!
//! The `BitWriter`/`BitReader` loops are the scalar reference (selected by
//! `FPC_FORCE_SCALAR=1`); normal dispatch runs the byte-identical
//! width-specialized block kernels in `fpc_simd::bitpack` (same LSB-first
//! layout, same EOF condition).

use crate::bitio::{BitReader, BitWriter};
use crate::{DecodeError, Result};

/// Packs each `u32` at `width` bits (0..=32), appending to `out`.
///
/// Each value is masked to its low `width` bits before writing. Values that
/// exceed the width therefore lose their high bits (the roundtrip returns
/// `v & mask`) but can never corrupt neighbouring values: without the mask,
/// excess bits would bleed into the writer's accumulator and scramble the
/// rest of the stream in release builds, where the old debug-only guard
/// vanished. With `width == 0` nothing is written (all values must be zero
/// for the packing to be reversible).
///
/// # Panics
///
/// Panics if `width > 32` — an out-of-range width is a caller bug in every
/// build, not just debug.
pub fn pack_u32(values: &[u32], width: u32, out: &mut Vec<u8>) {
    assert!(width <= 32, "pack width {width} exceeds 32");
    if width == 0 {
        return;
    }
    if !fpc_simd::force_scalar() {
        return fpc_simd::bitpack::pack_u32(values, width, out);
    }
    let mask = if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    };
    out.reserve((values.len() * width as usize).div_ceil(8));
    let mut w = BitWriter::append_to(std::mem::take(out));
    for &v in values {
        w.write_bits(u64::from(v & mask), width);
    }
    *out = w.finish();
}

/// Unpacks `count` values of `width` bits from `data`, appending to `out`.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEof`], leaving `out` untouched, if
/// `data` holds fewer than `count * width` bits.
pub fn unpack_u32(data: &[u8], width: u32, count: usize, out: &mut Vec<u32>) -> Result<()> {
    check_len(data, width, count)?;
    let start = out.len();
    out.resize(start + count, 0);
    unpack_u32_into(data, width, &mut out[start..])
}

/// Unpacks `out.len()` values of `width` bits from the front of `data`
/// into `out`.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEof`] if `data` holds fewer than
/// `out.len() * width` bits.
pub fn unpack_u32_into(data: &[u8], width: u32, out: &mut [u32]) -> Result<()> {
    debug_assert!(width <= 32);
    if width == 0 {
        out.fill(0);
        return Ok(());
    }
    if !fpc_simd::force_scalar() {
        return fpc_simd::bitpack::unpack_u32_into(data, width, out)
            .then_some(())
            .ok_or(DecodeError::UnexpectedEof);
    }
    let mut r = BitReader::new(data);
    for v in out {
        *v = r.read_bits(width).ok_or(DecodeError::UnexpectedEof)? as u32;
    }
    Ok(())
}

/// Packs each `u64` at `width` bits (0..=64), appending to `out`.
///
/// As with [`pack_u32`], each value is masked to `width` bits first, so an
/// oversized value degrades to `v & mask` instead of corrupting the stream.
///
/// # Panics
///
/// Panics if `width > 64`.
pub fn pack_u64(values: &[u64], width: u32, out: &mut Vec<u8>) {
    assert!(width <= 64, "pack width {width} exceeds 64");
    if width == 0 {
        return;
    }
    if !fpc_simd::force_scalar() {
        return fpc_simd::bitpack::pack_u64(values, width, out);
    }
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    out.reserve((values.len() * width as usize).div_ceil(8));
    let mut w = BitWriter::append_to(std::mem::take(out));
    for &v in values {
        w.write_bits(v & mask, width);
    }
    *out = w.finish();
}

/// Unpacks `count` values of `width` bits from `data`, appending to `out`.
///
/// # Errors
///
/// As [`unpack_u32`].
pub fn unpack_u64(data: &[u8], width: u32, count: usize, out: &mut Vec<u64>) -> Result<()> {
    check_len(data, width, count)?;
    let start = out.len();
    out.resize(start + count, 0);
    unpack_u64_into(data, width, &mut out[start..])
}

/// Unpacks `out.len()` values of `width` bits from the front of `data`
/// into `out`.
///
/// # Errors
///
/// As [`unpack_u32_into`].
pub fn unpack_u64_into(data: &[u8], width: u32, out: &mut [u64]) -> Result<()> {
    debug_assert!(width <= 64);
    if width == 0 {
        out.fill(0);
        return Ok(());
    }
    if !fpc_simd::force_scalar() {
        return fpc_simd::bitpack::unpack_u64_into(data, width, out)
            .then_some(())
            .ok_or(DecodeError::UnexpectedEof);
    }
    let mut r = BitReader::new(data);
    for v in out {
        *v = r.read_bits(width).ok_or(DecodeError::UnexpectedEof)?;
    }
    Ok(())
}

/// The EOF condition of every unpack, checked before the appending forms
/// grow their output: `data` must hold `count * width` bits.
fn check_len(data: &[u8], width: u32, count: usize) -> Result<()> {
    if count as u128 * u128::from(width) > data.len() as u128 * 8 {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(())
}

/// Number of bytes `count` values occupy at `width` bits, rounded up.
#[inline]
pub fn packed_len(count: usize, width: u32) -> usize {
    (count * width as usize).div_ceil(8)
}

/// Smallest width that can represent every value in `values` (0 for all-zero).
///
/// The OR of the values has the same leading-zero count as their maximum,
/// and unlike the maximum it vectorizes at every element width.
#[inline]
pub fn min_width_u32(values: &[u32]) -> u32 {
    32 - values.iter().fold(0, |acc, &v| acc | v).leading_zeros()
}

/// Smallest width that can represent every value in `values` (0 for all-zero).
#[inline]
pub fn min_width_u64(values: &[u64]) -> u32 {
    64 - values.iter().fold(0, |acc, &v| acc | v).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_u32_all_widths() {
        for width in 0..=32u32 {
            let mask = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let values: Vec<u32> = (0..100u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9) & mask)
                .collect();
            let mut packed = Vec::new();
            pack_u32(&values, width, &mut packed);
            assert_eq!(packed.len(), packed_len(values.len(), width));
            let mut out = Vec::new();
            unpack_u32(&packed, width, values.len(), &mut out).unwrap();
            assert_eq!(out, values, "width {width}");
        }
    }

    #[test]
    fn pack_unpack_u64_all_widths() {
        for width in 0..=64u32 {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..77u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            let mut packed = Vec::new();
            pack_u64(&values, width, &mut packed);
            let mut out = Vec::new();
            unpack_u64(&packed, width, values.len(), &mut out).unwrap();
            assert_eq!(out, values, "width {width}");
        }
    }

    #[test]
    fn truncated_unpack_errors() {
        let values = vec![u32::MAX; 16];
        let mut packed = Vec::new();
        pack_u32(&values, 32, &mut packed);
        let mut out = Vec::new();
        assert_eq!(
            unpack_u32(&packed[..packed.len() - 1], 32, 16, &mut out),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn min_width_matches_values() {
        assert_eq!(min_width_u32(&[]), 0);
        assert_eq!(min_width_u32(&[0, 0]), 0);
        assert_eq!(min_width_u32(&[1]), 1);
        assert_eq!(min_width_u32(&[0xFF, 3]), 8);
        assert_eq!(min_width_u32(&[u32::MAX]), 32);
        assert_eq!(min_width_u64(&[u64::MAX]), 64);
        assert_eq!(min_width_u64(&[1 << 40]), 41);
    }

    #[test]
    fn oversized_values_are_masked_not_corrupting() {
        // Regression: values wider than `width` used to be guarded only by a
        // debug_assert!. In release builds the excess bits flowed into the
        // BitWriter accumulator and corrupted every subsequent value. The
        // pack loops now mask, so this test passes identically in debug and
        // release builds.
        let values: Vec<u32> = vec![0xFFFF_FFFF, 0x5, 0x1234_5678, 0x7];
        let width = 4u32;
        let mut packed = Vec::new();
        pack_u32(&values, width, &mut packed);
        let mut out = Vec::new();
        unpack_u32(&packed, width, values.len(), &mut out).unwrap();
        // Oversized values decode to their masked low bits…
        assert_eq!(out, vec![0xF, 0x5, 0x8, 0x7]);
        // …and in particular the in-range neighbours survive untouched.
        assert_eq!(out[1], values[1]);
        assert_eq!(out[3], values[3]);

        let values64: Vec<u64> = vec![u64::MAX, 0x3, 1 << 63, 0x9];
        let mut packed = Vec::new();
        pack_u64(&values64, 12, &mut packed);
        let mut out = Vec::new();
        unpack_u64(&packed, 12, values64.len(), &mut out).unwrap();
        assert_eq!(out, vec![0xFFF, 0x3, 0, 0x9]);
    }

    #[test]
    #[should_panic(expected = "exceeds 32")]
    fn out_of_range_width_panics() {
        pack_u32(&[1], 33, &mut Vec::new());
    }

    #[test]
    fn zero_width_roundtrip() {
        let values = vec![0u64; 9];
        let mut packed = Vec::new();
        pack_u64(&values, 0, &mut packed);
        assert!(packed.is_empty());
        let mut out = Vec::new();
        unpack_u64(&packed, 0, 9, &mut out).unwrap();
        assert_eq!(out, values);
    }
}

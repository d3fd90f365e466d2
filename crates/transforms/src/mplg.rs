//! Enhanced MPLG: per-subchunk elimination of common leading zero bits.
//!
//! The final stage of SPspeed/DPspeed (paper §3.1, Figure 3). Each 512-byte
//! subchunk finds its maximum value, counts the maximum's leading zero bits,
//! and stores every value of the subchunk at the resulting common bit width.
//! The paper's *enhancement*: when the maximum has no leading zeros (MPLG
//! would be ineffective), one extra two's-complement → magnitude-sign
//! conversion is applied to the subchunk — a cheap reversible shuffle that
//! often manufactures a few leading zeros — and a flag bit records this.
//!
//! Wire format per subchunk: one header byte (bit 7 = conversion flag,
//! bits 0–6 = kept bit width) followed by the bit-packed values.

use crate::{zigzag, DecodeError, Result, SUBCHUNK_SIZE};
use fpc_entropy::bitpack;
use fpc_metrics::Stage;

/// Values per subchunk for the 32-bit variant.
pub const SUBCHUNK_VALUES_32: usize = SUBCHUNK_SIZE / 4;
/// Values per subchunk for the 64-bit variant.
pub const SUBCHUNK_VALUES_64: usize = SUBCHUNK_SIZE / 8;

const FLAG_CONVERTED: u8 = 0x80;
const WIDTH_MASK: u8 = 0x7F;

/// Encodes a chunk's worth of 32-bit words, appending to `out`.
pub fn encode32(values: &[u32], out: &mut Vec<u8>) {
    encode32_with(values, out, true);
}

/// [`encode32`] with the zigzag-fallback enhancement toggleable (the
/// ablation study compares plain MPLG against the enhanced version; the
/// decoder is unaffected because the fallback is flag-driven).
pub fn encode32_with(values: &[u32], out: &mut Vec<u8>, fallback: bool) {
    let t = fpc_metrics::timer(Stage::MplgEncode);
    for sub in values.chunks(SUBCHUNK_VALUES_32) {
        encode_subchunk32(sub, out, fallback);
    }
    t.finish(values.len() as u64 * 4);
}

/// DIFFMS then MPLG over the little-endian 32-bit words of `bytes`
/// (bytes past the last whole word are ignored), fused: each subchunk's
/// words are loaded and DIFFMS-encoded straight from the bytes into a
/// stack buffer and packed from there. The output is what
/// `diffms::encode32` followed by [`encode32_with`] gives on the
/// same words, and no chunk-sized word buffer exists.
///
/// The pass records under `MPLG.encode` once per call: DIFFMS runs inside
/// it, and a clock read per subchunk would cost as much as the subchunk.
pub fn encode32_le(bytes: &[u8], out: &mut Vec<u8>, fallback: bool) {
    let t = fpc_metrics::timer(Stage::MplgEncode);
    let head = &bytes[..bytes.len() / 4 * 4];
    let mut buf = [0u32; SUBCHUNK_VALUES_32];
    let mut prev = 0;
    for sub in head.chunks(SUBCHUNK_VALUES_32 * 4) {
        let words = &mut buf[..sub.len() / 4];
        prev = fpc_simd::diffms::encode32_le(prev, sub, words);
        encode_subchunk32(words, out, fallback);
    }
    t.finish(head.len() as u64);
}

/// Encodes one subchunk: its header byte, then its packed values.
fn encode_subchunk32(sub: &[u32], out: &mut Vec<u8>, fallback: bool) {
    let width = bitpack::min_width_u32(sub);
    if width == 32 && fallback {
        // Rare: only subchunks whose maximum has no leading zeros pay for
        // (and zero) the copy.
        let mut buf = [0u32; SUBCHUNK_VALUES_32];
        let b = &mut buf[..sub.len()];
        b.copy_from_slice(sub);
        zigzag::encode32_slice(b);
        let w2 = bitpack::min_width_u32(b);
        if w2 < 32 {
            out.push(FLAG_CONVERTED | w2 as u8);
            bitpack::pack_u32(b, w2, out);
            return;
        }
    }
    out.push(width as u8);
    bitpack::pack_u32(sub, width, out);
}

/// Decodes `count` 32-bit words from `data` starting at `*pos`.
///
/// # Errors
///
/// Fails on truncated input or a header declaring a width above 32 bits.
pub fn decode32(data: &[u8], pos: &mut usize, count: usize, out: &mut Vec<u32>) -> Result<()> {
    let t = fpc_metrics::timer(Stage::MplgDecode);
    let mut remaining = count;
    while remaining > 0 {
        let n = remaining.min(SUBCHUNK_VALUES_32);
        let (converted, width, packed) = subchunk(data, pos, n, 32)?;
        let start = out.len();
        bitpack::unpack_u32(packed, width, n, out)?;
        if converted {
            zigzag::decode32_slice(&mut out[start..]);
        }
        remaining -= n;
    }
    t.finish(count as u64 * 4);
    Ok(())
}

/// MPLG then DIFFMS decode into the little-endian 32-bit words of `dst`
/// (bytes past the last whole word are left alone), fused: each
/// subchunk is unpacked into a stack buffer, its conversion undone, and its
/// words prefix-summed onto the carried predecessor and stored straight
/// into `dst`. The bytes are what [`decode32`] followed by
/// `diffms::decode32` and `words::u32_to_bytes` give, the errors are
/// [`decode32`]'s, and no chunk-sized word buffer exists.
///
/// The pass records under `MPLG.decode` once per call, as [`encode32_le`]
/// does.
///
/// # Errors
///
/// As [`decode32`]; on error `dst` holds unspecified bytes.
pub fn decode32_le(data: &[u8], pos: &mut usize, dst: &mut [u8]) -> Result<()> {
    let t = fpc_metrics::timer(Stage::MplgDecode);
    let head = dst.len() / 4 * 4;
    let mut buf = [0u32; SUBCHUNK_VALUES_32];
    let mut prev = 0;
    for out in dst[..head].chunks_mut(SUBCHUNK_VALUES_32 * 4) {
        let words = &mut buf[..out.len() / 4];
        let (converted, width, packed) = subchunk(data, pos, words.len(), 32)?;
        bitpack::unpack_u32_into(packed, width, words)?;
        if converted {
            zigzag::decode32_slice(words);
        }
        prev = fpc_simd::diffms::decode32_le(prev, words, out);
    }
    t.finish(head as u64);
    Ok(())
}

/// Reads the header of the next subchunk, of `n` values at most `max_width`
/// bits wide, and returns its conversion flag, its width and its packed
/// bytes, advancing `*pos` past them.
fn subchunk<'a>(
    data: &'a [u8],
    pos: &mut usize,
    n: usize,
    max_width: u32,
) -> Result<(bool, u32, &'a [u8])> {
    let header = *data.get(*pos).ok_or(DecodeError::UnexpectedEof)?;
    *pos += 1;
    let width = u32::from(header & WIDTH_MASK);
    if width > max_width {
        return Err(DecodeError::Corrupt(if max_width == 32 {
            "mplg width exceeds 32 bits"
        } else {
            "mplg width exceeds 64 bits"
        }));
    }
    let end = pos
        .checked_add(bitpack::packed_len(n, width))
        .ok_or(DecodeError::Corrupt("mplg length overflow"))?;
    let packed = data.get(*pos..end).ok_or(DecodeError::UnexpectedEof)?;
    *pos = end;
    Ok((header & FLAG_CONVERTED != 0, width, packed))
}

/// Encodes a chunk's worth of 64-bit words, appending to `out`.
pub fn encode64(values: &[u64], out: &mut Vec<u8>) {
    encode64_with(values, out, true);
}

/// [`encode64`] with the zigzag-fallback enhancement toggleable.
pub fn encode64_with(values: &[u64], out: &mut Vec<u8>, fallback: bool) {
    let t = fpc_metrics::timer(Stage::MplgEncode);
    for sub in values.chunks(SUBCHUNK_VALUES_64) {
        encode_subchunk64(sub, out, fallback);
    }
    t.finish(values.len() as u64 * 8);
}

/// DIFFMS then MPLG over the little-endian 64-bit words of `bytes`
/// (bytes past the last whole word are ignored), fused: each subchunk's
/// words are loaded and DIFFMS-encoded straight from the bytes into a
/// stack buffer and packed from there. The output is what
/// `diffms::encode64` followed by [`encode64_with`] gives on the
/// same words, and no chunk-sized word buffer exists.
///
/// The pass records under `MPLG.encode` once per call: DIFFMS runs inside
/// it, and a clock read per subchunk would cost as much as the subchunk.
pub fn encode64_le(bytes: &[u8], out: &mut Vec<u8>, fallback: bool) {
    let t = fpc_metrics::timer(Stage::MplgEncode);
    let head = &bytes[..bytes.len() / 8 * 8];
    let mut buf = [0u64; SUBCHUNK_VALUES_64];
    let mut prev = 0;
    for sub in head.chunks(SUBCHUNK_VALUES_64 * 8) {
        let words = &mut buf[..sub.len() / 8];
        prev = fpc_simd::diffms::encode64_le(prev, sub, words);
        encode_subchunk64(words, out, fallback);
    }
    t.finish(head.len() as u64);
}

/// Encodes one subchunk: its header byte, then its packed values.
fn encode_subchunk64(sub: &[u64], out: &mut Vec<u8>, fallback: bool) {
    let width = bitpack::min_width_u64(sub);
    if width == 64 && fallback {
        // Rare: only subchunks whose maximum has no leading zeros pay for
        // (and zero) the copy.
        let mut buf = [0u64; SUBCHUNK_VALUES_64];
        let b = &mut buf[..sub.len()];
        b.copy_from_slice(sub);
        zigzag::encode64_slice(b);
        let w2 = bitpack::min_width_u64(b);
        if w2 < 64 {
            out.push(FLAG_CONVERTED | w2 as u8);
            bitpack::pack_u64(b, w2, out);
            return;
        }
    }
    out.push(width as u8);
    bitpack::pack_u64(sub, width, out);
}

/// Decodes `count` 64-bit words from `data` starting at `*pos`.
///
/// # Errors
///
/// Fails on truncated input or a header declaring a width above 64 bits.
pub fn decode64(data: &[u8], pos: &mut usize, count: usize, out: &mut Vec<u64>) -> Result<()> {
    let t = fpc_metrics::timer(Stage::MplgDecode);
    let mut remaining = count;
    while remaining > 0 {
        let n = remaining.min(SUBCHUNK_VALUES_64);
        let (converted, width, packed) = subchunk(data, pos, n, 64)?;
        let start = out.len();
        bitpack::unpack_u64(packed, width, n, out)?;
        if converted {
            zigzag::decode64_slice(&mut out[start..]);
        }
        remaining -= n;
    }
    t.finish(count as u64 * 8);
    Ok(())
}

/// The 64-bit twin of [`decode32_le`]: MPLG then DIFFMS decode into the
/// little-endian 64-bit words of `dst`, one subchunk at a time.
///
/// # Errors
///
/// As [`decode64`]; on error `dst` holds unspecified bytes.
pub fn decode64_le(data: &[u8], pos: &mut usize, dst: &mut [u8]) -> Result<()> {
    let t = fpc_metrics::timer(Stage::MplgDecode);
    let head = dst.len() / 8 * 8;
    let mut buf = [0u64; SUBCHUNK_VALUES_64];
    let mut prev = 0;
    for out in dst[..head].chunks_mut(SUBCHUNK_VALUES_64 * 8) {
        let words = &mut buf[..out.len() / 8];
        let (converted, width, packed) = subchunk(data, pos, words.len(), 64)?;
        bitpack::unpack_u64_into(packed, width, words)?;
        if converted {
            zigzag::decode64_slice(words);
        }
        prev = fpc_simd::diffms::decode64_le(prev, words, out);
    }
    t.finish(head as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip32(values: &[u32]) -> usize {
        let mut enc = Vec::new();
        encode32(values, &mut enc);
        let mut pos = 0;
        let mut dec = Vec::new();
        decode32(&enc, &mut pos, values.len(), &mut dec).unwrap();
        assert_eq!(pos, enc.len());
        assert_eq!(dec, values);
        enc.len()
    }

    fn roundtrip64(values: &[u64]) -> usize {
        let mut enc = Vec::new();
        encode64(values, &mut enc);
        let mut pos = 0;
        let mut dec = Vec::new();
        decode64(&enc, &mut pos, values.len(), &mut dec).unwrap();
        assert_eq!(pos, enc.len());
        assert_eq!(dec, values);
        enc.len()
    }

    #[test]
    fn fused_le_matches_diffms_then_mplg() {
        // Partial subchunks, a trailing partial word, fallback on and off.
        for len in [0usize, 3, 4, 511, 512, 513, 1200, 16384 + 5] {
            let bytes: Vec<u8> = (0..len)
                .map(|i| {
                    ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as u8 ^ (i / 256) as u8
                })
                .collect();
            for fallback in [true, false] {
                let (mut w, _) = crate::words::bytes_to_u32(&bytes);
                crate::diffms::encode32(&mut w);
                let (mut want, mut got) = (Vec::new(), Vec::new());
                encode32_with(&w, &mut want, fallback);
                encode32_le(&bytes, &mut got, fallback);
                assert_eq!(got, want, "u32 len {len} fallback {fallback}");
                let (mut w, _) = crate::words::bytes_to_u64(&bytes);
                crate::diffms::encode64(&mut w);
                let (mut want, mut got) = (Vec::new(), Vec::new());
                encode64_with(&w, &mut want, fallback);
                encode64_le(&bytes, &mut got, fallback);
                assert_eq!(got, want, "u64 len {len} fallback {fallback}");
            }
        }
    }

    #[test]
    fn empty_chunk() {
        roundtrip32(&[]);
        roundtrip64(&[]);
    }

    #[test]
    fn all_zero_subchunk_packs_to_header_only() {
        let size = roundtrip32(&vec![0u32; SUBCHUNK_VALUES_32]);
        assert_eq!(size, 1);
        let size = roundtrip64(&vec![0u64; SUBCHUNK_VALUES_64]);
        assert_eq!(size, 1);
    }

    #[test]
    fn small_values_compress() {
        let values: Vec<u32> = (0..4096u32).map(|i| i % 100).collect();
        let size = roundtrip32(&values);
        assert!(size < values.len() * 4 / 3, "got {size}");
    }

    #[test]
    fn partial_subchunks() {
        for n in [1usize, 2, 127, 128, 129, 255, 300] {
            let values: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
            roundtrip32(&values);
            let values64: Vec<u64> = (0..n as u64).map(|i| i << 20).collect();
            roundtrip64(&values64);
        }
    }

    #[test]
    fn zigzag_fallback_helps_leading_ones() {
        // Values with all-ones top bits: no leading zeros, but their
        // magnitude-sign conversion is tiny.
        let values: Vec<u32> = (0..SUBCHUNK_VALUES_32 as u32).map(|i| !(i % 16)).collect();
        let mut enc = Vec::new();
        encode32(&values, &mut enc);
        assert_eq!(enc[0] & FLAG_CONVERTED, FLAG_CONVERTED);
        assert!(((enc[0] & WIDTH_MASK) as u32) < 32);
        roundtrip32(&values);
    }

    #[test]
    fn incompressible_subchunk_stays_full_width() {
        // Maximum stays full width even after conversion: 0x8000_0000
        // zigzags to 0xFFFF_FFFF.
        let mut values = vec![1u32; SUBCHUNK_VALUES_32];
        values[0] = 0x8000_0000;
        values[1] = 0xFFFF_FFFF;
        let mut enc = Vec::new();
        encode32(&values, &mut enc);
        assert_eq!(enc[0] & WIDTH_MASK, 32);
        assert_eq!(enc[0] & FLAG_CONVERTED, 0);
        roundtrip32(&values);
    }

    #[test]
    fn per_subchunk_widths_are_independent() {
        // First subchunk tiny values, second large: total size must reflect
        // a small width for the first.
        let mut values = vec![3u32; SUBCHUNK_VALUES_32];
        values.extend(vec![u32::MAX / 2; SUBCHUNK_VALUES_32]);
        let mut enc = Vec::new();
        encode32(&values, &mut enc);
        // Subchunk 1: width 2 -> 1 + 32 bytes. Subchunk 2: width 31.
        let expected =
            1 + (SUBCHUNK_VALUES_32 * 2).div_ceil(8) + 1 + (SUBCHUNK_VALUES_32 * 31).div_ceil(8);
        assert_eq!(enc.len(), expected);
        roundtrip32(&values);
    }

    #[test]
    fn truncated_stream_rejected() {
        let values: Vec<u32> = (0..200u32).collect();
        let mut enc = Vec::new();
        encode32(&values, &mut enc);
        let mut pos = 0;
        let mut dec = Vec::new();
        assert!(decode32(&enc[..enc.len() - 1], &mut pos, values.len(), &mut dec).is_err());
    }

    #[test]
    fn every_truncation_rejected_at_every_width() {
        // One subchunk written at each header width, full or with a tail
        // shorter than a 32-value block; every strict prefix must fail with
        // UnexpectedEof, never panic.
        let noisy = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 59);
        for width in 0..=32u32 {
            for n in [33, SUBCHUNK_VALUES_32] {
                let values: Vec<u32> = (0..n as u64).map(|i| noisy(i) as u32).collect();
                let mut enc = vec![width as u8];
                bitpack::pack_u32(&values, width, &mut enc);
                for cut in 0..enc.len() {
                    let (mut pos, mut dec) = (0, Vec::new());
                    let got = decode32(&enc[..cut], &mut pos, n, &mut dec);
                    assert_eq!(
                        got,
                        Err(DecodeError::UnexpectedEof),
                        "w{width} n{n} cut{cut}"
                    );
                }
            }
        }
        for width in 0..=64u32 {
            for n in [33, SUBCHUNK_VALUES_64] {
                let values: Vec<u64> = (0..n as u64).map(noisy).collect();
                let mut enc = vec![width as u8];
                bitpack::pack_u64(&values, width, &mut enc);
                for cut in 0..enc.len() {
                    let (mut pos, mut dec) = (0, Vec::new());
                    let got = decode64(&enc[..cut], &mut pos, n, &mut dec);
                    assert_eq!(
                        got,
                        Err(DecodeError::UnexpectedEof),
                        "w{width} n{n} cut{cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_width_rejected() {
        let enc = vec![70u8; 10]; // width 70 > 64
        let mut pos = 0;
        let mut dec = Vec::new();
        assert!(matches!(
            decode64(&enc, &mut pos, 10, &mut dec),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn u64_large_values_roundtrip() {
        let values: Vec<u64> = (0..SUBCHUNK_VALUES_64 as u64 * 3)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        roundtrip64(&values);
    }
}

//! RAZE: Repeated Adaptive Zero Elimination.
//!
//! The third stage of DPratio (paper §3.2, Figure 7). Double-precision
//! values tend to have random, incompressible low-order mantissa bits, so
//! applying RZE to whole words wastes bitmap space on bytes that are never
//! zero. RAZE splits each 64-bit word into a top part of `k` bits and a
//! bottom part of `64 - k` bits, applies RZE only to the top parts, and
//! stores the bottoms raw. The *adaptive* innovation: `k` is chosen per
//! chunk from a histogram of leading-zero counts whose prefix sum yields,
//! for every candidate `k`, exactly how many top bytes would be zero — so
//! the best split is found without trying all encodings.
//!
//! Adaptation note (recorded in DESIGN.md): the paper adapts `k` over all
//! 64 bit positions; since RZE removes *bytes*, this implementation adapts
//! over the 9 byte-aligned splits (`k ∈ {0, 8, …, 64}`), using a
//! leading-zero-**byte** histogram and the same prefix-sum selection.
//!
//! Wire format per chunk: 1 byte `k/8`, the raw bottom bytes (little-endian
//! low bytes of each value), then the RZE-coded top-byte stream (each
//! value's top bytes, most significant first).

use crate::{rze, DecodeError, Result};
use fpc_metrics::Stage;

/// Estimated RZE bitmap-chain overhead for an `m`-byte stream.
#[inline]
pub(crate) fn bitmap_overhead(m: usize) -> usize {
    m.div_ceil(8) + m.div_ceil(64) + m.div_ceil(512) + 4
}

/// Given a histogram over leading-zero-byte counts (`hist[b]` = number of
/// values with exactly `b` leading zero/repeat bytes), returns the byte
/// split `kb ∈ 0..=8` minimizing the estimated encoded size for `n` values.
///
/// This is the adaptive split RAZE and RARE store in their first byte.
/// An encoder that builds the histogram some other way (gpu-sim counts
/// it with atomic increments) calls this to pick the same split, and so
/// writes the same stream.
pub fn choose_split(hist: &[usize; 9], n: usize) -> usize {
    // cnt[j] = number of values with at least j leading zero bytes
    // (the paper's prefix sum over histogram bins).
    let mut cnt = [0usize; 9];
    cnt[8] = hist[8];
    for j in (0..8).rev() {
        cnt[j] = cnt[j + 1] + hist[j];
    }
    let mut best_kb = 0usize;
    let mut best_cost = usize::MAX;
    let mut zeros = 0usize;
    #[allow(clippy::needless_range_loop)] // kb is the split being costed, not just an index
    for kb in 0..=8usize {
        if kb > 0 {
            zeros += cnt[kb];
        }
        let top_bytes = n * kb;
        let cost = n * (8 - kb) + (top_bytes - zeros) + bitmap_overhead(top_bytes);
        if cost < best_cost {
            best_cost = cost;
            best_kb = kb;
        }
    }
    best_kb
}

/// Splits each value at byte `kb`: appends its low `8 - kb` bytes
/// (little-endian) to `bottoms`, and returns the top `kb` bytes (most
/// significant first) of `v ^ (p & xor_mask)`, where `p` is the previous
/// value (0 for the first). RAZE passes `xor_mask = 0`; RARE passes
/// `u64::MAX` so repeated top bytes become zero bytes.
///
/// # Panics
///
/// Panics if `kb > 8`.
pub(crate) fn split(values: &[u64], kb: usize, xor_mask: u64, bottoms: &mut Vec<u8>) -> Vec<u8> {
    match kb {
        0 => split_at::<0>(values, xor_mask, bottoms),
        1 => split_at::<1>(values, xor_mask, bottoms),
        2 => split_at::<2>(values, xor_mask, bottoms),
        3 => split_at::<3>(values, xor_mask, bottoms),
        4 => split_at::<4>(values, xor_mask, bottoms),
        5 => split_at::<5>(values, xor_mask, bottoms),
        6 => split_at::<6>(values, xor_mask, bottoms),
        7 => split_at::<7>(values, xor_mask, bottoms),
        8 => split_at::<8>(values, xor_mask, bottoms),
        _ => panic!("split must be at most 8 bytes"),
    }
}

fn split_at<const KB: usize>(values: &[u64], xor_mask: u64, bottoms: &mut Vec<u8>) -> Vec<u8> {
    let start = bottoms.len();
    bottoms.resize(start + values.len() * (8 - KB), 0);
    let low = &mut bottoms[start..];
    let mut tops = vec![0u8; values.len() * KB];
    let mut prev = 0u64;
    for (i, &v) in values.iter().enumerate() {
        low[i * (8 - KB)..(i + 1) * (8 - KB)].copy_from_slice(&v.to_le_bytes()[..8 - KB]);
        let top = v ^ (prev & xor_mask);
        tops[i * KB..(i + 1) * KB].copy_from_slice(&top.to_be_bytes()[..KB]);
        prev = v;
    }
    tops
}

/// Inverse of [`split`]: appends `n` values rebuilt from their `bottoms`
/// and `tops` to `out`, undoing the XOR with the same `xor_mask`.
///
/// # Panics
///
/// Panics if `kb > 8` or either byte slice is shorter than `n` values need.
pub(crate) fn reassemble(
    bottoms: &[u8],
    tops: &[u8],
    kb: usize,
    n: usize,
    xor_mask: u64,
    out: &mut Vec<u64>,
) {
    match kb {
        0 => reassemble_at::<0>(bottoms, tops, n, xor_mask, out),
        1 => reassemble_at::<1>(bottoms, tops, n, xor_mask, out),
        2 => reassemble_at::<2>(bottoms, tops, n, xor_mask, out),
        3 => reassemble_at::<3>(bottoms, tops, n, xor_mask, out),
        4 => reassemble_at::<4>(bottoms, tops, n, xor_mask, out),
        5 => reassemble_at::<5>(bottoms, tops, n, xor_mask, out),
        6 => reassemble_at::<6>(bottoms, tops, n, xor_mask, out),
        7 => reassemble_at::<7>(bottoms, tops, n, xor_mask, out),
        8 => reassemble_at::<8>(bottoms, tops, n, xor_mask, out),
        _ => panic!("split must be at most 8 bytes"),
    }
}

fn reassemble_at<const KB: usize>(
    bottoms: &[u8],
    tops: &[u8],
    n: usize,
    xor_mask: u64,
    out: &mut Vec<u64>,
) {
    let (bottoms, tops) = (&bottoms[..n * (8 - KB)], &tops[..n * KB]);
    // Only top bytes were XORed; the bottoms are stored raw.
    let mask = xor_mask & u64::MAX.checked_shl(8 * (8 - KB) as u32).unwrap_or(0);
    out.reserve(n);
    let mut prev = 0u64;
    for i in 0..n {
        let mut be = [0u8; 8];
        be[..KB].copy_from_slice(&tops[i * KB..(i + 1) * KB]);
        let mut le = [0u8; 8];
        le[..8 - KB].copy_from_slice(&bottoms[i * (8 - KB)..(i + 1) * (8 - KB)]);
        let v = (u64::from_be_bytes(be) | u64::from_le_bytes(le)) ^ (prev & mask);
        out.push(v);
        prev = v;
    }
}

/// Encodes a chunk of 64-bit words, appending to `out`.
pub fn encode(values: &[u64], out: &mut Vec<u8>) {
    let mut hist = [0usize; 9];
    for &v in values {
        hist[(v.leading_zeros() / 8) as usize] += 1;
    }
    let kb = choose_split(&hist, values.len());
    encode_with_split(values, out, kb);
}

/// Encodes with a caller-chosen byte split instead of the adaptive one
/// (used by the ablation study; the decoder is unaffected because the split
/// is stored in the stream).
///
/// # Panics
///
/// Panics if `kb > 8`.
pub fn encode_with_split(values: &[u64], out: &mut Vec<u8>, kb: usize) {
    assert!(kb <= 8, "split must be at most 8 bytes");
    // The embedded RZE pass records under RZE.encode only.
    let mut t = fpc_metrics::timer(Stage::RazeEncode);
    out.push(kb as u8);
    let tops = split(values, kb, 0, out);
    t.exclude(|| rze::encode(&tops, out));
    t.finish(values.len() as u64 * 8);
}

/// Decodes `count` 64-bit words from `data` starting at `*pos`.
///
/// # Errors
///
/// Fails on truncation or an out-of-range split byte.
pub fn decode(data: &[u8], pos: &mut usize, count: usize, out: &mut Vec<u64>) -> Result<()> {
    // The embedded RZE pass records under RZE.decode only.
    let mut t = fpc_metrics::timer(Stage::RazeDecode);
    if count == 0 {
        // Encoder still wrote the split byte for an empty chunk.
        let kb = *data.get(*pos).ok_or(DecodeError::UnexpectedEof)?;
        if kb > 8 {
            return Err(DecodeError::Corrupt("raze split out of range"));
        }
        *pos += 1;
        t.stop();
        return Ok(());
    }
    let kb = *data.get(*pos).ok_or(DecodeError::UnexpectedEof)? as usize;
    *pos += 1;
    if kb > 8 {
        return Err(DecodeError::Corrupt("raze split out of range"));
    }
    let nb = 8 - kb;
    let bottoms_end = pos
        .checked_add(count * nb)
        .ok_or(DecodeError::Corrupt("raze length overflow"))?;
    if bottoms_end > data.len() {
        return Err(DecodeError::UnexpectedEof);
    }
    let bottoms = &data[*pos..bottoms_end];
    *pos = bottoms_end;
    let mut tops = Vec::with_capacity(count * kb);
    t.exclude(|| rze::decode(data, pos, count * kb, &mut tops))?;
    reassemble(bottoms, &tops, kb, count, 0, out);
    t.finish(count as u64 * 8);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64]) -> usize {
        let mut enc = Vec::new();
        encode(values, &mut enc);
        let mut pos = 0;
        let mut dec = Vec::new();
        decode(&enc, &mut pos, values.len(), &mut dec).unwrap();
        assert_eq!(pos, enc.len());
        assert_eq!(dec, values);
        enc.len()
    }

    #[test]
    fn empty() {
        roundtrip(&[]);
    }

    #[test]
    fn all_zero() {
        let size = roundtrip(&[0u64; 2048]);
        // kb = 8: no bottoms, all-zero tops collapse into the bitmap chain.
        assert!(size < 16, "got {size}");
    }

    #[test]
    fn small_values_pick_large_k() {
        // Values fit in 2 bytes: 6 leading zero bytes each.
        let values: Vec<u64> = (0..2048u64).map(|i| i * 17 % 65536).collect();
        let size = roundtrip(&values);
        // Expect roughly 2 bytes per value + overhead, far below 8 B/value.
        assert!(size < values.len() * 3, "got {size}");
    }

    #[test]
    fn random_mantissa_keeps_bottom_raw() {
        // Zero top 2 bytes, random bottom 6 bytes — the DPratio motivating
        // case (small deltas over random mantissas). RAZE should choose
        // kb = 2 and not inflate.
        let values: Vec<u64> = (0..2048u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16)
            .collect();
        let mut enc = Vec::new();
        encode(&values, &mut enc);
        assert_eq!(enc[0], 2, "expected kb=2, got {}", enc[0]);
        let size = roundtrip(&values);
        assert!(size < values.len() * 8, "no gain: {size}");
    }

    #[test]
    fn incompressible_chooses_k_zero() {
        let values: Vec<u64> = (0..512u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut enc = Vec::new();
        encode(&values, &mut enc);
        assert_eq!(enc[0], 0);
        // kb = 0: size is 1 + 8n + empty-RZE (4-byte chain of a 0-byte map).
        roundtrip(&values);
    }

    #[test]
    fn mixed_magnitudes() {
        let values: Vec<u64> = (0..1000u64)
            .map(|i| if i % 10 == 0 { u64::MAX - i } else { i * 3 })
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn choose_split_prefix_sum_logic() {
        // 10 values, all with >= 4 leading zero bytes.
        let mut hist = [0usize; 9];
        hist[4] = 10;
        let kb = choose_split(&hist, 10);
        // Top 4 bytes are all zero: eliminating them saves 40 bytes at the
        // cost of a small bitmap; any kb <= 4 keeps the zero savings ratio,
        // kb = 4 maximizes it.
        assert_eq!(kb, 4);
    }

    #[test]
    fn truncated_rejected() {
        let values: Vec<u64> = (0..100u64).collect();
        let mut enc = Vec::new();
        encode(&values, &mut enc);
        let mut pos = 0;
        let mut dec = Vec::new();
        assert!(decode(&enc[..enc.len() - 2], &mut pos, values.len(), &mut dec).is_err());
    }

    #[test]
    fn corrupt_split_rejected() {
        let enc = vec![9u8, 0, 0, 0, 0];
        let mut pos = 0;
        let mut dec = Vec::new();
        assert!(matches!(
            decode(&enc, &mut pos, 4, &mut dec),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn single_value() {
        roundtrip(&[0xFFFF_FFFF_FFFF_FFFF]);
        roundtrip(&[1]);
        roundtrip(&[1 << 63]);
    }
}

//! RARE: Repeated Adaptive Repetition Elimination.
//!
//! The fourth stage of DPratio (paper §3.2, Figure 7). RAZE eliminates
//! leading *zero* bits, but its output tends to contain words whose
//! most-significant bytes repeat from word to word. RARE applies the same
//! adaptive top/bottom split as RAZE, except a top byte is eliminated when
//! it *equals the corresponding byte of the previous value* rather than
//! when it is zero.
//!
//! Implementation: the top `k` bytes of each word are XORed with the
//! previous word's top bytes before zero elimination — a repeated byte
//! becomes a zero byte, so RZE's machinery applies unchanged, and the
//! decoder undoes the XOR while scanning forward.
//!
//! Wire format per chunk: 1 byte `k/8`, raw bottom bytes, RZE-coded
//! XOR-differenced top bytes.

use crate::raze::{self, reassemble, split};
use crate::{rze, DecodeError, Result};
use fpc_metrics::Stage;

/// Encodes a chunk of 64-bit words, appending to `out`.
pub fn encode(values: &[u64], out: &mut Vec<u8>) {
    encode_with_split(values, out, choose_split(values));
}

/// The adaptive split RARE stores in its first byte: RAZE's cost model
/// ([`raze::choose_split`]) over the histogram of how many leading bytes
/// each value repeats from the one before it (the first value's
/// predecessor is 0). gpu-sim calls it too, so both write the same stream.
pub fn choose_split(values: &[u64]) -> usize {
    let mut hist = [0usize; 9];
    let mut prev = 0u64;
    for &v in values {
        hist[((v ^ prev).leading_zeros() / 8) as usize] += 1;
        prev = v;
    }
    raze::choose_split(&hist, values.len())
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
    let mut t = fpc_metrics::timer(Stage::RareEncode);
    out.push(kb as u8);
    // XOR-difference the top parts so repeats become zeros.
    let tops = split(values, kb, u64::MAX, out);
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
    let mut t = fpc_metrics::timer(Stage::RareDecode);
    let kb = *data.get(*pos).ok_or(DecodeError::UnexpectedEof)? as usize;
    *pos += 1;
    if kb > 8 {
        return Err(DecodeError::Corrupt("rare split out of range"));
    }
    if count == 0 {
        t.stop();
        return Ok(());
    }
    let nb = 8 - kb;
    let bottoms_end = pos
        .checked_add(count * nb)
        .ok_or(DecodeError::Corrupt("rare length overflow"))?;
    if bottoms_end > data.len() {
        return Err(DecodeError::UnexpectedEof);
    }
    let bottoms = &data[*pos..bottoms_end];
    *pos = bottoms_end;
    let mut tops = Vec::with_capacity(count * kb);
    t.exclude(|| rze::decode(data, pos, count * kb, &mut tops))?;
    reassemble(bottoms, &tops, kb, count, u64::MAX, out);
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
    fn repeated_top_bytes_eliminated() {
        // Identical exponent/sign bytes across all values: RARE's case.
        let values: Vec<u64> = (0..2048u64)
            .map(|i| (0xC039u64 << 48) | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF))
            .collect();
        let mut enc = Vec::new();
        encode(&values, &mut enc);
        let kb = enc[0];
        assert!(kb >= 2, "expected top split >= 2 bytes, got {kb}");
        let size = roundtrip(&values);
        // Top 4 bytes repeat -> roughly halved plus overhead.
        assert!(size < values.len() * 6, "got {size}");
    }

    #[test]
    fn all_identical_values() {
        let size = roundtrip(&[0xDEAD_BEEF_0BAD_F00Du64; 1024]);
        // Everything repeats after the first; tops collapse entirely.
        assert!(size < 1024 * 8 / 4, "got {size}");
    }

    #[test]
    fn incompressible_chooses_zero_split() {
        let values: Vec<u64> = (0..512u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31))
            .collect();
        let mut enc = Vec::new();
        encode(&values, &mut enc);
        assert_eq!(enc[0], 0);
        roundtrip(&values);
    }

    #[test]
    fn alternating_values() {
        let values: Vec<u64> = (0..999u64)
            .map(|i| {
                if i % 2 == 0 {
                    0x1111_2222_3333_4444
                } else {
                    0x5555_2222_3333_4444
                }
            })
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn first_value_diffs_against_zero() {
        let values = vec![u64::MAX];
        let mut enc = Vec::new();
        encode(&values, &mut enc);
        let mut pos = 0;
        let mut dec = Vec::new();
        decode(&enc, &mut pos, 1, &mut dec).unwrap();
        assert_eq!(dec, values);
    }

    #[test]
    fn truncated_rejected() {
        let values: Vec<u64> = (0..64u64).map(|i| i << 56).collect();
        let mut enc = Vec::new();
        encode(&values, &mut enc);
        let mut pos = 0;
        let mut dec = Vec::new();
        assert!(decode(&enc[..enc.len() - 1], &mut pos, values.len(), &mut dec).is_err());
    }

    #[test]
    fn corrupt_split_rejected() {
        let enc = vec![200u8];
        let mut pos = 0;
        let mut dec = Vec::new();
        assert!(matches!(
            decode(&enc, &mut pos, 3, &mut dec),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn smooth_double_pipeline_shape() {
        // Doubles drifting slowly: after RAZE-like stages, words share
        // high bytes. Check RARE standalone still roundtrips such data.
        let values: Vec<u64> = (0..2048)
            .map(|i| (1000.0 + (i as f64) * 1e-9).to_bits())
            .collect();
        roundtrip(&values);
    }
}

//! RZE: Repeated Zero Elimination.
//!
//! The final stage of SPratio (paper §3.2, Figure 5). A bitmap marks which
//! input bytes are nonzero; the zero bytes are removed. Because the bitmap
//! itself is a significant fixed overhead (n/8 bytes), it is compressed
//! three more times with the same mechanism — except that the recursive
//! passes mark bytes that *differ from the preceding byte* rather than
//! nonzero bytes, which suits the typical "zeros first, ones last" structure
//! of the bitmap (16384 bits → 2048 → 256 → 32 in the paper's full-chunk
//! case).
//!
//! Wire format: final-level bitmap (raw), then the non-repeating bytes of
//! levels 2, 1, 0, then the nonzero data bytes. All lengths are derivable
//! from the (externally known) original chunk length.

use crate::{DecodeError, Result};
use fpc_metrics::Stage;

/// Number of recursive bitmap-compression passes.
pub const BITMAP_LEVELS: usize = 3;

#[inline]
fn bitmap_len(n: usize) -> usize {
    n.div_ceil(8)
}

/// Builds the level-0 bitmap (bit set ⇔ byte nonzero) and collects nonzero
/// bytes with `fpc_simd::bytescan`.
fn zero_bitmap(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut bitmap = vec![0u8; bitmap_len(data.len())];
    let mut kept = Vec::new();
    fpc_simd::bytescan::zero_bitmap(data, &mut bitmap, &mut kept);
    (bitmap, kept)
}

/// Builds a repeat bitmap (bit set ⇔ byte differs from its predecessor;
/// index 0 compares against 0x00) and collects the differing bytes.
fn repeat_bitmap(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut bitmap = vec![0u8; bitmap_len(data.len())];
    let mut kept = Vec::new();
    fpc_simd::bytescan::repeat_bitmap(data, &mut bitmap, &mut kept);
    (bitmap, kept)
}

/// Compresses `data`, appending the encoded stream to `out`.
pub fn encode(data: &[u8], out: &mut Vec<u8>) {
    let t = fpc_metrics::timer(Stage::RzeEncode);
    let (bm0, nonzero) = zero_bitmap(data);
    let (bm1, nr0) = repeat_bitmap(&bm0);
    let (bm2, nr1) = repeat_bitmap(&bm1);
    let (bm3, nr2) = repeat_bitmap(&bm2);
    out.extend_from_slice(&bm3);
    out.extend_from_slice(&nr2);
    out.extend_from_slice(&nr1);
    out.extend_from_slice(&nr0);
    out.extend_from_slice(&nonzero);
    t.finish(data.len() as u64);
}

fn take<'a>(data: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8]> {
    let end = pos
        .checked_add(len)
        .ok_or(DecodeError::Corrupt("rze length overflow"))?;
    if end > data.len() {
        return Err(DecodeError::UnexpectedEof);
    }
    let slice = &data[*pos..end];
    *pos = end;
    Ok(slice)
}

/// Reconstructs a `len`-byte level from its repeat bitmap, consuming
/// differing bytes from `data`.
fn expand_repeat(bitmap: &[u8], len: usize, data: &[u8], pos: &mut usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(len);
    let src = data.get(*pos..).unwrap_or(&[]);
    let used = fpc_simd::bytescan::expand_repeat(bitmap, len, src, &mut out)
        .ok_or(DecodeError::UnexpectedEof)?;
    *pos += used;
    Ok(out)
}

/// Decompresses `n` original bytes from `data` starting at `*pos`.
///
/// # Errors
///
/// Fails if the stream is truncated.
pub fn decode(data: &[u8], pos: &mut usize, n: usize, out: &mut Vec<u8>) -> Result<()> {
    let t = fpc_metrics::timer(Stage::RzeDecode);
    let len0 = bitmap_len(n);
    let len1 = bitmap_len(len0);
    let len2 = bitmap_len(len1);
    let len3 = bitmap_len(len2);
    let bm3 = take(data, pos, len3)?.to_vec();
    let bm2 = expand_repeat(&bm3, len2, data, pos)?;
    let bm1 = expand_repeat(&bm2, len1, data, pos)?;
    let bm0 = expand_repeat(&bm1, len0, data, pos)?;
    out.reserve(n);
    let src = data.get(*pos..).unwrap_or(&[]);
    let used =
        fpc_simd::bytescan::expand_nonzero(&bm0, n, src, out).ok_or(DecodeError::UnexpectedEof)?;
    *pos += used;
    t.finish(n as u64);
    Ok(())
}

/// Exact encoded size without materializing the stream. (The adaptive
/// RAZE/RARE stages do not call it: they pick their split with
/// [`raze::choose_split`](crate::raze::choose_split) over a histogram.)
pub fn encoded_len(data: &[u8]) -> usize {
    let (bm0, nonzero) = zero_bitmap(data);
    let (bm1, nr0) = repeat_bitmap(&bm0);
    let (bm2, nr1) = repeat_bitmap(&bm1);
    let (bm3, nr2) = repeat_bitmap(&bm2);
    bm3.len() + nr2.len() + nr1.len() + nr0.len() + nonzero.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let mut enc = Vec::new();
        encode(data, &mut enc);
        let mut pos = 0;
        let mut dec = Vec::new();
        decode(&enc, &mut pos, data.len(), &mut dec).unwrap();
        assert_eq!(pos, enc.len(), "decoder must consume the whole stream");
        assert_eq!(dec, data);
        assert_eq!(enc.len(), encoded_len(data));
        enc.len()
    }

    #[test]
    fn empty() {
        assert_eq!(roundtrip(&[]), 0);
    }

    #[test]
    fn all_zero_chunk_collapses() {
        // 16 KiB of zeros: bitmaps are all zero too, so only the 4-byte
        // final bitmap survives.
        let size = roundtrip(&[0u8; 16384]);
        assert_eq!(size, 4);
    }

    #[test]
    fn all_nonzero_keeps_everything() {
        let data = vec![0xAAu8; 16384];
        let size = roundtrip(&data);
        // bitmap levels are all-ones; each level contributes a couple of
        // differing bytes, so overhead is tiny (9 bytes for a full chunk).
        assert!(size <= data.len() + 16, "got {size}");
    }

    #[test]
    fn paper_structure_zeros_then_data() {
        // The motivating case: long zero run then increasingly dense bytes
        // (what BIT produces after DIFFMS).
        let mut data = vec![0u8; 12288];
        data.extend((0..4096u32).map(|i| (i % 255 + 1) as u8));
        let size = roundtrip(&data);
        assert!(size < 4096 + 600, "got {size}");
    }

    #[test]
    fn scattered_nonzeros() {
        let mut data = vec![0u8; 5000];
        for i in (0..5000).step_by(97) {
            data[i] = (i % 250 + 1) as u8;
        }
        roundtrip(&data);
    }

    #[test]
    fn sub_byte_sizes() {
        for n in 0..=20usize {
            let data: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn zero_byte_values_distinguished_from_eliminated() {
        // A nonzero byte adjacent to zeros must come back in the right spot.
        let data = [0u8, 0, 7, 0, 0, 0, 9, 0];
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_rejected() {
        let mut data = vec![0u8; 1000];
        data[500] = 42;
        let mut enc = Vec::new();
        encode(&data, &mut enc);
        for cut in 1..enc.len().min(8) {
            let mut pos = 0;
            let mut dec = Vec::new();
            assert!(
                decode(&enc[..enc.len() - cut], &mut pos, data.len(), &mut dec).is_err(),
                "cut {cut} should fail"
            );
        }
    }

    #[test]
    fn bitmap_recursion_pays_off_on_smooth_bitmaps() {
        // Mostly-zero chunk: plain bitmap overhead would be n/8 = 2048 B;
        // the recursive compression should get far below that.
        let mut data = vec![0u8; 16384];
        data[16000] = 1;
        let size = roundtrip(&data);
        assert!(size < 64, "got {size}");
    }

    #[test]
    fn worst_case_expansion_is_bounded() {
        // Alternating bytes defeat every level; expansion must stay within
        // the bitmap chain overhead (n/8 + n/64 + n/512 + n/4096 ≈ 14.5%).
        let data: Vec<u8> = (0..16384).map(|i| if i % 2 == 0 { 1 } else { 2 }).collect();
        let size = roundtrip(&data);
        assert!(size <= data.len() + data.len() / 8 + data.len() / 64 + data.len() / 512 + 8);
    }
}

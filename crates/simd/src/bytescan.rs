//! Dispatched byte-scanning kernels: RZE/RAZE bitmap construction and
//! expansion, and RLE run scanning.
//!
//! The SWAR tier detects zero (or differing) bytes eight at a time with the
//! exact-per-byte test `t = (v & 0x7F..) + 0x7F..; nonzero = (t | v) & 0x80..`
//! — the add cannot carry across bytes, so unlike the classic "haszero"
//! trick it has no false positives — and gathers the eight high bits into a
//! bitmap byte with a carry-free multiply. The AVX2 tier uses
//! `cmpeq`/`movemask` for the same effect at 32 bytes per step, and
//! compacts the kept bytes of each 8-byte block through a 256-entry
//! `pshufb` table. The bitmap expanders have a SWAR form (a bitmap byte at
//! a time, fast paths for all-clear and all-set bytes) and an x86 form
//! that expands every bitmap byte through a shuffle table.

use crate::Tier;

const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
const HIGH: u64 = 0x8080_8080_8080_8080;
/// Gathers the 8 high bits of a `0x80`-masked value into the top byte.
/// Every partial product lands on a distinct bit (positions `56 + 8k - 7j`
/// collide only when `8Δk = 7Δj`, impossible for `j ≤ 7`), so the multiply
/// is carry-free and exact.
const GATHER: u64 = 0x0002_0408_1020_4081;

/// Bitmap byte for 8 data bytes: bit k set ⇔ byte k nonzero.
#[inline]
pub(crate) fn nonzero_mask8(v: u64) -> u8 {
    let t = (v & LOW7).wrapping_add(LOW7);
    let nh = (t | v) & HIGH;
    (nh.wrapping_mul(GATHER) >> 56) as u8
}

/// Tier used by the bitmap-construction kernels under the current dispatch.
pub fn chosen_bitmap() -> Tier {
    crate::choose(&[Tier::Avx2, Tier::Swar])
}

/// Tier used by the bitmap-expansion kernels.
pub fn chosen_expand() -> Tier {
    crate::choose(&[Tier::Avx2, Tier::Swar])
}

/// Tier used by the RLE run-length scan.
pub fn chosen_run() -> Tier {
    crate::choose(&[Tier::Avx2, Tier::Swar])
}

/// Appends the bytes of `block` (≤ 8 bytes) whose mask bit is set.
#[inline]
fn push_kept8(block: &[u8], mask: u8, kept: &mut Vec<u8>) {
    if mask == 0 {
        return;
    }
    if mask == 0xFF && block.len() == 8 {
        kept.extend_from_slice(block);
        return;
    }
    let mut m = mask;
    while m != 0 {
        kept.push(block[m.trailing_zeros() as usize]);
        m &= m - 1;
    }
}

/// Scalar tail of the nonzero-bitmap scan, starting at index `start`
/// (also the full scalar reference when `start == 0`): bit set ⇔ byte
/// nonzero; `bitmap` is pre-zeroed.
pub fn zero_bitmap_tail(data: &[u8], start: usize, bitmap: &mut [u8], kept: &mut Vec<u8>) {
    for (i, &b) in data.iter().enumerate().skip(start) {
        if b != 0 {
            bitmap[i / 8] |= 1 << (i % 8);
            kept.push(b);
        }
    }
}

/// SWAR nonzero-bitmap scan: 8 bytes per step.
pub fn zero_bitmap_swar(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    let mut i = 0;
    while i + 8 <= data.len() {
        let v = u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte window"));
        let mask = nonzero_mask8(v);
        bitmap[i / 8] = mask;
        push_kept8(&data[i..i + 8], mask, kept);
        i += 8;
    }
    zero_bitmap_tail(data, i, bitmap, kept);
}

/// Dispatched nonzero-bitmap scan. `bitmap` must be zeroed and exactly
/// `data.len().div_ceil(8)` bytes (or longer).
pub fn zero_bitmap(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    let tier = chosen_bitmap();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::zero_bitmap_avx2(data, bitmap, kept),
        Tier::Swar => zero_bitmap_swar(data, bitmap, kept),
        _ => zero_bitmap_tail(data, 0, bitmap, kept),
    }
}

/// Scalar tail of the repeat-bitmap scan from index `start` with the given
/// predecessor byte (the full scalar reference when `start == 0` and
/// `prev == 0`): bit set ⇔ byte differs from its predecessor (index 0 vs
/// 0x00).
pub fn repeat_bitmap_tail(
    data: &[u8],
    start: usize,
    prev: u8,
    bitmap: &mut [u8],
    kept: &mut Vec<u8>,
) {
    let mut prev = prev;
    for (i, &b) in data.iter().enumerate().skip(start) {
        if b != prev {
            bitmap[i / 8] |= 1 << (i % 8);
            kept.push(b);
        }
        prev = b;
    }
}

/// SWAR repeat-bitmap scan: compares 8 bytes against themselves shifted by
/// one byte (with carry-in from the previous block).
pub fn repeat_bitmap_swar(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    let mut prev = 0u8;
    let mut i = 0;
    while i + 8 <= data.len() {
        let v = u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte window"));
        let shifted = (v << 8) | prev as u64;
        let mask = nonzero_mask8(v ^ shifted);
        bitmap[i / 8] = mask;
        push_kept8(&data[i..i + 8], mask, kept);
        prev = data[i + 7];
        i += 8;
    }
    repeat_bitmap_tail(data, i, prev, bitmap, kept);
}

/// Dispatched repeat-bitmap scan; same `bitmap` contract as [`zero_bitmap`].
pub fn repeat_bitmap(data: &[u8], bitmap: &mut [u8], kept: &mut Vec<u8>) {
    let tier = chosen_bitmap();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::repeat_bitmap_avx2(data, bitmap, kept),
        Tier::Swar => repeat_bitmap_swar(data, bitmap, kept),
        _ => repeat_bitmap_tail(data, 0, 0, bitmap, kept),
    }
}

/// Per-bit repeat-bitmap expansion of bytes `start..count`, continuing
/// from predecessor byte `prev` with `pos` bytes of `src` already consumed
/// (the full scalar reference when all three are zero). Returns the new
/// `pos`, or `None` if `src` is exhausted.
pub fn expand_repeat_tail(
    bitmap: &[u8],
    start: usize,
    count: usize,
    prev: u8,
    src: &[u8],
    pos: usize,
    out: &mut Vec<u8>,
) -> Option<usize> {
    let (mut prev, mut pos) = (prev, pos);
    for i in start..count {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            prev = *src.get(pos)?;
            pos += 1;
        }
        out.push(prev);
    }
    Some(pos)
}

/// Dispatched repeat-bitmap expansion: reconstructs `count` bytes,
/// consuming differing bytes from `src` and appending to `out`.
///
/// Returns the number of `src` bytes consumed, or `None` if `src` is
/// exhausted (the caller maps this to its own EOF error).
pub fn expand_repeat(bitmap: &[u8], count: usize, src: &[u8], out: &mut Vec<u8>) -> Option<usize> {
    let tier = chosen_expand();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::expand_avx2(bitmap, count, Some(0), src, out),
        Tier::Swar => expand_repeat_swar(bitmap, count, src, out),
        _ => expand_repeat_tail(bitmap, 0, count, 0, src, 0, out),
    }
}

/// SWAR repeat-bitmap expansion: a bitmap byte at a time, with fast paths
/// for all-clear and all-set bytes.
pub fn expand_repeat_swar(
    bitmap: &[u8],
    count: usize,
    src: &[u8],
    out: &mut Vec<u8>,
) -> Option<usize> {
    let mut pos = 0usize;
    let mut prev = 0u8;
    let full = count / 8;
    for &m in bitmap.iter().take(full) {
        if m == 0 {
            out.resize(out.len() + 8, prev);
        } else if m == 0xFF {
            let s = src.get(pos..pos + 8)?;
            out.extend_from_slice(s);
            prev = s[7];
            pos += 8;
        } else {
            for k in 0..8 {
                if m & (1 << k) != 0 {
                    prev = *src.get(pos)?;
                    pos += 1;
                }
                out.push(prev);
            }
        }
    }
    expand_repeat_tail(bitmap, full * 8, count, prev, src, pos, out)
}

/// Per-bit nonzero expansion of bytes `start..count` with `pos` bytes of
/// `src` already consumed (the full scalar reference when both are zero).
/// Returns the new `pos`, or `None` if `src` is exhausted.
pub fn expand_nonzero_tail(
    bitmap: &[u8],
    start: usize,
    count: usize,
    src: &[u8],
    pos: usize,
    out: &mut Vec<u8>,
) -> Option<usize> {
    let mut pos = pos;
    for i in start..count {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            out.push(*src.get(pos)?);
            pos += 1;
        } else {
            out.push(0);
        }
    }
    Some(pos)
}

/// Dispatched nonzero expansion: reconstructs `count` bytes, consuming
/// nonzero bytes from `src` and filling zeros elsewhere.
///
/// Returns `src` bytes consumed, or `None` on exhaustion.
pub fn expand_nonzero(bitmap: &[u8], count: usize, src: &[u8], out: &mut Vec<u8>) -> Option<usize> {
    let tier = chosen_expand();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::expand_avx2(bitmap, count, None, src, out),
        Tier::Swar => expand_nonzero_swar(bitmap, count, src, out),
        _ => expand_nonzero_tail(bitmap, 0, count, src, 0, out),
    }
}

/// SWAR nonzero expansion: a bitmap byte at a time, with fast paths for
/// all-clear and all-set bytes.
pub fn expand_nonzero_swar(
    bitmap: &[u8],
    count: usize,
    src: &[u8],
    out: &mut Vec<u8>,
) -> Option<usize> {
    let mut pos = 0usize;
    let full = count / 8;
    for &m in bitmap.iter().take(full) {
        if m == 0 {
            out.resize(out.len() + 8, 0);
        } else if m == 0xFF {
            out.extend_from_slice(src.get(pos..pos + 8)?);
            pos += 8;
        } else {
            for k in 0..8 {
                if m & (1 << k) != 0 {
                    out.push(*src.get(pos)?);
                    pos += 1;
                } else {
                    out.push(0);
                }
            }
        }
    }
    expand_nonzero_tail(bitmap, full * 8, count, src, pos, out)
}

/// Scalar reference run scan: length of the run of `data[start]` at `start`.
pub fn run_len_scalar(data: &[u8], start: usize) -> usize {
    let b = data[start];
    let mut run = 1usize;
    while start + run < data.len() && data[start + run] == b {
        run += 1;
    }
    run
}

/// SWAR run scan: 8 bytes per step.
pub fn run_len_swar(data: &[u8], start: usize) -> usize {
    let b = data[start];
    let pat = (b as u64).wrapping_mul(0x0101_0101_0101_0101);
    let mut i = start + 1;
    while i + 8 <= data.len() {
        let v = u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte window"));
        let ne = nonzero_mask8(v ^ pat);
        if ne != 0 {
            return i + ne.trailing_zeros() as usize - start;
        }
        i += 8;
    }
    while i < data.len() && data[i] == b {
        i += 1;
    }
    i - start
}

/// Dispatched run scan (record-free: called once per run, the scan itself
/// is the hot loop).
pub fn run_len(data: &[u8], start: usize) -> usize {
    match chosen_run() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => crate::x86::run_len_avx2(data, start),
        Tier::Swar => run_len_swar(data, start),
        _ => run_len_scalar(data, start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_zero(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut bm = vec![0u8; data.len().div_ceil(8)];
        let mut kept = Vec::new();
        zero_bitmap_tail(data, 0, &mut bm, &mut kept);
        (bm, kept)
    }

    fn scalar_repeat(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut bm = vec![0u8; data.len().div_ceil(8)];
        let mut kept = Vec::new();
        repeat_bitmap_tail(data, 0, 0, &mut bm, &mut kept);
        (bm, kept)
    }

    fn samples() -> Vec<Vec<u8>> {
        let mut out = vec![
            vec![],
            vec![0],
            vec![1],
            vec![0; 100],
            vec![0xFF; 100],
            vec![0x80; 33],
        ];
        let mut s = 0x9E37_79B9u32;
        let mut v = Vec::new();
        for i in 0..257 {
            s = s.wrapping_mul(0x0101_0101).wrapping_add(i);
            v.push(if s.is_multiple_of(3) {
                0
            } else {
                (s >> 24) as u8
            });
        }
        out.push(v);
        let mut sparse = vec![0u8; 200];
        for i in (0..200).step_by(23) {
            sparse[i] = (i + 1) as u8;
        }
        out.push(sparse);
        out
    }

    #[test]
    fn nonzero_mask8_exact_per_byte() {
        // Every byte value in every position, plus the 0x80-only bytes the
        // borrow-based trick gets wrong.
        for pos in 0..8 {
            for b in [0u8, 1, 0x7F, 0x80, 0x81, 0xFF] {
                let v = (b as u64) << (8 * pos);
                let want = if b != 0 { 1u8 << pos } else { 0 };
                assert_eq!(nonzero_mask8(v), want, "byte {b:#x} at {pos}");
            }
        }
        assert_eq!(nonzero_mask8(0), 0);
        assert_eq!(nonzero_mask8(u64::MAX), 0xFF);
        // Bytes (LE order): 7F 00 00 80 01 00 00 01 → bits 0, 3, 4, 7.
        assert_eq!(nonzero_mask8(0x0100_0001_8000_007F), 0b1001_1001);
    }

    #[test]
    fn swar_bitmaps_match_scalar() {
        for data in samples() {
            let (bm, kept) = scalar_zero(&data);
            let mut bm2 = vec![0u8; data.len().div_ceil(8)];
            let mut kept2 = Vec::new();
            zero_bitmap_swar(&data, &mut bm2, &mut kept2);
            assert_eq!(bm, bm2, "zero bitmap len {}", data.len());
            assert_eq!(kept, kept2, "zero kept len {}", data.len());

            let (bm, kept) = scalar_repeat(&data);
            let mut bm2 = vec![0u8; data.len().div_ceil(8)];
            let mut kept2 = Vec::new();
            repeat_bitmap_swar(&data, &mut bm2, &mut kept2);
            assert_eq!(bm, bm2, "repeat bitmap len {}", data.len());
            assert_eq!(kept, kept2, "repeat kept len {}", data.len());
        }
    }

    #[test]
    fn expand_inverts_scan() {
        for data in samples() {
            let (bm, kept) = scalar_zero(&data);
            let mut out = Vec::new();
            let used = expand_nonzero(&bm, data.len(), &kept, &mut out).unwrap();
            assert_eq!(used, kept.len());
            assert_eq!(out, data);
            let mut out = Vec::new();
            let used = expand_nonzero_tail(&bm, 0, data.len(), &kept, 0, &mut out).unwrap();
            assert_eq!((used, &out), (kept.len(), &data), "scalar nonzero");

            let (bm, kept) = scalar_repeat(&data);
            let mut out = Vec::new();
            let used = expand_repeat(&bm, data.len(), &kept, &mut out).unwrap();
            assert_eq!(used, kept.len());
            assert_eq!(out, data);
            let mut out = Vec::new();
            let used = expand_repeat_tail(&bm, 0, data.len(), 0, &kept, 0, &mut out).unwrap();
            assert_eq!((used, &out), (kept.len(), &data), "scalar repeat");
        }
    }

    #[test]
    fn expand_eof_returns_none() {
        let data = vec![1u8; 20];
        let (bm, kept) = scalar_zero(&data);
        let mut out = Vec::new();
        assert!(expand_nonzero(&bm, data.len(), &kept[..kept.len() - 1], &mut out).is_none());
        let (bm, kept) = scalar_repeat(&data);
        let mut out = Vec::new();
        assert!(expand_repeat(&bm, data.len(), &kept[..kept.len() - 1], &mut out).is_none());
    }

    #[test]
    fn run_len_swar_matches_scalar() {
        let mut data = Vec::new();
        for (i, run) in [1usize, 3, 4, 7, 8, 9, 15, 16, 17, 40, 2, 1]
            .iter()
            .enumerate()
        {
            data.extend(std::iter::repeat_n((i % 5) as u8, *run));
        }
        let mut i = 0;
        while i < data.len() {
            let want = run_len_scalar(&data, i);
            assert_eq!(run_len_swar(&data, i), want, "at {i}");
            i += want;
        }
        assert_eq!(run_len_swar(&[7], 0), 1);
        assert_eq!(run_len_swar(&[7; 64], 0), 64);
        assert_eq!(run_len_swar(&[7; 64], 63), 1);
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn avx2_matches_scalar() {
        use crate::x86;
        if !Tier::Avx2.available() {
            return;
        }
        for data in samples() {
            let (bm, kept) = scalar_zero(&data);
            let mut bm2 = vec![0u8; data.len().div_ceil(8)];
            let mut kept2 = Vec::new();
            x86::zero_bitmap_avx2(&data, &mut bm2, &mut kept2);
            assert_eq!((&bm, &kept), (&bm2, &kept2), "avx2 zero len {}", data.len());

            let (bm, kept) = scalar_repeat(&data);
            let mut bm2 = vec![0u8; data.len().div_ceil(8)];
            let mut kept2 = Vec::new();
            x86::repeat_bitmap_avx2(&data, &mut bm2, &mut kept2);
            assert_eq!((&bm, &kept), (&bm2, &kept2), "avx2 rpt len {}", data.len());

            let mut i = 0;
            while i < data.len() {
                let want = run_len_scalar(&data, i);
                assert_eq!(x86::run_len_avx2(&data, i), want, "avx2 run at {i}");
                i += want;
            }
        }
    }

    /// `len` bytes whose 8-byte blocks have, in turn, every bitmap byte
    /// (in the order `k * 167 mod 256`): nonzero bitmaps, or with `repeat`
    /// repeat bitmaps (byte 0 compared against 0x00).
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn bytes_with_every_mask(len: usize, repeat: bool) -> Vec<u8> {
        let mut prev = 0u8;
        (0..len)
            .map(|i| {
                let mask = ((i / 8) * 167 % 256) as u8;
                let set = mask & (1 << (i % 8)) != 0;
                let b = match (set, repeat) {
                    (true, true) => prev.wrapping_add(1 + (i % 255) as u8),
                    (false, true) => prev,
                    (true, false) => (i % 255 + 1) as u8,
                    (false, false) => 0,
                };
                prev = b;
                b
            })
            .collect()
    }

    /// Compaction and expansion kernels, called by name, against the scalar
    /// references: every bitmap byte in both modes, lengths 0..=80 and
    /// 16384 ± 1, carried predecessors 0x00/0x01/0xFF, bitmap bits set past
    /// `count`, and truncations of `src`. Each case compares `Some`/`None`,
    /// the consumed count and the whole output vector, whose prefix the
    /// kernel must leave untouched.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn avx2_block_kernels_match_scalar_exhaustively() {
        use crate::x86;
        if !Tier::Avx2.available() {
            return;
        }
        let prefix = [0xA5u8; 5];
        let lens = (0..=80).chain([16383, 16384, 16385]);
        for (len, repeat) in lens.flat_map(|n| [(n, false), (n, true)]) {
            let data = bytes_with_every_mask(len, repeat);
            let (bm, kept) = if repeat {
                scalar_repeat(&data)
            } else {
                scalar_zero(&data)
            };
            let mut bm2 = vec![0u8; bm.len()];
            let mut kept2 = prefix.to_vec();
            if repeat {
                x86::repeat_bitmap_avx2(&data, &mut bm2, &mut kept2);
            } else {
                x86::zero_bitmap_avx2(&data, &mut bm2, &mut kept2);
            }
            assert_eq!(bm2, bm, "compact bitmap len {len} repeat {repeat}");
            assert_eq!(kept2[..5], prefix, "compact prefix len {len}");
            assert_eq!(kept2[5..], kept, "compact kept len {len} repeat {repeat}");

            // The scan's bitmap, then the same with every bit past `len` set.
            let mut noisy = bm.clone();
            if len % 8 != 0 {
                *noisy.last_mut().unwrap() |= 0xFF << (len % 8);
            }
            noisy.extend([0xFF; 3]);
            let cuts: Vec<usize> = if len <= 80 {
                (0..=kept.len()).collect()
            } else {
                let n = kept.len();
                (0..=16)
                    .chain((0..n).step_by(251))
                    .chain(n - 16..=n)
                    .collect()
            };
            let preds: &[Option<u8>] = if repeat {
                &[Some(0x00), Some(0x01), Some(0xFF)]
            } else {
                &[None]
            };
            for (bitmap, &pred, &cut) in [&bm, &noisy]
                .into_iter()
                .flat_map(|b| preds.iter().map(move |p| (b, p)))
                .flat_map(|(b, p)| cuts.iter().map(move |c| (b, p, c)))
            {
                let src = &kept[..cut];
                let mut want = prefix.to_vec();
                let want_used = match pred {
                    Some(p) => expand_repeat_tail(bitmap, 0, len, p, src, 0, &mut want),
                    None => expand_nonzero_tail(bitmap, 0, len, src, 0, &mut want),
                };
                let mut got = prefix.to_vec();
                let used = x86::expand_avx2(bitmap, len, pred, src, &mut got);
                let case = format!("len {len} pred {pred:?} cut {cut}/{}", kept.len());
                assert_eq!(used, want_used, "expand result, {case}");
                assert_eq!(got, want, "expand output, {case}");
            }
        }
        // Every bitmap byte against a source with exactly its set bits.
        let bitmap: Vec<u8> = (0..=255).collect();
        let src: Vec<u8> = (0..1024u32).map(|i| (i % 251 + 1) as u8).collect();
        for pred in [None, Some(0x00), Some(0x01), Some(0xFF)] {
            let mut want = Vec::new();
            let want_used = match pred {
                Some(p) => expand_repeat_tail(&bitmap, 0, 2048, p, &src, 0, &mut want),
                None => expand_nonzero_tail(&bitmap, 0, 2048, &src, 0, &mut want),
            };
            let mut got = Vec::new();
            let used = x86::expand_avx2(&bitmap, 2048, pred, &src, &mut got);
            assert_eq!((used, &got), (want_used, &want), "all masks, {pred:?}");
            assert_eq!(used, Some(1024));
        }
    }
}

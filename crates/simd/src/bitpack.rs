//! Fast fixed-width bit packing/unpacking: width-specialized block kernels.
//!
//! The scalar reference in `fpc-entropy` pushes bits through a `BitWriter`/
//! `BitReader` one value at a time, LSB-first. The kernels here work on
//! blocks of 32 values instead. At width `W` a block holds exactly `32 * W`
//! bits, i.e. `4 * W` bytes, so every block starts on a byte boundary of the
//! stream and block `k` occupies bytes `4Wk..4W(k+1)` — exactly the bytes
//! the sequential writer emits for values `32k..32k+32`.
//!
//! There is one kernel per width: `pack32::<W>`, `pack64::<W>`,
//! `unpack32::<W>` and `unpack64::<W>` take `W` as a const generic and
//! write their block body out once per value (`unroll_block!`; LLVM does
//! not fully unroll the loop by itself), so every shift, mask and word
//! index is a compile-time constant and no branch depends on data. The public entry points pick the kernel from a
//! per-width table once per call, size the packed output once for all full
//! blocks (unpacking fills the caller's slice) and let the kernel write into
//! it directly.
//!
//! A tail of fewer than 32 values also starts byte-aligned. It runs through
//! the same kernel on a zero-padded block in a stack buffer: packing keeps
//! the first `ceil(tail * W / 8)` bytes (the padding values are zero, so the
//! last byte's spare high bits are zero as the writer leaves them), and
//! unpacking copies the remaining bytes into the buffer first, so no load
//! ever reads past the end of `data`.
//!
//! Byte output and EOF behaviour match the reference: values are masked to
//! `W` bits before packing, and unpacking fails, before reading any block,
//! iff `data` holds fewer than `count * width` bits — the sequential
//! reader's EOF condition. Bit counts are compared in `u128`: on 32-bit
//! targets (the i686 CI build) `len * 8` can overflow `usize`.

use crate::Tier;

/// Values per block: at width `W` a block packs to exactly `4 * W` bytes.
const BLOCK: usize = 32;

/// Tier used by the pack kernels (the block kernels are the same code on
/// every non-scalar tier).
pub fn chosen_pack() -> Tier {
    crate::choose(&[Tier::Swar])
}

/// Tier used by the unpack kernels.
pub fn chosen_unpack() -> Tier {
    crate::choose(&[Tier::Swar])
}

/// Packs whole blocks of `values` into `out`, `4 * W` bytes per block.
type Pack<T> = fn(&[T], &mut [u8]);
/// Unpacks whole `4 * W`-byte blocks of `data` into `out`, 32 values each.
type Unpack<T> = fn(&[u8], &mut [T]);

/// Expands `$body` once for each `$i` in `0..32`: the loop over a block,
/// written out so every position derived from `$i` is a constant.
macro_rules! unroll_block {
    ($i:ident => $body:block) => {
        unroll_block!(@ $i $body 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
            16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31)
    };
    (@ $i:ident $body:block $($n:literal)*) => {
        $({
            let $i: usize = $n;
            $body
        })*
    };
}

/// The block's `W` little-endian 32-bit words.
#[inline(always)]
fn load_words<const W: usize>(src: &[u8]) -> [u32; W] {
    let mut words = [0u32; W];
    for (w, b) in words.iter_mut().zip(src.chunks_exact(4)) {
        *w = u32::from_le_bytes(b.try_into().expect("4-byte word"));
    }
    words
}

#[inline(always)]
fn store_words<const W: usize>(words: [u32; W], dst: &mut [u8]) {
    for (b, w) in dst.chunks_exact_mut(4).zip(words) {
        b.copy_from_slice(&w.to_le_bytes());
    }
}

// Value `i` of a block occupies bits `i * W..(i + 1) * W` of the block,
// i.e. starts in word `i * W / 32` at bit `i * W % 32` and spills into the
// following word(s) when it crosses a word boundary.

fn pack32<const W: usize>(values: &[u32], out: &mut [u8]) {
    let mask = u32::MAX >> (32 - W);
    for (block, dst) in values.chunks_exact(BLOCK).zip(out.chunks_exact_mut(4 * W)) {
        let block: &[u32; BLOCK] = block.try_into().expect("whole block");
        let mut words = [0u32; W];
        unroll_block!(i => {
            let (j, s) = (i * W / 32, i * W % 32);
            let v = block[i] & mask;
            words[j] |= v << s;
            if s + W > 32 {
                words[j + 1] |= v >> (32 - s);
            }
        });
        store_words(words, dst);
    }
}

fn pack64<const W: usize>(values: &[u64], out: &mut [u8]) {
    let mask = u64::MAX >> (64 - W);
    for (block, dst) in values.chunks_exact(BLOCK).zip(out.chunks_exact_mut(4 * W)) {
        let block: &[u64; BLOCK] = block.try_into().expect("whole block");
        let mut words = [0u32; W];
        unroll_block!(i => {
            let (j, s) = (i * W / 32, i * W % 32);
            let v = block[i] & mask;
            words[j] |= (v << s) as u32;
            if s + W > 32 {
                words[j + 1] |= (v >> (32 - s)) as u32;
            }
            if s + W > 64 {
                words[j + 2] |= (v >> (64 - s)) as u32;
            }
        });
        store_words(words, dst);
    }
}

fn unpack32<const W: usize>(data: &[u8], out: &mut [u32]) {
    let mask = u32::MAX >> (32 - W);
    for (src, block) in data.chunks_exact(4 * W).zip(out.chunks_exact_mut(BLOCK)) {
        let block: &mut [u32; BLOCK] = block.try_into().expect("whole block");
        let words = load_words::<W>(src);
        unroll_block!(i => {
            let (j, s) = (i * W / 32, i * W % 32);
            let mut v = words[j] >> s;
            if s + W > 32 {
                v |= words[j + 1] << (32 - s);
            }
            block[i] = v & mask;
        });
    }
}

fn unpack64<const W: usize>(data: &[u8], out: &mut [u64]) {
    let mask = u64::MAX >> (64 - W);
    for (src, block) in data.chunks_exact(4 * W).zip(out.chunks_exact_mut(BLOCK)) {
        let block: &mut [u64; BLOCK] = block.try_into().expect("whole block");
        let words = load_words::<W>(src);
        unroll_block!(i => {
            let (j, s) = (i * W / 32, i * W % 32);
            let mut v = u64::from(words[j]) >> s;
            if s + W > 32 {
                v |= u64::from(words[j + 1]) << (32 - s);
            }
            if s + W > 64 {
                v |= u64::from(words[j + 2]) << (64 - s);
            }
            block[i] = v & mask;
        });
    }
}

/// One kernel instance per width, indexed by `width - 1`.
macro_rules! per_width {
    ($kernel:ident: $($w:literal)*) => {
        [$($kernel::<$w>),*]
    };
}

static PACK32: [Pack<u32>; 32] = per_width!(pack32:
    1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
    17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
static UNPACK32: [Unpack<u32>; 32] = per_width!(unpack32:
    1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
    17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
static PACK64: [Pack<u64>; 64] = per_width!(pack64:
    1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
    17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48
    49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64);
static UNPACK64: [Unpack<u64>; 64] = per_width!(unpack64:
    1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
    17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48
    49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64);

fn pack<T: Copy + Default>(values: &[T], width: u32, kernels: &[Pack<T>], out: &mut Vec<u8>) {
    let width = width as usize;
    let kernel = kernels[width - 1];
    let block_bytes = 4 * width;
    let (full, tail) = values.split_at(values.len() - values.len() % BLOCK);
    let start = out.len();
    out.resize(start + full.len() / BLOCK * block_bytes, 0);
    kernel(full, &mut out[start..]);
    if !tail.is_empty() {
        let mut block = [T::default(); BLOCK];
        block[..tail.len()].copy_from_slice(tail);
        let mut bytes = [0u8; 8 * BLOCK];
        kernel(&block, &mut bytes[..block_bytes]);
        out.extend_from_slice(&bytes[..(tail.len() * width).div_ceil(8)]);
    }
}

fn unpack_into<T: Copy + Default>(
    data: &[u8],
    width: u32,
    kernels: &[Unpack<T>],
    out: &mut [T],
) -> bool {
    let count = out.len();
    if count as u128 * width as u128 > data.len() as u128 * 8 {
        return false;
    }
    let width = width as usize;
    let kernel = kernels[width - 1];
    let block_bytes = 4 * width;
    // Cannot overflow: the full blocks' bytes fit in `data` (checked above).
    let (full, rest) = data.split_at(count / BLOCK * block_bytes);
    let (head, tail) = out.split_at_mut(count / BLOCK * BLOCK);
    kernel(full, head);
    if !tail.is_empty() {
        let mut bytes = [0u8; 8 * BLOCK];
        let n = rest.len().min(block_bytes);
        bytes[..n].copy_from_slice(&rest[..n]);
        let mut block = [T::default(); BLOCK];
        kernel(&bytes[..block_bytes], &mut block);
        tail.copy_from_slice(&block[..tail.len()]);
    }
    true
}

/// Packs each `u32` at `width` bits (1..=32), appending to `out`.
/// Byte-identical to the `BitWriter` loop in `fpc_entropy::bitpack`, which
/// masks each value to `width` bits first.
pub fn pack_u32(values: &[u32], width: u32, out: &mut Vec<u8>) {
    debug_assert!((1..=32).contains(&width));
    crate::record(chosen_pack());
    pack(values, width, &PACK32, out);
}

/// Packs each `u64` at `width` bits (1..=64), appending to `out`.
pub fn pack_u64(values: &[u64], width: u32, out: &mut Vec<u8>) {
    debug_assert!((1..=64).contains(&width));
    crate::record(chosen_pack());
    pack(values, width, &PACK64, out);
}

/// Unpacks `out.len()` values of `width` bits (1..=32) from the front of
/// `data` into `out`.
///
/// Returns `false`, leaving `out` untouched, iff `data` holds fewer than
/// `out.len() * width` bits — exactly the scalar EOF condition.
pub fn unpack_u32_into(data: &[u8], width: u32, out: &mut [u32]) -> bool {
    debug_assert!((1..=32).contains(&width));
    crate::record(chosen_unpack());
    unpack_into(data, width, &UNPACK32, out)
}

/// Unpacks `out.len()` values of `width` bits (1..=64) from `data`.
///
/// Same contract as [`unpack_u32_into`].
pub fn unpack_u64_into(data: &[u8], width: u32, out: &mut [u64]) -> bool {
    debug_assert!((1..=64).contains(&width));
    crate::record(chosen_unpack());
    unpack_into(data, width, &UNPACK64, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lengths straddling every block boundary up to four blocks.
    const LENS: [usize; 11] = [0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129];
    const PREFIX: [u8; 3] = [0xA5, 0x00, 0xFF];

    /// Minimal reimplementation of the scalar LSB-first BitWriter for
    /// differential checking without a dependency on fpc-entropy.
    fn scalar_pack(values: impl Iterator<Item = u64>, width: u32) -> Vec<u8> {
        let mut out = Vec::new();
        let mut acc = 0u128;
        let mut nbits = 0u32;
        for v in values {
            acc |= u128::from(v) << nbits;
            nbits += width;
            while nbits >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out.push(acc as u8);
        }
        out
    }

    /// Values with bits set above every width, varied per position.
    fn noisy(n: usize) -> impl Iterator<Item = u64> {
        (0..n as u64).map(|i| {
            (i ^ 0xDEAD)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32)
        })
    }

    #[test]
    fn pack_u32_matches_bitwriter_at_block_boundaries() {
        for width in 1..=32u32 {
            let mask = u32::MAX >> (32 - width);
            for n in LENS {
                let values: Vec<u32> = noisy(n).map(|v| v as u32).collect();
                let want = scalar_pack(values.iter().map(|&v| u64::from(v & mask)), width);
                let mut got = PREFIX.to_vec();
                pack_u32(&values, width, &mut got);
                assert_eq!(got[..PREFIX.len()], PREFIX, "w{width} n{n}");
                assert_eq!(got[PREFIX.len()..], want, "w{width} n{n}");
                let mut back = vec![7u32; n];
                assert!(unpack_u32_into(&want, width, &mut back), "w{width} n{n}");
                let masked: Vec<u32> = values.iter().map(|v| v & mask).collect();
                assert_eq!(back, masked, "w{width} n{n}");
            }
        }
    }

    #[test]
    fn pack_u64_matches_bitwriter_at_block_boundaries() {
        for width in 1..=64u32 {
            let mask = u64::MAX >> (64 - width);
            for n in LENS {
                let values: Vec<u64> = noisy(n).collect();
                let want = scalar_pack(values.iter().map(|&v| v & mask), width);
                let mut got = PREFIX.to_vec();
                pack_u64(&values, width, &mut got);
                assert_eq!(got[..PREFIX.len()], PREFIX, "w{width} n{n}");
                assert_eq!(got[PREFIX.len()..], want, "w{width} n{n}");
                let mut back = vec![7u64; n];
                assert!(unpack_u64_into(&want, width, &mut back), "w{width} n{n}");
                let masked: Vec<u64> = values.iter().map(|v| v & mask).collect();
                assert_eq!(back, masked, "w{width} n{n}");
            }
        }
    }

    #[test]
    fn every_truncation_is_refused_at_every_width() {
        // 65 values: two full blocks and a one-value tail, so the cuts cover
        // data shorter than the first block, full blocks with a short tail,
        // and everything in between.
        const N: usize = 65;
        for width in 1..=64u32 {
            let mut packed = Vec::new();
            pack_u64(&noisy(N).collect::<Vec<_>>(), width, &mut packed);
            for cut in 0..packed.len() {
                let mut out = [7u64; N];
                assert!(
                    !unpack_u64_into(&packed[..cut], width, &mut out),
                    "w{width} cut{cut}"
                );
                assert_eq!(out, [7; N]);
            }
            if width <= 32 {
                let mut packed = Vec::new();
                pack_u32(
                    &noisy(N).map(|v| v as u32).collect::<Vec<_>>(),
                    width,
                    &mut packed,
                );
                for cut in 0..packed.len() {
                    let mut out = [7u32; N];
                    assert!(
                        !unpack_u32_into(&packed[..cut], width, &mut out),
                        "w{width} cut{cut}"
                    );
                    assert_eq!(out, [7; N]);
                }
            }
        }
    }

    #[test]
    fn unpack_eof_matches_scalar_condition() {
        // Exactly enough bits succeeds even with a ragged final byte.
        let mut packed = Vec::new();
        pack_u32(&[3u32; 5], 3, &mut packed); // 15 bits -> 2 bytes
        let mut out = [0u32; 5];
        assert!(unpack_u32_into(&packed, 3, &mut out));
        assert_eq!(out, [3u32; 5]);
        // One more value than the stream holds fails.
        let mut out = [0u32; 6];
        assert!(!unpack_u32_into(&packed, 3, &mut out));
    }
}

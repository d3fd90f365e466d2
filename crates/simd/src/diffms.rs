//! Dispatched DIFFMS (difference + zigzag) kernels: one per direction and
//! width, each fused with the little-endian load or store.
//!
//! Encode reads `dst.len()` little-endian words from a byte slice,
//! subtracts from each its predecessor (modulo word size; the carried
//! `prev` for the first word) and stores the zigzagged difference in a
//! separate word slice. Source and destination never alias, so the AVX2
//! kernels run left to right, loading each block and its predecessors
//! straight from the bytes, and a chunk codec encodes one block at a time
//! without first copying the chunk into a word buffer.
//!
//! Decode is a zigzag decode followed by an inclusive prefix sum started
//! from the carried `prev`, stored as little-endian words straight into a
//! byte slice. Wrapping addition is associative, so the SSE2 log-step
//! prefix sum is bit-identical to the sequential loop; it runs at the x86
//! tier. A SWAR prefix sum would need carries to cross the packed lanes,
//! so decode has no SWAR form and non-x86 hosts run the scalar loops.
//!
//! Every kernel returns the `prev` of the next block of the same sequence.
//! The in-place word-slice loops in `fpc_transforms::diffms` are DIFFMS's
//! plain scalar definition, which these kernels are tested against; no
//! codec runs them.

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

/// Dispatched fused load + DIFFMS encode: reads `dst.len()` little-endian
/// words from the front of `src`, differences each against its predecessor
/// (`prev` for the first) and stores the zigzagged results in `dst`.
///
/// Returns the last word read (`prev` if `dst` is empty), which is the
/// `prev` of the next block of the same sequence. Encoding a sequence block
/// by block from `prev = 0` gives exactly the in-place DIFFMS encode of
/// the whole sequence (`fpc_transforms::diffms::encode32`).
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

/// Dispatched fused DIFFMS decode + little-endian store: zigzag-decodes
/// the `src.len()` words of `src`, adds each onto the running sum (which
/// starts at `prev`) and writes the sums as little-endian words to the
/// front of `dst`.
///
/// Returns the last sum (`prev` if `src` is empty), which is the `prev` of
/// the next block of the same sequence. Decoding a sequence block by block
/// from `prev = 0` writes exactly the bytes of the in-place DIFFMS decode
/// of the whole sequence (`fpc_transforms::diffms::decode32`).
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

    /// Defines `$check(encode, decode, what)`, a differential of one
    /// width's fused kernels against its scalar references. Word counts
    /// run from 0 to 40, across every tail of the AVX2 encoders' 8- and
    /// 4-word blocks and of the SSE2 decoders' 4- and 2-word blocks. Each
    /// count starts from every carried `prev` in {0, 1, MAX}; every third
    /// word is an edge value (all ones, zero, sign bit alone, NaN bits).
    macro_rules! differential {
        ($check:ident, $t:ty, $enc_ref:ident, $dec_ref:ident, $edges:expr, $mix:expr) => {
            fn $check(
                encode: fn($t, &[u8], &mut [$t]) -> $t,
                decode: fn($t, &[$t], &mut [u8]) -> $t,
                what: &str,
            ) {
                const W: usize = core::mem::size_of::<$t>();
                let edges = $edges;
                for n in 0..=40usize {
                    let words: Vec<$t> = (0..n)
                        .map(|i| match i % 3 {
                            2 => edges[i % edges.len()],
                            _ => $mix(i as $t),
                        })
                        .collect();
                    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                    for prev in [0, 1, <$t>::MAX] {
                        let tag = format!("{what} n {n} prev {prev:#x}");
                        let mut want = vec![0; n];
                        let want_last = $enc_ref(prev, &bytes, &mut want);
                        let mut got = vec![0; n];
                        assert_eq!(encode(prev, &bytes, &mut got), want_last, "enc last, {tag}");
                        assert_eq!(got, want, "enc {tag}");

                        let mut back = vec![0; n * W];
                        assert_eq!(
                            decode(prev, &want, &mut back),
                            want_last,
                            "roundtrip, {tag}"
                        );
                        assert_eq!(back, bytes, "roundtrip {tag}");
                        // Arbitrary encoded words, into a destination with a
                        // guard tail neither kernel may touch.
                        let mut want_out = vec![0xA5; n * W + 3];
                        let want_sum = $dec_ref(prev, &words, &mut want_out);
                        let mut out = vec![0xA5; n * W + 3];
                        assert_eq!(decode(prev, &words, &mut out), want_sum, "dec last, {tag}");
                        assert_eq!(out, want_out, "dec {tag}");
                    }
                }
            }
        };
    }

    differential!(
        check32,
        u32,
        encode32_le_scalar,
        decode32_le_scalar,
        [u32::MAX, 0, 0x8000_0000, 0x7F80_0001, 5],
        |i: u32| i.wrapping_mul(0x0101_0101).rotate_left(i % 13)
    );
    differential!(
        check64,
        u64,
        encode64_le_scalar,
        decode64_le_scalar,
        [u64::MAX, 0, 1 << 63, 0x7FF0_0000_0000_0001, 3],
        |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    );

    #[test]
    fn dispatched_matches_scalar_all_lengths() {
        check32(encode32_le, decode32_le, "dispatched");
        check64(encode64_le, decode64_le, "dispatched");
    }

    /// The x86 kernels called by name, so they run whatever the dispatch
    /// says (`FPC_FORCE_SCALAR=1` included). The SSE2 decoders run on every
    /// x86_64 host; the AVX2 encoders only where the CPU has AVX2.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn x86_matches_scalar() {
        use crate::x86;
        type Enc32 = fn(u32, &[u8], &mut [u32]) -> u32;
        type Enc64 = fn(u64, &[u8], &mut [u64]) -> u64;
        let (enc32, enc64): (Enc32, Enc64) = if Tier::Avx2.available() {
            (x86::diffms_encode32_le_avx2, x86::diffms_encode64_le_avx2)
        } else {
            (encode32_le_scalar, encode64_le_scalar)
        };
        check32(enc32, x86::diffms_decode32_le_sse2, "x86");
        check64(enc64, x86::diffms_decode64_le_sse2, "x86");
    }
}

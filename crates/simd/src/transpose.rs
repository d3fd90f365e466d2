//! Dispatched 32×32 bit-matrix transpose.
//!
//! The scalar reference is the Hacker's Delight §7-3 masked-swap network.
//! The AVX2 tier holds the whole 32×32 matrix in four 256-bit registers and
//! runs the network in-register. The AVX-512 tier splits the matrix into
//! sixteen 8×8 bit blocks: byte permutes gather each block into a qword,
//! GFNI affine ops transpose every block, and byte permutes put the bytes
//! in place. Every other tier runs the scalar network,
//! which the compiler already keeps in registers: running two groups at
//! once in `u64` rows (SWAR) measures slower than it (~0.9x on the
//! 16 KiB-chunk microbench), since the pack/unpack costs more than the
//! halved swap count saves.
//!
//! The 64×64 transpose already operates on whole `u64` words (it *is* the
//! word-level SWAR formulation), so it has no separate fast path here.

use crate::Tier;

/// Tier used by the 32×32 transpose under the current dispatch.
pub fn chosen32() -> Tier {
    crate::choose(&[Tier::Avx512, Tier::Avx2])
}

/// Scalar reference: in-place 32×32 bit-matrix transpose of one group
/// (re-exported as `fpc_transforms::bit_transpose::transpose32_group`).
pub fn transpose32_group_scalar(a: &mut [u32; 32]) {
    let mut m: u32 = 0x0000_FFFF;
    let mut j = 16usize;
    while j != 0 {
        let mut k = 0usize;
        while k < 32 {
            let t = (a[k] ^ (a[k + j] >> j)) & m;
            a[k] ^= t;
            a[k + j] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Transposes every complete 32-word group of `values` in place at the
/// dispatched tier; trailing words that do not fill a group are untouched
/// (same contract as the scalar reference).
pub fn transpose32(values: &mut [u32]) {
    let tier = chosen32();
    crate::record(tier);
    match tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx512 => crate::x86::transpose32_avx512(values),
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Tier::Avx2 => {
            for group in values.chunks_exact_mut(32) {
                crate::x86::transpose32_avx2(group.try_into().expect("chunks_exact(32)"));
            }
        }
        _ => {
            for group in values.chunks_exact_mut(32) {
                transpose32_group_scalar(group.try_into().expect("chunks_exact(32)"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn sample_group(seed: u32) -> [u32; 32] {
        let mut g = [0u32; 32];
        for (i, v) in g.iter_mut().enumerate() {
            *v = (i as u32)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(seed)
                .rotate_left(i as u32);
        }
        g
    }

    #[test]
    fn full_slice_dispatch_is_involution() {
        // 3 groups + tail of 7: dispatched transpose twice restores input.
        let orig: Vec<u32> = (0..103u32).map(|i| i.wrapping_mul(0x85EB_CA6B)).collect();
        let mut v = orig.clone();
        transpose32(&mut v);
        assert_eq!(&v[96..], &orig[96..], "tail must pass through");
        transpose32(&mut v);
        assert_eq!(v, orig);
    }

    /// The AVX-512 kernel, called by name, against the reference on random
    /// groups, on all 1024 single-bit groups, and on a slice with a tail.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn avx512_matches_scalar() {
        if !Tier::Avx512.available() {
            return;
        }
        let mut rng = fpc_prng::Rng::seed_from_u64(0x7A55_0512);
        let mut groups: Vec<[u32; 32]> = (0..64)
            .map(|_| std::array::from_fn(|_| rng.next_u64() as u32))
            .collect();
        groups.extend((0..1024).map(|bit| {
            let mut g = [0u32; 32];
            g[bit / 32] = 1 << (bit % 32);
            g
        }));
        groups.extend([[0u32; 32], [u32::MAX; 32]]);
        for (i, group) in groups.iter().enumerate() {
            let mut got = *group;
            let mut want = *group;
            crate::x86::transpose32_avx512(&mut got);
            transpose32_group_scalar(&mut want);
            assert_eq!(got, want, "group {i}");
        }
        let orig: Vec<u32> = groups.iter().take(5).flatten().copied().take(150).collect();
        let mut got = orig.clone();
        crate::x86::transpose32_avx512(&mut got);
        let mut want = orig.clone();
        for g in want.chunks_exact_mut(32) {
            transpose32_group_scalar(g.try_into().unwrap());
        }
        assert_eq!(got, want, "slice of 4 groups and a 22-word tail");
        assert_eq!(got[128..], orig[128..], "tail must pass through");
    }

    /// Rebuilds the AVX-512 kernel's two `vpermt2b` tables from the scalar
    /// reference alone, by probing where each of the 1024 bits goes, and
    /// checks them against the constants the kernel loads.
    ///
    /// Each input byte's 8 bits land in 8 distinct output bytes, all at one
    /// bit position; input bytes that share their output bytes form one
    /// 8×8 block (blocks ordered by their lowest input byte). Within a
    /// block the affine op sends gathered byte `u` to output bit `7 - u`
    /// and bit `j` of every gathered byte to output byte `j`, which fixes
    /// both tables.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn avx512_tables_derive_from_reference() {
        // (output byte, output bit) of every input bit `8 * byte + bit`.
        let dest: Vec<(usize, usize)> = (0..1024)
            .map(|n| {
                let mut g = [0u32; 32];
                g[n / 32] = 1 << (n % 32);
                transpose32_group_scalar(&mut g);
                let out: Vec<usize> = (0..1024)
                    .filter(|&m| g[m / 32] & (1 << (m % 32)) != 0)
                    .collect();
                assert_eq!(out.len(), 1, "bit {n} must map to one bit");
                (out[0] / 8, out[0] % 8)
            })
            .collect();
        let mut blocks: Vec<Vec<usize>> = Vec::new();
        let mut gather = [0u8; 128];
        let mut scatter = [0u8; 128];
        for byte in 0..128 {
            let bits = &dest[8 * byte..8 * byte + 8];
            let to_bit = bits[0].1;
            assert!(bits.iter().all(|&(_, b)| b == to_bit), "byte {byte}");
            let to_bytes: Vec<usize> = bits.iter().map(|&(o, _)| o).collect();
            let block = match blocks.iter().position(|b| *b == to_bytes) {
                Some(k) => k,
                None => {
                    blocks.push(to_bytes.clone());
                    blocks.len() - 1
                }
            };
            gather[8 * block + 7 - to_bit] = byte as u8;
            for (j, &o) in to_bytes.iter().enumerate() {
                scatter[o] = (8 * block + j) as u8;
            }
        }
        assert_eq!(blocks.len(), 16);
        assert_eq!(gather, crate::x86::TRANSPOSE_GATHER);
        assert_eq!(scatter, crate::x86::TRANSPOSE_SCATTER);
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn avx2_matches_scalar() {
        if !Tier::Avx2.available() {
            return;
        }
        for seed in 0..16u32 {
            let mut got = sample_group(seed.wrapping_mul(0xC2B2_AE35));
            let mut want = got;
            crate::x86::transpose32_avx2(&mut got);
            transpose32_group_scalar(&mut want);
            assert_eq!(got, want, "seed {seed}");
        }
        for pat in [[0u32; 32], [u32::MAX; 32]] {
            let mut got = pat;
            crate::x86::transpose32_avx2(&mut got);
            assert_eq!(got, pat);
        }
    }
}

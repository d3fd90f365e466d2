//! Dispatched 32×32 bit-matrix transpose.
//!
//! The scalar reference is the Hacker's Delight §7-3 masked-swap network.
//! The AVX2 tier holds the whole 32×32 matrix in four 256-bit registers and
//! runs the network in-register. Every other tier runs the scalar network,
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
    crate::choose(&[Tier::Avx2])
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

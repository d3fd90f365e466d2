//! BIT: bit transposition (bit shuffling).
//!
//! The second stage of SPratio (paper §3.2, Figure 4). Groups of 32 32-bit
//! words (or 64 64-bit words) are treated as a square bit matrix and
//! transposed, so that the i-th bits of all words in the group become
//! adjacent. After DIFFMS most words have many leading zeros, so the
//! transposed stream starts with long runs of all-zero words — exactly what
//! the following RZE stage eliminates.
//!
//! The transpose is an involution (applying it twice restores the input),
//! so encode and decode are the same function. Trailing words that do not
//! fill a complete group pass through unchanged.

use fpc_metrics::Stage;

/// In-place 32×32 bit-matrix transpose of one group (Hacker's Delight
/// §7-3): the scalar reference `fpc_simd::transpose` dispatches around.
pub use fpc_simd::transpose::transpose32_group_scalar as transpose32_group;

/// Transposes each complete group of 32 words in place (involution), with
/// the kernel `fpc_simd::transpose` dispatches to.
pub fn transpose32(values: &mut [u32]) {
    let t = fpc_metrics::timer(Stage::BitTranspose);
    fpc_simd::transpose::transpose32(values);
    t.finish(values.len() as u64 * 4);
}

/// Transposes each complete group of 64 words in place (involution).
pub fn transpose64(values: &mut [u64]) {
    let t = fpc_metrics::timer(Stage::BitTranspose);
    for group in values.chunks_exact_mut(64) {
        transpose64_group(group.try_into().expect("chunks_exact(64)"));
    }
    t.finish(values.len() as u64 * 8);
}

/// In-place 64×64 bit-matrix transpose.
pub fn transpose64_group(a: &mut [u64; 64]) {
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    let mut j = 32usize;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = (a[k] ^ (a[k + j] >> j)) & m;
            a[k] ^= t;
            a[k + j] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference transpose by explicit bit indexing.
    fn naive32(a: &[u32; 32]) -> [u32; 32] {
        let mut out = [0u32; 32];
        for (r, row) in out.iter_mut().enumerate() {
            #[allow(clippy::needless_range_loop)] // c is a matrix column index
            for c in 0..32 {
                let bit = (a[c] >> r) & 1;
                *row |= bit << c;
            }
        }
        out
    }

    #[test]
    fn matches_naive_reference() {
        let mut a = [0u32; 32];
        for (i, v) in a.iter_mut().enumerate() {
            *v = (i as u32).wrapping_mul(0x9E37_79B9).rotate_left(i as u32);
        }
        let mut fast = a;
        transpose32_group(&mut fast);
        let naive = naive32(&a);
        // Both are valid transposes; they may differ in bit-order convention,
        // but each must be an involution and preserve total bit count.
        let mut again = fast;
        transpose32_group(&mut again);
        assert_eq!(again, a);
        let ones_in: u32 = a.iter().map(|v| v.count_ones()).sum();
        let ones_fast: u32 = fast.iter().map(|v| v.count_ones()).sum();
        let ones_naive: u32 = naive.iter().map(|v| v.count_ones()).sum();
        assert_eq!(ones_in, ones_fast);
        assert_eq!(ones_in, ones_naive);
    }

    #[test]
    fn involution32() {
        let orig: Vec<u32> = (0..128u32).map(|i| i.wrapping_mul(0x85EB_CA6B)).collect();
        let mut v = orig.clone();
        transpose32(&mut v);
        assert_ne!(v, orig);
        transpose32(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn involution64() {
        let orig: Vec<u64> = (0..256u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut v = orig.clone();
        transpose64(&mut v);
        transpose64(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn partial_group_passes_through() {
        let orig: Vec<u32> = (0..40u32).collect(); // 32 + 8 tail
        let mut v = orig.clone();
        transpose32(&mut v);
        assert_eq!(&v[32..], &orig[32..]);
        transpose32(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn leading_zero_words_become_zero_run() {
        // Words with their top 24 bits zero: transposing groups those zero
        // bit-planes into 24 all-zero words.
        let mut v = vec![0u32; 32];
        for (i, w) in v.iter_mut().enumerate() {
            *w = (i as u32) & 0xFF;
        }
        transpose32(&mut v);
        let zero_words = v.iter().filter(|&&w| w == 0).count();
        assert!(zero_words >= 24, "only {zero_words} zero words");
    }

    #[test]
    fn single_bit_moves_consistently() {
        // A single set bit must remain a single set bit after transpose.
        for pos in [0usize, 1, 31] {
            for word in [0usize, 5, 31] {
                let mut v = [0u32; 32];
                v[word] = 1 << pos;
                let mut t = v;
                transpose32_group(&mut t);
                let ones: u32 = t.iter().map(|x| x.count_ones()).sum();
                assert_eq!(ones, 1);
                transpose32_group(&mut t);
                assert_eq!(t, v);
            }
        }
    }

    #[test]
    fn all_ones_is_fixed_point() {
        let mut v = [u32::MAX; 32];
        transpose32_group(&mut v);
        assert_eq!(v, [u32::MAX; 32]);
        let mut v = [u64::MAX; 64];
        transpose64_group(&mut v);
        assert_eq!(v, [u64::MAX; 64]);
    }
}

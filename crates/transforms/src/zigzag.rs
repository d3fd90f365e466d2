//! Two's-complement ↔ magnitude-sign conversion ("zigzag" coding).
//!
//! The paper's DIFFMS stage stores differences in magnitude-sign format so
//! that values with many leading '1' bits (small negative numbers) become
//! values with many leading '0' bits, with the sign moved to the least
//! significant position: `(data << 1) ^ (data >> 31)` with an arithmetic
//! right shift (paper Figure 2). The enhanced MPLG stage reuses the same
//! conversion as a fallback when a subchunk's maximum has no leading zeros.

/// Converts a 32-bit word from two's complement to magnitude-sign.
#[inline]
pub fn encode32(v: u32) -> u32 {
    (v << 1) ^ (((v as i32) >> 31) as u32)
}

/// Inverts [`encode32`].
#[inline]
pub fn decode32(v: u32) -> u32 {
    (v >> 1) ^ (v & 1).wrapping_neg()
}

/// Converts a 64-bit word from two's complement to magnitude-sign.
#[inline]
pub fn encode64(v: u64) -> u64 {
    (v << 1) ^ (((v as i64) >> 63) as u64)
}

/// Inverts [`encode64`].
#[inline]
pub fn decode64(v: u64) -> u64 {
    (v >> 1) ^ (v & 1).wrapping_neg()
}

/// Applies [`encode32`] to every element.
pub fn encode32_slice(values: &mut [u32]) {
    for v in values {
        *v = encode32(*v);
    }
}

/// Applies [`decode32`] to every element.
pub fn decode32_slice(values: &mut [u32]) {
    for v in values {
        *v = decode32(*v);
    }
}

/// Applies [`encode64`] to every element.
pub fn encode64_slice(values: &mut [u64]) {
    for v in values {
        *v = encode64(*v);
    }
}

/// Applies [`decode64`] to every element.
pub fn decode64_slice(values: &mut [u64]) {
    for v in values {
        *v = decode64(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_map_to_small_codes() {
        // 0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...
        assert_eq!(encode32(0), 0);
        assert_eq!(encode32(-1i32 as u32), 1);
        assert_eq!(encode32(1), 2);
        assert_eq!(encode32(-2i32 as u32), 3);
        assert_eq!(encode32(2), 4);
        assert_eq!(encode64(-1i64 as u64), 1);
        assert_eq!(encode64(3), 6);
    }

    #[test]
    fn leading_ones_become_leading_zeros() {
        let v = -5i32 as u32; // 0xFFFF_FFFB: 29 leading ones
        assert!(encode32(v).leading_zeros() >= 28);
        let v = -77i64 as u64;
        assert!(encode64(v).leading_zeros() >= 56);
    }

    #[test]
    fn roundtrip_exhaustive_edges32() {
        for v in [
            0u32,
            1,
            2,
            u32::MAX,
            u32::MAX - 1,
            0x8000_0000,
            0x7FFF_FFFF,
            0xDEAD_BEEF,
        ] {
            assert_eq!(decode32(encode32(v)), v);
        }
        for i in 0..10_000u32 {
            let v = i.wrapping_mul(0x9E37_79B9);
            assert_eq!(decode32(encode32(v)), v);
        }
    }

    #[test]
    fn roundtrip_exhaustive_edges64() {
        for v in [
            0u64,
            1,
            u64::MAX,
            1 << 63,
            (1 << 63) - 1,
            0xDEAD_BEEF_CAFE_F00D,
        ] {
            assert_eq!(decode64(encode64(v)), v);
        }
        for i in 0..10_000u64 {
            let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(decode64(encode64(v)), v);
        }
    }

    #[test]
    fn slice_helpers_roundtrip() {
        let orig: Vec<u32> = (0..257).map(|i| (i * 31) as u32).collect();
        let mut v = orig.clone();
        encode32_slice(&mut v);
        decode32_slice(&mut v);
        assert_eq!(v, orig);

        let orig64: Vec<u64> = (0..257).map(|i| (i as u64) << 40).collect();
        let mut v = orig64.clone();
        encode64_slice(&mut v);
        decode64_slice(&mut v);
        assert_eq!(v, orig64);
    }

    #[test]
    fn encode_is_a_bijection_on_samples() {
        use std::collections::HashSet;
        let codes: HashSet<u32> = (0..4096u32).map(encode32).collect();
        assert_eq!(codes.len(), 4096);
    }
}

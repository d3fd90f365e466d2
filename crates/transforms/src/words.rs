//! Byte ↔ word reinterpretation helpers.
//!
//! The algorithms "load the values bit-for-bit into an integer variable and
//! then process the data using integer operations only" (paper §3). Chunks
//! arrive as byte slices; these helpers split them into little-endian words
//! plus a raw tail of fewer-than-word-size bytes that every pipeline passes
//! through unchanged.

/// Splits `bytes` into little-endian `u32` words plus the raw tail.
pub fn bytes_to_u32(bytes: &[u8]) -> (Vec<u32>, &[u8]) {
    let mut words = Vec::with_capacity(bytes.len() / 4);
    let tail = load_u32(bytes, &mut words);
    (words, tail)
}

/// Splits `bytes` into little-endian `u64` words plus the raw tail.
pub fn bytes_to_u64(bytes: &[u8]) -> (Vec<u64>, &[u8]) {
    let mut words = Vec::with_capacity(bytes.len() / 8);
    let tail = load_u64(bytes, &mut words);
    (words, tail)
}

/// [`bytes_to_u64`] into a reused buffer: replaces the contents of `words`
/// with the little-endian words of `bytes` and returns the raw tail.
pub fn load_u64<'a>(bytes: &'a [u8], words: &mut Vec<u64>) -> &'a [u8] {
    let (head, tail) = bytes.split_at(bytes.len() / 8 * 8);
    words.clear();
    words.extend(
        head.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))),
    );
    tail
}

/// [`bytes_to_u32`] into a reused buffer: replaces the contents of `words`
/// with the little-endian words of `bytes` and returns the raw tail.
pub fn load_u32<'a>(bytes: &'a [u8], words: &mut Vec<u32>) -> &'a [u8] {
    let (head, tail) = bytes.split_at(bytes.len() / 4 * 4);
    words.clear();
    words.extend(
        head.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)"))),
    );
    tail
}

/// Appends `words` to `out` in little-endian byte order.
pub fn u32_to_bytes(words: &[u32], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + words.len() * 4, 0);
    store_u32(words, &mut out[start..]);
}

/// Appends `words` to `out` in little-endian byte order.
pub fn u64_to_bytes(words: &[u64], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + words.len() * 8, 0);
    store_u64(words, &mut out[start..]);
}

/// Writes `words` to the front of `out` in little-endian byte order
/// (stopping early if `out` runs out).
pub fn store_u32(words: &[u32], out: &mut [u8]) {
    for (dst, w) in out.chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Writes `words` to the front of `out` in little-endian byte order
/// (stopping early if `out` runs out).
pub fn store_u64(words: &[u64], out: &mut [u8]) {
    for (dst, w) in out.chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Reinterprets `f32` values as their IEEE-754 bit patterns.
pub fn f32_to_u32(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Reinterprets bit patterns as `f32` values.
pub fn u32_to_f32(bits: &[u32]) -> Vec<f32> {
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

/// Serializes `f32` values to little-endian bytes.
pub fn f32_slice_to_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Deserializes little-endian bytes to `f32` values (length must be a
/// multiple of 4).
pub fn bytes_to_f32_vec(bytes: &[u8]) -> Option<Vec<f32>> {
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("chunks_exact(4)"))))
            .collect(),
    )
}

/// Serializes `f64` values to little-endian bytes.
pub fn f64_slice_to_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Deserializes little-endian bytes to `f64` values (length must be a
/// multiple of 8).
pub fn bytes_to_f64_vec(bytes: &[u8]) -> Option<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writers append: SPratio and DPratio decode write words after
    /// bytes already in `out`, so every roundtrip runs with and without a
    /// prefix, which must survive untouched.
    const PREFIXES: [&[u8]; 2] = [&[], &[0xAB, 0xCD, 0xEF]];

    #[test]
    fn u32_roundtrip_with_tail() {
        let bytes: Vec<u8> = (0..23).collect();
        let (words, tail) = bytes_to_u32(&bytes);
        assert_eq!(words.len(), 5);
        assert_eq!(tail, &[20, 21, 22]);
        for prefix in PREFIXES {
            let mut back = prefix.to_vec();
            u32_to_bytes(&words, &mut back);
            back.extend_from_slice(tail);
            assert_eq!(&back[..prefix.len()], prefix);
            assert_eq!(&back[prefix.len()..], bytes);
        }
    }

    #[test]
    fn u64_roundtrip_with_tail() {
        let bytes: Vec<u8> = (0..21).collect();
        let (words, tail) = bytes_to_u64(&bytes);
        assert_eq!(words.len(), 2);
        assert_eq!(tail.len(), 5);
        for prefix in PREFIXES {
            let mut back = prefix.to_vec();
            u64_to_bytes(&words, &mut back);
            back.extend_from_slice(tail);
            assert_eq!(&back[..prefix.len()], prefix);
            assert_eq!(&back[prefix.len()..], bytes);
        }
    }

    #[test]
    fn float_bit_reinterpretation_is_exact() {
        let values = [
            0.0f32,
            -0.0,
            1.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
        ];
        let bits = f32_to_u32(&values);
        let back = u32_to_f32(&bits);
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // NaN payloads must survive bit-for-bit.
        let nan = f32::from_bits(0x7FC0_1234);
        assert_eq!(u32_to_f32(&f32_to_u32(&[nan]))[0].to_bits(), 0x7FC0_1234);
    }

    #[test]
    fn f64_bytes_roundtrip() {
        let values = [std::f64::consts::PI, -1e300, 5e-324, f64::NAN];
        let bytes = f64_slice_to_bytes(&values);
        let back = bytes_to_f64_vec(&bytes).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(bytes_to_f64_vec(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn f32_bytes_roundtrip() {
        let values = [1.0f32, 2.0, 3.0];
        let bytes = f32_slice_to_bytes(&values);
        assert_eq!(bytes_to_f32_vec(&bytes).unwrap(), values);
        assert!(bytes_to_f32_vec(&bytes[..5]).is_none());
    }
}

//! Bit-granular reading and writing.
//!
//! Bits are stored least-significant-first within each byte, which matches
//! the packing order used by the MPLG, RAZE, and RARE transformations as
//! well as the rANS and Huffman coders in this crate.

/// Accumulates bits least-significant-first into a byte vector.
///
/// # Example
///
/// ```
/// use fpc_entropy::bitio::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b11, 2);
/// w.write_bits(0, 6); // pad to a full byte
/// assert_eq!(w.finish(), vec![0b0000_0011]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u128,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-allocated capacity (in bytes).
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Creates a writer that appends to the bytes already in `out`;
    /// [`BitWriter::finish`] hands the vector back with the new bytes after
    /// them, without allocating a buffer of its own.
    pub fn append_to(out: Vec<u8>) -> Self {
        Self {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `count` bits of `value` (0..=64 bits).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `count > 64` or if `value` has bits set
    /// above `count`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 64);
        debug_assert!(
            count == 64 || value < (1u64 << count),
            "value {value:#x} exceeds {count} bits"
        );
        self.acc |= (value as u128) << self.nbits;
        self.nbits += count;
        while self.nbits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Number of complete bits written so far.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }

    /// Pads with zero bits to the next byte boundary and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }

    /// Pads to a byte boundary and appends the result to `dst`, returning the
    /// number of bytes appended.
    pub fn finish_into(mut self, dst: &mut Vec<u8>) -> usize {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
            self.acc = 0;
            self.nbits = 0;
        }
        dst.extend_from_slice(&self.out);
        self.out.len()
    }
}

/// Reads bits least-significant-first from a byte slice.
///
/// All read methods return `None` once the underlying bytes are exhausted.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to load into the accumulator.
    pos: usize,
    acc: u128,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    #[inline]
    fn refill(&mut self, need: u32) -> bool {
        while self.nbits < need {
            if self.pos >= self.data.len() {
                return false;
            }
            self.acc |= (self.data[self.pos] as u128) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
        true
    }

    /// Reads `count` bits (0..=64), or `None` if the input is exhausted.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Option<u64> {
        debug_assert!(count <= 64);
        if count == 0 {
            return Some(0);
        }
        if !self.refill(count) {
            return None;
        }
        let mask = if count == 64 {
            u64::MAX as u128
        } else {
            (1u128 << count) - 1
        };
        let v = (self.acc & mask) as u64;
        self.acc >>= count;
        self.nbits -= count;
        Some(v)
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b != 0)
    }

    /// Number of bits consumed so far.
    pub fn bits_consumed(&self) -> usize {
        self.pos * 8 - self.nbits as usize
    }

    /// Remaining bits available, including any trailing padding.
    pub fn bits_remaining(&self) -> usize {
        (self.data.len() - self.pos) * 8 + self.nbits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let widths = [1u32, 3, 7, 8, 13, 16, 24, 31, 32, 33, 48, 63, 64];
        let mut w = BitWriter::new();
        for (i, &width) in widths.iter().enumerate() {
            let v = (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1))
                & if width == 64 {
                    u64::MAX
                } else {
                    (1 << width) - 1
                };
            w.write_bits(v, width);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (i, &width) in widths.iter().enumerate() {
            let v = (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1))
                & if width == 64 {
                    u64::MAX
                } else {
                    (1 << width) - 1
                };
            assert_eq!(r.read_bits(width), Some(v), "width {width}");
        }
    }

    #[test]
    fn empty_writer_produces_no_bytes() {
        assert!(BitWriter::new().finish().is_empty());
    }

    #[test]
    fn zero_width_read_is_zero() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0), Some(0));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn reader_stops_at_end() {
        let mut w = BitWriter::new();
        w.write_bits(0x5, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0x5));
        // 5 padding bits remain in the final byte.
        assert_eq!(r.read_bits(5), Some(0));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn bit_len_tracks_written_bits() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 5);
        w.write_bits(0, 11);
        assert_eq!(w.bit_len(), 16);
    }

    #[test]
    fn bits_consumed_and_remaining() {
        let bytes = [0xAB, 0xCD];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits_remaining(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.bits_consumed(), 5);
        assert_eq!(r.bits_remaining(), 11);
    }

    #[test]
    fn finish_into_appends() {
        let mut dst = vec![0xFF];
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let n = w.finish_into(&mut dst);
        assert_eq!(n, 1);
        assert_eq!(dst, vec![0xFF, 0x01]);
    }

    #[test]
    fn full_u64_values() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 64);
        w.write_bits(0xDEAD_BEEF_CAFE_F00D, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(64), Some(0));
        assert_eq!(r.read_bits(64), Some(0xDEAD_BEEF_CAFE_F00D));
    }
}

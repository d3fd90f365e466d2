//! Canonical Huffman coding.
//!
//! Supports alphabets of up to 65 536 symbols with a maximum code length of
//! 15 bits (over-deep trees are handled by zlib-style frequency halving).
//! Used by the Deflate-class, Bzip2-class, and SPDP baselines.

use crate::bitio::{BitReader, BitWriter};
use crate::varint;
use crate::{DecodeError, Result};

/// Maximum canonical code length in bits.
pub const MAX_CODE_LEN: u8 = 15;

/// A canonical Huffman code book: per-symbol code lengths plus the
/// bit-reversed codes used for LSB-first emission.
#[derive(Debug, Clone)]
pub struct CodeBook {
    lengths: Vec<u8>,
    /// Codes stored bit-reversed so that writing them LSB-first emits the
    /// canonical code MSB-first on the wire.
    codes: Vec<u32>,
}

impl CodeBook {
    /// Builds a canonical code book from symbol frequencies.
    ///
    /// Symbols with zero frequency receive no code. If every frequency is
    /// zero the book is empty; if exactly one symbol occurs it is assigned a
    /// 1-bit code.
    pub fn from_freqs(freqs: &[u64]) -> Self {
        let lengths = build_lengths(freqs, MAX_CODE_LEN);
        let codes = assign_codes(&lengths);
        Self { lengths, codes }
    }

    /// Per-symbol code lengths.
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Total coded size in bits for the given frequency histogram.
    pub fn cost_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .zip(&self.lengths)
            .map(|(&f, &l)| f * u64::from(l))
            .sum()
    }

    /// Emits the code for `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` has no code (zero frequency during construction).
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, sym: usize) {
        let len = self.lengths[sym];
        assert!(len > 0, "symbol {sym} has no Huffman code");
        w.write_bits(u64::from(self.codes[sym]), u32::from(len));
    }

    /// Serializes the code lengths (varint symbol count, then 4-bit lengths).
    pub fn write_header(&self, out: &mut Vec<u8>) {
        varint::write_usize(out, self.lengths.len());
        let mut w = BitWriter::with_capacity(self.lengths.len().div_ceil(2));
        for &len in &self.lengths {
            w.write_bits(u64::from(len), 4);
        }
        w.finish_into(out);
    }

    /// Reads a header produced by [`CodeBook::write_header`].
    ///
    /// # Errors
    ///
    /// Fails if the input is truncated or the lengths violate Kraft's
    /// inequality (making unambiguous decoding impossible).
    pub fn read_header(data: &[u8], pos: &mut usize) -> Result<Self> {
        let nsyms = varint::read_usize(data, pos)?;
        if nsyms > 1 << 16 {
            return Err(DecodeError::InvalidHeader("huffman alphabet too large"));
        }
        let nbytes = nsyms.div_ceil(2);
        let end = pos
            .checked_add(nbytes)
            .ok_or(DecodeError::Corrupt("header overflow"))?;
        if end > data.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut r = BitReader::new(&data[*pos..end]);
        let mut lengths = Vec::with_capacity(nsyms);
        for _ in 0..nsyms {
            lengths.push(r.read_bits(4).ok_or(DecodeError::UnexpectedEof)? as u8);
        }
        *pos = end;
        validate_kraft(&lengths)?;
        let codes = assign_codes(&lengths);
        Ok(Self { lengths, codes })
    }
}

/// Canonical Huffman decoder built from code lengths.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// `first_code[len]` is the smallest canonical code of length `len`.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// `count[len]` is the number of codes of length `len`.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// `offset[len]` indexes into `symbols` for the first code of `len`.
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u16>,
}

impl Decoder {
    /// Builds a decoder from a code book.
    pub fn new(book: &CodeBook) -> Self {
        Self::from_lengths(&book.lengths)
    }

    /// Builds a decoder directly from per-symbol code lengths.
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &len in lengths {
            if len > 0 {
                count[len as usize] += 1;
            }
        }
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut offset = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        let mut idx = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            first_code[len] = code;
            offset[len] = idx;
            code = (code + count[len]) << 1;
            idx += count[len];
        }
        let mut symbols = vec![0u16; idx as usize];
        let mut next = offset;
        for (sym, &len) in lengths.iter().enumerate() {
            if len > 0 {
                symbols[next[len as usize] as usize] = sym as u16;
                next[len as usize] += 1;
            }
        }
        Self {
            first_code,
            count,
            offset,
            symbols,
        }
    }

    /// Decodes one symbol.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or a bit pattern not matching any code.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            let bit = r.read_bit().ok_or(DecodeError::UnexpectedEof)?;
            code = (code << 1) | u32::from(bit);
            let rel = code.wrapping_sub(self.first_code[len]);
            if rel < self.count[len] {
                return Ok(self.symbols[(self.offset[len] + rel) as usize]);
            }
        }
        Err(DecodeError::Corrupt("invalid huffman code"))
    }
}

/// Computes code lengths for `freqs`, halving frequencies until the longest
/// code fits in `max_len` bits.
fn build_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    let mut working: Vec<u64> = freqs.to_vec();
    loop {
        let lengths = huffman_lengths(&working);
        if lengths.iter().all(|&l| l <= max_len) {
            return lengths;
        }
        for f in &mut working {
            if *f > 0 {
                *f = (*f).div_ceil(2);
            }
        }
    }
}

/// Plain (unbounded) Huffman code lengths via a heap-built tree.
fn huffman_lengths(freqs: &[u64]) -> Vec<u8> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let live: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u8; freqs.len()];
    match live.len() {
        0 => return lengths,
        1 => {
            lengths[live[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Tree nodes: leaves first, then internal nodes with parent links.
    let mut parent: Vec<u32> = vec![u32::MAX; live.len()];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = live
        .iter()
        .enumerate()
        .map(|(node, &sym)| Reverse((freqs[sym], node as u32)))
        .collect();
    while heap.len() > 1 {
        let Reverse((fa, a)) = heap.pop().expect("heap has >1 element");
        let Reverse((fb, b)) = heap.pop().expect("heap has >1 element");
        let node = parent.len() as u32;
        parent.push(u32::MAX);
        parent[a as usize] = node;
        parent[b as usize] = node;
        heap.push(Reverse((fa + fb, node)));
    }
    for (node, &sym) in live.iter().enumerate() {
        let mut depth = 0u8;
        let mut cur = node as u32;
        while parent[cur as usize] != u32::MAX {
            cur = parent[cur as usize];
            depth += 1;
        }
        lengths[sym] = depth;
    }
    lengths
}

/// Assigns canonical codes (bit-reversed for LSB-first emission).
fn assign_codes(lengths: &[u8]) -> Vec<u32> {
    let mut count = [0u32; MAX_CODE_LEN as usize + 1];
    for &len in lengths {
        count[len as usize] += 1;
    }
    let mut next = [0u32; MAX_CODE_LEN as usize + 1];
    let mut code = 0u32;
    for len in 1..=MAX_CODE_LEN as usize {
        next[len] = code;
        code = (code + count[len]) << 1;
    }
    lengths
        .iter()
        .map(|&len| {
            if len == 0 {
                0
            } else {
                let canonical = next[len as usize];
                next[len as usize] += 1;
                reverse_bits(canonical, len)
            }
        })
        .collect()
}

fn validate_kraft(lengths: &[u8]) -> Result<()> {
    let mut total = 0u64;
    let mut nonzero = 0usize;
    for &len in lengths {
        if len > MAX_CODE_LEN {
            return Err(DecodeError::InvalidHeader("code length exceeds maximum"));
        }
        if len > 0 {
            nonzero += 1;
            total += 1u64 << (MAX_CODE_LEN - len);
        }
    }
    // A single 1-bit code (half-full tree) is allowed as a degenerate case.
    let full = 1u64 << MAX_CODE_LEN;
    if total > full || (nonzero > 1 && total != full) {
        return Err(DecodeError::InvalidHeader(
            "code lengths violate kraft inequality",
        ));
    }
    Ok(())
}

#[inline]
fn reverse_bits(code: u32, len: u8) -> u32 {
    code.reverse_bits() >> (32 - u32::from(len))
}

/// Compresses `data` as a single Huffman-coded block over the byte alphabet.
///
/// Layout: varint original length, code-length header, coded payload.
pub fn compress_bytes(data: &[u8]) -> Vec<u8> {
    let t = fpc_metrics::timer(fpc_metrics::Stage::HuffmanEncode);
    let mut freqs = [0u64; 256];
    for &b in data {
        freqs[b as usize] += 1;
    }
    let book = CodeBook::from_freqs(&freqs);
    let mut out = Vec::new();
    varint::write_usize(&mut out, data.len());
    book.write_header(&mut out);
    let mut w = BitWriter::with_capacity(data.len() / 2);
    for &b in data {
        book.encode(&mut w, b as usize);
    }
    w.finish_into(&mut out);
    t.finish(data.len() as u64);
    out
}

/// Decompresses a block produced by [`compress_bytes`].
///
/// # Errors
///
/// Fails on truncated or corrupt input.
pub fn decompress_bytes(data: &[u8]) -> Result<Vec<u8>> {
    let t = fpc_metrics::timer(fpc_metrics::Stage::HuffmanDecode);
    let mut pos = 0;
    let n = varint::read_usize(data, &mut pos)?;
    let book = CodeBook::read_header(data, &mut pos)?;
    let decoder = Decoder::new(&book);
    let mut r = BitReader::new(&data[pos..]);
    let mut out = Vec::with_capacity(crate::prealloc_limit(n));
    for _ in 0..n {
        out.push(decoder.decode(&mut r)? as u8);
    }
    t.finish(out.len() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let compressed = compress_bytes(data);
        assert_eq!(decompress_bytes(&compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&[42u8; 1000]);
    }

    #[test]
    fn roundtrip_two_symbols() {
        let data: Vec<u8> = (0..500).map(|i| if i % 3 == 0 { 1 } else { 2 }).collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_all_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_skewed() {
        // Heavily skewed distribution exercises long codes.
        let mut data = vec![0u8; 10_000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = match i % 1000 {
                0 => 255,
                1..=9 => 7,
                10..=99 => 3,
                _ => 0,
            };
        }
        roundtrip(&data);
    }

    #[test]
    fn skewed_compresses() {
        let mut data = vec![0u8; 65536];
        for (i, b) in data.iter_mut().enumerate() {
            if i % 100 == 0 {
                *b = (i / 100) as u8;
            }
        }
        let compressed = compress_bytes(&data);
        assert!(
            compressed.len() < data.len() / 4,
            "got {}",
            compressed.len()
        );
    }

    #[test]
    fn lengths_satisfy_kraft() {
        let freqs: Vec<u64> = (0..256).map(|i| (i * i) as u64).collect();
        let book = CodeBook::from_freqs(&freqs);
        assert!(
            validate_kraft(book.lengths()).is_ok() || {
                // Not necessarily a full tree when lengths are bounded, so only
                // require that no code exceeds the maximum.
                book.lengths().iter().all(|&l| l <= MAX_CODE_LEN)
            }
        );
    }

    #[test]
    fn depth_limited_on_exponential_freqs() {
        // Fibonacci-like frequencies force deep trees in unbounded Huffman.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let book = CodeBook::from_freqs(&freqs);
        assert!(book.lengths().iter().all(|&l| l <= MAX_CODE_LEN));
        // Roundtrip a stream drawn from this alphabet via the generic API.
        let mut w = BitWriter::new();
        let syms: Vec<usize> = (0..39).chain(0..39).collect();
        for &s in &syms {
            book.encode(&mut w, s);
        }
        let bytes = w.finish();
        let dec = Decoder::new(&book);
        let mut r = BitReader::new(&bytes);
        for &s in &syms {
            assert_eq!(dec.decode(&mut r).unwrap(), s as u16);
        }
    }

    #[test]
    fn corrupt_header_rejected() {
        let compressed = compress_bytes(b"hello world hello world");
        // Truncate inside the header.
        assert!(decompress_bytes(&compressed[..2]).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let compressed = compress_bytes(&[1u8, 2, 3, 4, 5, 6, 7, 8].repeat(100));
        assert!(decompress_bytes(&compressed[..compressed.len() - 5]).is_err());
    }

    #[test]
    fn invalid_lengths_rejected() {
        // Hand-craft a header whose lengths overfill the code space.
        let mut out = Vec::new();
        varint::write_usize(&mut out, 4);
        let mut w = BitWriter::new();
        for _ in 0..4 {
            w.write_bits(1, 4); // four 1-bit codes: impossible
        }
        w.finish_into(&mut out);
        let mut pos = 0;
        assert!(CodeBook::read_header(&out, &mut pos).is_err());
    }

    #[test]
    fn cost_bits_matches_encoded_size() {
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 17) as u8).collect();
        let mut freqs = [0u64; 256];
        for &b in &data {
            freqs[b as usize] += 1;
        }
        let book = CodeBook::from_freqs(&freqs);
        let mut w = BitWriter::new();
        for &b in &data {
            book.encode(&mut w, b as usize);
        }
        assert_eq!(w.bit_len() as u64, book.cost_bits(&freqs));
    }
}

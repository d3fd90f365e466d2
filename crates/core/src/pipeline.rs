//! Per-chunk codec implementations wiring the transformations into the
//! container's [`ChunkCodec`] interface.
//!
//! Each codec corresponds to the chunked portion of one algorithm's pipeline
//! (paper Figure 1). DPratio's global FCM stage runs outside the chunk loop
//! in `lib.rs`.
//!
//! Every encoder reads its words straight from the chunk bytes through the
//! fused load + DIFFMS kernel, and every decoder writes its words straight
//! into the output chunk through the fused DIFFMS + store kernel. The speed
//! codecs run DIFFMS and MPLG one MPLG subchunk at a time through a stack
//! buffer (`mplg::encode32_le`, `mplg::decode32_le`), as the paper's GPU
//! kernels do in shared memory; the ratio codecs, whose later stages need
//! the whole chunk, use this thread's [`Scratch`].
//!
//! gpu-sim's kernel codecs end their decoders with the same
//! [`finish_chunk`] and report transform errors through [`map_decode`], so
//! both paths reject a malformed chunk body the same way.

use fpc_container::{ChunkCodec, Error};
use fpc_entropy::varint;
use fpc_transforms::{bit_transpose, diffms, mplg, rare, raze, rze, words, DecodeError};
use std::cell::RefCell;

/// Per-thread word and byte buffers for the ratio codecs.
///
/// They cannot borrow `fpc_pool::with_scratch`: the container may already
/// hold that arena as the chunk's output while a codec runs, and a
/// re-entrant call there falls back to a fresh allocation.
struct Scratch {
    words32: Vec<u32>,
    words64: Vec<u64>,
    bytes: Vec<u8>,
}

impl Scratch {
    const fn new() -> Self {
        Scratch {
            words32: Vec::new(),
            words64: Vec::new(),
            bytes: Vec::new(),
        }
    }
}

/// Bytes of scratch a thread keeps between chunks; a larger chunk's
/// buffers are freed after use.
pub(crate) const SCRATCH_RETAIN: usize = 1 << 20;

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// Hands `f` this thread's [`Scratch`]. Codecs never nest (AUTO runs its
/// candidates one after another, and the chunk-local DPratio decoder its
/// two inner decodes), so the borrow is never contended.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with_borrow_mut(|s| {
        let out = f(s);
        let kept = s.words32.capacity() * 4 + s.words64.capacity() * 8 + s.bytes.capacity();
        if kept > SCRATCH_RETAIN {
            *s = Scratch::new();
        }
        out
    })
}

/// Maps transformation-level decode errors onto container errors.
pub fn map_decode(e: DecodeError) -> Error {
    match e {
        DecodeError::UnexpectedEof => Error::UnexpectedEof,
        DecodeError::InvalidHeader(what) | DecodeError::Corrupt(what) => Error::Corrupt(what),
    }
}

fn take<'a>(data: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], Error> {
    let end = pos
        .checked_add(len)
        .ok_or(Error::Corrupt("chunk offset overflow"))?;
    let slice = data.get(*pos..end).ok_or(Error::UnexpectedEof)?;
    *pos = end;
    Ok(slice)
}

/// The last step of every chunk decoder: copies the verbatim tail bytes at
/// `pos` into `tail`, the chunk's bytes past its last whole word, and
/// rejects any byte after them.
///
/// # Errors
///
/// [`Error::UnexpectedEof`] if the tail is cut short, [`Error::Corrupt`] if
/// bytes follow it.
pub fn finish_chunk(data: &[u8], mut pos: usize, tail: &mut [u8]) -> Result<(), Error> {
    tail.copy_from_slice(take(data, &mut pos, tail.len())?);
    if pos == data.len() {
        Ok(())
    } else {
        Err(Error::Corrupt("trailing bytes after chunk payload"))
    }
}

/// SPspeed chunk pipeline: DIFFMS(32) → MPLG(32).
#[derive(Debug, Clone, Copy)]
pub struct SpSpeedCodec {
    /// Enhanced-MPLG zigzag fallback (paper default: on).
    pub fallback: bool,
}

impl ChunkCodec for SpSpeedCodec {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        mplg::encode32_le(chunk, out, self.fallback);
        out.extend_from_slice(&chunk[chunk.len() / 4 * 4..]);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        let mut pos = 0;
        mplg::decode32_le(data, &mut pos, out).map_err(map_decode)?;
        let head = out.len() / 4 * 4;
        finish_chunk(data, pos, &mut out[head..])
    }
}

/// DPspeed chunk pipeline: DIFFMS(64) → MPLG(64).
#[derive(Debug, Clone, Copy)]
pub struct DpSpeedCodec {
    /// Enhanced-MPLG zigzag fallback (paper default: on).
    pub fallback: bool,
}

impl ChunkCodec for DpSpeedCodec {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        mplg::encode64_le(chunk, out, self.fallback);
        out.extend_from_slice(&chunk[chunk.len() / 8 * 8..]);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        let mut pos = 0;
        mplg::decode64_le(data, &mut pos, out).map_err(map_decode)?;
        let head = out.len() / 8 * 8;
        finish_chunk(data, pos, &mut out[head..])
    }
}

/// SPratio chunk pipeline: DIFFMS(32) → BIT → RZE.
#[derive(Debug, Clone, Copy)]
pub struct SpRatioCodec;

impl ChunkCodec for SpRatioCodec {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        let (head, tail) = chunk.split_at(chunk.len() / 4 * 4);
        with_scratch(|s| {
            s.words32.resize(head.len() / 4, 0);
            diffms::encode32_le(0, head, &mut s.words32);
            bit_transpose::transpose32(&mut s.words32);
            s.bytes.clear();
            words::u32_to_bytes(&s.words32, &mut s.bytes);
            rze::encode(&s.bytes, out);
        });
        out.extend_from_slice(tail);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        let (head, tail) = out.split_at_mut(out.len() / 4 * 4);
        let mut pos = 0;
        with_scratch(|s| {
            s.bytes.clear();
            rze::decode(data, &mut pos, head.len(), &mut s.bytes).map_err(map_decode)?;
            words::load_u32(&s.bytes, &mut s.words32);
            bit_transpose::transpose32(&mut s.words32);
            diffms::decode32_le(0, &s.words32, head);
            Ok::<_, Error>(())
        })?;
        finish_chunk(data, pos, tail)
    }
}

/// DPratio chunked stages: DIFFMS(64) → RAZE → RARE.
///
/// RARE operates on the *byte stream* RAZE emits, viewed as 64-bit words;
/// the RAZE stream length is recorded as a varint because it is not
/// derivable from the chunk length.
#[derive(Debug, Clone, Copy)]
pub struct DpRatioChunkCodec {
    /// Fixed RAZE/RARE byte split override (`None` = adaptive).
    pub fixed_split: Option<u8>,
}

impl ChunkCodec for DpRatioChunkCodec {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        let (head, ctail) = chunk.split_at(chunk.len() / 8 * 8);
        with_scratch(|s| {
            s.words64.resize(head.len() / 8, 0);
            diffms::encode64_le(0, head, &mut s.words64);
            s.bytes.clear();
            match self.fixed_split {
                Some(kb) => raze::encode_with_split(&s.words64, &mut s.bytes, kb as usize),
                None => raze::encode(&s.words64, &mut s.bytes),
            }
            // RARE reads the RAZE stream as words; they reuse the buffer.
            let t2 = words::load_u64(&s.bytes, &mut s.words64);
            varint::write_usize(out, s.bytes.len());
            match self.fixed_split {
                Some(kb) => rare::encode_with_split(&s.words64, out, kb as usize),
                None => rare::encode(&s.words64, out),
            }
            out.extend_from_slice(t2);
        });
        out.extend_from_slice(ctail);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        let expected_len = out.len();
        let (head, ctail) = out.split_at_mut(expected_len / 8 * 8);
        let mut pos = 0;
        let razed_len = varint::read_usize(data, &mut pos).map_err(map_decode)?;
        if razed_len > expected_len * 2 + 64 {
            return Err(Error::Corrupt("raze stream implausibly large"));
        }
        with_scratch(|s| {
            // RARE gives the RAZE stream's whole words, its last bytes
            // follow verbatim; RAZE then decodes into the word buffer.
            s.words64.clear();
            rare::decode(data, &mut pos, razed_len / 8, &mut s.words64).map_err(map_decode)?;
            s.bytes.clear();
            words::u64_to_bytes(&s.words64, &mut s.bytes);
            s.bytes
                .extend_from_slice(take(data, &mut pos, razed_len % 8)?);
            let mut razed_pos = 0;
            s.words64.clear();
            raze::decode(&s.bytes, &mut razed_pos, head.len() / 8, &mut s.words64)
                .map_err(map_decode)?;
            if razed_pos != s.bytes.len() {
                return Err(Error::Corrupt("raze stream not fully consumed"));
            }
            diffms::decode64_le(0, &s.words64, head);
            Ok(())
        })?;
        finish_chunk(data, pos, ctail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk_roundtrip(codec: &dyn ChunkCodec, chunk: &[u8]) -> usize {
        let mut enc = Vec::new();
        codec.encode_chunk(chunk, &mut enc);
        let mut dec = vec![0; chunk.len()];
        codec.decode_into(&enc, &mut dec).unwrap();
        assert_eq!(dec, chunk);
        enc.len()
    }

    fn smooth_chunk_f32() -> Vec<u8> {
        let floats: Vec<f32> = (0..4096).map(|i| 3.0 + (i as f32) * 1e-4).collect();
        words::f32_slice_to_bytes(&floats)
    }

    fn smooth_chunk_f64() -> Vec<u8> {
        let floats: Vec<f64> = (0..2048).map(|i| -7.0 + (i as f64) * 1e-7).collect();
        words::f64_slice_to_bytes(&floats)
    }

    #[test]
    fn spspeed_chunk() {
        let chunk = smooth_chunk_f32();
        let size = chunk_roundtrip(&SpSpeedCodec { fallback: true }, &chunk);
        assert!(size < chunk.len(), "no compression: {size}");
    }

    #[test]
    fn spratio_chunk_compresses_more() {
        let chunk = smooth_chunk_f32();
        let speed = chunk_roundtrip(&SpSpeedCodec { fallback: true }, &chunk);
        let ratio = chunk_roundtrip(&SpRatioCodec, &chunk);
        assert!(ratio < speed, "SPratio {ratio} vs SPspeed {speed}");
    }

    #[test]
    fn dpspeed_chunk() {
        let chunk = smooth_chunk_f64();
        let size = chunk_roundtrip(&DpSpeedCodec { fallback: true }, &chunk);
        assert!(size < chunk.len());
    }

    #[test]
    fn dpratio_chunk() {
        let chunk = smooth_chunk_f64();
        let size = chunk_roundtrip(&DpRatioChunkCodec { fixed_split: None }, &chunk);
        assert!(size < chunk.len());
    }

    #[test]
    fn odd_sized_chunks() {
        for codec in [
            &SpSpeedCodec { fallback: true } as &dyn ChunkCodec,
            &SpRatioCodec,
            &DpSpeedCodec { fallback: true },
            &DpRatioChunkCodec { fixed_split: None },
        ] {
            for len in [1usize, 2, 5, 9, 17, 100, 1023] {
                let chunk: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
                chunk_roundtrip(codec, &chunk);
            }
        }
    }

    #[test]
    fn truncated_chunks_error() {
        let chunk = smooth_chunk_f64();
        for codec in [
            &DpSpeedCodec { fallback: true } as &dyn ChunkCodec,
            &DpRatioChunkCodec { fixed_split: None },
        ] {
            let mut enc = Vec::new();
            codec.encode_chunk(&chunk, &mut enc);
            let mut dec = vec![0; chunk.len()];
            assert!(codec.decode_into(&enc[..enc.len() - 3], &mut dec).is_err());
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let chunk = smooth_chunk_f32();
        let codec = SpRatioCodec;
        let mut enc = Vec::new();
        codec.encode_chunk(&chunk, &mut enc);
        enc.push(0xAB);
        let mut dec = vec![0; chunk.len()];
        assert!(matches!(
            codec.decode_into(&enc, &mut dec),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn fixed_split_roundtrips_all_values() {
        let chunk = smooth_chunk_f64();
        for kb in 0..=8u8 {
            let codec = DpRatioChunkCodec {
                fixed_split: Some(kb),
            };
            let mut enc = Vec::new();
            codec.encode_chunk(&chunk, &mut enc);
            // Decoding uses the split stored in the stream, not the option.
            let dec_codec = DpRatioChunkCodec { fixed_split: None };
            let mut dec = vec![0; chunk.len()];
            dec_codec.decode_into(&enc, &mut dec).unwrap();
            assert_eq!(dec, chunk, "kb={kb}");
        }
    }
}

//! pFPC: chunked parallel FPC.
//!
//! The parallel version of FPC (Burtscher & Ratanaworabhan 2009): the input
//! is split into chunks, each compressed with an independent FPC predictor
//! state so the chunks can be processed by different threads.

use crate::{fpc, Codec, Datatype, DecodeError, Device, Meta, Result};
use fpc_entropy::varint;

/// Values per parallel chunk.
pub const CHUNK_VALUES: usize = 64 * 1024;

/// The pFPC compressor (double precision only).
#[derive(Debug, Clone)]
pub struct Pfpc {
    table_bits: u32,
    threads: usize,
}

impl Pfpc {
    /// pFPC with default table size and all available threads.
    pub fn new() -> Self {
        Self {
            table_bits: fpc::DEFAULT_LEVEL,
            threads: 0,
        }
    }

    /// Limits worker threads (0 = all available).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl Default for Pfpc {
    fn default() -> Self {
        Self::new()
    }
}

impl Codec for Pfpc {
    fn name(&self) -> &'static str {
        "pFPC"
    }

    fn device(&self) -> Device {
        Device::Cpu
    }

    fn datatype(&self) -> Datatype {
        Datatype::F64
    }

    fn compress(&self, data: &[u8], _meta: &Meta) -> Vec<u8> {
        let n = data.len() / 8;
        let (head, tail) = data.split_at(n * 8);
        let words: Vec<u64> = head
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect();
        let chunks: Vec<&[u64]> = words.chunks(CHUNK_VALUES).collect();
        let table_bits = self.table_bits;
        let encoded = fpc_pool::run_indexed(chunks.len(), self.threads, |i| {
            let mut buf = Vec::with_capacity(chunks[i].len() * 4);
            fpc::encode_words(chunks[i], table_bits, &mut buf);
            buf
        });
        let mut out = Vec::new();
        varint::write_usize(&mut out, data.len());
        for block in &encoded {
            varint::write_usize(&mut out, block.len());
        }
        for block in &encoded {
            out.extend_from_slice(block);
        }
        out.extend_from_slice(tail);
        out
    }

    fn decompress(&self, data: &[u8], _meta: &Meta) -> Result<Vec<u8>> {
        let mut pos = 0;
        let total = varint::read_usize(data, &mut pos)?;
        let count = total / 8;
        let tail_len = total % 8;
        let nchunks = count.div_ceil(CHUNK_VALUES);
        let mut sizes = Vec::with_capacity(nchunks);
        for _ in 0..nchunks {
            sizes.push(varint::read_usize(data, &mut pos)?);
        }
        // Prefix sum gives each chunk's read position; decode in parallel.
        let mut offsets = Vec::with_capacity(nchunks + 1);
        let mut offset = pos;
        for &s in &sizes {
            offsets.push(offset);
            offset = offset
                .checked_add(s)
                .ok_or(DecodeError::Corrupt("pfpc offset overflow"))?;
        }
        offsets.push(offset);
        if offset + tail_len > data.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let table_bits = self.table_bits;
        let decoded: Vec<Result<Vec<u64>>> = fpc_pool::run_indexed(nchunks, self.threads, |i| {
            let chunk_count = if i + 1 == nchunks {
                count - (nchunks - 1) * CHUNK_VALUES
            } else {
                CHUNK_VALUES
            };
            let body = &data[offsets[i]..offsets[i + 1]];
            let mut p = 0usize;
            let mut words = Vec::with_capacity(chunk_count);
            fpc::decode_words(body, &mut p, chunk_count, table_bits, &mut words)?;
            if p != body.len() {
                return Err(DecodeError::Corrupt("pfpc chunk not fully consumed"));
            }
            Ok(words)
        });
        let mut out = Vec::with_capacity(fpc_entropy::prealloc_limit(total));
        for chunk in decoded {
            for w in chunk? {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out.extend_from_slice(&data[offset..offset + tail_len]);
        if out.len() != total {
            return Err(DecodeError::Corrupt("pfpc length mismatch"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multi_chunk() {
        let values: Vec<f64> = (0..CHUNK_VALUES * 2 + 777)
            .map(|i| (i as f64 * 1e-3).cos())
            .collect();
        let data: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let p = Pfpc::new();
        let meta = Meta::f64_flat(values.len());
        let c = p.compress(&data, &meta);
        assert_eq!(p.decompress(&c, &meta).unwrap(), data);
    }

    #[test]
    fn matches_serial_fpc_ratio_roughly() {
        let values: Vec<f64> = (0..100_000)
            .map(|i| (i as f64 * 1e-4).sin() * 7.0)
            .collect();
        let data: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let meta = Meta::f64_flat(values.len());
        let serial = crate::fpc::Fpc::new().compress(&data, &meta).len();
        let parallel = Pfpc::new().compress(&data, &meta).len();
        // Fresh per-chunk state costs a little ratio, never an order of magnitude.
        assert!(
            parallel < serial * 12 / 10,
            "pfpc {parallel} vs fpc {serial}"
        );
    }

    #[test]
    fn deterministic_across_threads() {
        let values: Vec<f64> = (0..200_000).map(|i| (i as f64).ln_1p()).collect();
        let data: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let meta = Meta::f64_flat(values.len());
        let a = Pfpc::new().with_threads(1).compress(&data, &meta);
        let b = Pfpc::new().with_threads(8).compress(&data, &meta);
        assert_eq!(a, b);
    }

    #[test]
    fn truncation_rejected() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let data: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let p = Pfpc::new();
        let meta = Meta::f64_flat(values.len());
        let c = p.compress(&data, &meta);
        assert!(p.decompress(&c[..c.len() - 9], &meta).is_err());
    }
}

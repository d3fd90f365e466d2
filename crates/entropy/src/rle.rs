//! Run-length coding.
//!
//! Two flavours: a byte-level escape format (used by the Bzip2-class
//! baseline after move-to-front) and a word-level run format (used by the
//! Cascaded-class baseline, mirroring nvCOMP's RLE stage).

use crate::varint;
use crate::{DecodeError, Result};

/// Byte-level RLE: runs of ≥ 4 equal bytes become
/// `byte ×4, varint(extra)`; shorter runs are copied verbatim.
pub fn compress_bytes(data: &[u8]) -> Vec<u8> {
    let t = fpc_metrics::timer(fpc_metrics::Stage::RleEncode);
    let mut out = Vec::with_capacity(data.len() + 8);
    varint::write_usize(&mut out, data.len());
    let mut i = 0usize;
    while i < data.len() {
        let b = data[i];
        let run = fpc_simd::bytescan::run_len(data, i);
        if run >= 4 {
            out.extend_from_slice(&[b, b, b, b]);
            varint::write_usize(&mut out, run - 4);
        } else {
            for _ in 0..run {
                out.push(b);
            }
        }
        i += run;
    }
    t.finish(data.len() as u64);
    out
}

/// Decodes a stream produced by [`compress_bytes`]; `max_len` bounds the
/// decoded size (from the caller's framing) against decompression bombs —
/// a few hostile input bytes can declare and expand to any run length.
///
/// # Errors
///
/// Fails on truncation, if the expansion exceeds the declared length, or
/// if the declared length exceeds `max_len`.
pub fn decompress_bytes(data: &[u8], max_len: usize) -> Result<Vec<u8>> {
    let t = fpc_metrics::timer(fpc_metrics::Stage::RleDecode);
    let mut pos = 0usize;
    let n = varint::read_usize(data, &mut pos)?;
    if n > max_len {
        return Err(DecodeError::Corrupt("declared length exceeds caller limit"));
    }
    let mut out = Vec::with_capacity(crate::prealloc_limit(n));
    while out.len() < n {
        let b = *data.get(pos).ok_or(DecodeError::UnexpectedEof)?;
        pos += 1;
        out.push(b);
        // Detect a completed 4-run: the last four output bytes equal.
        let l = out.len();
        if l >= 4
            && out[l - 1] == out[l - 2]
            && out[l - 2] == out[l - 3]
            && out[l - 3] == out[l - 4]
        {
            let extra = varint::read_usize(data, &mut pos)?;
            if out.len() + extra > n {
                return Err(DecodeError::Corrupt("rle run overruns output"));
            }
            out.resize(out.len() + extra, b);
        }
    }
    t.finish(out.len() as u64);
    Ok(out)
}

/// A (value, run-length) pair for word-level RLE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run<T> {
    /// The repeated value.
    pub value: T,
    /// Number of repetitions (≥ 1).
    pub len: u64,
}

/// Splits a slice into maximal runs.
pub fn runs_of<T: Copy + PartialEq>(values: &[T]) -> Vec<Run<T>> {
    let mut runs = Vec::new();
    let mut iter = values.iter();
    let Some(&first) = iter.next() else {
        return runs;
    };
    let mut cur = Run {
        value: first,
        len: 1,
    };
    for &v in iter {
        if v == cur.value {
            cur.len += 1;
        } else {
            runs.push(cur);
            cur = Run { value: v, len: 1 };
        }
    }
    runs.push(cur);
    runs
}

/// Expands runs back into a flat vector.
pub fn expand_runs<T: Copy>(runs: &[Run<T>]) -> Vec<T> {
    let total: u64 = runs.iter().map(|r| r.len).sum();
    let mut out = Vec::with_capacity(total as usize);
    for r in runs {
        for _ in 0..r.len {
            out.push(r.value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress_bytes(data);
        assert_eq!(decompress_bytes(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_no_runs() {
        roundtrip(b"abcdefgh");
    }

    #[test]
    fn roundtrip_exact_four_run() {
        roundtrip(b"aaaa");
        roundtrip(b"xaaaay");
    }

    #[test]
    fn roundtrip_long_runs() {
        let mut data = vec![7u8; 1000];
        data.extend_from_slice(b"abc");
        data.extend(vec![0u8; 500]);
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_adjacent_runs_same_boundary() {
        // Three then five: the 3-run must not trigger the escape.
        let mut data = vec![1u8; 3];
        data.push(2);
        data.extend(vec![1u8; 5]);
        roundtrip(&data);
    }

    #[test]
    fn long_run_compresses() {
        let data = vec![0u8; 100_000];
        let c = compress_bytes(&data);
        assert!(c.len() < 16);
    }

    #[test]
    fn corrupt_run_rejected() {
        let mut c = Vec::new();
        varint::write_usize(&mut c, 5);
        c.extend_from_slice(&[9, 9, 9, 9]);
        varint::write_usize(&mut c, 100); // would expand to 104 > 5
        assert!(matches!(
            decompress_bytes(&c, 1 << 20),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn word_runs_roundtrip() {
        let values = [1u64, 1, 1, 5, 5, 2, 2, 2, 2, 9];
        let runs = runs_of(&values);
        assert_eq!(
            runs,
            vec![
                Run { value: 1, len: 3 },
                Run { value: 5, len: 2 },
                Run { value: 2, len: 4 },
                Run { value: 9, len: 1 },
            ]
        );
        assert_eq!(expand_runs(&runs), values);
    }

    #[test]
    fn word_runs_empty() {
        let runs = runs_of::<u32>(&[]);
        assert!(runs.is_empty());
        assert!(expand_runs(&runs).is_empty());
    }
}

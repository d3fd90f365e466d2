//! GPU-style chunk pipelines built from warp/block primitives.
//!
//! Each codec here reimplements the chunked portion of one algorithm using
//! the parallel formulations the paper describes — warp reductions for the
//! MPLG maximum, shuffle-based bit transposition, ballot-built bitmaps, and
//! block-scan difference decoding — and produces output **byte-identical**
//! to the scalar `fpc-core` codecs (asserted by tests and by the
//! integration suite). Where the paper's decoder parallelism lives outside
//! the chunk (FCM's union-find), it is exercised in `compressor.rs`.

use crate::scan::block_inclusive_scan;
use crate::warp::{ballot, reduce_max_u64, transpose32 as warp_transpose32};
use crate::WARP_SIZE;
use fpc_container::{ChunkCodec, Error};
use fpc_core::pipeline::{finish_chunk, map_decode};
use fpc_core::{Algorithm, AlgorithmCodec, DpRatioChunkCodec, PipelineOptions};
use fpc_entropy::{bitpack, varint};
use fpc_transforms::{mplg, rare, raze, words, zigzag};

/// Maximum elements a block scan handles at once.
const SCAN_BLOCK: usize = WARP_SIZE * WARP_SIZE;

/// Embarrassingly parallel DIFFMS encode: every "lane" computes its
/// difference from the untouched input (no sequential dependency).
fn diffms_encode32_parallel(input: &[u32]) -> Vec<u32> {
    (0..input.len())
        .map(|i| {
            let prev = if i == 0 { 0 } else { input[i - 1] };
            zigzag::encode32(input[i].wrapping_sub(prev))
        })
        .collect()
}

fn diffms_encode64_parallel(input: &[u64]) -> Vec<u64> {
    (0..input.len())
        .map(|i| {
            let prev = if i == 0 { 0 } else { input[i - 1] };
            zigzag::encode64(input[i].wrapping_sub(prev))
        })
        .collect()
}

/// DIFFMS decode as the paper's block-level parallel prefix sum (§3.1):
/// un-zigzag in parallel, then scan 1024-element blocks, carrying the
/// running total between blocks.
fn diffms_decode32_scan(values: &mut [u32]) {
    let mut carry = 0u64;
    let mut buf = vec![0u64; SCAN_BLOCK];
    for block in values.chunks_mut(SCAN_BLOCK) {
        let b = &mut buf[..block.len()];
        for (slot, &v) in b.iter_mut().zip(block.iter()) {
            *slot = u64::from(zigzag::decode32(v));
        }
        block_inclusive_scan(b);
        for (v, &s) in block.iter_mut().zip(b.iter()) {
            // Low 32 bits of the wrapping u64 sum equal the u32 wrapping sum.
            *v = (s.wrapping_add(carry)) as u32;
        }
        carry = carry.wrapping_add(b[block.len() - 1]);
    }
}

fn diffms_decode64_scan(values: &mut [u64]) {
    let mut carry = 0u64;
    let mut buf = vec![0u64; SCAN_BLOCK];
    for block in values.chunks_mut(SCAN_BLOCK) {
        let b = &mut buf[..block.len()];
        for (slot, &v) in b.iter_mut().zip(block.iter()) {
            *slot = zigzag::decode64(v);
        }
        block_inclusive_scan(b);
        for (v, &s) in block.iter_mut().zip(b.iter()) {
            *v = s.wrapping_add(carry);
        }
        carry = carry.wrapping_add(b[block.len() - 1]);
    }
}

/// MPLG encode with the subchunk maximum computed by a warp butterfly
/// reduction (each of the 32 lanes owns 4 of the 128 subchunk words).
fn mplg_encode32_warp(values: &[u32], out: &mut Vec<u8>, fallback: bool) {
    for sub in values.chunks(mplg::SUBCHUNK_VALUES_32) {
        let mut regs = [0u64; WARP_SIZE];
        for (i, &v) in sub.iter().enumerate() {
            let lane = i % WARP_SIZE;
            regs[lane] = regs[lane].max(u64::from(v));
        }
        let max = reduce_max_u64(&regs) as u32;
        let mut width = 32 - max.leading_zeros();
        let mut flag = 0u8;
        let mut converted;
        let packed: &[u32] = if width == 32 && fallback {
            converted = sub.to_vec();
            zigzag::encode32_slice(&mut converted);
            let w2 = bitpack::min_width_u32(&converted);
            if w2 < 32 {
                flag = 0x80;
                width = w2;
                &converted
            } else {
                sub
            }
        } else {
            sub
        };
        out.push(flag | width as u8);
        bitpack::pack_u32(packed, width, out);
    }
}

fn mplg_encode64_warp(values: &[u64], out: &mut Vec<u8>, fallback: bool) {
    for sub in values.chunks(mplg::SUBCHUNK_VALUES_64) {
        let mut regs = [0u64; WARP_SIZE];
        for (i, &v) in sub.iter().enumerate() {
            let lane = i % WARP_SIZE;
            regs[lane] = regs[lane].max(v);
        }
        let max = reduce_max_u64(&regs);
        let mut width = 64 - max.leading_zeros();
        let mut flag = 0u8;
        let mut converted;
        let packed: &[u64] = if width == 64 && fallback {
            converted = sub.to_vec();
            zigzag::encode64_slice(&mut converted);
            let w2 = bitpack::min_width_u64(&converted);
            if w2 < 64 {
                flag = 0x80;
                width = w2;
                &converted
            } else {
                sub
            }
        } else {
            sub
        };
        out.push(flag | width as u8);
        bitpack::pack_u64(packed, width, out);
    }
}

/// Warp-shuffle bit transposition over every full 32-word group (§3.2).
fn bit_transpose32_warp(values: &mut [u32]) {
    for group in values.chunks_exact_mut(WARP_SIZE) {
        let regs: [u32; WARP_SIZE] = group.try_into().expect("chunks_exact(32)");
        group.copy_from_slice(&warp_transpose32(&regs));
    }
}

/// Ballot-built zero bitmap: 32 lanes test 32 bytes, `__ballot` forms the
/// 32-bit bitmap word (LSB = lane 0 = lowest byte index, matching the
/// scalar RZE bit order), and the nonzero bytes are compacted in lane
/// order (the scalar equivalent of the prefix-sum scatter of §3.2).
fn zero_bitmap_ballot(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut bitmap = Vec::with_capacity(data.len().div_ceil(8));
    let mut kept = Vec::new();
    for (base, chunk) in data.chunks(WARP_SIZE).enumerate() {
        let mut preds = [false; WARP_SIZE];
        for (lane, &b) in chunk.iter().enumerate() {
            preds[lane] = b != 0;
            if b != 0 {
                kept.push(b);
            }
        }
        let word = ballot(&preds);
        let nbytes = chunk.len().div_ceil(8);
        bitmap.extend_from_slice(&word.to_le_bytes()[..nbytes]);
        let _ = base;
    }
    (bitmap, kept)
}

/// Ballot-built repeat bitmap (bit set ⇔ byte differs from predecessor;
/// lane 0 compares against the previous iteration's last byte via the
/// shuffle-carry idiom).
fn repeat_bitmap_ballot(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut bitmap = Vec::with_capacity(data.len().div_ceil(8));
    let mut kept = Vec::new();
    let mut carry = 0u8;
    for chunk in data.chunks(WARP_SIZE) {
        let mut preds = [false; WARP_SIZE];
        for (lane, &b) in chunk.iter().enumerate() {
            let prev = if lane == 0 { carry } else { chunk[lane - 1] };
            preds[lane] = b != prev;
            if b != prev {
                kept.push(b);
            }
        }
        carry = *chunk.last().expect("chunks() yields nonempty slices");
        let word = ballot(&preds);
        let nbytes = chunk.len().div_ceil(8);
        bitmap.extend_from_slice(&word.to_le_bytes()[..nbytes]);
    }
    (bitmap, kept)
}

/// Inclusive set-bit ranks per *byte* of a bitmap: `byte_rank[b]` = number
/// of set bits in bytes `0..=b`. Built with the block scan, exactly the
/// "threads count … then compute a block-wide parallel prefix sum on these
/// counts" step of the paper's RZE decoder (§3.2).
fn byte_ranks(bitmap: &[u8]) -> Vec<u64> {
    let mut counts: Vec<u64> = bitmap.iter().map(|b| u64::from(b.count_ones())).collect();
    let mut carry = 0u64;
    for block in counts.chunks_mut(SCAN_BLOCK) {
        block_inclusive_scan(block);
        for v in block.iter_mut() {
            *v += carry;
        }
        carry = *block.last().expect("chunks_mut yields nonempty");
    }
    counts
}

#[inline]
fn rank_exclusive(bitmap: &[u8], byte_rank: &[u64], i: usize) -> usize {
    let prior_bytes = if i / 8 == 0 { 0 } else { byte_rank[i / 8 - 1] } as usize;
    let intra = (bitmap[i / 8] & ((1u8 << (i % 8)) - 1)).count_ones() as usize;
    prior_bytes + intra
}

#[inline]
fn bit_at(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] & (1 << (i % 8)) != 0
}

/// Parallel "repeat" expansion: each output position independently gathers
/// the most recent differing byte via its rank — no sequential fill-forward.
fn expand_repeat_gather(
    bitmap: &[u8],
    len: usize,
    data: &[u8],
    pos: &mut usize,
) -> Result<Vec<u8>, Error> {
    let ranks = byte_ranks(bitmap);
    let total_kept = ranks.last().copied().unwrap_or(0) as usize;
    let end = pos
        .checked_add(total_kept)
        .ok_or(Error::Corrupt("rze gather overflow"))?;
    let kept = data.get(*pos..end).ok_or(Error::UnexpectedEof)?;
    *pos = end;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let r = rank_exclusive(bitmap, &ranks, i) + usize::from(bit_at(bitmap, i));
        out.push(if r == 0 { 0 } else { kept[r - 1] });
    }
    Ok(out)
}

/// Parallel zero-elimination expansion: set bits gather their source byte
/// by exclusive rank, cleared bits emit zero.
fn expand_zero_gather(
    bitmap: &[u8],
    len: usize,
    data: &[u8],
    pos: &mut usize,
    out: &mut Vec<u8>,
) -> Result<(), Error> {
    let ranks = byte_ranks(bitmap);
    let total_kept = ranks.last().copied().unwrap_or(0) as usize;
    let end = pos
        .checked_add(total_kept)
        .ok_or(Error::Corrupt("rze gather overflow"))?;
    let kept = data.get(*pos..end).ok_or(Error::UnexpectedEof)?;
    *pos = end;
    out.reserve(len);
    for i in 0..len {
        if bit_at(bitmap, i) {
            out.push(kept[rank_exclusive(bitmap, &ranks, i)]);
        } else {
            out.push(0);
        }
    }
    Ok(())
}

/// GPU-style RZE decode: bitmap levels expanded by rank gathers instead of
/// the scalar decoder's sequential scan. Consumes the same byte layout as
/// `rze::decode` and produces identical output.
fn rze_decode_gather(
    data: &[u8],
    pos: &mut usize,
    n: usize,
    out: &mut Vec<u8>,
) -> Result<(), Error> {
    let bitmap_len = |m: usize| m.div_ceil(8);
    let len0 = bitmap_len(n);
    let len1 = bitmap_len(len0);
    let len2 = bitmap_len(len1);
    let len3 = bitmap_len(len2);
    let end = pos
        .checked_add(len3)
        .ok_or(Error::Corrupt("rze header overflow"))?;
    let bm3 = data.get(*pos..end).ok_or(Error::UnexpectedEof)?.to_vec();
    *pos = end;
    let bm2 = expand_repeat_gather(&bm3, len2, data, pos)?;
    let bm1 = expand_repeat_gather(&bm2, len1, data, pos)?;
    let bm0 = expand_repeat_gather(&bm1, len0, data, pos)?;
    expand_zero_gather(&bm0, n, data, pos, out)
}

/// RZE encode from ballot-built bitmaps (byte-identical to `rze::encode`).
fn rze_encode_ballot(data: &[u8], out: &mut Vec<u8>) {
    let (bm0, nonzero) = zero_bitmap_ballot(data);
    let (bm1, nr0) = repeat_bitmap_ballot(&bm0);
    let (bm2, nr1) = repeat_bitmap_ballot(&bm1);
    let (bm3, nr2) = repeat_bitmap_ballot(&bm2);
    out.extend_from_slice(&bm3);
    out.extend_from_slice(&nr2);
    out.extend_from_slice(&nr1);
    out.extend_from_slice(&nr0);
    out.extend_from_slice(&nonzero);
}

/// GPU-style RAZE encode: the split byte, the bottom bytes (independent
/// per-lane gathers), and the ballot-built RZE stream over the top bytes.
/// Byte-identical to `raze::encode_with_split`.
fn raze_encode_ballot(values: &[u64], kb: usize, out: &mut Vec<u8>) {
    out.push(kb as u8);
    let nb = 8 - kb;
    // Bottom bytes: each output byte depends only on its own value — an
    // embarrassingly parallel gather on the GPU.
    out.reserve(values.len() * nb);
    for &v in values {
        for i in 0..nb {
            out.push((v >> (8 * i)) as u8);
        }
    }
    // Top bytes, most significant first, then ballot-RZE.
    let mut tops = Vec::with_capacity(values.len() * kb);
    for &v in values {
        for j in 0..kb {
            tops.push((v >> (8 * (7 - j))) as u8);
        }
    }
    rze_encode_ballot(&tops, out);
}

/// GPU-style RARE encode: XOR-with-previous on the top bytes (each lane
/// reads its left neighbour — a warp shuffle) before ballot-RZE.
/// Byte-identical to `rare::encode_with_split`.
fn rare_encode_ballot(values: &[u64], kb: usize, out: &mut Vec<u8>) {
    out.push(kb as u8);
    let nb = 8 - kb;
    out.reserve(values.len() * nb);
    for &v in values {
        for i in 0..nb {
            out.push((v >> (8 * i)) as u8);
        }
    }
    let mut tops = Vec::with_capacity(values.len() * kb);
    for (i, &v) in values.iter().enumerate() {
        // shfl_up(1): the previous lane's value (0 for lane 0 of the grid).
        let prev = if i == 0 { 0 } else { values[i - 1] };
        let d = v ^ prev;
        for j in 0..kb {
            tops.push((d >> (8 * (7 - j))) as u8);
        }
    }
    rze_encode_ballot(&tops, out);
}

/// GPU-style SPspeed chunk codec (DIFFMS ∥-encode + warp-max MPLG).
#[derive(Debug, Clone, Copy)]
pub struct GpuSpSpeedCodec;

impl ChunkCodec for GpuSpSpeedCodec {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        let (w, tail) = words::bytes_to_u32(chunk);
        let diffed = diffms_encode32_parallel(&w);
        mplg_encode32_warp(&diffed, out, true);
        out.extend_from_slice(tail);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        let (head, tail) = out.split_at_mut(out.len() / 4 * 4);
        let mut pos = 0;
        let mut w = Vec::with_capacity(head.len() / 4);
        mplg::decode32(data, &mut pos, head.len() / 4, &mut w).map_err(map_decode)?;
        diffms_decode32_scan(&mut w);
        words::store_u32(&w, head);
        finish_chunk(data, pos, tail)
    }
}

/// GPU-style DPspeed chunk codec.
#[derive(Debug, Clone, Copy)]
pub struct GpuDpSpeedCodec;

impl ChunkCodec for GpuDpSpeedCodec {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        let (w, tail) = words::bytes_to_u64(chunk);
        let diffed = diffms_encode64_parallel(&w);
        mplg_encode64_warp(&diffed, out, true);
        out.extend_from_slice(tail);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        let (head, tail) = out.split_at_mut(out.len() / 8 * 8);
        let mut pos = 0;
        let mut w = Vec::with_capacity(head.len() / 8);
        mplg::decode64(data, &mut pos, head.len() / 8, &mut w).map_err(map_decode)?;
        diffms_decode64_scan(&mut w);
        words::store_u64(&w, head);
        finish_chunk(data, pos, tail)
    }
}

/// GPU-style SPratio chunk codec (shuffle transpose + ballot RZE).
#[derive(Debug, Clone, Copy)]
pub struct GpuSpRatioCodec;

impl ChunkCodec for GpuSpRatioCodec {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        let (w, tail) = words::bytes_to_u32(chunk);
        let mut diffed = diffms_encode32_parallel(&w);
        bit_transpose32_warp(&mut diffed);
        let mut transposed = Vec::with_capacity(diffed.len() * 4);
        words::u32_to_bytes(&diffed, &mut transposed);
        rze_encode_ballot(&transposed, out);
        out.extend_from_slice(tail);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        let (head, tail) = out.split_at_mut(out.len() / 4 * 4);
        let mut pos = 0;
        let mut transposed = Vec::with_capacity(head.len());
        rze_decode_gather(data, &mut pos, head.len(), &mut transposed)?;
        let (mut w, _) = words::bytes_to_u32(&transposed);
        bit_transpose32_warp(&mut w);
        diffms_decode32_scan(&mut w);
        words::store_u32(&w, head);
        finish_chunk(data, pos, tail)
    }
}

/// GPU-style DPratio chunk codec (atomic-histogram RAZE/RARE; byte format
/// identical to the scalar codec, including the RAZE-stream varint).
#[derive(Debug, Clone, Copy)]
pub struct GpuDpRatioChunkCodec;

impl ChunkCodec for GpuDpRatioChunkCodec {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (w, ctail) = words::bytes_to_u64(chunk);
        let diffed = diffms_encode64_parallel(&w);
        // RAZE histogram built with atomic increments (paper §3.2: "the
        // compressor first has to create the histogram, which it does in
        // parallel by atomically incrementing the bins").
        let bins: [AtomicUsize; 9] = std::array::from_fn(|_| AtomicUsize::new(0));
        for &v in &diffed {
            bins[(v.leading_zeros() / 8) as usize].fetch_add(1, Ordering::Relaxed);
        }
        let hist: [usize; 9] = std::array::from_fn(|i| bins[i].load(Ordering::Relaxed));
        let kb = raze::choose_split(&hist, diffed.len());
        let mut razed = Vec::with_capacity(chunk.len());
        raze_encode_ballot(&diffed, kb, &mut razed);
        let (w2, t2) = words::bytes_to_u64(&razed);
        varint::write_usize(out, razed.len());
        rare_encode_ballot(&w2, rare::choose_split(&w2), out);
        out.extend_from_slice(t2);
        out.extend_from_slice(ctail);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        // Byte format identical to the scalar codec; its decoder applies.
        DpRatioChunkCodec { fixed_split: None }.decode_into(data, out)
    }
}

/// A (GPU codec, scalar codec, name) triple for byte-identity checks.
pub type CodecPair = (
    Box<dyn ChunkCodec + Send + Sync>,
    Box<dyn ChunkCodec + Send + Sync>,
    &'static str,
);

/// Each algorithm's GPU kernel codec next to its scalar (CPU) codec, for
/// byte-identity checks.
pub fn scalar_counterparts() -> Vec<CodecPair> {
    let fixed = |codec| match codec {
        AlgorithmCodec::Fixed(codec) => codec,
        AlgorithmCodec::Adaptive(_) => unreachable!("the paper's algorithms are fixed pipelines"),
    };
    Algorithm::ALL
        .into_iter()
        .map(|algo| {
            let gpu = fixed(crate::compressor::codec(algo));
            let cpu = fixed(algo.codec(&PipelineOptions::default()));
            (gpu, cpu, algo.name())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpc_transforms::rze;

    fn chunk_cases() -> Vec<Vec<u8>> {
        let smooth_f32: Vec<u8> = (0..4096)
            .flat_map(|i| (2.0f32 + i as f32 * 1e-4).to_bits().to_le_bytes())
            .collect();
        let smooth_f64: Vec<u8> = (0..2048)
            .flat_map(|i| (-5.0f64 + i as f64 * 1e-7).to_bits().to_le_bytes())
            .collect();
        let noisy: Vec<u8> = (0..16384u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        let zeros = vec![0u8; 16384];
        let ragged: Vec<u8> = (0..1003).map(|i| (i % 251) as u8).collect();
        vec![
            smooth_f32,
            smooth_f64,
            noisy,
            zeros,
            ragged,
            vec![7u8; 5],
            vec![],
        ]
    }

    #[test]
    fn gpu_codecs_byte_identical_to_scalar() {
        for (gpu, cpu, name) in scalar_counterparts() {
            for (case_idx, chunk) in chunk_cases().iter().enumerate() {
                let mut gpu_out = Vec::new();
                gpu.encode_chunk(chunk, &mut gpu_out);
                let mut cpu_out = Vec::new();
                cpu.encode_chunk(chunk, &mut cpu_out);
                assert_eq!(gpu_out, cpu_out, "{name} case {case_idx}: encodings differ");
                // Cross-decode: GPU decodes the CPU stream and vice versa.
                let mut via_gpu = vec![0; chunk.len()];
                gpu.decode_into(&cpu_out, &mut via_gpu).unwrap();
                assert_eq!(&via_gpu, chunk, "{name} case {case_idx}: gpu decode");
                let mut via_cpu = vec![0; chunk.len()];
                cpu.decode_into(&gpu_out, &mut via_cpu).unwrap();
                assert_eq!(&via_cpu, chunk, "{name} case {case_idx}: cpu decode");
            }
        }
    }

    #[test]
    fn diffms_scan_decode_matches_sequential() {
        let orig: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(0x0101_4941)).collect();
        let mut seq = orig.clone();
        fpc_transforms::diffms::encode32(&mut seq);
        let mut scan_decoded = seq.clone();
        diffms_decode32_scan(&mut scan_decoded);
        assert_eq!(scan_decoded, orig);

        let orig64: Vec<u64> = (0..3000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut seq64 = orig64.clone();
        fpc_transforms::diffms::encode64(&mut seq64);
        diffms_decode64_scan(&mut seq64);
        assert_eq!(seq64, orig64);
    }

    #[test]
    fn gather_decode_matches_scalar_rze() {
        // Several structures: sparse, dense, all-zero, tiny, unaligned.
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0u8; 3],
            vec![7u8; 100],
            {
                let mut v = vec![0u8; 16384];
                for i in (0..16384).step_by(53) {
                    v[i] = (i % 200 + 1) as u8;
                }
                v
            },
            (0..5001u32).map(|i| (i % 255) as u8).collect(),
        ];
        for (case_idx, data) in cases.iter().enumerate() {
            let mut enc = Vec::new();
            rze::encode(data, &mut enc);
            let mut pos = 0;
            let mut gpu_out = Vec::new();
            rze_decode_gather(&enc, &mut pos, data.len(), &mut gpu_out).unwrap();
            assert_eq!(pos, enc.len(), "case {case_idx}: stream fully consumed");
            assert_eq!(&gpu_out, data, "case {case_idx}");
        }
    }

    #[test]
    fn byte_ranks_match_naive() {
        let bitmap: Vec<u8> = (0..3000u32).map(|i| (i * 37 % 251) as u8).collect();
        let ranks = byte_ranks(&bitmap);
        let mut acc = 0u64;
        for (i, &b) in bitmap.iter().enumerate() {
            acc += u64::from(b.count_ones());
            assert_eq!(ranks[i], acc, "byte {i}");
        }
    }

    #[test]
    fn ballot_bitmaps_match_scalar_rze() {
        let mut data = vec![0u8; 4096];
        for i in (0..4096).step_by(37) {
            data[i] = (i % 250 + 1) as u8;
        }
        let mut gpu_out = Vec::new();
        rze_encode_ballot(&data, &mut gpu_out);
        let mut cpu_out = Vec::new();
        rze::encode(&data, &mut cpu_out);
        assert_eq!(gpu_out, cpu_out);
    }
}

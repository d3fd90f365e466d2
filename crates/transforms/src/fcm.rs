//! FCM: the Finite Context Method transformation.
//!
//! The first stage of DPratio (paper §3.2, Figure 6). FPC-style hash-table
//! prediction is untenable on GPUs (two tables per thread), so the paper
//! replaces it with a sort-based equivalent: each value is paired with a
//! hash of the three *prior* values (its context); the (hash, index) pairs
//! are sorted; and a value "matches" when one of the up-to-four preceding
//! pairs in sorted order has the same hash **and** refers to an equal value.
//! Matches are encoded as backward distances, non-matches keep the value.
//!
//! The output is two arrays of the input's length — a value array (zeros at
//! match positions) and a distance array (zeros at non-match positions) —
//! which double the data volume but compress far better than the original,
//! because repeated values anywhere in the input collapse to small
//! distances and zeros.
//!
//! This is the only stage that operates on the whole input rather than on
//! 16 KiB chunks.
//!
//! # CPU formulation: prev links instead of the sort
//!
//! [`hash_pairs`] + sort + [`resolve_matches`] is the paper's GPU model
//! (gpu-sim runs it through [`encode_payload_sorted`] with its radix
//! sort, and the tests use it as the oracle). The CPU encoders reach the
//! same output without sorting. In the array sorted by (hash, index),
//! the pairs preceding index `i` with `i`'s hash are exactly the earlier
//! indices with an equal hash, nearest first.
//! So one index-order pass over a hash table that remembers the last index
//! seen per hash builds `prev[i]`, the last `j < i` with an equal 64-bit
//! hash, and following at most `window` links from `i` visits the same
//! candidates in the same order as the sorted scan; the first equal value
//! wins in both. Streams are therefore byte-identical to the sort-based
//! encoder for every input.
//!
//! Large inputs run on `fpc-pool`: hashing and match resolution split by
//! index block, the link pass by hash-space partition (each worker keeps
//! the table of its own hash range). Output never depends on the thread
//! count.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::{DecodeError, Result};
use fpc_metrics::Stage;

/// How many preceding same-hash pairs are examined for a match (paper: 4).
pub const MATCH_WINDOW: usize = 4;

/// Context order: the hash covers this many prior values (paper: 3).
pub const CONTEXT: usize = 3;

/// Largest input the encoders accept, in words (2^32 − 1 words, just under
/// 32 GiB). Indices are kept in 32 bits — the (hash, index) pairs and the
/// prev links, which store `index + 1` so that 0 can mean "no link" — and
/// larger inputs would wrap them. Every encoder panics beyond this limit
/// instead of emitting a corrupt stream.
pub const MAX_WORDS: usize = u32::MAX as usize;

/// log2 of the fewest words each worker must get before the encoder goes
/// parallel: below 2^18 words (2 MiB) per worker the pool hand-offs and
/// the per-partition scans cost more than the split saves.
const PAR_SHIFT: u32 = 18;

/// The two arrays produced by the forward transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded {
    /// Original value at non-match positions, 0 at match positions.
    pub values: Vec<u64>,
    /// Backward distance to an equal value at match positions, else 0.
    pub distances: Vec<u64>,
}

/// A word-addressed buffer: `u64` words, or little-endian bytes eight to a
/// word (the DPratio payload layout), so one encoder and one decoder serve
/// both.
trait Lane: Copy + Send + Sync {
    /// Elements per 64-bit word.
    const PER_WORD: usize;
    fn load(s: &[Self], i: usize) -> u64;
    fn store(s: &mut [Self], i: usize, v: u64);
}

impl Lane for u64 {
    const PER_WORD: usize = 1;
    #[inline(always)]
    fn load(s: &[u64], i: usize) -> u64 {
        s[i]
    }
    #[inline(always)]
    fn store(s: &mut [u64], i: usize, v: u64) {
        s[i] = v;
    }
}

impl Lane for u8 {
    const PER_WORD: usize = 8;
    #[inline(always)]
    fn load(s: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(s[i * 8..i * 8 + 8].try_into().expect("8-byte lane"))
    }
    #[inline(always)]
    fn store(s: &mut [u8], i: usize, v: u64) {
        s[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
}

#[inline]
fn mix(h: u64) -> u64 {
    // splitmix64 finalizer.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of the three values preceding a position (zero-padded history),
/// `p1` being the nearest.
#[inline]
fn hash3(p1: u64, p2: u64, p3: u64) -> u64 {
    mix(mix(mix(p1.rotate_left(21)) ^ p2.rotate_left(42)) ^ p3.rotate_left(63))
}

/// Panics if `n` words exceed the 32-bit index space (see [`MAX_WORDS`]).
fn check_len(n: usize) {
    assert!(
        n <= MAX_WORDS,
        "FCM input of {n} words exceeds the {MAX_WORDS}-word index limit"
    );
}

/// Applies the forward FCM transformation with the default window.
pub fn encode(data: &[u64]) -> Encoded {
    encode_with_window(data, MATCH_WINDOW)
}

/// Forward FCM with a configurable match window (exposed for the ablation
/// study; the paper uses [`MATCH_WINDOW`]). Single-threaded.
///
/// # Panics
///
/// If `data` holds more than [`MAX_WORDS`] words.
pub fn encode_with_window(data: &[u64], window: usize) -> Encoded {
    check_len(data.len());
    let mut values = vec![0u64; data.len()];
    let mut distances = vec![0u64; data.len()];
    encode_lanes(data, window, 1, &mut values, &mut distances);
    Encoded { values, distances }
}

/// Forward FCM over the whole little-endian words of `data`, written as
/// DPratio's intermediate payload: the value array and then the distance
/// array, both little-endian, then the `data.len() % 8` tail bytes
/// verbatim.
///
/// Runs on up to `threads` pool workers (0 = all cores); inputs under 2^18
/// words per worker run on the caller alone. The output is the same for
/// every thread count.
///
/// # Panics
///
/// If `data` holds more than [`MAX_WORDS`] words.
pub fn encode_payload(data: &[u8], window: usize, threads: usize) -> Vec<u8> {
    payload_layout(data, |head, values, distances| {
        encode_lanes(head, window, threads, values, distances);
    })
}

/// [`encode_payload`] by the paper's sort-based encoder (§3.2):
/// [`hash_pairs`], then `sort` over the (hash, index) pairs, then
/// [`resolve_matches`]. The sort is the caller's (gpu-sim passes its radix
/// sort); the bytes are [`encode_payload`]'s.
///
/// # Panics
///
/// If `data` holds more than [`MAX_WORDS`] words.
pub fn encode_payload_sorted(
    data: &[u8],
    window: usize,
    sort: impl FnOnce(&mut Vec<(u64, u32)>),
) -> Vec<u8> {
    payload_layout(data, |head, values, distances| {
        let (words, _) = crate::words::bytes_to_u64(head);
        let mut pairs = hash_pairs(&words);
        sort(&mut pairs);
        let enc = resolve_matches(&words, &pairs, window);
        for (i, (&v, &d)) in enc.values.iter().zip(&enc.distances).enumerate() {
            u8::store(values, i, v);
            u8::store(distances, i, d);
        }
    })
}

/// DPratio's payload layout, the one place it is written: the value array
/// and the distance array, both little-endian and filled by `fill` from
/// the whole words of `data`, then the `data.len() % 8` tail bytes
/// verbatim. [`split_payload`] is its inverse.
fn payload_layout(data: &[u8], fill: impl FnOnce(&[u8], &mut [u8], &mut [u8])) -> Vec<u8> {
    check_len(data.len() / 8);
    let (head, tail) = data.split_at(data.len() / 8 * 8);
    let mut payload = vec![0u8; head.len() * 2 + tail.len()];
    let (values, rest) = payload.split_at_mut(head.len());
    let (distances, payload_tail) = rest.split_at_mut(head.len());
    fill(head, values, distances);
    payload_tail.copy_from_slice(tail);
    payload
}

/// The link encoder: hash every context, link each index to the previous
/// one with an equal hash, then walk at most `window` links per index. The
/// distance array holds the hashes until the last pass overwrites them.
fn encode_lanes<T: Lane>(
    data: &[T],
    window: usize,
    threads: usize,
    values: &mut [T],
    distances: &mut [T],
) {
    let t = fpc_metrics::timer(Stage::FcmEncode);
    let n = data.len() / T::PER_WORD;
    let threads = fpc_pool::effective_threads(threads, n >> PAR_SHIFT);
    // With no window nothing can match: skip the hashes and links.
    let prev: Vec<AtomicU32> = if window == 0 {
        Vec::new()
    } else {
        for_blocks(threads, values, distances, |start, _, hashes| {
            hash_block(data, start, hashes);
        });
        let prev: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let hashes: &[T] = distances;
        fpc_pool::for_each_index(threads, threads, |part| {
            link_partition(hashes, part, threads, &prev);
        });
        prev
    };
    for_blocks(threads, values, distances, |start, vals, dists| {
        resolve_block(data, &prev, window, start, vals, dists);
    });
    t.finish(n as u64 * 8);
}

/// Splits two equal-length word buffers into aligned blocks and runs
/// `f(first_word, a_block, b_block)` on each, on up to `threads` workers.
fn for_blocks<T: Lane>(
    threads: usize,
    a: &mut [T],
    b: &mut [T],
    f: impl Fn(usize, &mut [T], &mut [T]) + Sync,
) {
    if threads <= 1 {
        return f(0, a, b);
    }
    // Four blocks per worker keep the dynamic claim order balanced.
    let words = (a.len() / T::PER_WORD).div_ceil(threads * 4).max(1);
    let blocks: Vec<_> = a
        .chunks_mut(words * T::PER_WORD)
        .zip(b.chunks_mut(words * T::PER_WORD))
        .enumerate()
        .map(|(k, (x, y))| Mutex::new(Some((k * words, x, y))))
        .collect();
    fpc_pool::for_each_index(blocks.len(), threads, |k| {
        let block = blocks[k]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let (start, x, y) = block.expect("the pool runs each block once");
        f(start, x, y);
    });
}

/// Writes the hash of the [`CONTEXT`] values preceding each of words
/// `start..start + out.len()` into `out`.
fn hash_block<T: Lane>(data: &[T], start: usize, out: &mut [T]) {
    let back = |k: usize| {
        if start >= k {
            T::load(data, start - k)
        } else {
            0
        }
    };
    let (mut p1, mut p2, mut p3) = (back(1), back(2), back(3));
    for k in 0..out.len() / T::PER_WORD {
        T::store(out, k, hash3(p1, p2, p3));
        (p3, p2, p1) = (p2, p1, T::load(data, start + k));
    }
}

/// Which of `parts` hash-space partitions owns `h` (by its top bits).
#[inline]
fn partition(h: u64, parts: usize) -> usize {
    (((h >> 32) * parts as u64) >> 32) as usize
}

/// Builds `prev[i]` (`j + 1` for the last `j < i` with an equal hash, or
/// 0) for every `i` whose hash lies in partition `part` of `parts`.
fn link_partition<T: Lane>(hashes: &[T], part: usize, parts: usize, prev: &[AtomicU32]) {
    let n = prev.len();
    if parts == 1 {
        return link_indices(hashes, 0..n, n, prev);
    }
    // Gather the owned indices first, branch-free: testing ownership in
    // the probe loop would mispredict on every other word.
    let mut owned = vec![0u32; n / parts + n / (parts * 8) + 1];
    let mut len = 0;
    for i in 0..n {
        if len == owned.len() {
            owned.resize(len * 2, 0);
        }
        owned[len] = i as u32;
        len += usize::from(partition(T::load(hashes, i), parts) == part);
    }
    owned.truncate(len);
    link_indices(hashes, owned.iter().map(|&i| i as usize), len, prev);
}

/// Links each of `count` ascending `indices` to its predecessor with an
/// equal hash.
///
/// Open addressing with linear probing over 1.5 slots per index. A slot
/// packs the hash's top 32 bits with the last index + 1 (0 = empty); the
/// home slot comes from the low 32 bits, and a fingerprint match is
/// confirmed against the full stored hash, so links join exactly the equal
/// 64-bit hashes the sorted scan groups.
fn link_indices<T: Lane>(
    hashes: &[T],
    indices: impl Iterator<Item = usize>,
    count: usize,
    prev: &[AtomicU32],
) {
    let cap = count + count / 2 + 1;
    let mut table = vec![0u64; cap];
    for i in indices {
        let h = T::load(hashes, i);
        let fingerprint = h >> 32;
        // check_len keeps i + 1 within u32.
        let entry = fingerprint << 32 | (i as u64 + 1);
        let mut slot = ((u128::from(h as u32) * cap as u128) >> 32) as usize;
        loop {
            let e = table[slot];
            if e == 0 {
                table[slot] = entry;
                break;
            }
            if e >> 32 == fingerprint {
                let link = e as u32;
                if T::load(hashes, link as usize - 1) == h {
                    // Relaxed: a link publishes no other data, and the
                    // pool's completion latch (AcqRel) orders every store
                    // before the resolve pass starts.
                    prev[i].store(link, Ordering::Relaxed);
                    table[slot] = entry;
                    break;
                }
            }
            slot += 1;
            if slot == cap {
                slot = 0;
            }
        }
    }
}

/// Resolves words `start..start + vals.len()`: a word matches the nearest
/// of at most `window` linked predecessors holding an equal value.
fn resolve_block<T: Lane>(
    data: &[T],
    prev: &[AtomicU32],
    window: usize,
    start: usize,
    vals: &mut [T],
    dists: &mut [T],
) {
    for k in 0..vals.len() / T::PER_WORD {
        let i = start + k;
        let v = T::load(data, i);
        let mut j = i;
        let mut distance = 0;
        for _ in 0..window {
            let link = prev[j].load(Ordering::Relaxed);
            if link == 0 {
                break;
            }
            j = link as usize - 1;
            if T::load(data, j) == v {
                distance = (i - j) as u64;
                break;
            }
        }
        if distance == 0 {
            T::store(vals, k, v);
            T::store(dists, k, 0);
        } else {
            T::store(vals, k, 0);
            T::store(dists, k, distance);
        }
    }
}

/// Builds the (context-hash, index) pair array — the embarrassingly
/// parallel first step of the paper's sort-based encoder (exposed so the
/// simulated-GPU path can substitute its own sort, as the paper substitutes
/// CUB's, and as the tests' oracle for the link encoder).
///
/// # Panics
///
/// If `data` holds more than [`MAX_WORDS`] words.
pub fn hash_pairs(data: &[u64]) -> Vec<(u64, u32)> {
    check_len(data.len());
    let mut hashes = vec![0u64; data.len()];
    hash_block(data, 0, &mut hashes);
    hashes.into_iter().zip(0u32..).collect()
}

/// Scans sorted pairs for matches and produces the two output arrays.
///
/// `pairs` must be sorted by (hash, index); each pair is compared against
/// up to `window` preceding same-hash pairs.
pub fn resolve_matches(data: &[u64], pairs: &[(u64, u32)], window: usize) -> Encoded {
    let n = data.len();
    let mut values = vec![0u64; n];
    let mut distances = vec![0u64; n];
    for (p, &(hash, idx)) in pairs.iter().enumerate() {
        let i = idx as usize;
        let mut matched = None;
        // Preceding same-hash pairs always have smaller indices because the
        // sort is by (hash, index); scan nearest-first.
        for back in 1..=window.min(p) {
            let (h2, idx2) = pairs[p - back];
            if h2 != hash {
                break;
            }
            if data[idx2 as usize] == data[i] {
                matched = Some(idx2 as usize);
                break;
            }
        }
        match matched {
            Some(j) => distances[i] = (i - j) as u64,
            None => values[i] = data[i],
        }
    }
    Encoded { values, distances }
}

/// Inverts the transformation.
///
/// # Errors
///
/// Fails if the arrays disagree in length or a distance points before the
/// start of the output.
pub fn decode(enc: &Encoded) -> Result<Vec<u64>> {
    decode_arrays(&enc.values, &enc.distances)
}

/// Inverts the transformation from raw arrays.
///
/// # Errors
///
/// Fails if the arrays disagree in length or a distance points before the
/// start of the output.
pub fn decode_arrays(values: &[u64], distances: &[u64]) -> Result<Vec<u64>> {
    if values.len() != distances.len() {
        return Err(DecodeError::Corrupt("fcm array length mismatch"));
    }
    let mut out = vec![0; values.len()];
    decode_lanes(values, distances, &mut out)?;
    Ok(out)
}

/// Inverts [`encode_payload`] into `out`, which is exactly the original
/// length long. The payload is never shorter than the original, so a
/// caller that sizes `out` from an untrusted length can bound it by
/// `payload.len()` first.
///
/// # Errors
///
/// Fails if `payload` is not exactly the layout `out.len()` implies or a
/// distance points before the start of the output.
pub fn decode_payload(payload: &[u8], out: &mut [u8]) -> Result<()> {
    let (values, distances, tail) = split_payload(payload, out.len())?;
    let (words, out_tail) = out.split_at_mut(values.len());
    decode_lanes(values, distances, words)?;
    out_tail.copy_from_slice(tail);
    Ok(())
}

/// Inverts [`encode_payload`] with the word decoder supplied by the
/// caller: `decode` gets the value and distance words and returns the
/// original words (gpu-sim passes its parallel union-find decode).
///
/// # Errors
///
/// Fails if `payload` is not exactly the layout `original_len` implies, or
/// with `decode`'s error.
pub fn decode_payload_with(
    payload: &[u8],
    original_len: usize,
    decode: impl FnOnce(&[u64], &[u64]) -> Result<Vec<u64>>,
) -> Result<Vec<u8>> {
    let (values, distances, tail) = split_payload(payload, original_len)?;
    let decoded = decode(
        &crate::words::bytes_to_u64(values).0,
        &crate::words::bytes_to_u64(distances).0,
    )?;
    let mut out = Vec::with_capacity(original_len);
    crate::words::u64_to_bytes(&decoded, &mut out);
    out.extend_from_slice(tail);
    Ok(out)
}

/// Splits a [`payload_layout`] payload for `original_len` original bytes
/// into its value bytes, distance bytes and raw tail, with checked
/// arithmetic so a forged length cannot overflow.
fn split_payload(payload: &[u8], original_len: usize) -> Result<(&[u8], &[u8], &[u8])> {
    let head = original_len / 8 * 8;
    let (values, rest) = payload
        .split_at_checked(head)
        .ok_or(DecodeError::Corrupt("fcm payload length mismatch"))?;
    let (distances, tail) = rest
        .split_at_checked(head)
        .filter(|(_, tail)| tail.len() == original_len - head)
        .ok_or(DecodeError::Corrupt("fcm payload length mismatch"))?;
    Ok((values, distances, tail))
}

/// Decodes equal-length `values`/`distances` into `out`, which is as
/// long as each of them.
fn decode_lanes<T: Lane>(values: &[T], distances: &[T], out: &mut [T]) -> Result<()> {
    let t = fpc_metrics::timer(Stage::FcmDecode);
    let n = values.len() / T::PER_WORD;
    for i in 0..n {
        let d = T::load(distances, i);
        let v = if d == 0 {
            T::load(values, i)
        } else {
            let d =
                usize::try_from(d).map_err(|_| DecodeError::Corrupt("fcm distance overflow"))?;
            if d > i {
                return Err(DecodeError::Corrupt("fcm distance before start"));
            }
            // Scanning forward guarantees word i - d is already resolved
            // (the parallel GPU decoder uses union-find instead; §3.2).
            T::load(out, i - d)
        };
        T::store(out, i, v);
    }
    t.finish(n as u64 * 8);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u64]) -> Encoded {
        let enc = encode(data);
        assert_eq!(enc.values.len(), data.len());
        assert_eq!(enc.distances.len(), data.len());
        assert_eq!(decode(&enc).unwrap(), data);
        enc
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[42]);
    }

    #[test]
    fn paper_figure6_example() {
        // Figure 6: values a b a b c a b -> positions 2,3,5,6 match with
        // distances 2,2,3,3 (contexts repeat after the first occurrence).
        let (a, b, c) = (1.5f64.to_bits(), 2.5f64.to_bits(), 9.25f64.to_bits());
        let data = [a, b, a, b, c, a, b];
        let enc = roundtrip(&data);
        // Position 0 and 1 can never match (no prior occurrence).
        assert_eq!(enc.distances[0], 0);
        assert_eq!(enc.values[0], a);
        assert_eq!(enc.distances[1], 0);
        // Position 2 has context (b, a, 0) which never occurred before;
        // whether it matches depends on hashing, but position 4 (value c)
        // can never match since c is new.
        assert_eq!(enc.values[4], c);
        assert_eq!(enc.distances[4], 0);
    }

    #[test]
    fn periodic_data_matches_collapse() {
        // A strictly periodic sequence: after one period, every value
        // recurs with an identical 3-value context, so nearly everything
        // should become a (small) distance.
        let period: Vec<u64> = (0..16u64).map(|i| (i as f64 * 0.25).to_bits()).collect();
        let data: Vec<u64> = period.iter().cycle().take(1600).copied().collect();
        let enc = roundtrip(&data);
        let matches = enc.distances.iter().filter(|&&d| d != 0).count();
        assert!(
            matches > data.len() * 9 / 10,
            "only {matches}/{} positions matched",
            data.len()
        );
        // Matched distances should mostly be one period.
        let period_dists = enc.distances.iter().filter(|&&d| d == 16).count();
        assert!(period_dists > matches / 2);
    }

    #[test]
    fn all_distinct_values_produce_no_matches() {
        let data: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let enc = roundtrip(&data);
        assert!(enc.distances.iter().all(|&d| d == 0));
        assert_eq!(enc.values, data);
    }

    #[test]
    fn equal_values_different_context_may_not_match() {
        // The same value with unrelated contexts: FCM matches on context
        // hash, so these should typically NOT match (that's the design —
        // context predicts value).
        let mut data = vec![0u64; 100];
        for (i, v) in data.iter_mut().enumerate() {
            *v = (i as u64).wrapping_mul(0x1234_5678_9ABC_DEF1);
        }
        data[50] = data[10]; // same value, different context
        roundtrip(&data); // must still roundtrip regardless of match outcome
    }

    #[test]
    fn zero_values_roundtrip() {
        // Zeros are tricky: value 0 with distance 0 must decode to 0.
        let data = vec![0u64; 500];
        roundtrip(&data);
        let mut mixed = vec![7u64; 100];
        mixed.extend(vec![0u64; 100]);
        mixed.extend(vec![7u64; 100]);
        roundtrip(&mixed);
    }

    #[test]
    fn corrupt_distance_rejected() {
        let enc = Encoded {
            values: vec![0, 0],
            distances: vec![5, 0],
        };
        assert!(matches!(decode(&enc), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let enc = Encoded {
            values: vec![1, 2, 3],
            distances: vec![0],
        };
        assert!(matches!(decode(&enc), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn window_one_still_roundtrips() {
        let data: Vec<u64> = (0..64).map(|i| (i % 8) as u64).collect();
        let enc = encode_with_window(&data, 1);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn matches_always_point_to_equal_values() {
        let data: Vec<u64> = (0..2000u64).map(|i| ((i % 37) as f64).to_bits()).collect();
        let enc = encode(&data);
        for (i, &d) in enc.distances.iter().enumerate() {
            if d != 0 {
                assert_eq!(data[i - d as usize], data[i], "bad match at {i}");
            }
        }
    }

    #[test]
    fn smooth_simulation_data_gets_some_matches() {
        // Values quantized to a coarse grid recur frequently.
        let data: Vec<u64> = (0..5000)
            .map(|i| (((i as f64 * 0.1).sin() * 50.0).round() / 50.0).to_bits())
            .collect();
        let enc = roundtrip(&data);
        let matches = enc.distances.iter().filter(|&&d| d != 0).count();
        assert!(matches > 1000, "only {matches} matches");
    }

    #[test]
    fn payload_length_must_match_original_len() {
        let payload = encode_payload(&[0u8; 19], MATCH_WINDOW, 1);
        assert_eq!(payload.len(), 2 * 16 + 3);
        for original_len in [0, 18, 20, 35] {
            assert!(matches!(
                decode_payload(&payload, &mut vec![0; original_len]),
                Err(DecodeError::Corrupt(_))
            ));
        }
        // No buffer can be that long; the split's arithmetic must not
        // overflow on the length alone.
        assert!(matches!(
            split_payload(&payload, usize::MAX),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn index_limit_admits_max_words() {
        check_len(0);
        check_len(MAX_WORDS);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "index limit")]
    fn index_limit_rejects_wider_inputs() {
        check_len(MAX_WORDS + 1);
    }
}

//! Block-level prefix sums and the decoupled look-back inter-block scan.
//!
//! The paper uses a block-level parallel prefix sum (built from warp scans
//! and shared memory) for DIFFMS decoding, and "Merrill and Garland's
//! variable look-back strategy" to pass compressed-chunk write positions
//! between thread blocks (§3.1). Both are reproduced here: the block scan
//! deterministically, the look-back scan with real threads on the published
//! state machine (`Invalid` → `Aggregate` → `Prefix`) of
//! [`fpc_pool::LookBack`].

use crate::warp::{inclusive_scan_add, shfl_up};
use crate::WARP_SIZE;

/// Block-level inclusive prefix sum (wrapping addition) over up to
/// 32 × 32 = 1024 elements, composed from warp scans exactly as a CUDA
/// block scan is: per-warp scan, warp-aggregate scan in "shared memory",
/// then per-lane offset addition.
pub fn block_inclusive_scan(values: &mut [u64]) {
    assert!(
        values.len() <= WARP_SIZE * WARP_SIZE,
        "block scan capacity is 1024 elements"
    );
    let mut warp_aggregates = [0u64; WARP_SIZE];
    let nwarps = values.len().div_ceil(WARP_SIZE);
    #[allow(clippy::needless_range_loop)] // w is a warp id used for slicing and aggregates
    for w in 0..nwarps {
        let start = w * WARP_SIZE;
        let end = (start + WARP_SIZE).min(values.len());
        let mut regs = [0u64; WARP_SIZE];
        regs[..end - start].copy_from_slice(&values[start..end]);
        let scanned = inclusive_scan_add(&regs);
        values[start..end].copy_from_slice(&scanned[..end - start]);
        warp_aggregates[w] = scanned[WARP_SIZE - 1];
    }
    // Scan the warp aggregates (one warp's worth) and add exclusive offsets.
    let agg_scan = inclusive_scan_add(&warp_aggregates);
    let offsets = shfl_up(&agg_scan, 1);
    let len = values.len();
    for w in 1..nwarps {
        for v in &mut values[w * WARP_SIZE..((w + 1) * WARP_SIZE).min(len)] {
            *v = v.wrapping_add(offsets[w]);
        }
    }
}

/// Exclusive prefix sum across "thread blocks" using the decoupled
/// look-back protocol. `aggregates[i]` is block `i`'s local total; the
/// result is each block's exclusive prefix (its write position).
///
/// Blocks are executed on the shared [`fpc_pool`] executor: workers claim
/// block indices from an atomic counter (any order), publish their
/// aggregate immediately, and then look back through predecessor
/// descriptors until a published inclusive prefix is found — the actual
/// single-pass protocol, [`fpc_pool::LookBack`], which the container's
/// one-shot compress also uses to place chunk bodies. Totals saturate.
pub fn decoupled_lookback_exclusive(aggregates: &[u64], threads: usize) -> Vec<u64> {
    let n = aggregates.len();
    if n == 0 {
        return Vec::new();
    }
    let t = fpc_metrics::timer(fpc_metrics::Stage::GpuScan);
    let chain = fpc_pool::LookBack::new(n);
    let out = fpc_pool::run_indexed(n, threads, |b| {
        let aggregate = usize::try_from(aggregates[b]).unwrap_or(usize::MAX);
        chain.publish(b, aggregate) as u64
    });
    t.finish(n as u64 * 8);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_exclusive(values: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(values.len());
        let mut acc = 0u64;
        for &v in values {
            out.push(acc);
            acc = acc.wrapping_add(v);
        }
        out
    }

    #[test]
    fn block_scan_matches_serial() {
        for n in [0usize, 1, 31, 32, 33, 100, 1023, 1024] {
            let mut values: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
            let expected: Vec<u64> = {
                let mut acc = 0u64;
                values
                    .iter()
                    .map(|&v| {
                        acc = acc.wrapping_add(v);
                        acc
                    })
                    .collect()
            };
            block_inclusive_scan(&mut values);
            assert_eq!(values, expected, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn block_scan_rejects_oversized() {
        let mut values = vec![1u64; 1025];
        block_inclusive_scan(&mut values);
    }

    #[test]
    fn lookback_matches_serial_small() {
        let aggregates = [5u64, 0, 3, 10, 2];
        assert_eq!(
            decoupled_lookback_exclusive(&aggregates, 4),
            serial_exclusive(&aggregates)
        );
    }

    #[test]
    fn lookback_matches_serial_large_many_threads() {
        let aggregates: Vec<u64> = (0..2000u64).map(|i| i % 97).collect();
        for threads in [1usize, 2, 8, 32] {
            assert_eq!(
                decoupled_lookback_exclusive(&aggregates, threads),
                serial_exclusive(&aggregates),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn lookback_empty_and_single() {
        assert!(decoupled_lookback_exclusive(&[], 4).is_empty());
        assert_eq!(decoupled_lookback_exclusive(&[42], 4), vec![0]);
    }

    #[test]
    fn lookback_repeated_runs_agree() {
        // Stress scheduling nondeterminism: results must be identical.
        let aggregates: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(13)).collect();
        let expected = serial_exclusive(&aggregates);
        for _ in 0..10 {
            assert_eq!(decoupled_lookback_exclusive(&aggregates, 16), expected);
        }
    }
}

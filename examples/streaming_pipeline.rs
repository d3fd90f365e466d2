//! Streaming pipeline: compress an unbounded data stream chunk by chunk.
//!
//! Models the paper's motivating deployment (§1): an instrument producing
//! data continuously (LCLS-II reaches 250 GB/s) that must be compressed on
//! the fly — the acquisition cannot be buffered whole. Bursts flow through
//! a `StreamingCompressor`, which encodes every 16 KiB chunk as soon as it
//! fills, into a "storage" sink; the stored container is then replayed
//! through a `StreamingDecompressor` in arbitrary-size reads, with
//! bit-exactness verified end to end.
//!
//! ```text
//! cargo run --release --example streaming_pipeline
//! ```

use fpcompress::core::{Algorithm, StreamingCompressor, StreamingDecompressor};
use std::time::Instant;

/// Order-sensitive running checksum over the bytes seen so far.
fn absorb(checksum: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *checksum = checksum.wrapping_mul(31).wrapping_add(u64::from(b));
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The "instrument": emits bursts of quantized detector readings.
    let total_values = 4_000_000usize;
    let burst = 65_536usize;
    let mut produced = 0usize;

    let mut compressor = StreamingCompressor::new(Algorithm::SpSpeed, 0);
    let mut checksum_in = 0u64;
    let mut peak_held = 0u64;
    let start = Instant::now();
    while produced < total_values {
        let n = burst.min(total_values - produced);
        let burst_data: Vec<u8> = (produced..produced + n)
            .flat_map(|i| {
                let v = ((i as f32 * 7e-5).sin() * 1000.0).round() / 1000.0;
                v.to_bits().to_le_bytes()
            })
            .collect();
        absorb(&mut checksum_in, &burst_data);
        compressor.feed(&burst_data)?;
        peak_held = peak_held.max(compressor.held_bytes());
        produced += n;
    }
    let stored = compressor.finish()?;
    let elapsed = start.elapsed().as_secs_f64();
    let raw_bytes = total_values * 4;
    println!(
        "ingested {} MB in {:.2}s ({:.3} GB/s) -> stored {} MB (ratio {:.3}), peak held {} KB",
        raw_bytes / (1 << 20),
        elapsed,
        raw_bytes as f64 / 1e9 / elapsed,
        stored.len() / (1 << 20),
        raw_bytes as f64 / stored.len() as f64,
        peak_held / 1024
    );

    // The "analysis" side: stream back out in arbitrary-size reads,
    // taking the decoded output after every read.
    let mut decompressor = StreamingDecompressor::new();
    let mut checksum_out = 0u64;
    let mut total_out = 0usize;
    let mut drain = |d: &mut StreamingDecompressor| {
        if let Some(block) = d.take_output() {
            absorb(&mut checksum_out, &block);
            total_out += block.len();
        }
    };
    for read in stored.chunks(123_457) {
        // deliberately chunk-misaligned
        decompressor.feed(read)?;
        drain(&mut decompressor);
    }
    decompressor.finish()?;
    drain(&mut decompressor);
    assert_eq!(total_out, raw_bytes);
    assert_eq!(checksum_in, checksum_out, "stream corrupted!");
    println!(
        "replayed {} MB, checksums match: lossless end to end",
        total_out / (1 << 20)
    );
    Ok(())
}

//! Microbenches of the individual transformations on one 16 KiB chunk —
//! the unit of work the paper's throughput numbers decompose into.

use fpc_bench::microbench::Group;
use fpc_transforms::{bit_transpose, diffms, fcm, mplg, rare, raze, rze, words, zigzag};

const CHUNK_U32: usize = 4096;
const CHUNK_U64: usize = 2048;

fn chunk_u32() -> Vec<u32> {
    (0..CHUNK_U32)
        .map(|i| (1.5f32 + i as f32 * 1e-4).to_bits())
        .collect()
}

fn chunk_u64() -> Vec<u64> {
    (0..CHUNK_U64)
        .map(|i| (9.25f64 - i as f64 * 1e-7).to_bits())
        .collect()
}

fn main() {
    let group = Group::new("transforms_16k_chunk")
        .throughput_bytes(16384)
        .sample_size(20);

    let mut sp_bytes = Vec::new();
    words::u32_to_bytes(&chunk_u32(), &mut sp_bytes);
    let mut dp_bytes = Vec::new();
    words::u64_to_bytes(&chunk_u64(), &mut dp_bytes);
    // DIFFMS as the codecs run it: fused with the little-endian load on
    // encode and with the store on decode.
    {
        let mut enc = vec![0u32; CHUNK_U32];
        group.bench("diffms32_encode", || {
            diffms::encode32_le(0, &sp_bytes, &mut enc)
        });
        let mut out = vec![0u8; sp_bytes.len()];
        group.bench("diffms32_decode", || diffms::decode32_le(0, &enc, &mut out));
        assert_eq!(out, sp_bytes);
    }
    {
        let mut enc = vec![0u64; CHUNK_U64];
        group.bench("diffms64_encode", || {
            diffms::encode64_le(0, &dp_bytes, &mut enc)
        });
        let mut out = vec![0u8; dp_bytes.len()];
        group.bench("diffms64_decode", || diffms::decode64_le(0, &enc, &mut out));
        assert_eq!(out, dp_bytes);
    }
    // MPLG's fallback for subchunks whose maximum has no leading zeros.
    group.bench_batched("zigzag32_slice", chunk_u32, |mut w| {
        zigzag::encode32_slice(&mut w);
        w
    });
    group.bench_batched("bit_transpose32", chunk_u32, |mut w| {
        bit_transpose::transpose32(&mut w)
    });
    {
        let mut diffed = chunk_u32();
        diffms::encode32(&mut diffed);
        group.bench("mplg32_encode", || {
            let mut out = Vec::with_capacity(16384);
            mplg::encode32(&diffed, &mut out);
            out
        });
        let mut enc = Vec::new();
        mplg::encode32(&diffed, &mut enc);
        group.bench("mplg32_decode", || {
            let (mut pos, mut out) = (0, Vec::with_capacity(CHUNK_U32));
            mplg::decode32(&enc, &mut pos, CHUNK_U32, &mut out).expect("valid chunk");
            out
        });
    }
    {
        let mut diffed = chunk_u64();
        diffms::encode64(&mut diffed);
        group.bench("mplg64_encode", || {
            let mut out = Vec::with_capacity(16384);
            mplg::encode64(&diffed, &mut out);
            out
        });
        let mut enc = Vec::new();
        mplg::encode64(&diffed, &mut enc);
        group.bench("mplg64_decode", || {
            let (mut pos, mut out) = (0, Vec::with_capacity(CHUNK_U64));
            mplg::decode64(&enc, &mut pos, CHUNK_U64, &mut out).expect("valid chunk");
            out
        });
    }
    // The speed-tier chunk encoders: DIFFMS fused with the word load and
    // run into MPLG one subchunk at a time (all but the codec's tail copy).
    type Encode = fn(&[u8], &mut Vec<u8>, bool);
    for (name, encode, bytes) in [
        (
            "spspeed_encode_chunk",
            mplg::encode32_le as Encode,
            &sp_bytes,
        ),
        ("dpspeed_encode_chunk", mplg::encode64_le, &dp_bytes),
    ] {
        let mut out = Vec::with_capacity(16384 + 64);
        group.bench(name, || {
            out.clear();
            encode(bytes, &mut out, true);
            out.len()
        });
    }
    // The speed-tier chunk decoders: MPLG unpacked one subchunk at a time
    // and DIFFMS-decoded straight into the reused output chunk.
    type Decode = fn(&[u8], &mut usize, &mut [u8]) -> fpc_transforms::Result<()>;
    for (name, encode, decode, bytes) in [
        (
            "spspeed_decode_chunk",
            mplg::encode32_le as Encode,
            mplg::decode32_le as Decode,
            &sp_bytes,
        ),
        (
            "dpspeed_decode_chunk",
            mplg::encode64_le,
            mplg::decode64_le,
            &dp_bytes,
        ),
    ] {
        let mut enc = Vec::new();
        encode(bytes, &mut enc, true);
        let mut out = vec![0u8; bytes.len()];
        group.bench(name, || {
            let mut pos = 0;
            decode(&enc, &mut pos, &mut out).expect("valid chunk");
            pos
        });
    }
    {
        let mut diffed = chunk_u32();
        diffms::encode32(&mut diffed);
        bit_transpose::transpose32(&mut diffed);
        let bytes: Vec<u8> = diffed.iter().flat_map(|w| w.to_le_bytes()).collect();
        group.bench("rze_encode", || {
            let mut out = Vec::with_capacity(16384);
            rze::encode(&bytes, &mut out);
            out
        });
        let mut enc = Vec::new();
        rze::encode(&bytes, &mut enc);
        group.bench("rze_decode", || {
            let (mut pos, mut out) = (0, Vec::with_capacity(bytes.len()));
            rze::decode(&enc, &mut pos, bytes.len(), &mut out).expect("valid chunk");
            out
        });
    }
    {
        let mut diffed = chunk_u64();
        diffms::encode64(&mut diffed);
        group.bench("raze_encode", || {
            let mut out = Vec::with_capacity(16384);
            raze::encode(&diffed, &mut out);
            out
        });
        let mut enc = Vec::new();
        raze::encode(&diffed, &mut enc);
        group.bench("raze_decode", || {
            let (mut pos, mut out) = (0, Vec::with_capacity(CHUNK_U64));
            raze::decode(&enc, &mut pos, CHUNK_U64, &mut out).expect("valid chunk");
            out
        });
    }
    {
        let w = chunk_u64();
        group.bench("rare_encode", || {
            let mut out = Vec::with_capacity(16384);
            rare::encode(&w, &mut out);
            out
        });
        let mut enc = Vec::new();
        rare::encode(&w, &mut enc);
        group.bench("rare_decode", || {
            let (mut pos, mut out) = (0, Vec::with_capacity(CHUNK_U64));
            rare::decode(&enc, &mut pos, CHUNK_U64, &mut out).expect("valid chunk");
            out
        });
    }
    {
        // Chunk-local FCM, as AUTO's DPratio candidate runs it.
        let w: Vec<u64> = (0..CHUNK_U64)
            .map(|i| ((i % 97) as f64).to_bits())
            .collect();
        group.bench("fcm_encode", || fcm::encode(&w));
    }

    let data: Vec<u64> = (0..1 << 16)
        .map(|i| ((i % 1024) as f64).to_bits())
        .collect();
    let group = Group::new("transforms_global")
        .throughput_bytes((data.len() * 8) as u64)
        .sample_size(10);
    group.bench("fcm_encode_64k_values", || fcm::encode(&data));
    let enc = fcm::encode(&data);
    group.bench("fcm_decode_64k_values", || {
        fcm::decode(&enc).expect("valid arrays")
    });

    // One 8 MiB DPratio file's global stage: past the 2^18-words-per-worker
    // cutoff, so 2 threads run the pool-parallel encoder.
    let values: Vec<f64> = (0..1 << 20)
        .map(|i| ((i as f64 * 1e-3).sin() * 512.0).round() / 512.0)
        .collect();
    let bytes = words::f64_slice_to_bytes(&values);
    let group = Group::new("transforms_global_1m")
        .throughput_bytes(bytes.len() as u64)
        .sample_size(10);
    for threads in [1, 2] {
        group.bench(&format!("fcm_encode_1m_values_{threads}t"), || {
            fcm::encode_payload(&bytes, fcm::MATCH_WINDOW, threads)
        });
    }
}

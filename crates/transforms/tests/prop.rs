//! Deterministic property tests over every transformation
//! (in-repo fuzz driver; no external dependencies).

mod common;

use fpc_prng::fuzz::run_cases;
use fpc_prng::Rng;
use fpc_transforms::{bit_transpose, diffms, fcm, mplg, rare, raze, rze, zigzag};

fn vec_u32(rng: &mut Rng, max_len: usize) -> Vec<u32> {
    let n = rng.gen_range(0usize..max_len);
    (0..n).map(|_| rng.next_u32()).collect()
}

fn vec_u64(rng: &mut Rng, max_len: usize) -> Vec<u64> {
    let n = rng.gen_range(0usize..max_len);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[test]
fn zigzag_bijection32() {
    run_cases("transforms/zigzag32", 256, |rng, _| {
        let v = rng.next_u32();
        assert_eq!(zigzag::decode32(zigzag::encode32(v)), v);
    });
}

#[test]
fn zigzag_bijection64() {
    run_cases("transforms/zigzag64", 256, |rng, _| {
        let v = rng.next_u64();
        assert_eq!(zigzag::decode64(zigzag::encode64(v)), v);
    });
}

#[test]
fn zigzag_orders_by_magnitude() {
    run_cases("transforms/zigzag-order", 256, |rng, _| {
        let a = rng.gen_range(-1000i32..1000);
        let b = rng.gen_range(-1000i32..1000);
        // Smaller absolute value => smaller (or equal) zigzag code.
        if a.unsigned_abs() < b.unsigned_abs() {
            assert!(zigzag::encode32(a as u32) < zigzag::encode32(b as u32));
        }
    });
}

#[test]
fn diffms_roundtrip32() {
    run_cases("transforms/diffms32", 64, |rng, _| {
        let values = vec_u32(rng, 2000);
        let mut v = values.clone();
        diffms::encode32(&mut v);
        diffms::decode32(&mut v);
        assert_eq!(v, values);
    });
}

#[test]
fn diffms_roundtrip64() {
    run_cases("transforms/diffms64", 64, |rng, _| {
        let values = vec_u64(rng, 1500);
        let mut v = values.clone();
        diffms::encode64(&mut v);
        diffms::decode64(&mut v);
        assert_eq!(v, values);
    });
}

#[test]
fn bit_transpose_involution() {
    run_cases("transforms/transpose32", 64, |rng, _| {
        let values = vec_u32(rng, 500);
        let mut v = values.clone();
        bit_transpose::transpose32(&mut v);
        bit_transpose::transpose32(&mut v);
        assert_eq!(v, values);
    });
}

#[test]
fn bit_transpose_preserves_popcount() {
    run_cases("transforms/transpose64-popcount", 64, |rng, _| {
        let values = vec_u64(rng, 256);
        let before: u32 = values.iter().map(|v| v.count_ones()).sum();
        let mut v = values.clone();
        bit_transpose::transpose64(&mut v);
        let after: u32 = v.iter().map(|x| x.count_ones()).sum();
        assert_eq!(before, after);
    });
}

#[test]
fn mplg_roundtrip32() {
    run_cases("transforms/mplg32", 64, |rng, case| {
        let values = vec_u32(rng, 2000);
        let fallback = case % 2 == 0;
        let mut enc = Vec::new();
        mplg::encode32_with(&values, &mut enc, fallback);
        let mut pos = 0;
        let mut dec = Vec::new();
        mplg::decode32(&enc, &mut pos, values.len(), &mut dec).unwrap();
        assert_eq!(pos, enc.len());
        assert_eq!(dec, values);
    });
}

#[test]
fn mplg_roundtrip64() {
    run_cases("transforms/mplg64", 64, |rng, _| {
        let values = vec_u64(rng, 1000);
        let mut enc = Vec::new();
        mplg::encode64(&values, &mut enc);
        let mut pos = 0;
        let mut dec = Vec::new();
        mplg::decode64(&enc, &mut pos, values.len(), &mut dec).unwrap();
        assert_eq!(dec, values);
    });
}

#[test]
fn rze_roundtrip() {
    run_cases("transforms/rze", 64, |rng, _| {
        // Mix sparse (mostly-zero) and dense inputs: RZE targets sparsity.
        let n = rng.gen_range(0usize..5000);
        let p_zero = rng.next_f64();
        let data: Vec<u8> = (0..n)
            .map(|_| {
                if rng.gen_bool(p_zero) {
                    0
                } else {
                    rng.next_u64() as u8
                }
            })
            .collect();
        let mut enc = Vec::new();
        rze::encode(&data, &mut enc);
        assert_eq!(enc.len(), rze::encoded_len(&data));
        let mut pos = 0;
        let mut dec = Vec::new();
        rze::decode(&enc, &mut pos, data.len(), &mut dec).unwrap();
        assert_eq!(pos, enc.len());
        assert_eq!(dec, data);
    });
}

#[test]
fn rze_never_expands_beyond_bitmap_chain() {
    run_cases("transforms/rze-bound", 64, |rng, _| {
        let data = rng.bytes_range(0usize..4096);
        let enc_len = rze::encoded_len(&data);
        let n = data.len();
        let chain = n.div_ceil(8) + n.div_ceil(64) + n.div_ceil(512) + 8;
        assert!(enc_len <= n + chain, "{enc_len} > {n} + {chain}");
    });
}

#[test]
fn raze_roundtrip_adaptive_and_fixed() {
    run_cases("transforms/raze", 64, |rng, _| {
        let values = vec_u64(rng, 800);
        let kb = rng.gen_range(0usize..=8);
        for fixed in [false, true] {
            let mut enc = Vec::new();
            if fixed {
                raze::encode_with_split(&values, &mut enc, kb);
            } else {
                raze::encode(&values, &mut enc);
            }
            let mut pos = 0;
            let mut dec = Vec::new();
            raze::decode(&enc, &mut pos, values.len(), &mut dec).unwrap();
            assert_eq!(dec, values);
        }
    });
}

#[test]
fn rare_roundtrip_adaptive_and_fixed() {
    run_cases("transforms/rare", 64, |rng, _| {
        let values = vec_u64(rng, 800);
        let kb = rng.gen_range(0usize..=8);
        for fixed in [false, true] {
            let mut enc = Vec::new();
            if fixed {
                rare::encode_with_split(&values, &mut enc, kb);
            } else {
                rare::encode(&values, &mut enc);
            }
            let mut pos = 0;
            let mut dec = Vec::new();
            rare::decode(&enc, &mut pos, values.len(), &mut dec).unwrap();
            assert_eq!(dec, values);
        }
    });
}

#[test]
fn fcm_roundtrip_any_window() {
    run_cases("transforms/fcm", 64, |rng, _| {
        let values = vec_u64(rng, 1200);
        let window = rng.gen_range(1usize..=8);
        let enc = fcm::encode_with_window(&values, window);
        assert_eq!(fcm::decode(&enc).unwrap(), values);
    });
}

#[test]
fn fcm_structure_invariants() {
    run_cases("transforms/fcm-structure", 64, |rng, _| {
        // Narrow alphabet forces many matches; check structural invariants:
        // exactly one of (value, distance) is meaningful per position, and
        // every distance points at an equal value.
        let n = rng.gen_range(0usize..1500);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..32)).collect();
        let enc = fcm::encode(&values);
        for (i, (&v, &d)) in enc.values.iter().zip(&enc.distances).enumerate() {
            if d != 0 {
                assert_eq!(v, 0u64, "match position {i} must zero its value");
                assert_eq!(values[i - d as usize], values[i]);
            } else {
                assert_eq!(v, values[i]);
            }
        }
    });
}

#[test]
fn fcm_links_equal_the_sorted_scan() {
    run_cases("transforms/fcm-links", 40, common::check_fcm_links);
}

#[test]
fn transform_decoders_reject_random_bytes_gracefully() {
    run_cases("transforms/random-bytes", 512, |rng, _| {
        let data = rng.bytes_range(0usize..300);
        let mut pos = 0;
        let mut sink32 = Vec::new();
        let _ = mplg::decode32(&data, &mut pos, 100, &mut sink32);
        let mut pos = 0;
        let mut sink64m = Vec::new();
        let _ = mplg::decode64(&data, &mut pos, 100, &mut sink64m);
        let mut pos = 0;
        let mut sink = Vec::new();
        let _ = rze::decode(&data, &mut pos, 1000, &mut sink);
        let mut pos = 0;
        let mut sink64 = Vec::new();
        let _ = raze::decode(&data, &mut pos, 100, &mut sink64);
        let mut pos = 0;
        let mut sink64b = Vec::new();
        let _ = rare::decode(&data, &mut pos, 100, &mut sink64b);
    });
}

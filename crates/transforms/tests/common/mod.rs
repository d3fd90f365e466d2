//! The FCM link-encoder differential, shared by this crate's property
//! tests and the workspace fuzz suite (`tests/fuzz.rs` includes this file),
//! so CI's extended fuzz job runs the same property at more cases.

use fpc_prng::Rng;
use fpc_transforms::fcm;

/// FCM inputs that stress the link encoder: one chain of length n
/// (all-equal), period 2, no repeats, long zero runs, values that share
/// their low 32 bits, repeated contexts with varying successors (chains
/// whose values differ, so the window decides), and a narrow alphabet.
fn fcm_adversarial(rng: &mut Rng, family: u64, n: usize) -> Vec<u64> {
    let (a, b) = (rng.next_u64(), rng.next_u64());
    match family % 7 {
        0 => vec![a; n],
        1 => (0..n).map(|i| if i % 2 == 0 { a } else { b }).collect(),
        2 => (0..n as u64)
            .map(|i| a.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect(),
        3 => {
            let mut v = vec![0u64; n];
            let mut i = 0;
            while i < n {
                i += rng.gen_range(0usize..4096);
                if i < n {
                    v[i] = rng.next_u64();
                }
            }
            v
        }
        4 => (0..n)
            .map(|_| rng.gen_range(0u64..8) << 32 | (a & 0xFFFF_FFFF))
            .collect(),
        5 => (0..n)
            .map(|i| match i % 4 {
                3 => rng.gen_range(0u64..6),
                k => k as u64 + 100,
            })
            .collect(),
        _ => (0..n).map(|_| rng.gen_range(0u64..16)).collect(),
    }
}

/// Sizes around every boundary of the link encoder: empty and tiny
/// inputs, one chunk, and both sides of the 2^18-words-per-worker cutoff
/// (2^19 + 7 runs on two workers).
const FCM_SIZES: [usize; 10] = [
    0,
    1,
    2,
    3,
    4,
    255,
    2048,
    (1 << 18) - 1,
    (1 << 18) + 1,
    (1 << 19) + 7,
];

/// One case: the link encoder at a random thread count (0-3) must equal
/// `resolve_matches` over the sorted `hash_pairs`, in the little-endian
/// payload form (and in the `u64` form on small inputs), and the payload
/// must decode back to the input.
pub fn check_fcm_links(rng: &mut Rng, case: u64) {
    let n = FCM_SIZES[case as usize % FCM_SIZES.len()];
    let family = rng.next_u64();
    let data = fcm_adversarial(rng, family, n);
    let mut pairs = fcm::hash_pairs(&data);
    pairs.sort_unstable();
    // Every window on small inputs; two on large ones, which cost a
    // sort each.
    let windows: Vec<usize> = if n <= 2048 {
        (0..=8).collect()
    } else {
        vec![fcm::MATCH_WINDOW, rng.gen_range(0usize..=8)]
    };
    let le = |words: &[u64]| {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect::<Vec<u8>>()
    };
    let mut bytes = le(&data);
    bytes.extend_from_slice(&[0xA5; 5][..case as usize % 6]);
    let tail = &bytes[data.len() * 8..];
    let mut payload = Vec::new();
    for window in windows {
        let want = fcm::resolve_matches(&data, &pairs, window);
        if n <= 2048 {
            assert!(
                fcm::encode_with_window(&data, window) == want,
                "n {n} window {window}"
            );
        }
        payload = le(&want.values);
        payload.extend(le(&want.distances));
        payload.extend_from_slice(tail);
        let threads = [0, 1, 2, 3][rng.gen_range(0usize..4)];
        let got = fcm::encode_payload(&bytes, window, threads);
        assert!(got == payload, "n {n} window {window} threads {threads}");
    }
    let mut back = vec![0; bytes.len()];
    fcm::decode_payload(&payload, &mut back).unwrap();
    assert!(back == bytes, "payload decode n {n}");
}

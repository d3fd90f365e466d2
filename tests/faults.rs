//! End-to-end fault-injection tests: a live loopback server and clients
//! driven with an armed `fpc-faults` plan.
//!
//! The plan is process-global, so every test here (a) runtime-gates on
//! `fpc_faults::ENABLED` — the hooks are inline no-ops unless the
//! workspace `faults` feature is on — and (b) serializes through one
//! file-local lock. Fault-armed tests live in this separate binary so an
//! armed plan can never bleed into the byte-identity assertions of the
//! unarmed `serve.rs` tests running in sibling threads.

use fpc_core::{Algorithm, Compressor};
use fpc_serve::{Client, RetryPolicy, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Serializes plan installation across tests; survives a poisoned lock so
/// one failure cannot wedge the rest of the file.
fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Fixture {
    addr: SocketAddr,
    shutdown: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Fixture {
    /// Short-fuse server: degradation thresholds tight enough that even a
    /// fault-wedged connection frees its worker within the test budget.
    fn start() -> Fixture {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                threads: 2,
                max_conns: 2,
                queue_cap: 4,
                read_timeout: Some(Duration::from_secs(2)),
                write_timeout: Some(Duration::from_secs(2)),
                idle_timeout: Some(Duration::from_secs(5)),
                progress_deadline: Some(Duration::from_secs(5)),
                ..ServeConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr().expect("local addr");
        let shutdown = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());
        Fixture {
            addr,
            shutdown,
            handle: Some(handle),
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.join().expect("server thread").expect("server run");
        }
    }
}

fn sample(len_f32: u32) -> Vec<u8> {
    (0..len_f32)
        .flat_map(|i| {
            ((f64::from(i) * 7.3e-4).sin() as f32 * 3.5)
                .to_bits()
                .to_le_bytes()
        })
        .collect()
}

#[test]
fn retrying_client_stays_byte_identical_under_socket_faults() {
    if !fpc_faults::ENABLED {
        return; // hooks compiled out; nothing to inject
    }
    let _serial = fault_lock();
    let data = sample(40_000);
    // Reference stream BEFORE arming: local compression must stay clean.
    let expected = Compressor::new(Algorithm::SpSpeed).compress_bytes(&data);
    let fixture = Fixture::start();

    let plan = fpc_faults::Plan::parse(
        "short-read=0.2,eintr=0.2,delay-write=0.1,torn-write=0.04,disconnect=0.04,pool-delay=0.2:123",
    )
    .expect("plan");
    let guard = fpc_faults::install(plan);
    let mut client = Client::connect_with_policy(
        fixture.addr,
        Some(Duration::from_secs(2)),
        RetryPolicy {
            attempts: 12,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            deadline: Some(Duration::from_secs(20)),
            seed: 123,
        },
    )
    .expect("retrying connect under faults");
    // Every request must *eventually* succeed with exactly the bytes a
    // fault-free run produces — retries are invisible to the caller.
    for round in 0..4 {
        let stream = client
            .compress(Algorithm::SpSpeed, &data)
            .unwrap_or_else(|e| panic!("round {round}: compress gave up: {e}"));
        assert_eq!(stream, expected, "round {round}: stream not byte-identical");
        let restored = client
            .decompress(&expected)
            .unwrap_or_else(|e| panic!("round {round}: decompress gave up: {e}"));
        assert_eq!(restored, data, "round {round}: payload not byte-identical");
    }
    drop(guard);
    // Disarmed, the same connection (or a reconnect) serves cleanly.
    assert_eq!(client.ping(b"disarmed").expect("ping"), b"disarmed");
}

#[test]
fn plain_client_fails_under_certain_disconnect_and_recovers_when_disarmed() {
    if !fpc_faults::ENABLED {
        return;
    }
    let _serial = fault_lock();
    let fixture = Fixture::start();
    let data = sample(4_000);
    let mut broken = None;
    {
        let _guard = fpc_faults::install(fpc_faults::Plan::single(
            fpc_faults::FaultKind::Disconnect,
            1.0,
            9,
        ));
        // With certainty-one disconnects and no retries, the request
        // must fail with an error — never hang, never panic. (A connect
        // that is itself cut fails cleanly too.)
        if let Ok(mut c) = Client::connect(fixture.addr, Some(Duration::from_secs(2))) {
            assert!(
                c.compress(Algorithm::SpSpeed, &data).is_err(),
                "certain disconnects cannot succeed"
            );
            broken = Some(c);
        }
    }
    let expected = Compressor::new(Algorithm::SpSpeed).compress_bytes(&data);
    // Plan dropped: the client whose connection broke re-dials on its
    // next call instead of failing again on the dead socket...
    if let Some(mut c) = broken {
        assert_eq!(
            c.compress(Algorithm::SpSpeed, &data)
                .expect("re-dial after disarm"),
            expected
        );
    }
    // ...and the very next fresh connection works end to end.
    let mut client = Client::connect(fixture.addr, Some(Duration::from_secs(10))).expect("connect");
    assert_eq!(
        client
            .compress(Algorithm::SpSpeed, &data)
            .expect("compress"),
        expected
    );
}

#[test]
fn range_decode_errors_inside_damaged_chunks_and_succeeds_outside() {
    if !fpc_faults::ENABLED {
        return;
    }
    let _serial = fault_lock();
    // 160_000 original bytes -> 10 chunks.
    let data = sample(40_000);
    // Arm probabilistic per-chunk bit-rot (injected after each checksum is
    // computed) for the compression only.
    let stream = {
        let _guard =
            fpc_faults::install(fpc_faults::Plan::parse("chunk-damage=0.4:21").expect("plan"));
        Compressor::new(Algorithm::SpSpeed)
            .with_threads(1)
            .compress_bytes(&data)
    };
    // Disarmed: ask the checksum audit which chunks the plan actually hit.
    let (header, report) = fpcompress::container::verify(&stream).expect("verify");
    let damaged: std::collections::HashSet<usize> =
        report.damaged.iter().map(|d| d.chunk as usize).collect();
    assert!(
        !damaged.is_empty() && damaged.len() < report.chunks,
        "seed 21 at p=0.4 should damage some chunks and spare others, got {damaged:?}"
    );
    // A sub-chunk range must fail exactly when its chunk is damaged — and
    // decode byte-identically when it is not, regardless of damage
    // elsewhere in the container (the documented range-verification scope).
    let chunk = u64::from(header.chunk_size);
    let n = data.len() as u64;
    for index in 0..report.chunks {
        let offset = index as u64 * chunk + 7;
        let len = (chunk / 2).min(n - offset);
        let result = fpcompress::core::decompress_range(&stream, offset, len);
        if damaged.contains(&index) {
            assert!(
                result.is_err(),
                "chunk {index} is damaged; a range inside it must error"
            );
        } else {
            assert_eq!(
                result.expect("range over an intact chunk"),
                &data[offset as usize..(offset + len) as usize],
                "chunk {index}: intact range not byte-identical"
            );
        }
    }
}

#[test]
fn injection_is_deterministic_per_seed_across_reconnects() {
    if !fpc_faults::ENABLED {
        return;
    }
    let _serial = fault_lock();
    // The index-keyed hooks are pure functions of (plan seed, index):
    // reinstalling the same plan must replay the identical decisions, no
    // matter what other fault traffic ran in between, while a different
    // seed must diverge somewhere.
    let drain = |seed: u64| -> Vec<String> {
        let _guard = fpc_faults::install(
            fpc_faults::Plan::parse(&format!("chunk-damage=0.4,pool-delay=0.3:{seed}"))
                .expect("plan"),
        );
        (0..64)
            .map(|i| {
                format!(
                    "{:?}/{:?}",
                    fpc_faults::chunk_damage(i),
                    fpc_faults::pool_delay(i)
                )
            })
            .collect()
    };
    let a = drain(5);
    // Unrelated armed traffic between the two drains must not perturb
    // the replay.
    {
        let _guard = fpc_faults::install(fpc_faults::Plan::parse("eintr=1:99").expect("plan"));
        let mut session = fpc_faults::io_session().expect("armed plan yields sessions");
        for _ in 0..16 {
            let _ = session.before_read(4096);
        }
    }
    let b = drain(5);
    let c = drain(6);
    assert_eq!(a, b, "same seed must replay the same fault decisions");
    assert_ne!(a, c, "different seeds should diverge (astronomically sure)");
}

#[test]
fn chunk_damage_flips_the_same_bytes_on_the_one_shot_and_streaming_paths() {
    if !fpc_faults::ENABLED {
        return;
    }
    let _serial = fault_lock();
    // 1.2 MB -> 74 chunks, several pool groups at two threads.
    let data = sample(300_000);
    for algo in [Algorithm::SpSpeed, Algorithm::Auto] {
        let clean = Compressor::new(algo).with_threads(2).compress_bytes(&data);
        let (one_shot, streamed) = {
            let _guard =
                fpc_faults::install(fpc_faults::Plan::parse("chunk-damage=0.3:22").expect("plan"));
            let one_shot = Compressor::new(algo).with_threads(2).compress_bytes(&data);
            let mut streaming = fpcompress::core::StreamingCompressor::new(algo, 2);
            for piece in data.chunks(10_007) {
                streaming.feed(piece).expect("feed");
            }
            (one_shot, streaming.finish().expect("finish"))
        };
        assert!(
            one_shot == streamed,
            "{algo}: the paths damaged different bytes"
        );
        // Each damaged chunk differs from the clean stream in exactly one
        // byte: the flip, placed after the checksum was taken.
        let (_, report) = fpcompress::container::verify(&one_shot).expect("verify");
        let flipped = clean.iter().zip(&one_shot).filter(|(a, b)| a != b).count();
        assert_eq!(clean.len(), one_shot.len());
        assert_eq!(flipped, report.damaged.len(), "{algo}");
        assert!(
            !report.damaged.is_empty() && report.damaged.len() < report.chunks,
            "{algo}: seed 22 at p=0.3 should damage some chunks and spare others"
        );
    }
}

#[test]
fn oversubscribed_compress_under_pool_delay_completes_byte_identically() {
    if !fpc_faults::ENABLED {
        return;
    }
    let _serial = fault_lock();
    // Three windows, so three look-back jobs whose groups are delayed at
    // random while more threads than cores are asked for.
    let data = sample((3 * fpcompress::container::WINDOW_BYTES / 4) as u32);
    let want = Compressor::new(Algorithm::SpSpeed)
        .with_threads(1)
        .compress_bytes(&data);
    let got = {
        let _guard =
            fpc_faults::install(fpc_faults::Plan::parse("pool-delay=0.5:9").expect("plan"));
        Compressor::new(Algorithm::SpSpeed)
            .with_threads(8)
            .compress_bytes(&data)
    };
    assert!(got == want, "pool delays changed the stream");
}

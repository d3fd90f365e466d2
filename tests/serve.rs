//! Integration tests for the `fpc-serve` subsystem: a live loopback
//! server, byte-identity with local compression, adversarial framing, and
//! a deterministic fuzz sweep over mutated request streams.

use fpc_core::{Algorithm, Compressor};
use fpc_serve::wire::{
    read_frame, send_error, send_request, send_response, write_frame, FrameHeader, FrameKind,
    RecvError, ALGO_NONE, DEFAULT_MAX_FRAME, HEADER_LEN, MAGIC,
};
use fpc_serve::{Client, ClientError, ErrorCode, Op, RetryPolicy, ServeConfig, Server};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// A live server plus the handle needed to stop it.
struct Fixture {
    addr: SocketAddr,
    shutdown: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Fixture {
    fn start(config: ServeConfig) -> Fixture {
        Fixture::start_with_cache(config).0
    }

    /// Also hands back the server's hot-chunk cache (when `cache_bytes`
    /// is set) so tests can assert on hit counters.
    fn start_with_cache(
        config: ServeConfig,
    ) -> (Fixture, Option<std::sync::Arc<fpc_cache::ChunkCache>>) {
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let shutdown = server.shutdown_flag();
        let cache = server.cache();
        let handle = std::thread::spawn(move || server.run());
        (
            Fixture {
                addr,
                shutdown,
                handle: Some(handle),
            },
            cache,
        )
    }

    fn client(&self) -> Client {
        Client::connect(self.addr, Some(Duration::from_secs(10))).expect("connect")
    }

    fn raw(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("connect raw");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream
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

/// Reads the next frame off a raw stream, expecting a server error frame.
fn expect_error(stream: &mut TcpStream, want: ErrorCode) {
    let mut body = Vec::new();
    let header = read_frame(stream, DEFAULT_MAX_FRAME, &mut body).expect("read error frame");
    assert_eq!(header.kind, FrameKind::Error, "expected an error frame");
    let err = fpc_serve::WireError::decode(&body);
    assert_eq!(err.code, want, "unexpected error code: {err}");
}

/// Expects a client call to fail with the server-reported `want` code.
fn expect_remote<T: std::fmt::Debug>(
    result: Result<T, ClientError>,
    want: ErrorCode,
) -> fpc_serve::WireError {
    match result {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, want, "{e}");
            e
        }
        other => panic!("expected a remote {want:?}, got {other:?}"),
    }
}

#[test]
fn remote_roundtrip_is_byte_identical_for_every_algorithm() {
    let fixture = Fixture::start(ServeConfig::default());
    let mut client = fixture.client();
    let data = sample(60_000);
    for algo in Algorithm::ALL {
        let local = Compressor::new(algo).compress_bytes(&data);
        let remote = client.compress(algo, &data).expect("remote compress");
        assert_eq!(remote, local, "{algo}: remote stream differs from local");

        let restored = client.decompress(&remote).expect("remote decompress");
        assert_eq!(restored, data, "{algo}: decompressed bytes differ");

        let report = client.verify(&remote).expect("remote verify");
        assert!(report.is_clean(), "{algo}: fresh stream reported damaged");
        assert!(report.chunks > 0);
    }
}

#[test]
fn remote_range_matches_local_decode_and_survives_bad_requests() {
    let fixture = Fixture::start(ServeConfig::default());
    let mut client = fixture.client();
    let data = sample(60_000); // 240_000 original bytes, 15 chunks
    for algo in Algorithm::ALL {
        let stream = Compressor::new(algo).compress_bytes(&data);
        // A chunk-unaligned mid-file slice is byte-identical to the
        // same slice of the original data.
        let got = client.range(&stream, 70_001, 33_333).expect("remote range");
        assert_eq!(
            got,
            &data[70_001..70_001 + 33_333],
            "{algo}: remote range differs from local slice"
        );
        // A zero-length range at the very end is valid and empty.
        let empty = client
            .range(&stream, data.len() as u64, 0)
            .expect("empty range at end");
        assert!(empty.is_empty());
        // One byte past the end gets the structured range error...
        let err = client
            .range(&stream, data.len() as u64, 1)
            .expect_err("out-of-range must be rejected");
        match err {
            ClientError::Remote(e) => {
                assert_eq!(e.code, ErrorCode::RangeOutOfBounds, "{e}")
            }
            other => panic!("expected a remote error, got {other}"),
        }
    }
    // ...and none of the rejections cost the connection.
    client.ping(b"post-range").expect("ping after range sweep");
}

#[test]
fn ping_echoes_and_connection_is_reusable() {
    let fixture = Fixture::start(ServeConfig::default());
    let mut client = fixture.client();
    for i in 0..5u8 {
        let payload = vec![i; 64 * usize::from(i) + 1];
        assert_eq!(client.ping(&payload).expect("ping"), payload);
    }
}

#[test]
fn remote_decompress_of_garbage_is_corrupt_stream() {
    let fixture = Fixture::start(ServeConfig::default());
    let mut client = fixture.client();
    let err = client
        .decompress(b"definitely not a container stream")
        .expect_err("garbage must be rejected");
    match err {
        ClientError::Remote(e) => assert_eq!(e.code, ErrorCode::CorruptStream, "{e}"),
        other => panic!("expected a remote error, got {other}"),
    }
    // The rejection must not have cost the connection.
    client.ping(b"still-alive").expect("ping after rejection");
}

#[test]
fn wrong_magic_gets_bad_magic_then_close() {
    let fixture = Fixture::start(ServeConfig::default());
    let mut stream = fixture.raw();
    let mut bogus = FrameHeader::new(FrameKind::Request, Op::Ping as u8, ALGO_NONE, 7, 0).encode();
    bogus[..4].copy_from_slice(b"HTTP");
    stream.write_all(&bogus).expect("write");
    expect_error(&mut stream, ErrorCode::BadMagic);
    match read_frame(&mut stream, DEFAULT_MAX_FRAME, &mut Vec::new()) {
        Err(RecvError::Closed) => {}
        other => panic!("expected close after bad magic, got {other:?}"),
    }
}

#[test]
fn unsupported_version_is_rejected() {
    let fixture = Fixture::start(ServeConfig::default());
    let mut stream = fixture.raw();
    let mut header = FrameHeader::new(FrameKind::Request, Op::Ping as u8, ALGO_NONE, 7, 0).encode();
    header[4] = 99; // version byte
    stream.write_all(&header).expect("write");
    expect_error(&mut stream, ErrorCode::UnsupportedVersion);
}

#[test]
fn oversized_length_prefix_is_frame_too_large() {
    let fixture = Fixture::start(ServeConfig::default());
    let mut stream = fixture.raw();
    let mut header = FrameHeader::new(FrameKind::Request, Op::Ping as u8, ALGO_NONE, 7, 0).encode();
    // Claim a payload far beyond the frame cap; the server must reject on
    // the length prefix alone, before allocating or reading anything.
    header[HEADER_LEN - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&header).expect("write");
    expect_error(&mut stream, ErrorCode::FrameTooLarge);
}

#[test]
fn truncated_header_and_midstream_disconnect_leave_server_alive() {
    let fixture = Fixture::start(ServeConfig::default());
    // Half a header, then drop.
    {
        let mut stream = fixture.raw();
        stream.write_all(&MAGIC).expect("write");
        stream.write_all(&[1, 1]).expect("write");
    }
    // A full request header promising a body, one data frame, no End.
    {
        let mut stream = fixture.raw();
        let algo = Algorithm::SpRatio.id();
        write_frame(
            &mut stream,
            &FrameHeader::new(FrameKind::Request, Op::Compress as u8, algo, 9, 0),
            &[],
        )
        .expect("request");
        write_frame(
            &mut stream,
            &FrameHeader::new(FrameKind::Data, Op::Compress as u8, algo, 9, 128),
            &[0u8; 128],
        )
        .expect("data");
    }
    // Fresh connections must still be served.
    let mut client = fixture.client();
    client.ping(b"survived").expect("ping after disconnects");
}

#[test]
fn unknown_op_and_algorithm_get_structured_errors() {
    let fixture = Fixture::start(ServeConfig::default());
    // The client API cannot express these, so craft the requests raw.
    let mut stream2 = fixture.raw();
    write_frame(
        &mut stream2,
        &FrameHeader::new(FrameKind::Request, 0xEE, ALGO_NONE, 2, 0),
        &[],
    )
    .expect("request");
    write_frame(
        &mut stream2,
        &FrameHeader::new(FrameKind::End, 0xEE, ALGO_NONE, 2, 0),
        &[],
    )
    .expect("end");
    expect_error(&mut stream2, ErrorCode::UnknownOp);

    let mut client = fixture.client();
    // An unknown algorithm id on a compress request.
    let mut stream3 = fixture.raw();
    write_frame(
        &mut stream3,
        &FrameHeader::new(FrameKind::Request, Op::Compress as u8, 0x42, 3, 0),
        &[],
    )
    .expect("request");
    write_frame(
        &mut stream3,
        &FrameHeader::new(FrameKind::End, Op::Compress as u8, 0x42, 3, 0),
        &[],
    )
    .expect("end");
    expect_error(&mut stream3, ErrorCode::UnknownAlgorithm);
    client.ping(b"ok").expect("server still serving");
}

#[test]
fn payload_over_cap_is_rejected_but_connection_survives() {
    let fixture = Fixture::start(ServeConfig {
        max_request: 4096,
        ..ServeConfig::default()
    });
    let mut client = fixture.client();
    let err = client
        .compress(Algorithm::SpSpeed, &vec![0u8; 64 << 10])
        .expect_err("over-cap payload must be rejected");
    match err {
        ClientError::Remote(e) => assert_eq!(e.code, ErrorCode::PayloadTooLarge, "{e}"),
        other => panic!("expected a remote error, got {other}"),
    }
    // The drain path must leave the connection usable for in-cap work.
    let small = sample(256);
    let stream = client.compress(Algorithm::SpSpeed, &small).expect("small");
    assert_eq!(
        stream,
        Compressor::new(Algorithm::SpSpeed).compress_bytes(&small)
    );
    // The buffered ops answer to the same cap on the same connection.
    let big = Compressor::new(Algorithm::SpSpeed).compress_bytes(&sample(16_384));
    assert!(big.len() > 4096, "operand must exceed the cap");
    expect_remote(client.verify(&big), ErrorCode::PayloadTooLarge);
    expect_remote(client.range(&big, 0, 16), ErrorCode::PayloadTooLarge);
    assert!(client.verify(&stream).expect("in-cap verify").is_clean());
    let slice = client.range(&stream, 100, 200).expect("in-cap range");
    assert_eq!(slice, &small[100..300]);
}

#[test]
fn saturated_queue_sheds_with_busy() {
    let fixture = Fixture::start(ServeConfig {
        max_conns: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });
    // Pin the only worker to this connection...
    let mut held = fixture.client();
    held.ping(b"claim the worker").expect("ping");
    // ...fill the one queue slot...
    let _queued = fixture.raw();
    std::thread::sleep(Duration::from_millis(100));
    // ...and the next connection must be shed with a structured Busy.
    let mut rejected = fixture.raw();
    expect_error(&mut rejected, ErrorCode::Busy);
}

#[test]
fn fuzzed_request_streams_never_kill_the_server() {
    let fixture = Fixture::start(ServeConfig::default());
    let data = sample(2_000);
    // A fully valid request byte stream as the mutation substrate.
    let mut valid = Vec::new();
    send_request(&mut valid, Op::Compress, Algorithm::SpRatio.id(), 11, &data)
        .expect("encode request");
    let cases = fpc_prng::fuzz::fuzz_cases(48);
    fpc_prng::fuzz::run_cases("serve.fuzzed_frames", cases, |rng, _case| {
        let mutation = fpc_prng::fuzz::Mutation::arbitrary(rng, valid.len());
        let mutated = mutation.apply(&valid, rng);
        fpc_prng::fuzz::record_input(&mutated);
        let mut stream = fixture.raw();
        // The server may close mid-write on a malformed prefix; either way
        // it must not crash, which the post-sweep ping below proves.
        let _ = stream.write_all(&mutated);
        // EOF the request so a truncated frame fails fast server-side
        // instead of waiting out the read timeout.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = read_frame(&mut stream, DEFAULT_MAX_FRAME, &mut Vec::new());
    });
    let mut client = fixture.client();
    let echoed = client.ping(b"post-fuzz").expect("server alive after fuzz");
    assert_eq!(echoed, b"post-fuzz");
}

#[test]
fn idle_connections_are_reaped_with_a_structured_timeout() {
    let fixture = Fixture::start(ServeConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    });
    // Park a connection without sending anything: the idle reaper must
    // evict it with a structured Timeout, not hold the worker for the
    // full 30s socket timeout.
    let mut parked = fixture.raw();
    expect_error(&mut parked, ErrorCode::Timeout);
    match read_frame(&mut parked, DEFAULT_MAX_FRAME, &mut Vec::new()) {
        Err(RecvError::Closed) => {}
        other => panic!("expected close after idle reap, got {other:?}"),
    }
    // The freed worker must serve fresh connections.
    let mut client = fixture.client();
    client.ping(b"post-reap").expect("ping after idle reap");
}

#[test]
fn clients_redial_after_an_idle_reap() {
    let fixture = Fixture::start(ServeConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    });
    let timeout = Some(Duration::from_secs(10));
    let mut retrying = Client::connect_with_policy(fixture.addr, timeout, RetryPolicy::default())
        .expect("connect");
    let mut single = Client::connect(fixture.addr, timeout).expect("connect");
    let data = sample(4_000);
    let local = Compressor::new(Algorithm::SpSpeed).compress_bytes(&data);
    for client in [&mut retrying, &mut single] {
        assert_eq!(
            client.compress(Algorithm::SpSpeed, &data).expect("first"),
            local
        );
    }
    // Both connections sit idle past the reap: the server sends each a
    // connection-level Timeout and closes it.
    std::thread::sleep(Duration::from_millis(900));
    // A retrying client re-dials inside the call: no error reaches the
    // caller, and the bytes match.
    assert_eq!(
        retrying
            .compress(Algorithm::SpSpeed, &data)
            .expect("retried across the reap"),
        local
    );
    // A client without retries sees the reap exactly once, then re-dials
    // on its next call instead of failing again on the dead socket.
    single
        .compress(Algorithm::SpSpeed, &data)
        .expect_err("the reaped connection must fail once");
    assert_eq!(
        single
            .compress(Algorithm::SpSpeed, &data)
            .expect("re-dialed"),
        local
    );
    single.ping(b"same new connection").expect("ping");
}

/// Reads one complete request off a raw stream: its id and payload.
fn read_request(stream: &mut TcpStream) -> (u64, Vec<u8>) {
    let mut chunk = Vec::new();
    let header = read_frame(stream, DEFAULT_MAX_FRAME, &mut chunk).expect("request frame");
    assert_eq!(header.kind, FrameKind::Request);
    let mut payload = Vec::new();
    loop {
        let frame = read_frame(stream, DEFAULT_MAX_FRAME, &mut chunk).expect("request body");
        match frame.kind {
            FrameKind::Data => payload.extend_from_slice(&chunk),
            FrameKind::End => return (header.request_id, payload),
            other => panic!("unexpected {other:?} in a request"),
        }
    }
}

#[test]
fn only_an_error_answering_the_request_keeps_the_connection() {
    // A scripted peer. Connection one answers its first request with an
    // error under that request's id, then its second with an id-0 error
    // (how the server reports a connection-level verdict before it
    // closes), and then holds the socket open without reading.
    // Connection two echoes. A client that dropped the connection after
    // the first error, or kept it after the second, would wait on a peer
    // that never answers until its socket timeout.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let peer = std::thread::spawn(move || {
        let accept = || {
            let (stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            stream
        };
        let mut first = accept();
        let (id, _) = read_request(&mut first);
        let poison = fpc_serve::WireError::new(ErrorCode::CorruptStream, "answers the request");
        send_error(&mut first, id, &poison).expect("send");
        read_request(&mut first);
        let verdict = fpc_serve::WireError::new(ErrorCode::Timeout, "connection-level");
        send_error(&mut first, 0, &verdict).expect("send");
        let mut second = accept();
        let (id, payload) = read_request(&mut second);
        send_response(&mut second, Op::Ping as u8, id, &payload).expect("send");
        first
    });
    let mut client = Client::connect(addr, Some(Duration::from_secs(2))).expect("connect");
    expect_remote(client.ping(b"one"), ErrorCode::CorruptStream);
    expect_remote(client.ping(b"two"), ErrorCode::Timeout);
    assert_eq!(client.ping(b"three").expect("re-dialed"), b"three");
    drop(peer.join().expect("peer"));
}

#[test]
fn slow_loris_bodies_hit_the_progress_deadline() {
    let fixture = Fixture::start(ServeConfig {
        progress_deadline: Some(Duration::from_millis(400)),
        idle_timeout: Some(Duration::from_secs(10)),
        ..ServeConfig::default()
    });
    let mut stream = fixture.raw();
    let algo = Algorithm::SpSpeed.id();
    write_frame(
        &mut stream,
        &FrameHeader::new(FrameKind::Request, Op::Compress as u8, algo, 21, 0),
        &[],
    )
    .expect("request");
    // Trickle tiny data frames: every read succeeds, so per-syscall
    // socket timeouts keep resetting — only the wall-clock deadline can
    // end this. Never send End.
    for _ in 0..8 {
        let frame = write_frame(
            &mut stream,
            &FrameHeader::new(FrameKind::Data, Op::Compress as u8, algo, 21, 4),
            &[0u8; 4],
        );
        if frame.is_err() {
            break; // server already reaped us mid-trickle
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    expect_error(&mut stream, ErrorCode::Timeout);
    // The reaped worker must be free for honest clients.
    let mut client = fixture.client();
    client
        .ping(b"post-loris")
        .expect("ping after slow-loris reap");
}

#[test]
fn memory_watermark_sheds_with_busy_before_the_hard_cap() {
    let fixture = Fixture::start(ServeConfig {
        shed_inflight: 1024,
        ..ServeConfig::default()
    });
    let mut client = fixture.client();
    let err = client
        .compress(Algorithm::SpSpeed, &sample(16_384))
        .expect_err("over-watermark request must be shed");
    match err {
        ClientError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::Busy, "{e}");
            assert!(
                e.message.contains("memory pressure"),
                "shed must name the watermark, got: {}",
                e.message
            );
        }
        other => panic!("expected a remote Busy, got {other}"),
    }
    // The watermark is back-pressure, not a wall: a request under it
    // still compresses on the same connection.
    let small = sample(128);
    let stream = client.compress(Algorithm::SpSpeed, &small).expect("small");
    assert_eq!(
        stream,
        Compressor::new(Algorithm::SpSpeed).compress_bytes(&small)
    );
    // Buffered operands count against the same watermark.
    let big = Compressor::new(Algorithm::SpSpeed).compress_bytes(&sample(16_384));
    assert!(big.len() > 1024, "operand must exceed the watermark");
    for err in [
        expect_remote(client.verify(&big), ErrorCode::Busy),
        expect_remote(client.range(&big, 0, 16), ErrorCode::Busy),
    ] {
        assert!(err.message.contains("memory pressure"), "{}", err.message);
    }
    assert!(client.verify(&stream).expect("verify under it").is_clean());
    let slice = client.range(&stream, 64, 128).expect("range under it");
    assert_eq!(slice, &small[64..192]);
}

#[test]
fn retrying_client_matches_plain_client_and_fails_fast_on_poison() {
    let fixture = Fixture::start(ServeConfig::default());
    let mut client = Client::connect_with_policy(
        fixture.addr,
        Some(Duration::from_secs(10)),
        RetryPolicy::default(),
    )
    .expect("retrying connect");
    let data = sample(20_000);
    for algo in Algorithm::ALL {
        let local = Compressor::new(algo).compress_bytes(&data);
        assert_eq!(
            client.compress(algo, &data).expect("compress"),
            local,
            "{algo}: retrying stream differs from local"
        );
        assert_eq!(client.decompress(&local).expect("decompress"), data);
    }
    assert_eq!(client.ping(b"rc-ping").expect("ping"), b"rc-ping");
    // The retrying range path returns the same bytes as a local slice,
    // and an out-of-bounds range is non-transient (fails fast).
    let stream = Compressor::new(Algorithm::DpSpeed).compress_bytes(&data);
    assert_eq!(
        client.range(&stream, 999, 4_001).expect("retrying range"),
        &data[999..5_000]
    );
    let err = client
        .range(&stream, data.len() as u64, 1)
        .expect_err("out-of-range must be rejected");
    match &err {
        ClientError::Remote(e) => assert_eq!(e.code, ErrorCode::RangeOutOfBounds, "{e}"),
        other => panic!("expected a remote error, got {other}"),
    }
    assert!(
        !fpc_serve::retry::is_transient(&err),
        "range-out-of-bounds must not be classified retryable"
    );
    // A poison request (corrupt stream) is non-transient: it must fail
    // with the structured remote error, not burn the retry budget.
    let err = client
        .decompress(b"not a container stream")
        .expect_err("garbage must be rejected");
    match &err {
        ClientError::Remote(e) => assert_eq!(e.code, ErrorCode::CorruptStream, "{e}"),
        other => panic!("expected a remote error, got {other}"),
    }
    assert!(
        !fpc_serve::retry::is_transient(&err),
        "corrupt-stream must not be classified retryable"
    );
    // And the connection survives the rejection.
    client.ping(b"still-here").expect("ping after rejection");
}

#[test]
fn cached_responses_are_byte_identical_to_uncached_for_every_algorithm() {
    let uncached = Fixture::start(ServeConfig::default());
    let (cached, cache) = Fixture::start_with_cache(ServeConfig {
        cache_bytes: 64 << 20,
        ..ServeConfig::default()
    });
    let cache = cache.expect("cache_bytes > 0 must arm the cache");
    let mut hot = cached.client();
    let mut cold = uncached.client();
    let data = sample(40_000);
    let algos = [
        Algorithm::SpSpeed,
        Algorithm::SpRatio,
        Algorithm::DpSpeed,
        Algorithm::DpRatio,
        Algorithm::Auto,
    ];
    for algo in algos {
        let local = Compressor::new(algo).compress_bytes(&data);
        // Two passes: the first populates the cache, the second must be
        // served from it — and both must match the cache-off server and
        // the local library bit for bit.
        for pass in 0..2 {
            let from_hot = hot.compress(algo, &data).expect("cached compress");
            let from_cold = cold.compress(algo, &data).expect("uncached compress");
            assert_eq!(from_hot, local, "{algo} pass {pass}: cached stream differs");
            assert_eq!(
                from_cold, local,
                "{algo} pass {pass}: uncached stream differs"
            );
            assert_eq!(
                hot.decompress(&local).expect("cached decompress"),
                data,
                "{algo} pass {pass}: cached decompress differs"
            );
            assert_eq!(
                cold.decompress(&local).expect("uncached decompress"),
                data,
                "{algo} pass {pass}: uncached decompress differs"
            );
        }
    }
    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "repeat requests never hit the cache (misses={})",
        stats.misses
    );
}

#[test]
fn warm_range_requests_are_served_from_the_cache() {
    let (cached, cache) = Fixture::start_with_cache(ServeConfig {
        cache_bytes: 64 << 20,
        ..ServeConfig::default()
    });
    let cache = cache.expect("cache_bytes > 0 must arm the cache");
    let uncached = Fixture::start(ServeConfig::default());
    let mut hot = cached.client();
    let mut cold = uncached.client();
    let data = sample(60_000); // 240_000 original bytes, 15 chunks
    let expected = &data[70_001..70_001 + 33_333];
    for algo in [Algorithm::SpRatio, Algorithm::Auto] {
        let stream = Compressor::new(algo).compress_bytes(&data);
        // The cold pass decodes the touched chunks and inserts them; the
        // warm repeat must be served from the cache with identical bytes.
        let first = hot.range(&stream, 70_001, 33_333).expect("cold range");
        let hits_before = cache.stats().hits;
        let warm = hot.range(&stream, 70_001, 33_333).expect("warm range");
        assert_eq!(first, expected, "{algo}: cold range differs");
        assert_eq!(warm, expected, "{algo}: warm range differs");
        assert!(
            cache.stats().hits > hits_before,
            "{algo}: warm range never hit the cache"
        );
        // Cache-on matches cache-off byte for byte.
        assert_eq!(
            cold.range(&stream, 70_001, 33_333).expect("uncached range"),
            expected,
            "{algo}: cached and uncached range disagree"
        );
        // Decode entries are shared across paths: a streamed decompress
        // of the same stream hits the chunks the ranges warmed.
        let hits_before = cache.stats().hits;
        assert_eq!(
            hot.decompress(&stream).expect("remote decompress"),
            data,
            "{algo}: decompress after range differs"
        );
        assert!(
            cache.stats().hits > hits_before,
            "{algo}: decompress missed the range-warmed chunks"
        );
    }
}

#[test]
fn streamed_decompress_larger_than_the_watermark_completes() {
    // The watermark is far below the request: only chunk-at-a-time
    // streaming (decoded output leaving as it is produced) keeps the
    // per-connection reservation under it. The buffer-everything path
    // would shed this request with Busy.
    let fixture = Fixture::start(ServeConfig {
        shed_inflight: 64 << 10,
        ..ServeConfig::default()
    });
    let mut client = fixture.client();
    let data = sample(1 << 20); // 4 MiB original
    let stream = Compressor::new(Algorithm::SpSpeed).compress_bytes(&data);
    assert!(
        stream.len() > 1 << 20,
        "operand must dwarf the 64 KiB watermark (got {} bytes)",
        stream.len()
    );
    let restored = client.decompress(&stream).expect("streamed decompress");
    assert_eq!(restored, data, "streamed decompress corrupted the payload");
}

#[test]
fn loadgen_over_eight_connections_completes_clean() {
    let fixture = Fixture::start(ServeConfig::default());
    let config = fpc_bench::loadgen::LoadgenConfig {
        addr: fixture.addr.to_string(),
        conns: 8,
        requests: 4,
        payload_bytes: 128 << 10,
        algo: Algorithm::SpSpeed,
        timeout: Some(Duration::from_secs(30)),
    };
    let report = fpc_bench::loadgen::run(&config).expect("loadgen");
    assert_eq!(report.errors, 0, "loadgen saw failed requests");
    assert_eq!(report.ops, 32);
    assert!(report.max_us >= report.p99_us);
    let value = report.to_value();
    for key in ["p50_us", "p90_us", "p99_us", "throughput_gbps"] {
        assert!(value.get(key).is_some(), "missing {key} in loadgen JSON");
    }
}

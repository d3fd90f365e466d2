//! The blocking client for the `fpc-wire-v1` service. `fpcc remote`, the
//! bench load generator and the fault sweep all drive the server through
//! [`Client`].
//!
//! # Retries
//!
//! Every `fpc-wire-v1` op is a pure function of its operand, so a request
//! can be re-issued — on the same connection or a fresh one — without
//! changing the outcome: an eventually-successful retry returns bytes
//! identical to a first-attempt success. Each call is one *logical*
//! request that keeps one request id across all its transport attempts,
//! making retries observable (and de-duplicatable) server-side. How many
//! attempts it gets is the client's [`RetryPolicy`]; [`Client::connect`]
//! makes one attempt.
//!
//! Transient (retried): transport errors ([`ClientError::Io`]), protocol
//! desync ([`ClientError::Protocol`] — the stream is unusable but a fresh
//! connection is clean), and the server's own *try-again* codes
//! ([`ErrorCode::Busy`], [`ErrorCode::Timeout`], [`ErrorCode::Io`]); see
//! [`is_transient`]. Everything else — corrupt operand, unknown
//! algorithm/op, over-cap payload — is deterministic: retrying cannot
//! change the answer, so it fails fast.
//!
//! A structured error frame that answers the request leaves the
//! connection protocol-clean, and the client keeps it. After any other
//! failure the connection is dropped: transport and protocol errors leave
//! the stream in an unknown state, and an error frame under another
//! request id (the server sends id 0 when it idle-reaps, sheds, or gives
//! up on a connection's framing) is followed by a close. The next attempt
//! — or, once the attempts are spent, the next call — dials afresh.
//!
//! [`ErrorCode::Busy`]: crate::ErrorCode::Busy
//! [`ErrorCode::Timeout`]: crate::ErrorCode::Timeout
//! [`ErrorCode::Io`]: crate::ErrorCode::Io

use crate::retry::{is_transient, RetryPolicy};
use crate::wire::{
    read_frame, send_request, FrameHeader, FrameKind, Op, RangeRequest, RecvError, RemoteVerify,
    WireError, ALGO_NONE, DATA_CHUNK, DEFAULT_MAX_FRAME,
};
use fpc_core::Algorithm;
use fpc_faults::io::FaultStream;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Why a remote operation failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, send, or receive).
    Io(io::Error),
    /// The server's bytes violated the protocol.
    Protocol(String),
    /// The server replied with a structured error frame.
    Remote(WireError),
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> ClientError {
        match e {
            RecvError::Closed => ClientError::Protocol("server closed the connection".into()),
            RecvError::Io(e) => ClientError::Io(e),
            RecvError::Wire(e) => ClientError::Protocol(e.to_string()),
        }
    }
}

/// A client of one `fpc-serve` instance. Requests are issued
/// sequentially over one reused connection, re-dialed when it breaks, and
/// retried under the client's [`RetryPolicy`] (see the
/// [module docs](self)).
pub struct Client {
    addrs: Vec<SocketAddr>,
    timeout: Option<Duration>,
    policy: RetryPolicy,
    rng: fpc_prng::Rng,
    next_id: u64,
    conn: Option<Conn>,
}

/// One live connection. Both directions run through [`FaultStream`], so
/// an armed fault plan exercises the client's transport the same way it
/// exercises the server's — in default builds the wrappers are
/// transparent.
struct Conn {
    reader: BufReader<FaultStream<TcpStream>>,
    writer: FaultStream<TcpStream>,
}

/// A complete reply. `Ok(Err)` is a structured error frame answering the
/// request, after which the connection is still clean; `Err` means the
/// connection is unusable.
type Reply = Result<Result<Vec<u8>, WireError>, ClientError>;

impl Client {
    /// Connects with [`RetryPolicy::none`]: every request gets one
    /// attempt. `timeout` applies to every socket read and write and,
    /// when given, bounds each connect too.
    ///
    /// # Errors
    ///
    /// Propagates resolution and connection failures.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> io::Result<Client> {
        Client::connect_with_policy(addr, timeout, RetryPolicy::none())
    }

    /// Connects with retries: the first dial runs under `policy` the same
    /// way every later request does, so a server that is still starting
    /// (or briefly unreachable) is waited for within the policy's budget.
    /// `timeout` is as in [`Client::connect`].
    ///
    /// # Errors
    ///
    /// The last resolution or connection failure once the policy's
    /// attempts or deadline are spent.
    pub fn connect_with_policy(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
        policy: RetryPolicy,
    ) -> io::Result<Client> {
        let mut client = Client {
            addrs: Vec::new(),
            timeout,
            rng: fpc_prng::Rng::seed_from_u64(policy.seed),
            policy,
            next_id: 1,
            conn: None,
        };
        client.retry(
            |_: &io::Error| true,
            |c| {
                c.addrs = addr.to_socket_addrs()?.collect();
                c.conn = Some(c.dial()?);
                Ok(())
            },
        )?;
        Ok(client)
    }

    /// The server's address, as seen by the live connection.
    ///
    /// # Errors
    ///
    /// `NotConnected` between a broken connection and the next call's
    /// re-dial; otherwise propagates `getpeername` failures.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        match &self.conn {
            Some(conn) => conn.writer.get_ref().peer_addr(),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "no live connection",
            )),
        }
    }

    /// Compresses `data` remotely; the stream is byte-identical to a local
    /// `Compressor::new(algo).compress_bytes(data)` (the container output
    /// is deterministic regardless of server thread count or of how many
    /// attempts it took).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, protocol, or server-side failure:
    /// the final attempt's error once the retry budget is spent, or the
    /// first one when it is not transient.
    pub fn compress(&mut self, algo: Algorithm, data: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.request(Op::Compress, algo.id(), data)
    }

    /// Decompresses an FPcompress container stream remotely.
    ///
    /// # Errors
    ///
    /// As [`Client::compress`]; a damaged operand fails fast with
    /// [`ClientError::Remote`] `corrupt-stream` (retrying cannot repair
    /// data).
    pub fn decompress(&mut self, stream: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.request(Op::Decompress, ALGO_NONE, stream)
    }

    /// Checksum-audits a container stream remotely (no decompression).
    ///
    /// # Errors
    ///
    /// As [`Client::compress`]; unusable framing in the operand surfaces
    /// as [`ClientError::Remote`] with `corrupt-stream`.
    pub fn verify(&mut self, stream: &[u8]) -> Result<RemoteVerify, ClientError> {
        let payload = self.request(Op::Verify, ALGO_NONE, stream)?;
        RemoteVerify::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Decodes `len` bytes starting at `offset` of `stream`'s original
    /// data remotely, without the server decoding the whole container.
    ///
    /// # Errors
    ///
    /// As [`Client::compress`]; [`ClientError::Remote`] with
    /// `range-out-of-bounds` when the range exceeds the original data
    /// (retrying cannot grow the data), `corrupt-stream` for a damaged
    /// operand.
    pub fn range(&mut self, stream: &[u8], offset: u64, len: u64) -> Result<Vec<u8>, ClientError> {
        let payload = RangeRequest { offset, len }.encode(stream);
        let body = self.request(Op::Range, ALGO_NONE, &payload)?;
        if body.len() as u64 != len {
            return Err(ClientError::Protocol(format!(
                "range response of {} bytes while awaiting {len}",
                body.len()
            )));
        }
        Ok(body)
    }

    /// Liveness probe; the server echoes `payload`.
    ///
    /// # Errors
    ///
    /// As [`Client::compress`].
    pub fn ping(&mut self, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        let echoed = self.request(Op::Ping, ALGO_NONE, payload)?;
        if echoed == payload {
            Ok(echoed)
        } else {
            Err(ClientError::Protocol("ping echo mismatch".into()))
        }
    }

    /// Runs one logical request through the retry loop.
    fn request(&mut self, op: Op, algo: u8, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        // One id across every attempt: the server sees retries of the
        // same request under the same idempotency key.
        let id = self.next_id;
        self.next_id += 1;
        self.retry(is_transient, |c| c.request_with_id(op, algo, id, payload))
    }

    /// Runs `step` until it succeeds, fails with an error `transient`
    /// rejects, or the policy gives up, and returns that last outcome.
    fn retry<T, E>(
        &mut self,
        transient: impl Fn(&E) -> bool,
        mut step: impl FnMut(&mut Client) -> Result<T, E>,
    ) -> Result<T, E> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            let err = match step(self) {
                Ok(done) => return Ok(done),
                Err(err) => err,
            };
            if !transient(&err) {
                return Err(err);
            }
            attempt += 1;
            if !self
                .policy
                .backoff_or_give_up(&mut self.rng, attempt, started)
            {
                return Err(err);
            }
        }
    }

    /// One attempt of request `id`: dials if there is no live connection,
    /// then sends the request and reads the complete reply. Drops the
    /// connection unless it is still clean afterwards.
    fn request_with_id(
        &mut self,
        op: Op,
        algo: u8,
        id: u64,
        payload: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        let conn = match self.conn.as_mut() {
            Some(conn) => conn,
            None => {
                let conn = self.dial()?;
                fpc_metrics::incr(fpc_metrics::Counter::RemoteRetryReconnects, 1);
                self.conn.insert(conn)
            }
        };
        match conn.exchange(op, algo, id, payload) {
            Ok(answer) => answer.map_err(ClientError::Remote),
            Err(err) => {
                self.conn = None;
                Err(err)
            }
        }
    }

    /// Opens a connection to the first resolved address that accepts.
    fn dial(&self) -> io::Result<Conn> {
        let stream = match self.timeout {
            Some(limit) => {
                // connect_timeout needs concrete addrs; try each in turn.
                let mut last = None;
                let mut stream = None;
                for resolved in &self.addrs {
                    match TcpStream::connect_timeout(resolved, limit) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                stream.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "no addresses resolved")
                    })
                })?
            }
            None => TcpStream::connect(&self.addrs[..])?,
        };
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            writer: FaultStream::new(stream.try_clone()?),
            reader: BufReader::new(FaultStream::new(stream)),
        })
    }
}

impl Conn {
    /// Payload size above which the request is written from a scoped
    /// helper thread while this thread reads the reply. The server
    /// streams decompress responses while the request is still arriving;
    /// a client that finishes its whole send before reading could
    /// deadlock with it once both socket buffers fill. Small payloads
    /// fit in the socket buffers and need no concurrency.
    const CONCURRENT_SEND_BYTES: usize = DATA_CHUNK;

    /// Sends one request under request id `id` and reads the complete
    /// reply.
    fn exchange(&mut self, op: Op, algo: u8, id: u64, payload: &[u8]) -> Reply {
        if payload.len() <= Self::CONCURRENT_SEND_BYTES {
            send_request(&mut self.writer, op, algo, id, payload)?;
            return recv_reply(&mut self.reader, id);
        }
        let Conn { reader, writer } = self;
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || send_request(writer, op, algo, id, payload));
            let reply = recv_reply(reader, id);
            let sent = sender
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("send thread panicked")));
            match (reply, sent) {
                (Ok(answer), Ok(())) => Ok(answer),
                // A terminal error frame can arrive while the send side is
                // failing (server stopped reading); the structured reply
                // explains more than the broken pipe does. The request
                // never fully went out, so the connection is spent.
                (Ok(Err(e)), Err(_)) => Err(ClientError::Remote(e)),
                (Err(e), _) => Err(e),
                (Ok(Ok(_)), Err(e)) => Err(ClientError::Io(e)),
            }
        })
    }
}

/// Reads a complete reply: `Response` + `Data`* + `End`, or a terminal
/// `Error` frame.
fn recv_reply(reader: &mut BufReader<FaultStream<TcpStream>>, id: u64) -> Reply {
    let (header, body) = read_frame(reader, DEFAULT_MAX_FRAME)?;
    match header.kind {
        FrameKind::Error => error_frame(&header, &body, id),
        FrameKind::Response if header.request_id == id => recv_body(reader, id),
        FrameKind::Response => Err(ClientError::Protocol(format!(
            "response for request {} while awaiting {id}",
            header.request_id
        ))),
        other => Err(ClientError::Protocol(format!(
            "expected response/error, got kind {}",
            other as u8
        ))),
    }
}

/// Accumulates `Data`* + `End` after a `Response` header. An `Error`
/// frame in place of `End` is how a streaming server reports a failure
/// discovered after response data already went out; it is terminal.
fn recv_body(reader: &mut BufReader<FaultStream<TcpStream>>, id: u64) -> Reply {
    let mut out = Vec::new();
    loop {
        let (header, chunk) = read_frame(reader, DEFAULT_MAX_FRAME)?;
        match header.kind {
            FrameKind::Data => out.extend_from_slice(&chunk),
            FrameKind::End => return Ok(Ok(out)),
            FrameKind::Error => return error_frame(&header, &chunk, id),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected data/end, got kind {}",
                    other as u8
                )))
            }
        }
    }
}

/// An `Error` frame under request `id` answers that request and leaves
/// the connection clean. Under any other id it is the server's verdict on
/// the whole connection, which it closes after sending it.
fn error_frame(header: &FrameHeader, body: &[u8], id: u64) -> Reply {
    let err = WireError::decode(body);
    if header.request_id == id {
        Ok(Err(err))
    } else {
        Err(ClientError::Remote(err))
    }
}

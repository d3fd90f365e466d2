//! The request loop: every request — compress, decompress, verify, ping,
//! range, and unknown ops — reads its `Data`* + `End` frames here, under
//! one copy of the per-request cap, the shed watermark and the hard
//! inflight cap.
//!
//! Compress and decompress feed their streaming engines as frames arrive
//! instead of buffering the whole payload first. Verify, ping and range
//! need their whole operand, so their engine buffers it and answers at
//! `End` through [`dispatch`].
//!
//! Per-connection memory is bounded by what the engine actually *holds*
//! ([`StreamingCompressor::held_bytes`] /
//! [`StreamingDecompressor::held_bytes`], or the buffered operand's
//! length): at most one partial input chunk plus compressed bodies on the
//! compress path, and the chunk table plus one in-flight chunk on the
//! decompress path — so a decompress request far larger than the
//! inflight watermark completes. DPratio is the documented exception (its
//! global FCM stage buffers the payload; `held_bytes` reports that
//! honestly and the watermark sheds oversized DPratio requests).
//!
//! The [`InflightGuard`] reservation is re-synced to the engine's held
//! bytes after every frame, so the shed watermark and the hard inflight
//! cap apply to memory the server actually uses — a streamed 1 GiB
//! decompress accounts for kilobytes, not a gigabyte.
//!
//! Decompress responses start flowing while the request is still
//! arriving: decoded chunks leave as `Data` frames after the `Response`
//! frame, in [`DATA_CHUNK`]-sized frames so a large response costs
//! frames-per-megabyte, not frames-per-chunk. Each full frame is sent
//! straight from the engine's output buffer; only the sub-frame tail
//! waits in a staging buffer (under one `DATA_CHUNK`, deliberately
//! outside the inflight account) for the next feed's output. A
//! failure after output went out (damaged chunk mid stream) is
//! reported with an `Error` frame *in place of* `End`, which clients
//! must treat as terminal. Every other reply waits for `End`: the
//! container places its chunk table before the bodies, so a compressed
//! stream can only be assembled once the input length is known.
//!
//! The request/error/byte counters and the per-op stage timer are
//! recorded here and nowhere else; the timer spans the request frame to
//! the reply.

use crate::server::{dispatch, stage_for, Buffered, InflightGuard, ServeConfig};
use crate::wire::{
    begin_response, end_message, read_frame, send_data, send_error, send_response, ErrorCode,
    FrameHeader, FrameKind, Op, RecvError, WireError, DATA_CHUNK,
};
use fpc_cache::ChunkCache;
use fpc_core::{Algorithm, StreamingCompressor, StreamingDecompressor};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// How a request left the connection.
pub(crate) enum Served {
    /// A reply (response or structured error) was sent; the connection
    /// continues to the next request.
    Continue,
    /// Receiving failed; the caller reports it and drops the connection.
    Disconnect(RecvError),
}

/// A request in flight: an engine still taking `Data` frames, or a
/// rejection whose remaining frames are drained without buffering so the
/// reply still reaches the client.
#[allow(clippy::large_enum_variant)] // one per request, on the stack; never collected
enum State {
    Running(Engine, fpc_metrics::Timer),
    Rejected(WireError),
}

enum Engine {
    Compress(StreamingCompressor),
    Decompress(StreamingDecompressor),
    /// The whole operand, answered at `End` by [`dispatch`].
    Buffer(Buffered, Vec<u8>),
}

impl Engine {
    fn feed(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        match self {
            Engine::Compress(e) => e.feed(bytes).map_err(corrupt),
            Engine::Decompress(e) => e.feed(bytes).map_err(corrupt),
            Engine::Buffer(_, payload) => {
                payload.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn held_bytes(&self) -> u64 {
        match self {
            Engine::Compress(e) => e.held_bytes(),
            Engine::Decompress(e) => e.held_bytes(),
            Engine::Buffer(_, payload) => payload.len() as u64,
        }
    }
}

impl State {
    /// Builds the engine for `request`. An unknown op or algorithm id is
    /// rejected before any payload arrives.
    fn open(request: &FrameHeader, config: &ServeConfig, cache: Option<&Arc<ChunkCache>>) -> State {
        let Some(op) = Op::from_u8(request.op) else {
            return State::Rejected(WireError::new(
                ErrorCode::UnknownOp,
                format!("unknown op byte {}", request.op),
            ));
        };
        let timer = fpc_metrics::timer(stage_for(op));
        let engine = match op {
            Op::Compress => {
                let Ok(algo) = Algorithm::from_id(request.algo) else {
                    return State::Rejected(WireError::new(
                        ErrorCode::UnknownAlgorithm,
                        format!("unknown algorithm id {}", request.algo),
                    ));
                };
                let mut e = StreamingCompressor::new(algo, config.threads);
                if let Some(cache) = cache {
                    e = e.with_cache(Arc::clone(cache));
                }
                Engine::Compress(e)
            }
            Op::Decompress => {
                let mut e = StreamingDecompressor::new();
                if let Some(cache) = cache {
                    e = e.with_cache(Arc::clone(cache));
                }
                Engine::Decompress(e)
            }
            Op::Verify => Engine::Buffer(Buffered::Verify, Vec::new()),
            Op::Ping => Engine::Buffer(Buffered::Ping, Vec::new()),
            Op::Range => Engine::Buffer(Buffered::Range, Vec::new()),
        };
        State::Running(engine, timer)
    }
}

/// Serves one request. The request frame is already consumed; this reads
/// `Data`* + `End`, feeding the engine as frames arrive, and sends the
/// reply.
pub(crate) fn serve_request(
    reader: &mut impl Read,
    writer: &mut impl Write,
    request: &FrameHeader,
    config: &ServeConfig,
    guard: &mut InflightGuard<'_>,
    cache: Option<&Arc<ChunkCache>>,
) -> io::Result<Served> {
    let (op, id) = (request.op, request.request_id);
    let mut state = State::open(request, config, cache);
    let mut total: u64 = 0;
    let mut response_started = false;
    // The decoded tail short of a full DATA_CHUNK frame.
    let mut staged: Vec<u8> = Vec::new();
    // Every frame of the request is read into this one buffer.
    let mut chunk: Vec<u8> = Vec::new();
    loop {
        let header = match read_frame(reader, config.max_frame, &mut chunk) {
            Ok(header) => header,
            Err(e) => return Ok(Served::Disconnect(e)),
        };
        match header.kind {
            FrameKind::Data => {
                total += chunk.len() as u64;
                let State::Running(engine, _) = &mut state else {
                    continue; // draining: count but never buffer
                };
                let fed = if total > config.max_request {
                    Err(WireError::new(
                        ErrorCode::PayloadTooLarge,
                        format!(
                            "request payload exceeds the per-request cap of {} bytes",
                            config.max_request
                        ),
                    ))
                } else {
                    fpc_metrics::incr(fpc_metrics::Counter::ServeBytesIn, chunk.len() as u64);
                    engine.feed(&chunk)
                };
                // Decoded output leaves the server the moment it exists,
                // keeping held bytes at O(chunk).
                if let (Ok(()), Engine::Decompress(dec)) = (&fed, &mut *engine) {
                    response_started =
                        drain_output(writer, dec, op, id, response_started, &mut staged)?;
                }
                if let Err(err) = fed.and_then(|()| guard.resync(engine.held_bytes(), config)) {
                    // Dropping the engine frees everything it held.
                    state = State::Rejected(err);
                    guard.shrink_to(0);
                }
            }
            FrameKind::End => break,
            other => {
                return Ok(Served::Disconnect(RecvError::Wire(WireError::new(
                    ErrorCode::BadFrame,
                    format!("expected data/end, got kind {}", other as u8),
                ))));
            }
        }
    }
    fpc_metrics::incr(fpc_metrics::Counter::ServeRequests, 1);
    // The request is in; free its frame buffer before the reply is built.
    drop(chunk);

    let (reply, timer) = match state {
        State::Rejected(err) => (Err(err), None),
        State::Running(engine, timer) => {
            let reply = match engine {
                Engine::Compress(eng) => eng.finish().map(Some).map_err(corrupt),
                Engine::Buffer(buffered, payload) => {
                    dispatch(buffered, payload, config.threads, cache).map(Some)
                }
                Engine::Decompress(mut eng) => match eng.finish() {
                    Ok(()) => {
                        if !response_started {
                            begin_response(writer, op, id)?;
                        }
                        drain_output(writer, &mut eng, op, id, true, &mut staged)?;
                        flush_staged(writer, op, id, &mut staged)?;
                        end_message(writer, op, id)?;
                        Ok(None)
                    }
                    Err(e) => Err(corrupt(e)),
                },
            };
            (reply, Some(timer))
        }
    };
    match reply {
        Ok(Some(body)) => {
            fpc_metrics::incr(fpc_metrics::Counter::ServeBytesOut, body.len() as u64);
            send_response(writer, op, id, &body)?;
        }
        // The decompressed output already went out as `Data` frames.
        Ok(None) => {}
        Err(err) => {
            fpc_metrics::incr(fpc_metrics::Counter::ServeErrors, 1);
            // If decoded output already went out, the Error frame lands in
            // place of End and the client treats it as terminal.
            send_error(writer, id, &err)?;
        }
    }
    if let Some(timer) = timer {
        timer.finish(total);
    }
    Ok(Served::Continue)
}

fn corrupt(e: fpc_core::Error) -> WireError {
    WireError::new(ErrorCode::CorruptStream, e.to_string())
}

/// Sends the engine's decoded output as full [`DATA_CHUNK`] `Data`
/// frames, opening the response before the first frame. The frames after
/// the one that completes `staged` go straight from the engine's buffer;
/// the tail below one `DATA_CHUNK` is copied to `staged` until the next
/// feed or [`flush_staged`], so small decoded chunks coalesce instead of
/// each paying a frame (and, under fault injection, a fault-roll) of
/// their own. Returns whether the response has started.
fn drain_output(
    writer: &mut impl Write,
    eng: &mut StreamingDecompressor,
    op: u8,
    id: u64,
    mut started: bool,
    staged: &mut Vec<u8>,
) -> io::Result<bool> {
    let Some(output) = eng.take_output() else {
        return Ok(started);
    };
    let mut send = |frame: &[u8]| {
        if !started {
            begin_response(writer, op, id)?;
            started = true;
        }
        fpc_metrics::incr(fpc_metrics::Counter::ServeBytesOut, frame.len() as u64);
        send_data(writer, op, id, frame)
    };
    let mut rest: &[u8] = &output;
    if !staged.is_empty() {
        let take = (DATA_CHUNK - staged.len()).min(rest.len());
        staged.extend_from_slice(&rest[..take]);
        rest = &rest[take..];
        if staged.len() < DATA_CHUNK {
            return Ok(started);
        }
        send(staged)?;
        staged.clear();
    }
    let mut frames = rest.chunks_exact(DATA_CHUNK);
    for frame in &mut frames {
        send(frame)?;
    }
    staged.extend_from_slice(frames.remainder());
    Ok(started)
}

/// Writes the staged sub-`DATA_CHUNK` tail, if any.
fn flush_staged(writer: &mut impl Write, op: u8, id: u64, staged: &mut Vec<u8>) -> io::Result<()> {
    if !staged.is_empty() {
        fpc_metrics::incr(fpc_metrics::Counter::ServeBytesOut, staged.len() as u64);
        send_data(writer, op, id, staged)?;
        staged.clear();
    }
    Ok(())
}

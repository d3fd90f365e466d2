//! `fpc-wire-v1` — the length-prefixed framed protocol spoken by the
//! compression service.
//!
//! Every message on the wire is a sequence of **frames**. A frame is a
//! fixed 24-byte header followed by `len` payload bytes:
//!
//! ```text
//! offset  size  field
//!      0     4  magic       "FPCW"
//!      4     1  version     1
//!      5     1  kind        1=Request 2=Data 3=End 4=Response 5=Error
//!      6     1  op          1=compress 2=decompress 3=verify 4=ping 5=range
//!      7     1  algo        container algorithm id, or 0xFF (none)
//!      8     8  request_id  u64 LE, chosen by the client, echoed back
//!     16     4  flags       u32 LE, must be zero in v1
//!     20     4  len         u32 LE, payload bytes following the header
//! ```
//!
//! A request is `Request` (no payload) followed by zero or more `Data`
//! frames carrying the operand bytes and a terminating `End`. The response
//! mirrors it: `Response` + `Data`* + `End`, or a single `Error` frame
//! whose payload is a [`WireError`] (u16 code + UTF-8 message). Chunking
//! the payload into bounded `Data` frames means neither side ever needs a
//! single allocation proportional to one frame larger than
//! [`DEFAULT_MAX_FRAME`], and the server can stop accepting payload bytes
//! the moment a cap is exceeded while still replying with a structured
//! error.

use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"FPCW";

/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;

/// Encoded size of a frame header.
pub const HEADER_LEN: usize = 24;

/// Default cap on one frame's payload length (8 MiB). Frames above the
/// receiver's cap are rejected with [`ErrorCode::FrameTooLarge`].
pub const DEFAULT_MAX_FRAME: u32 = 8 << 20;

/// Payload bytes per `Data` frame that the built-in senders emit (1 MiB).
pub const DATA_CHUNK: usize = 1 << 20;

/// `algo` header byte for operations that take no algorithm.
pub const ALGO_NONE: u8 = 0xFF;

/// Frame kinds (header byte 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Starts a request; payload-free.
    Request = 1,
    /// One chunk of operand or result payload.
    Data = 2,
    /// Terminates the payload of a request or response.
    End = 3,
    /// Starts a successful response; payload-free.
    Response = 4,
    /// Terminal structured error ([`WireError`] payload).
    Error = 5,
}

impl FrameKind {
    /// Decodes the header byte.
    pub fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Data),
            3 => Some(FrameKind::End),
            4 => Some(FrameKind::Response),
            5 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// Service operations (header byte 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compress the request payload with the algorithm in `algo`.
    Compress = 1,
    /// Decompress an FPcompress container stream.
    Decompress = 2,
    /// Checksum-audit a container stream without decompressing it.
    Verify = 3,
    /// Liveness probe; echoes the request payload.
    Ping = 4,
    /// Decode a byte range of a container stream without decoding the
    /// whole container (payload: [`RangeRequest`] prefix + stream).
    Range = 5,
}

impl Op {
    /// Decodes the header byte.
    pub fn from_u8(v: u8) -> Option<Op> {
        match v {
            1 => Some(Op::Compress),
            2 => Some(Op::Decompress),
            3 => Some(Op::Verify),
            4 => Some(Op::Ping),
            5 => Some(Op::Range),
            _ => None,
        }
    }

    /// Wire name, as used by `fpcc remote <op>`.
    pub fn name(self) -> &'static str {
        match self {
            Op::Compress => "compress",
            Op::Decompress => "decompress",
            Op::Verify => "verify",
            Op::Ping => "ping",
            Op::Range => "range",
        }
    }
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind.
    pub kind: FrameKind,
    /// Raw operation byte (validated by the dispatcher, not the framing).
    pub op: u8,
    /// Raw algorithm id byte ([`ALGO_NONE`] when absent).
    pub algo: u8,
    /// Client-chosen request identifier, echoed in responses and errors.
    pub request_id: u64,
    /// Must be zero in v1.
    pub flags: u32,
    /// Payload bytes following this header.
    pub len: u32,
}

impl FrameHeader {
    /// Builds a header with zero flags.
    pub fn new(kind: FrameKind, op: u8, algo: u8, request_id: u64, len: u32) -> FrameHeader {
        FrameHeader {
            kind,
            op,
            algo,
            request_id,
            flags: 0,
            len,
        }
    }

    /// Serializes to the 24-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[..4].copy_from_slice(&MAGIC);
        buf[4] = VERSION;
        buf[5] = self.kind as u8;
        buf[6] = self.op;
        buf[7] = self.algo;
        buf[8..16].copy_from_slice(&self.request_id.to_le_bytes());
        buf[16..20].copy_from_slice(&self.flags.to_le_bytes());
        buf[20..24].copy_from_slice(&self.len.to_le_bytes());
        buf
    }

    /// Parses and validates a header.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadMagic`], [`ErrorCode::UnsupportedVersion`], or
    /// [`ErrorCode::BadFrame`] (unknown kind, nonzero flags).
    pub fn decode(buf: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
        if buf[..4] != MAGIC {
            return Err(WireError::new(ErrorCode::BadMagic, "bad frame magic"));
        }
        if buf[4] != VERSION {
            return Err(WireError::new(
                ErrorCode::UnsupportedVersion,
                format!("unsupported wire version {}", buf[4]),
            ));
        }
        let kind = FrameKind::from_u8(buf[5]).ok_or_else(|| {
            WireError::new(ErrorCode::BadFrame, format!("unknown kind {}", buf[5]))
        })?;
        let request_id = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let flags = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(buf[20..24].try_into().expect("4 bytes"));
        if flags != 0 {
            return Err(WireError::new(
                ErrorCode::BadFrame,
                format!("nonzero reserved flags {flags:#x}"),
            ));
        }
        Ok(FrameHeader {
            kind,
            op: buf[6],
            algo: buf[7],
            request_id,
            flags,
            len,
        })
    }
}

/// Structured error codes carried by `Error` frames.
///
/// Codes are part of the `fpc-wire-v1` contract: existing values never
/// change meaning; new codes may be appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame did not start with `FPCW`.
    BadMagic = 1,
    /// Frame version is not 1.
    UnsupportedVersion = 2,
    /// Structurally invalid frame (unknown kind, nonzero flags, unexpected
    /// kind for the protocol state).
    BadFrame = 3,
    /// One frame's `len` exceeds the receiver's per-frame cap.
    FrameTooLarge = 4,
    /// The accumulated request payload exceeds the server's per-request cap.
    PayloadTooLarge = 5,
    /// The `algo` byte names no known algorithm.
    UnknownAlgorithm = 6,
    /// The `op` byte names no known operation.
    UnknownOp = 7,
    /// The operand failed container parsing/decompression (damaged or
    /// hostile stream); maps to `fpcc` exit code 4.
    CorruptStream = 8,
    /// The server is saturated (connection queue or inflight-bytes cap);
    /// retry later.
    Busy = 9,
    /// The peer idled past a read/write timeout.
    Timeout = 10,
    /// Other transport-level failure.
    Io = 11,
    /// A range request's `offset + len` overflows or exceeds the stream's
    /// original data length; deterministic, so never retried.
    RangeOutOfBounds = 12,
}

impl ErrorCode {
    /// Decodes a wire code (unknown values map to [`ErrorCode::Io`]).
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::BadFrame,
            4 => ErrorCode::FrameTooLarge,
            5 => ErrorCode::PayloadTooLarge,
            6 => ErrorCode::UnknownAlgorithm,
            7 => ErrorCode::UnknownOp,
            8 => ErrorCode::CorruptStream,
            9 => ErrorCode::Busy,
            10 => ErrorCode::Timeout,
            12 => ErrorCode::RangeOutOfBounds,
            _ => ErrorCode::Io,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::PayloadTooLarge => "payload-too-large",
            ErrorCode::UnknownAlgorithm => "unknown-algorithm",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::CorruptStream => "corrupt-stream",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Io => "io",
            ErrorCode::RangeOutOfBounds => "range-out-of-bounds",
        }
    }
}

/// A structured protocol error: the payload of an `Error` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable classification.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// Serializes to the `Error`-frame payload (u16 LE code + message).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.message.len());
        out.extend_from_slice(&(self.code as u16).to_le_bytes());
        out.extend_from_slice(self.message.as_bytes());
        out
    }

    /// Parses an `Error`-frame payload; tolerates non-UTF-8 detail bytes.
    pub fn decode(payload: &[u8]) -> WireError {
        if payload.len() < 2 {
            return WireError::new(ErrorCode::Io, "empty error frame");
        }
        let code = ErrorCode::from_u16(u16::from_le_bytes([payload[0], payload[1]]));
        let message = String::from_utf8_lossy(&payload[2..]).into_owned();
        WireError { code, message }
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

impl std::error::Error for WireError {}

/// Why a frame could not be received.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection cleanly (no header byte read).
    Closed,
    /// Transport failure mid-frame (includes timeouts and truncation).
    Io(io::Error),
    /// The bytes received do not form a valid frame.
    Wire(WireError),
}

impl RecvError {
    /// `true` for a read that failed because the peer idled past the
    /// socket timeout.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            RecvError::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }
}

impl core::fmt::Display for RecvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed"),
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

/// Writes one frame (header + payload).
///
/// # Errors
///
/// Propagates transport failures from the writer.
pub fn write_frame(w: &mut impl Write, header: &FrameHeader, payload: &[u8]) -> io::Result<()> {
    debug_assert_eq!(header.len as usize, payload.len());
    w.write_all(&header.encode())?;
    w.write_all(payload)
}

/// Reads one frame, enforcing `max_frame` on the payload length, into
/// `payload`: the caller's buffer, reused across the frames of a request
/// loop, which holds exactly the frame's payload afterwards.
///
/// Distinguishes a clean close (EOF before the first header byte →
/// [`RecvError::Closed`]) from truncation mid-frame ([`RecvError::Io`]).
///
/// # Errors
///
/// [`RecvError`] as described above; an oversized `len` yields
/// [`ErrorCode::FrameTooLarge`] without reading the payload.
pub fn read_frame(
    r: &mut impl Read,
    max_frame: u32,
    payload: &mut Vec<u8>,
) -> Result<FrameHeader, RecvError> {
    let mut buf = [0u8; HEADER_LEN];
    // First byte separately: EOF here is a clean close, not truncation.
    loop {
        match r.read(&mut buf[..1]) {
            Ok(0) => return Err(RecvError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    r.read_exact(&mut buf[1..]).map_err(RecvError::Io)?;
    let header = FrameHeader::decode(&buf).map_err(RecvError::Wire)?;
    if header.len > max_frame {
        return Err(RecvError::Wire(WireError::new(
            ErrorCode::FrameTooLarge,
            format!("frame of {} bytes exceeds cap of {max_frame}", header.len),
        )));
    }
    // The old bytes are overwritten, so only a longer frame zero-fills
    // (its new tail).
    payload.resize(header.len as usize, 0);
    r.read_exact(payload).map_err(RecvError::Io)?;
    Ok(header)
}

/// Sends `Request`/`Response` + chunked `Data`* + `End` in one call.
fn send_message(
    w: &mut impl Write,
    kind: FrameKind,
    op: u8,
    algo: u8,
    request_id: u64,
    payload: &[u8],
) -> io::Result<()> {
    write_frame(w, &FrameHeader::new(kind, op, algo, request_id, 0), &[])?;
    for chunk in payload.chunks(DATA_CHUNK) {
        let header = FrameHeader::new(FrameKind::Data, op, algo, request_id, chunk.len() as u32);
        write_frame(w, &header, chunk)?;
    }
    write_frame(
        w,
        &FrameHeader::new(FrameKind::End, op, algo, request_id, 0),
        &[],
    )?;
    w.flush()
}

/// Sends a complete request (header, chunked payload, end).
///
/// # Errors
///
/// Propagates transport failures.
pub fn send_request(
    w: &mut impl Write,
    op: Op,
    algo: u8,
    request_id: u64,
    payload: &[u8],
) -> io::Result<()> {
    send_message(w, FrameKind::Request, op as u8, algo, request_id, payload)
}

/// Starts an incremental response: the `Response` frame alone. The caller
/// follows with [`send_data`] frames and a terminating [`end_message`] —
/// or a [`send_error`] frame, which a receiver must accept in place of
/// `End` as a terminal mid-stream failure.
///
/// # Errors
///
/// Propagates transport failures.
pub fn begin_response(w: &mut impl Write, op: u8, request_id: u64) -> io::Result<()> {
    write_frame(
        w,
        &FrameHeader::new(FrameKind::Response, op, ALGO_NONE, request_id, 0),
        &[],
    )
}

/// Sends one `Data` frame of an incremental message. The caller bounds
/// `chunk` by the peer's frame cap ([`DATA_CHUNK`] is always safe).
///
/// # Errors
///
/// Propagates transport failures.
pub fn send_data(w: &mut impl Write, op: u8, request_id: u64, chunk: &[u8]) -> io::Result<()> {
    let header = FrameHeader::new(
        FrameKind::Data,
        op,
        ALGO_NONE,
        request_id,
        chunk.len() as u32,
    );
    write_frame(w, &header, chunk)
}

/// Terminates an incremental message with its `End` frame and flushes.
///
/// # Errors
///
/// Propagates transport failures.
pub fn end_message(w: &mut impl Write, op: u8, request_id: u64) -> io::Result<()> {
    write_frame(
        w,
        &FrameHeader::new(FrameKind::End, op, ALGO_NONE, request_id, 0),
        &[],
    )?;
    w.flush()
}

/// Sends a complete successful response (header, chunked payload, end).
///
/// # Errors
///
/// Propagates transport failures.
pub fn send_response(
    w: &mut impl Write,
    op: u8,
    request_id: u64,
    payload: &[u8],
) -> io::Result<()> {
    send_message(w, FrameKind::Response, op, ALGO_NONE, request_id, payload)
}

/// Sends a terminal `Error` frame for `request_id`.
///
/// # Errors
///
/// Propagates transport failures.
pub fn send_error(w: &mut impl Write, request_id: u64, err: &WireError) -> io::Result<()> {
    let payload = err.encode();
    let header = FrameHeader::new(
        FrameKind::Error,
        0,
        ALGO_NONE,
        request_id,
        payload.len() as u32,
    );
    write_frame(w, &header, &payload)?;
    w.flush()
}

/// The result of a remote `verify`: the `Response` payload of [`Op::Verify`].
///
/// Wire form: `format_version u8, checksummed u8, chunks u32 LE,
/// damaged_count u32 LE`, then `damaged_count` entries of
/// `chunk u32 LE, offset u64 LE` (the serializer caps the entry list at
/// [`RemoteVerify::MAX_DAMAGE_ENTRIES`]; `damaged_count` still reports the
/// true total).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteVerify {
    /// Container format version of the audited stream.
    pub format_version: u8,
    /// `false` for v1 streams, which carry no checksums to audit.
    pub checksummed: bool,
    /// Total chunks in the stream.
    pub chunks: u32,
    /// Damaged chunks detected (the total, even when entries are capped).
    pub damaged_count: u32,
    /// Up to [`RemoteVerify::MAX_DAMAGE_ENTRIES`] damaged `(chunk, offset)`
    /// locations.
    pub damaged: Vec<(u32, u64)>,
}

impl RemoteVerify {
    /// Cap on serialized damage entries; bounds the response size for a
    /// stream where every chunk is damaged.
    pub const MAX_DAMAGE_ENTRIES: usize = 64;

    /// `true` when the audit found no damage (and could actually audit).
    pub fn is_clean(&self) -> bool {
        self.checksummed && self.damaged_count == 0
    }

    /// Serializes to the response payload.
    pub fn encode(&self) -> Vec<u8> {
        let entries = self.damaged.len().min(Self::MAX_DAMAGE_ENTRIES);
        let mut out = Vec::with_capacity(10 + entries * 12);
        out.push(self.format_version);
        out.push(u8::from(self.checksummed));
        out.extend_from_slice(&self.chunks.to_le_bytes());
        out.extend_from_slice(&self.damaged_count.to_le_bytes());
        for &(chunk, offset) in self.damaged.iter().take(entries) {
            out.extend_from_slice(&chunk.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
        }
        out
    }

    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] with [`ErrorCode::BadFrame`] when the
    /// payload is shorter than its own entry count implies.
    pub fn decode(payload: &[u8]) -> Result<RemoteVerify, WireError> {
        let short = || WireError::new(ErrorCode::BadFrame, "short verify payload");
        if payload.len() < 10 {
            return Err(short());
        }
        let chunks = u32::from_le_bytes(payload[2..6].try_into().expect("4 bytes"));
        let damaged_count = u32::from_le_bytes(payload[6..10].try_into().expect("4 bytes"));
        let entries = (damaged_count as usize).min(Self::MAX_DAMAGE_ENTRIES);
        let mut damaged = Vec::with_capacity(entries);
        let mut pos = 10usize;
        for _ in 0..entries {
            let end = pos.checked_add(12).filter(|&e| e <= payload.len());
            let Some(end) = end else {
                return Err(short());
            };
            let chunk = u32::from_le_bytes(payload[pos..pos + 4].try_into().expect("4 bytes"));
            let offset = u64::from_le_bytes(payload[pos + 4..end].try_into().expect("8 bytes"));
            damaged.push((chunk, offset));
            pos = end;
        }
        Ok(RemoteVerify {
            format_version: payload[0],
            checksummed: payload[1] != 0,
            chunks,
            damaged_count,
            damaged,
        })
    }
}

/// The operand prefix of an [`Op::Range`] request.
///
/// Wire form: `offset u64 LE, len u64 LE`, followed immediately by the
/// container stream bytes. The response payload is the decoded range —
/// exactly `len` bytes on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeRequest {
    /// Byte offset into the original (decompressed) data.
    pub offset: u64,
    /// Number of original-data bytes requested.
    pub len: u64,
}

impl RangeRequest {
    /// Encoded prefix size in bytes.
    pub const PREFIX_LEN: usize = 16;

    /// Serializes the request payload: prefix + container stream.
    pub fn encode(&self, stream: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::PREFIX_LEN + stream.len());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(stream);
        out
    }

    /// Splits a request payload into the range prefix and the stream.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] with [`ErrorCode::BadFrame`] when the
    /// payload is shorter than the fixed prefix.
    pub fn decode(payload: &[u8]) -> Result<(RangeRequest, &[u8]), WireError> {
        if payload.len() < Self::PREFIX_LEN {
            return Err(WireError::new(ErrorCode::BadFrame, "short range payload"));
        }
        let offset = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        Ok((RangeRequest { offset, len }, &payload[Self::PREFIX_LEN..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = FrameHeader::new(FrameKind::Request, Op::Compress as u8, 2, 0xDEAD_BEEF, 77);
        let back = FrameHeader::decode(&h.encode()).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn header_rejects_bad_magic_version_kind_flags() {
        let good = FrameHeader::new(FrameKind::Data, 0, ALGO_NONE, 1, 0).encode();
        let mut bad = good;
        bad[0] = b'X';
        assert_eq!(
            FrameHeader::decode(&bad).unwrap_err().code,
            ErrorCode::BadMagic
        );
        let mut bad = good;
        bad[4] = 9;
        assert_eq!(
            FrameHeader::decode(&bad).unwrap_err().code,
            ErrorCode::UnsupportedVersion
        );
        let mut bad = good;
        bad[5] = 200;
        assert_eq!(
            FrameHeader::decode(&bad).unwrap_err().code,
            ErrorCode::BadFrame
        );
        let mut bad = good;
        bad[17] = 1; // reserved flags
        assert_eq!(
            FrameHeader::decode(&bad).unwrap_err().code,
            ErrorCode::BadFrame
        );
    }

    #[test]
    fn frame_io_roundtrip_and_caps() {
        let mut wire = Vec::new();
        let header = FrameHeader::new(FrameKind::Data, 0, ALGO_NONE, 5, 4);
        write_frame(&mut wire, &header, b"abcd").unwrap();
        let mut p = Vec::new();
        let h = read_frame(&mut wire.as_slice(), 1024, &mut p).unwrap();
        assert_eq!(h, header);
        assert_eq!(p, b"abcd");
        // Same frame with a 3-byte cap: FrameTooLarge before any payload read.
        match read_frame(&mut wire.as_slice(), 3, &mut p) {
            Err(RecvError::Wire(e)) => assert_eq!(e.code, ErrorCode::FrameTooLarge),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn clean_close_vs_truncation() {
        // Zero bytes: clean close.
        match read_frame(&mut (&[] as &[u8]), 1024, &mut Vec::new()) {
            Err(RecvError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        // A few header bytes then EOF: truncation.
        match read_frame(&mut (&MAGIC[..3]), 1024, &mut Vec::new()) {
            Err(RecvError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn wire_error_roundtrip() {
        let e = WireError::new(ErrorCode::CorruptStream, "chunk 3 checksum mismatch");
        assert_eq!(WireError::decode(&e.encode()), e);
        // Unknown code maps to Io rather than failing.
        let mut raw = e.encode();
        raw[0] = 0xEE;
        raw[1] = 0xEE;
        assert_eq!(WireError::decode(&raw).code, ErrorCode::Io);
    }

    #[test]
    fn message_framing_chunks_payload() {
        let payload: Vec<u8> = (0..(DATA_CHUNK + 17)).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        send_request(&mut wire, Op::Compress, 1, 42, &payload).unwrap();
        let mut r = wire.as_slice();
        let mut p = Vec::new();
        let h = read_frame(&mut r, DEFAULT_MAX_FRAME, &mut p).unwrap();
        assert_eq!(h.kind, FrameKind::Request);
        assert_eq!(h.request_id, 42);
        let mut got = Vec::new();
        loop {
            let h = read_frame(&mut r, DEFAULT_MAX_FRAME, &mut p).unwrap();
            match h.kind {
                FrameKind::Data => got.extend_from_slice(&p),
                FrameKind::End => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(got, payload);
    }

    #[test]
    fn remote_verify_roundtrip_and_cap() {
        let v = RemoteVerify {
            format_version: 2,
            checksummed: true,
            chunks: 100,
            damaged_count: 2,
            damaged: vec![(3, 4096), (9, 65536)],
        };
        assert_eq!(RemoteVerify::decode(&v.encode()).unwrap(), v);
        // 200 damaged chunks: entries cap at MAX_DAMAGE_ENTRIES but the
        // count survives.
        let big = RemoteVerify {
            format_version: 2,
            checksummed: true,
            chunks: 200,
            damaged_count: 200,
            damaged: (0..200).map(|i| (i, u64::from(i) * 8)).collect(),
        };
        let back = RemoteVerify::decode(&big.encode()).unwrap();
        assert_eq!(back.damaged_count, 200);
        assert_eq!(back.damaged.len(), RemoteVerify::MAX_DAMAGE_ENTRIES);
        assert!(!back.is_clean());
        // Truncated payloads error instead of panicking.
        assert!(RemoteVerify::decode(&big.encode()[..15]).is_err());
        assert!(RemoteVerify::decode(&[1]).is_err());
    }

    #[test]
    fn range_request_roundtrip_and_short_payloads() {
        let req = RangeRequest {
            offset: 12_345,
            len: 678,
        };
        let payload = req.encode(b"stream bytes");
        let (back, stream) = RangeRequest::decode(&payload).unwrap();
        assert_eq!(back, req);
        assert_eq!(stream, b"stream bytes");
        // An empty stream after the prefix is structurally fine (the
        // dispatcher rejects it as a corrupt container instead).
        let bare = req.encode(&[]);
        let (_, stream) = RangeRequest::decode(&bare).unwrap();
        assert!(stream.is_empty());
        // Anything shorter than the prefix is a bad frame.
        for cut in [0usize, 1, 15] {
            assert_eq!(
                RangeRequest::decode(&payload[..cut]).unwrap_err().code,
                ErrorCode::BadFrame
            );
        }
    }

    #[test]
    fn range_op_and_error_code_roundtrip() {
        assert_eq!(Op::from_u8(Op::Range as u8), Some(Op::Range));
        assert_eq!(Op::Range.name(), "range");
        assert_eq!(
            ErrorCode::from_u16(ErrorCode::RangeOutOfBounds as u16),
            ErrorCode::RangeOutOfBounds
        );
        assert_eq!(ErrorCode::RangeOutOfBounds.name(), "range-out-of-bounds");
    }
}

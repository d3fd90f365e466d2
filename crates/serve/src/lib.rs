//! `fpc-serve` — a streaming compression service over TCP.
//!
//! Puts the four FPcompress algorithms behind a socket: a dependency-free
//! (std-only) server speaking the [`wire`] `fpc-wire-v1` framed protocol,
//! plus a blocking [`Client`] used by `fpcc remote` and the bench
//! load generator.
//!
//! * **Protocol** — versioned, length-prefixed frames with a magic, a
//!   request id, an op (compress / decompress / verify / ping / range), an
//!   algorithm id, and chunked payload frames, so no single allocation is
//!   proportional to one oversized frame. See [`wire`] for the byte
//!   layout and the structured error codes.
//! * **Server** — acceptor + bounded connection queue drained by a fixed
//!   worker pool; codec work runs through the process-wide `fpc-pool`
//!   executor. Hostile inputs (bad magic, oversized frames, over-cap
//!   payloads) get structured errors, never panics. See [`server`].
//! * **Observability** — with the `metrics` feature, connections,
//!   rejected connections, queue wait, request/error counts, payload
//!   bytes, and per-op latency histograms land in the standard
//!   `fpc-metrics-v1` report (`fpcc serve --metrics json`).
//!
//! # Example (loopback)
//!
//! ```
//! use fpc_serve::{Client, ServeConfig, Server};
//! use fpc_core::Algorithm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
//! let addr = server.local_addr()?;
//! let shutdown = server.shutdown_flag();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let data: Vec<u8> = (0..4096u32).flat_map(|i| (i as f32).sin().to_bits().to_le_bytes()).collect();
//! let mut client = Client::connect(addr, None)?;
//! let stream = client.compress(Algorithm::SpSpeed, &data)?;
//! assert_eq!(client.decompress(&stream)?, data);
//!
//! shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
//! handle.join().unwrap()?;
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod retry;
pub mod server;
mod stream;
pub mod wire;

pub use client::{Client, ClientError};
pub use retry::{ResilientClient, RetryPolicy};
pub use server::{ServeConfig, Server};
pub use wire::{ErrorCode, Op, RangeRequest, RemoteVerify, WireError};

use std::sync::atomic::AtomicBool;

static SHUTDOWN_SIGNAL: AtomicBool = AtomicBool::new(false);

/// Installs SIGINT *and* SIGTERM handlers that set (and return) one
/// process-wide flag, without any dependency beyond the platform libc
/// that `std` already links. Callers bridge it to
/// [`Server::shutdown_flag`] for graceful shutdown (`fpcc serve` does
/// exactly that), so a supervisor's `kill` drains as cleanly as Ctrl-C.
///
/// On non-Unix targets this is a no-op returning a flag that never fires.
/// Installing twice is harmless.
pub fn shutdown_signal_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_signum: i32) {
            // Only async-signal-safe work here: one atomic store.
            SHUTDOWN_SIGNAL.store(true, std::sync::atomic::Ordering::SeqCst);
        }
        extern "C" {
            // POSIX signal(2); std links libc on every Unix target.
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT_NUM: i32 = 2;
        const SIGTERM_NUM: i32 = 15;
        unsafe {
            signal(SIGINT_NUM, on_signal);
            signal(SIGTERM_NUM, on_signal);
        }
    }
    &SHUTDOWN_SIGNAL
}

/// Former name of [`shutdown_signal_flag`]; the flag now fires on
/// SIGTERM as well as SIGINT.
#[deprecated(note = "renamed to shutdown_signal_flag (also handles SIGTERM)")]
pub fn sigint_flag() -> &'static AtomicBool {
    shutdown_signal_flag()
}

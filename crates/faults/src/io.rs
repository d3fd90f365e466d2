//! [`FaultStream`]: a `Read + Write` wrapper that injects the stream
//! faults an armed [`Plan`](crate::Plan) orders.
//!
//! Without the `faults` feature the wrapper is a transparent newtype:
//! `read`/`write` forward directly to the inner stream and the optimizer
//! erases the indirection. With the feature, each wrapper draws its own
//! deterministic [`IoSession`](crate::IoSession) at construction, and
//! every operation first consults it:
//!
//! | fault | surfaced as |
//! |---|---|
//! | `short-read` | `read` serves at most N bytes |
//! | `eintr` | `ErrorKind::Interrupted` |
//! | `timeout` | `ErrorKind::WouldBlock` (socket-timeout shape) |
//! | `delay-write` | sleep, then the write proceeds normally |
//! | `torn-write` | partial write of N bytes, then the stream dies |
//! | `disconnect` | `ErrorKind::ConnectionReset`, stream dies |
//!
//! Once a `torn-write` or `disconnect` fires the wrapper is *dead*: every
//! later operation fails with `ConnectionReset`, modeling a peer that is
//! gone rather than one that flickers.

use std::io::{self, Read, Write};

#[cfg(feature = "faults")]
use crate::IoFault;

/// Fault-injecting wrapper around any `Read`/`Write` stream.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    #[cfg(feature = "faults")]
    session: Option<crate::IoSession>,
    #[cfg(feature = "faults")]
    dead: bool,
}

impl<S> FaultStream<S> {
    /// Wraps `inner`, drawing a fresh fault session when a plan is armed.
    pub fn new(inner: S) -> FaultStream<S> {
        FaultStream {
            inner,
            #[cfg(feature = "faults")]
            session: crate::io_session(),
            #[cfg(feature = "faults")]
            dead: false,
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Unwraps back to the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    #[cfg(feature = "faults")]
    fn injected(&mut self, fault: IoFault) -> Option<io::Error> {
        match fault {
            IoFault::Eintr => Some(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected EINTR (fpc-faults)",
            )),
            IoFault::Timeout => Some(io::Error::new(
                io::ErrorKind::WouldBlock,
                "injected timeout (fpc-faults)",
            )),
            IoFault::Disconnect => {
                self.dead = true;
                Some(dead_error())
            }
            IoFault::Delay(d) => {
                std::thread::sleep(d);
                None
            }
            // Short/Torn carry byte budgets the caller applies in place.
            IoFault::Short(_) | IoFault::Torn(_) => None,
        }
    }
}

#[cfg(feature = "faults")]
fn dead_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        "injected disconnect (fpc-faults)",
    )
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        #[cfg(feature = "faults")]
        {
            if self.dead {
                return Err(dead_error());
            }
            let fault = self.session.as_mut().and_then(|s| s.before_read(buf.len()));
            if let Some(fault) = fault {
                if let Some(err) = self.injected(fault) {
                    return Err(err);
                }
                if let IoFault::Short(n) = fault {
                    let n = n.min(buf.len()).max(1);
                    return self.inner.read(&mut buf[..n]);
                }
            }
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        #[cfg(feature = "faults")]
        {
            if self.dead {
                return Err(dead_error());
            }
            let fault = self
                .session
                .as_mut()
                .and_then(|s| s.before_write(buf.len()));
            if let Some(fault) = fault {
                if let Some(err) = self.injected(fault) {
                    return Err(err);
                }
                if let IoFault::Torn(n) = fault {
                    // Deliver a prefix, then the stream dies: the peer
                    // sees a torn frame followed by EOF/reset.
                    let n = n.min(buf.len()).max(1);
                    let written = self.inner.write(&buf[..n])?;
                    let _ = self.inner.flush();
                    self.dead = true;
                    return Ok(written);
                }
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        #[cfg(feature = "faults")]
        if self.dead {
            // Flushing an already-dead stream is a no-op rather than an
            // error: the write that killed it already reported failure,
            // and `BufWriter::drop` flushes implicitly.
            return Ok(());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_when_nothing_is_armed() {
        // No plan installed (and in no-op builds, never armed): the
        // wrapper must behave exactly like the inner stream.
        let data = b"hello fault stream".to_vec();
        let mut reader = FaultStream::new(io::Cursor::new(data.clone()));
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);

        let mut writer = FaultStream::new(Vec::new());
        writer.write_all(&data).unwrap();
        writer.flush().unwrap();
        assert_eq!(writer.into_inner(), data);
    }

    #[cfg(feature = "faults")]
    mod armed {
        use super::*;
        use crate::{install, Plan};
        use std::sync::{Mutex, MutexGuard, OnceLock};

        fn lock() -> MutexGuard<'static, ()> {
            static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
            LOCK.get_or_init(Mutex::default)
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        #[test]
        fn disconnect_kills_the_stream_permanently() {
            let _serial = lock();
            let _guard = install(Plan::parse("disconnect=1:5").unwrap());
            let mut stream = FaultStream::new(io::Cursor::new(vec![0u8; 64]));
            let mut buf = [0u8; 16];
            let first = stream.read(&mut buf).unwrap_err();
            assert_eq!(first.kind(), io::ErrorKind::ConnectionReset);
            // Dead forever, even for writes, but flush stays quiet.
            let second = stream.write(&buf).unwrap_err();
            assert_eq!(second.kind(), io::ErrorKind::ConnectionReset);
            stream.flush().unwrap();
        }

        #[test]
        fn torn_write_delivers_a_prefix_then_dies() {
            let _serial = lock();
            let _guard = install(Plan::parse("torn-write=1:21").unwrap());
            let mut stream = FaultStream::new(Vec::new());
            let n = stream.write(&[7u8; 100]).unwrap();
            assert!((1..100).contains(&n), "torn write wrote {n}");
            assert_eq!(stream.get_ref().len(), n);
            let err = stream.write(&[7u8; 4]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        }

        #[test]
        fn short_reads_still_deliver_real_bytes() {
            let _serial = lock();
            let _guard = install(Plan::parse("short-read=1:33").unwrap());
            let data: Vec<u8> = (0..255).collect();
            let mut stream = FaultStream::new(io::Cursor::new(data.clone()));
            let mut out = Vec::new();
            // read_to_end tolerates arbitrarily short reads; the bytes
            // must come through intact and in order.
            stream.read_to_end(&mut out).unwrap();
            assert_eq!(out, data);
        }

        #[test]
        fn eintr_is_retryable_and_loses_no_data() {
            let _serial = lock();
            let _guard = install(Plan::parse("eintr=0.5:44").unwrap());
            let data: Vec<u8> = (0..200).collect();
            let mut stream = FaultStream::new(io::Cursor::new(data.clone()));
            let mut out = Vec::new();
            let mut buf = [0u8; 32];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => out.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            assert_eq!(out, data);
        }
    }
}

//! One TCP accept loop for every server in the workspace.
//!
//! [`Acceptor::bind`] binds, reads the bound address, and spawns one named
//! thread that blocks in `accept` and hands each connection to a handler;
//! what a connection means (a solve line protocol, an HTTP scrape) is the
//! handler's business alone. A failed `accept` (out of descriptors, a
//! client that reset first) is retried after 2 ms: the first failure of a
//! run logs one `Error` line (`net.accept_failed`), and the next accepted
//! connection one `Warn` line (`net.accept_resumed`) with the run's
//! failure count, so an outage logs twice however long it lasts.
//!
//! Dropping the acceptor sets a stop flag and wakes the thread with one
//! connection to its own address (the loopback one for an unspecified
//! bind); it joins the thread only if that wake connected, rather than
//! wait on a thread nothing woke. [`Acceptor::detach`] leaves the thread
//! accepting until the process exits.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};
use std::time::Duration;

/// How long the loop waits after a failed `accept` before it tries again.
const BACKOFF: Duration = Duration::from_millis(2);

/// How long a drop waits for its wake connection.
const WAKE_DEADLINE: Duration = Duration::from_millis(500);

/// A bound listener and the thread that accepts on it. Dropping it stops
/// and joins the thread and releases the port.
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Bind `addr` (`HOST:PORT`; port 0 picks a free port) and accept on a
    /// thread named `name`, calling `handler` with each connection and its
    /// peer address. The handler runs on the accept thread: one that
    /// blocks delays the next `accept`.
    pub fn bind<H>(addr: &str, name: &str, mut handler: H) -> std::io::Result<Acceptor>
    where
        H: FnMut(TcpStream, SocketAddr) + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let mut failures = 0u64;
        let accept = move || loop {
            match listener.accept() {
                _ if stopped.load(Ordering::SeqCst) => return,
                Ok((stream, peer)) => {
                    if failures > 0 {
                        crate::log!(Warn, "net.accept_resumed", addr = addr, failures = failures);
                    }
                    failures = 0;
                    handler(stream, peer);
                }
                // The listener is fine: back off and retry.
                Err(e) => {
                    if failures == 0 {
                        crate::log!(Error, "net.accept_failed", addr = addr, err = e);
                    }
                    failures += 1;
                    std::thread::sleep(BACKOFF);
                }
            }
        };
        let thread = Some(Builder::new().name(name.into()).spawn(accept)?);
        Ok(Acceptor { addr, stop, thread })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Keep accepting until the process exits: drop the handle without
    /// stopping the thread.
    pub fn detach(mut self) {
        self.thread.take();
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        // A detached acceptor has no thread to stop.
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect_timeout(&wake, WAKE_DEADLINE).is_ok() {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    #[test]
    fn an_unspecified_bind_is_woken_over_loopback_and_releases_its_port() {
        let acceptor = Acceptor::bind("0.0.0.0:0", "test-accept", |_, _| {}).expect("bind");
        let port = acceptor.addr().port();
        assert!(acceptor.addr().ip().is_unspecified());
        let t0 = Instant::now();
        drop(acceptor);
        let dropped = t0.elapsed();
        assert!(
            dropped < Duration::from_millis(200),
            "drop took {dropped:?}"
        );
        let again = TcpListener::bind(("0.0.0.0", port));
        assert!(again.is_ok(), "port {port} still held: {:?}", again.err());
    }

    #[test]
    fn a_detached_acceptor_accepts_after_its_handle_is_gone() {
        let (tx, rx) = mpsc::channel();
        let acceptor = Acceptor::bind("127.0.0.1:0", "test-accept", move |_, peer| {
            let _ = tx.send(peer);
        })
        .expect("bind");
        let addr = acceptor.addr();
        acceptor.detach();
        for _ in 0..2 {
            let client = TcpStream::connect(addr).expect("connect");
            let peer = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("no connection reached the handler");
            assert_eq!(peer, client.local_addr().unwrap());
        }
    }
}

//! TCP front end: line-delimited JSON over `std::net` threads.
//!
//! One acceptor thread blocks in `accept`; stopping the server sets a flag
//! and wakes it with one connection to its own address (as `mf-profile`'s
//! `MetricsServer` does). A failed `accept` (out of descriptors, a client
//! that reset first) is logged and retried after 2 ms; only the flag ends
//! the loop. Each connection gets a reader thread that parses
//! one request per line, drives the shared [`SolveService`], and writes
//! one response line per request. A
//! connection is a closed loop: the next request on the same connection
//! is read only after the previous response was written, so concurrency
//! comes from the number of connections (the `repro_serve` load generator
//! opens one per simulated client). A request line longer than the
//! longest legal request gets a `BadRequest` reply and the connection is
//! closed, so a client that never sends `\n` cannot grow the server's
//! buffer without bound.

use crate::protocol;
use crate::service::{ServeError, SolveService};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The most bytes `{:.17e}` writes for an `f64`
/// (`-1.23456789012345678e-308`), plus the comma after it.
const MAX_VALUE_BYTES: usize = 26;

/// Room on a request line for everything but the `bc` values: the other
/// fields, their keys, and whitespace between tokens.
const LINE_SLACK_BYTES: usize = 4096;

/// How long [`TcpServer::stop`] waits for its wake-up connection.
const WAKE_DEADLINE: Duration = Duration::from_millis(500);

/// How long the accept loop waits after a failed `accept` before it tries
/// again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// The longest request line `service` has to read: an explicit `bc` array
/// for the largest domain it admits, plus slack.
fn max_line_bytes(service: &SolveService) -> usize {
    service.largest_domain().boundary_len() * MAX_VALUE_BYTES + LINE_SLACK_BYTES
}

/// A running TCP server bound to a local address. Dropping it stops the
/// accept loop; established connections close when clients disconnect.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting connections against `service`.
    pub fn bind(service: Arc<SolveService>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("mf-serve-accept".into())
                .spawn(move || accept_loop(listener, service, stop))
                .expect("spawn accept loop")
        };
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting new connections and join the accept loop: set the
    /// flag, then wake the loop out of `accept` with one connection to its
    /// own address (the loopback one when bound to an unspecified
    /// address). If that connection cannot be made, the loop is left
    /// detached rather than joined forever.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(h) = self.accept.take() else {
            return;
        };
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&wake, WAKE_DEADLINE).is_ok() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, service: Arc<SolveService>, stop: Arc<AtomicBool>) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, peer)) => {
                let service = Arc::clone(&service);
                // The connection id minted at accept parents every
                // request multiplexed over this connection.
                let conn_id = mf_reqtrace::next_id();
                mf_telemetry::log!(Debug, "serve.conn_accepted", conn = conn_id, peer = peer);
                // Connection threads detach; they exit when the client
                // closes its end (read_line returns 0).
                let spawned = std::thread::Builder::new()
                    .name("mf-serve-conn".into())
                    .spawn(move || handle_connection(stream, service, conn_id));
                if let Err(e) = spawned {
                    mf_telemetry::log!(Error, "serve.conn_spawn_failed", conn = conn_id, err = e);
                }
            }
            // Out of descriptors, a connection reset before it was
            // accepted: the listener is fine, so back off and retry.
            Err(e) => {
                mf_telemetry::log!(Error, "serve.accept_failed", err = e);
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, service: Arc<SolveService>, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            mf_telemetry::log!(Warn, "serve.conn_clone_failed", conn = conn_id, err = e);
            return;
        }
    };
    let max_line = max_line_bytes(&service);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader
            .by_ref()
            .take(max_line as u64 + 1)
            .read_line(&mut line)
        {
            Ok(0) | Err(_) => {
                mf_telemetry::set_current_request(0);
                mf_telemetry::log!(Debug, "serve.conn_closed", conn = conn_id);
                return; // client closed
            }
            Ok(n) if n > max_line => {
                let e = ServeError::BadRequest(format!("request line exceeds {max_line} bytes"));
                mf_telemetry::log!(Warn, "serve.bad_request", conn = conn_id, err = e);
                let _ = writer.write_all(protocol::render_err(0, &e).as_bytes());
                let _ = writer.flush();
                return; // the rest of the line is never read
            }
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = respond(trimmed, &service, conn_id);
        if writer.write_all(response.as_bytes()).is_err() || writer.flush().is_err() {
            mf_telemetry::set_current_request(0);
            mf_telemetry::log!(Warn, "serve.reply_write_failed", conn = conn_id);
            return;
        }
    }
}

/// One request line → one response line (newline included).
fn respond(line: &str, service: &SolveService, conn_id: u64) -> String {
    let wire = match protocol::parse_request(line) {
        Ok(w) => w,
        Err(e) => return protocol::render_err(0, &ServeError::BadRequest(e)),
    };
    let id = wire.id;
    // The domain bound before the boundary: a generated boundary costs
    // more the larger the domain (`gp:` factorizes a kernel matrix as wide
    // as the boundary walk), so an out-of-bounds request must not build it.
    if let Err(e) = service.check_domain(wire.sx, wire.sy) {
        mf_telemetry::log!(Warn, "serve.bad_request", conn = conn_id, err = e);
        return protocol::render_err(id, &e);
    }
    let req = protocol::to_solve_request(&wire, service.spec());
    // Each wire request gets its own trace context, parented to the
    // connection; log lines on this thread carry the request id until
    // the response is rendered.
    let ctx = mf_reqtrace::TraceContext::child_of(conn_id);
    mf_telemetry::set_current_request(ctx.req);
    let out = match service.solve_blocking_traced(req, ctx) {
        Ok(resp) => {
            // The wire-side serialization span: JSON rendering of the
            // (possibly dense-grid) response body.
            let t0 = mf_telemetry::now_us();
            let body = protocol::render_ok(id, &resp);
            mf_reqtrace::note_serialize(ctx.req, t0, mf_telemetry::now_us().saturating_sub(t0));
            body
        }
        Err(e) => protocol::render_err(id, &e),
    };
    mf_telemetry::set_current_request(0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServeConfig, SolveService};
    use mf_mfp::PlanSolver;
    use mf_telemetry::JsonValue;

    fn test_server(cfg: ServeConfig) -> (Arc<SolveService>, TcpServer) {
        let solver = PlanSolver::new(
            crate::service::tests::test_net(5),
            crate::service::tests::test_spec(),
        );
        let svc = Arc::new(SolveService::new(solver, cfg));
        let server = TcpServer::bind(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        (svc, server)
    }

    #[test]
    fn tcp_round_trip_solves_and_reports_errors() {
        let (_svc, server) = test_server(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let mut line = String::new();
        writer
            .write_all(b"{\"id\":3,\"domain\":\"1x1\",\"bc\":\"gp:1\"}\n")
            .unwrap();
        reader.read_line(&mut line).unwrap();
        let v = JsonValue::parse(line.trim()).unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert!(v.get("iterations").and_then(JsonValue::as_f64).unwrap() >= 1.0);

        // A malformed line gets an error response, not a dropped
        // connection.
        line.clear();
        writer.write_all(b"garbage\n").unwrap();
        reader.read_line(&mut line).unwrap();
        let v = JsonValue::parse(line.trim()).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("error"));

        // The connection still serves after the error.
        line.clear();
        writer
            .write_all(b"{\"id\":4,\"domain\":\"1x1\"}\n")
            .unwrap();
        reader.read_line(&mut line).unwrap();
        let v = JsonValue::parse(line.trim()).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
    }

    #[test]
    fn an_oversized_line_is_refused_and_the_server_serves_on() {
        let (svc, server) = test_server(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let request = |line: &[u8]| {
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            writer.write_all(line).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            JsonValue::parse(reply.trim()).unwrap()
        };

        // The longest legal request: an explicit array of the widest
        // values for the largest domain, on one line of at most the cap.
        let largest = svc.largest_domain();
        let (max, walk) = (largest.sx, largest.boundary_len());
        let bc: Vec<String> = (0..walk).map(|_| format!("{:.17e}", -1.5e-300)).collect();
        let legal = format!(
            "{{\"id\":1,\"domain\":\"{max}x{max}\",\"max_iters\":1,\"bc\":[{}]}}\n",
            bc.join(",")
        );
        let cap = max_line_bytes(&svc);
        assert!(legal.len() <= cap, "{} > {cap}", legal.len());

        // Far over the cap and no newline in sight.
        let v = request(&vec![b' '; 4 * cap]);
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("error"));
        let msg = v.get("message").and_then(JsonValue::as_str).unwrap();
        assert!(msg.contains("exceeds"), "{msg}");

        let v = request(legal.as_bytes());
        assert_eq!(v.get("id").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
    }

    #[test]
    fn connections_are_accepted_at_once_and_stop_is_prompt() {
        let (_svc, server) = test_server(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let addr = server.addr();
        // An acceptor that sleeps 5 ms per empty `accept` makes a new
        // connection wait 2.5 ms on average before it is accepted: 50
        // sequential connections would take about 125 ms. A blocked
        // `accept` answers each (a malformed line, refused without a
        // solve) in well under a millisecond here; the best of three
        // rounds keeps a descheduled moment from deciding.
        let round = || {
            let t0 = std::time::Instant::now();
            for _ in 0..50 {
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                writer.write_all(b"garbage\n").unwrap();
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line).unwrap();
                assert!(line.contains("\"error\""), "{line}");
            }
            t0.elapsed()
        };
        let best = (0..3).map(|_| round()).min().unwrap();
        assert!(
            best < Duration::from_millis(50),
            "50 sequential connections took {best:?}"
        );
        let t0 = std::time::Instant::now();
        drop(server);
        let dropped = t0.elapsed();
        assert!(
            dropped < Duration::from_millis(200),
            "drop took {dropped:?}"
        );
        assert!(
            TcpStream::connect(addr).is_err(),
            "still accepting after drop"
        );
    }

    #[test]
    fn busy_rejections_reach_the_wire() {
        // Zero workers: every submission beyond the queue bound is Busy.
        let (_svc, server) = test_server(ServeConfig {
            workers: 0,
            queue_depth: 1,
            ..Default::default()
        });
        let mk_conn = || {
            let s = TcpStream::connect(server.addr()).unwrap();
            let w = s.try_clone().unwrap();
            (w, BufReader::new(s))
        };
        // First request occupies the queue (no reply will come — use a
        // second connection for the rejected one).
        let (mut w1, _r1) = mk_conn();
        w1.write_all(b"{\"id\":1,\"domain\":\"1x1\"}\n").unwrap();
        // Wait until it is actually enqueued.
        for _ in 0..200 {
            if _svc.stats().accepted >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let (mut w2, mut r2) = mk_conn();
        w2.write_all(b"{\"id\":2,\"domain\":\"1x1\"}\n").unwrap();
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        let v = JsonValue::parse(line.trim()).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("busy"));
        assert!(v.get("retry_after_ms").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    }
}

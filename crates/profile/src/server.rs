//! Dependency-free metrics exposition over `std::net`.
//!
//! The listener runs on `mf-telemetry`'s [`Acceptor`], the accept loop
//! `mf-serve`'s `TcpServer` runs on too: it retries a failed `accept`,
//! logs an outage once, and stops on drop. This module is only its
//! connection handler, which runs on the accept thread itself (scrapes are
//! rare and tiny); a slow client holds it for no longer than
//! [`CONN_DEADLINE`] allows. Routes:
//!
//! - `GET /metrics` — OpenMetrics text; every published rank registry
//!   merged (counters/buckets sum, gauges max).
//! - `GET /snapshot` — JSON: per-rank metrics and the merged view.
//!
//! Other crates can add endpoints without a dependency edge back into
//! this one via [`register_route`] — mf-reqtrace installs `/requests`,
//! `/healthz`, and `/readyz` this way.

use mf_telemetry::Acceptor;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{LazyLock, RwLock};
use std::time::{Duration, Instant};

/// Handle to a running exposition server; dropping it stops the
/// acceptor thread and releases the port.
pub struct MetricsServer(Acceptor);

impl MetricsServer {
    /// Bind `addr` (`HOST:PORT`; port 0 picks a free port) and start
    /// serving scrapes on a background thread.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        Acceptor::bind(addr, "mf-metrics", |stream, _| handle_conn(stream)).map(MetricsServer)
    }

    /// Start from the `--metrics-addr` flag value or the
    /// `MF_METRICS_ADDR` environment variable, whichever is set (flag
    /// wins). Bind failures are reported on stderr rather than aborting
    /// the run: losing the solve over a busy scrape port is a bad trade.
    pub fn from_flag_or_env(flag: Option<&str>) -> Option<MetricsServer> {
        let addr = match flag {
            Some(a) => a.to_string(),
            None => std::env::var("MF_METRICS_ADDR").ok()?,
        };
        match MetricsServer::start(&addr) {
            Ok(s) => {
                mf_telemetry::log!(Info, "profile.metrics_listening", addr = s.addr());
                Some(s)
            }
            Err(e) => {
                mf_telemetry::log!(Warn, "profile.metrics_bind_failed", addr = addr, err = e);
                None
            }
        }
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Keep the server running until process exit: detach the acceptor
    /// thread instead of stopping it on drop.
    pub fn run_forever(self) {
        self.0.detach();
    }
}

/// How long one connection may hold the acceptor: the whole request head
/// must arrive within it of the accept, and each response write must
/// complete within it.
const CONN_DEADLINE: Duration = Duration::from_millis(500);

fn handle_conn(mut stream: TcpStream) {
    let deadline = Instant::now() + CONN_DEADLINE;
    let _ = stream.set_write_timeout(Some(CONN_DEADLINE));
    let _ = stream.set_nodelay(true);
    // Read until the end of the request head (we ignore any body).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_ascii_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, ctype, body) = route(method, path);
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// A dynamically registered GET handler: returns
/// `(status_line, content_type, body)`.
pub type RouteHandler = Box<dyn Fn() -> (&'static str, &'static str, String) + Send + Sync>;

static ROUTES: LazyLock<RwLock<Vec<(&'static str, RouteHandler)>>> =
    LazyLock::new(|| RwLock::new(Vec::new()));

/// Register (or replace) a GET endpoint served by every
/// [`MetricsServer`] in the process. Built-in routes (`/metrics`,
/// `/snapshot`) cannot be overridden.
pub fn register_route(
    path: &'static str,
    handler: impl Fn() -> (&'static str, &'static str, String) + Send + Sync + 'static,
) {
    let mut routes = ROUTES.write().unwrap();
    if let Some(slot) = routes.iter_mut().find(|(p, _)| *p == path) {
        slot.1 = Box::new(handler);
    } else {
        routes.push((path, Box::new(handler)));
    }
}

fn route(method: &str, path: &str) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".into(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            mf_telemetry::render_openmetrics(&mf_telemetry::merged_snapshot()),
        ),
        "/snapshot" => (
            "200 OK",
            "application/json; charset=utf-8",
            mf_telemetry::render_snapshot_json(
                &mf_telemetry::per_rank_snapshots(),
                &mf_telemetry::merged_snapshot(),
            ),
        ),
        other => {
            if let Some((_, handler)) = ROUTES.read().unwrap().iter().find(|(p, _)| *p == other) {
                return handler();
            }
            (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "see /metrics or /snapshot\n".into(),
            )
        }
    }
}

/// Issue one HTTP GET against `addr` and return `(status_line, body)`.
/// Test/bench helper so scrape round-trips can be exercised without an
/// external HTTP client.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: mf\r\nConnection: close\r\n\r\n"
    )?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp)?;
    let status = resp.lines().next().unwrap_or("").to_string();
    let body = match resp.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn serves_metrics_snapshot_and_404() {
        // Put something observable in this thread's registry and publish
        // it so the scrape (a different thread) can see it.
        mf_telemetry::counter("profile.server.test_counter").add(3);
        crate::zone!("server_test");
        mf_telemetry::publish_thread();

        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert!(status.contains("200"), "status: {status}");
        assert!(body.ends_with("# EOF\n"));
        assert!(body.contains("profile_server_test_counter_total 3"));
        assert!(body.contains("# TYPE prof_server_test_us histogram"));

        let (status, body) = http_get(addr, "/snapshot").unwrap();
        assert!(status.contains("200"), "status: {status}");
        let doc = mf_telemetry::JsonValue::parse(&body).expect("valid JSON");
        assert!(doc.get("merged").is_some());
        assert!(doc.get("ranks").and_then(|v| v.as_arr()).is_some());

        let (status, _) = http_get(addr, "/nope").unwrap();
        assert!(status.contains("404"), "status: {status}");

        drop(server);
        // Port is released: a new server can bind the same address.
        let again = MetricsServer::start(&addr.to_string());
        assert!(again.is_ok(), "rebind after drop failed: {:?}", again.err());
    }

    #[test]
    fn scrapes_are_accepted_at_once_and_drop_is_prompt() {
        register_route("/test-ping", || {
            ("200 OK", "text/plain; charset=utf-8", "ok\n".into())
        });
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        // A polling acceptor that sleeps 2 ms per empty `accept` makes a
        // request wait 1 ms on average before it is even accepted: 50
        // sequential requests would take about 50 ms. A blocked `accept`
        // answers each in well under a millisecond here; the best of three
        // rounds keeps a descheduled moment from deciding.
        let round = || {
            let t0 = Instant::now();
            for _ in 0..50 {
                let (status, body) = http_get(addr, "/test-ping").expect("scrape");
                assert!(status.contains("200") && body == "ok\n", "{status}: {body}");
            }
            t0.elapsed()
        };
        let best = (0..3).map(|_| round()).min().unwrap();
        assert!(
            best < Duration::from_millis(25),
            "50 sequential requests took {best:?}"
        );
        let t0 = Instant::now();
        drop(server);
        let dropped = t0.elapsed();
        assert!(
            dropped < Duration::from_millis(200),
            "drop took {dropped:?}"
        );
        assert!(
            http_get(addr, "/test-ping").is_err(),
            "still serving after drop"
        );
    }

    #[test]
    fn a_trickling_client_does_not_stall_a_scrape() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        // One byte every 100 ms for 3 s, never finishing the request head.
        let trickler = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            for _ in 0..30 {
                if s.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        let (status, _) = http_get(addr, "/metrics").expect("scrape");
        let waited = t0.elapsed();
        assert!(status.contains("200"), "status: {status}");
        assert!(
            waited < Duration::from_millis(1500),
            "scrape waited {waited:?} behind a trickling client"
        );
        trickler.join().unwrap();
    }

    #[test]
    fn registered_routes_are_served_and_replaceable() {
        register_route("/test-route", || {
            (
                "200 OK",
                "application/json; charset=utf-8",
                "{\"v\":1}".into(),
            )
        });
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let (status, body) = http_get(server.addr(), "/test-route").unwrap();
        assert!(status.contains("200"), "status: {status}");
        assert_eq!(body, "{\"v\":1}");
        // Re-registering the same path replaces the handler.
        register_route("/test-route", || {
            (
                "503 Service Unavailable",
                "application/json; charset=utf-8",
                "{\"v\":2}".into(),
            )
        });
        let (status, body) = http_get(server.addr(), "/test-route").unwrap();
        assert!(status.contains("503"), "status: {status}");
        assert_eq!(body, "{\"v\":2}");
    }

    #[test]
    fn concurrent_snapshot_scrapes_race_publish_overwrites() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));

        // Publishers hammer their per-rank publish slots — each
        // publish_thread() overwrites the slot a concurrent scrape may
        // be merging from.
        let publishers: Vec<_> = (0..4)
            .map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    mf_telemetry::set_thread_rank(200 + i);
                    let c = mf_telemetry::counter("profile.server.race_counter");
                    while !stop.load(Ordering::Relaxed) {
                        c.add(1);
                        mf_telemetry::gauge("profile.server.race_gauge").set(i as f64);
                        mf_telemetry::publish_thread();
                    }
                    mf_telemetry::publish_thread();
                })
            })
            .collect();

        // Scrapers race the overwrites; every body must stay
        // well-formed — a torn merge would produce invalid JSON or a
        // truncated OpenMetrics page.
        let scrapers: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let (status, body) = http_get(addr, "/snapshot").expect("scrape");
                        assert!(status.contains("200"), "status: {status}");
                        let doc =
                            mf_telemetry::JsonValue::parse(&body).expect("snapshot stays valid");
                        assert!(doc.get("merged").is_some());
                        let (status, body) = http_get(addr, "/metrics").expect("scrape");
                        assert!(status.contains("200"), "status: {status}");
                        assert!(body.ends_with("# EOF\n"), "truncated OpenMetrics page");
                    }
                })
            })
            .collect();

        for s in scrapers {
            s.join().expect("scraper panicked");
        }
        stop.store(true, Ordering::SeqCst);
        for p in publishers {
            p.join().expect("publisher panicked");
        }

        // After the dust settles, the published counter is visible.
        let (_, body) = http_get(addr, "/metrics").unwrap();
        assert!(body.contains("profile_server_race_counter_total"));
    }
}

//! The accept loop outlives a failed `accept`.
//!
//! The test re-runs itself in a child process under `ulimit -n`, so that
//! only the child has a low descriptor limit. The child fills every free
//! descriptor but one, and binds the server on that one: its accept thread
//! starts with no descriptor free, so every `accept` fails. (Linux takes
//! the descriptor when `accept` is entered, not when a connection arrives,
//! so an `accept` already blocked when the descriptors run out would
//! succeed: binding last is what makes the failure certain.) This process
//! plays the client: it connects, and the connection completes in the
//! listener's backlog but gets no reply. Once the child frees its
//! descriptors, that connection and a new one must both be served, and the
//! outage must have logged one failure line and one recovery line, however
//! many `accept`s failed.

use mf_data::SubdomainSpec;
use mf_mfp::PlanSolver;
use mf_nn::{SdNet, SdNetConfig};
use mf_serve::{protocol, ServeConfig, SolveService, TcpServer};
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// Marks the child process (set by the test for its own re-run only).
const CHILD: &str = "MF_SERVE_ACCEPT_RETRY_CHILD";
/// The child's descriptor limit.
const LIMIT: usize = 64;
/// The error `open` and `accept` give when the process is out of
/// descriptors.
const EMFILE: i32 = 24;
/// Prefixes the line on which the child announces the server's address.
const ADDR: &str = "accept-retry-addr=";

#[test]
fn the_accept_loop_survives_running_out_of_descriptors() {
    if std::env::var_os(CHILD).is_some() {
        return child();
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n {LIMIT} && exec \"$0\" --exact \
             the_accept_loop_survives_running_out_of_descriptors --nocapture"
        ))
        .arg(exe)
        .env(CHILD, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run sh");
    let mut go = child.stdin.take().expect("child stdin");
    let mut announced = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    let addr: SocketAddr = loop {
        line.clear();
        if announced.read_line(&mut line).unwrap_or(0) == 0 {
            let out = child.wait_with_output().expect("wait for the child");
            panic!(
                "the child announced no address ({}):\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
        }
        if let Some(a) = line.trim().strip_prefix(ADDR) {
            break a.parse().expect("the announced address");
        }
    };

    let waiting = TcpStream::connect(addr).expect("connect into the backlog");
    // The child has no descriptor left to accept it with.
    match reply(&waiting, Duration::from_millis(200)) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("expected no reply while out of descriptors, got {other:?}"),
    }
    writeln!(go, "free").expect("tell the child to free its descriptors");

    let fresh = TcpStream::connect(addr).expect("the server still listens");
    for (name, stream) in [
        ("the new connection", &fresh),
        ("the waiting one", &waiting),
    ] {
        let line = reply(stream, Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("{name} got no reply: {e}"));
        assert!(line.contains("\"status\":\"ok\""), "{name}: {line}");
    }
    drop(go); // end of input: the child stops its server and exits

    let out = child.wait_with_output().expect("wait for the child");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child {}:\n{stderr}", out.status);
    let lines = |event: &str| {
        let tag = format!("\"event\":\"{event}\"");
        stderr.lines().filter(|l| l.contains(&tag)).count()
    };
    assert_eq!(lines("net.accept_failed"), 1, "failure lines:\n{stderr}");
    assert_eq!(lines("net.accept_resumed"), 1, "recovery lines:\n{stderr}");
}

/// The request every solve in this test sends.
const REQUEST: &str = "{\"id\":1,\"domain\":\"1x1\",\"bc\":\"gp:1\"}\n";

/// Send one request on `stream` and wait up to `wait` for its reply line.
fn reply(stream: &TcpStream, wait: Duration) -> std::io::Result<String> {
    let mut writer = stream;
    writer.write_all(REQUEST.as_bytes())?;
    stream.set_read_timeout(Some(wait))?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Ok(line)
}

fn child() {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let mut cfg = SdNetConfig::small(spec.boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![12, 12];
    cfg.coord_fourier = 2;
    let net = SdNet::new(cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(5));
    let service = SolveService::new(
        PlanSolver::new(net, spec),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    );
    // One solve in process first: the worker has started, and read what it
    // reads once, before the descriptors run out.
    let wire = protocol::parse_request(REQUEST.trim()).expect("the request parses");
    let warm = protocol::to_solve_request(&wire, service.spec());
    service.solve_blocking(warm).expect("the in-process solve");

    let mut held = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => held.push(f),
            Err(e) if e.raw_os_error() == Some(EMFILE) => break,
            Err(e) => panic!("open: {e}"),
        }
        assert!(held.len() <= LIMIT, "no descriptor limit in force");
    }
    held.pop(); // the listener's
    let server = TcpServer::bind(Arc::new(service), "127.0.0.1:0").expect("bind");
    println!("{ADDR}{}", server.addr());

    // Stdin is descriptor 0, open already: reading it takes none. The
    // first line (or end of input) frees the descriptors, the end of input
    // stops the server.
    let mut stdin = std::io::stdin().lock();
    let mut line = String::new();
    let _ = stdin.read_line(&mut line);
    drop(held);
    while stdin.read_line(&mut line).is_ok_and(|n| n > 0) {}
}

//! The accept loop outlives a failed `accept`.
//!
//! The test re-runs itself in a child process under `ulimit -n`, so that
//! only the child has a low descriptor limit. The child fills every free
//! descriptor, leaves one for a client, and connects: the connection
//! completes in the listener's backlog, but `accept` fails for want of a
//! descriptor. Once the child frees its descriptors, that connection and
//! a new one must both be served.

use mf_data::SubdomainSpec;
use mf_mfp::PlanSolver;
use mf_nn::{SdNet, SdNetConfig};
use mf_serve::{ServeConfig, SolveService, TcpServer};
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

/// Marks the child process (set by the test for its own re-run only).
const CHILD: &str = "MF_SERVE_ACCEPT_RETRY_CHILD";
/// The child's descriptor limit.
const LIMIT: usize = 64;
/// The error `open` and `accept` give when the process is out of
/// descriptors.
const EMFILE: i32 = 24;

#[test]
fn the_accept_loop_survives_running_out_of_descriptors() {
    if std::env::var_os(CHILD).is_some() {
        return child();
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n {LIMIT} && exec \"$0\" --exact \
             the_accept_loop_survives_running_out_of_descriptors --nocapture"
        ))
        .arg(exe)
        .env(CHILD, "1")
        .output()
        .expect("run sh");
    assert!(
        out.status.success(),
        "child {}:\n{}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Send one request on `stream` and wait up to `wait` for its reply line.
fn reply(stream: &TcpStream, wait: Duration) -> std::io::Result<String> {
    let mut writer = stream;
    writer.write_all(b"{\"id\":1,\"domain\":\"1x1\",\"bc\":\"gp:1\"}\n")?;
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
    let server = TcpServer::bind(Arc::new(service), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let mut held = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => held.push(f),
            Err(e) if e.raw_os_error() == Some(EMFILE) => break,
            Err(e) => panic!("open: {e}"),
        }
        assert!(held.len() <= LIMIT, "no descriptor limit in force");
    }
    held.pop();
    let waiting = TcpStream::connect(addr).expect("connect into the backlog");
    // No descriptor is left to accept it with.
    match reply(&waiting, Duration::from_millis(200)) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("expected no reply while out of descriptors, got {other:?}"),
    }
    drop(held);

    let fresh = TcpStream::connect(addr).expect("the server still listens");
    for (name, stream) in [
        ("the new connection", &fresh),
        ("the waiting one", &waiting),
    ] {
        let line = reply(stream, Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("{name} got no reply: {e}"));
        assert!(line.contains("\"status\":\"ok\""), "{name}: {line}");
    }
}

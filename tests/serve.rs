//! End-to-end tests of the serve layer through the public facade: the
//! long-lived [`SolveService`] plus its TCP front end, exercised the way
//! `mosaic-flow serve` and the `repro_serve` load generator use them.
//!
//! The load-bearing contract is *lossless batching*: the service packs
//! concurrent requests into shared compiled-plan launches, and every
//! client must receive exactly the response it would get from solving
//! its request alone on a private solver — bitwise, under concurrency,
//! and across mixed domain shapes that must never share a launch.

use mosaic_flow::mfp::MfpResult;
use mosaic_flow::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

fn spec() -> SubdomainSpec {
    SubdomainSpec { m: 9, spatial: 0.5 }
}

fn net(seed: u64) -> SdNet {
    let mut cfg = SdNetConfig::small(spec().boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![12, 12];
    cfg.coord_fourier = 2;
    SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed))
}

fn service(cfg: ServeConfig) -> SolveService {
    SolveService::new(PlanSolver::new(net(11), spec()), cfg)
}

fn random_bc(len: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_fn(1, len, |_, _| rng.gen_range(-1.0..1.0))
}

/// The reference answer: the same request solved alone on a private
/// solver (fresh `PlanSolver`, same weights).
fn solve_alone(sx: usize, sy: usize, bc: &Tensor) -> MfpResult {
    let solver = PlanSolver::new(net(11), spec());
    let domain = DomainSpec::new(spec(), sx, sy);
    Mfp::new(&solver, domain).run(
        bc,
        &MfpConfig {
            max_iters: 100,
            tol: 1e-4,
            ..Default::default()
        },
    )
}

#[test]
fn concurrent_clients_get_bitwise_identical_answers_to_solving_alone() {
    // 16 clients, two domain shapes, one worker: the backlog forms real
    // multi-request batches, and 1x1/2x1 requests must split into
    // separate launches without cross-contamination.
    let svc = Arc::new(service(ServeConfig {
        workers: 1,
        ..Default::default()
    }));
    svc.prewarm(1, 1, 8);
    let clients: Vec<_> = (0..16u64)
        .map(|c| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let (sx, sy) = if c % 3 == 0 { (2, 1) } else { (1, 1) };
                let d = DomainSpec::new(spec(), sx, sy);
                let bc = random_bc(d.boundary_len(), 1000 + c);
                let mut req = SolveRequest::new(sx, sy, bc.clone());
                req.want_grid = true;
                let resp = loop {
                    match svc.solve_blocking(req.clone()) {
                        Ok(r) => break r,
                        Err(ServeError::Busy { retry_after_ms }) => {
                            std::thread::sleep(std::time::Duration::from_millis(retry_after_ms))
                        }
                        Err(e) => panic!("client {c}: {e}"),
                    }
                };
                (c, sx, sy, bc, resp)
            })
        })
        .collect();
    for client in clients {
        let (c, sx, sy, bc, resp) = client.join().unwrap();
        let alone = solve_alone(sx, sy, &bc);
        assert_eq!(resp.iterations, alone.iterations, "client {c}");
        assert_eq!(resp.converged, alone.converged, "client {c}");
        let grid = resp.grid.expect("asked for the grid");
        assert_eq!(grid.shape(), alone.grid.shape(), "client {c}");
        for (i, (x, y)) in grid
            .as_slice()
            .iter()
            .zip(alone.grid.as_slice())
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "client {c} ({sx}x{sy}) grid[{i}]: batched solve diverged from solo solve"
            );
        }
    }
    assert_eq!(svc.stats().completed, 16);
}

#[test]
fn tcp_round_trip_returns_the_solo_solution_bitwise() {
    // Submit an explicit boundary walk over TCP with want_grid and
    // compare the wire grid against the direct in-process solve. The
    // wire format prints each f64 as the shortest text that parses back
    // to the same bits.
    let svc = Arc::new(service(ServeConfig {
        workers: 2,
        ..Default::default()
    }));
    let server = TcpServer::bind(Arc::clone(&svc), "127.0.0.1:0").unwrap();

    let d = DomainSpec::new(spec(), 1, 1);
    let bc = random_bc(d.boundary_len(), 77);
    let bc_json: Vec<String> = bc.as_slice().iter().map(|v| format!("{v:.17e}")).collect();
    let line = format!(
        "{{\"id\":9,\"domain\":\"1x1\",\"bc\":[{}],\"want_grid\":true}}\n",
        bc_json.join(",")
    );

    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();

    let v = mosaic_flow::telemetry::JsonValue::parse(reply.trim()).unwrap();
    assert_eq!(
        v.get("status").and_then(|s| s.as_str().map(str::to_string)),
        Some("ok".into()),
        "unexpected reply: {reply}"
    );
    let alone = solve_alone(1, 1, &bc);
    assert_eq!(
        v.get("iterations").and_then(|x| x.as_f64()),
        Some(alone.iterations as f64)
    );
    assert_wire_grid_is_bitwise(&v, &alone.grid);
}

/// The `grid` array of an `ok` reply line is `direct`, bit for bit.
fn assert_wire_grid_is_bitwise(reply: &mosaic_flow::telemetry::JsonValue, direct: &Tensor) {
    let grid = reply
        .get("grid")
        .and_then(|g| g.as_arr())
        .expect("grid array");
    assert_eq!(grid.len(), direct.numel());
    for (i, (wire, direct)) in grid.iter().zip(direct.as_slice()).enumerate() {
        let wire = wire.as_f64().unwrap();
        assert_eq!(
            wire.to_bits(),
            direct.to_bits(),
            "grid[{i}] did not round trip the wire bitwise"
        );
    }
}

/// A tolerance no residual can meet and a non-finite boundary value are
/// refused at admission with an error line — neither reaches a worker —
/// and the connection they arrived on goes on serving: the well-formed
/// request behind them gets its bitwise solo answer.
#[test]
fn unmeetable_tol_and_non_finite_boundary_get_an_error_line_and_the_connection_serves_on() {
    let svc = Arc::new(service(ServeConfig {
        workers: 1,
        ..Default::default()
    }));
    let server = TcpServer::bind(Arc::clone(&svc), "127.0.0.1:0").unwrap();
    let d = DomainSpec::new(spec(), 1, 1);
    let bc = random_bc(d.boundary_len(), 78);
    let values = |poison: Option<usize>| {
        let v: Vec<String> = (bc.as_slice().iter().enumerate())
            .map(|(i, v)| match poison {
                Some(p) if p == i => "1e999".to_string(),
                _ => format!("{v:.17e}"),
            })
            .collect();
        v.join(",")
    };

    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: String| {
        writer.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        mosaic_flow::telemetry::JsonValue::parse(reply.trim())
            .unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"))
    };
    let status = |v: &mosaic_flow::telemetry::JsonValue| {
        v.get("status").and_then(|s| s.as_str().map(str::to_string))
    };

    let bad_tol = exchange(format!(
        "{{\"id\":1,\"domain\":\"1x1\",\"bc\":[{}],\"tol\":-1}}\n",
        values(None)
    ));
    assert_eq!(status(&bad_tol), Some("error".into()), "{bad_tol:?}");
    let bad_bc = exchange(format!(
        "{{\"id\":2,\"domain\":\"1x1\",\"bc\":[{}]}}\n",
        values(Some(5))
    ));
    assert_eq!(status(&bad_bc), Some("error".into()), "{bad_bc:?}");
    assert_eq!(
        svc.stats().accepted,
        0,
        "a refused request reached the queue"
    );

    let good = exchange(format!(
        "{{\"id\":3,\"domain\":\"1x1\",\"bc\":[{}],\"want_grid\":true}}\n",
        values(None)
    ));
    assert_eq!(status(&good), Some("ok".into()), "{good:?}");
    assert_wire_grid_is_bitwise(&good, &solve_alone(1, 1, &bc).grid);
}

/// An out-of-bounds domain is refused before its boundary is built: a
/// `gp:` boundary on 100×100 subdomains would first factorize a kernel
/// matrix 3 200 boundary points wide on the connection thread (seconds in
/// a release build). The error line names the bound and arrives at once,
/// and the connection goes on serving.
#[test]
fn an_out_of_bounds_gp_domain_is_refused_before_its_boundary_is_built() {
    let svc = Arc::new(service(ServeConfig {
        workers: 1,
        ..Default::default()
    }));
    let server = TcpServer::bind(Arc::clone(&svc), "127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    // A guard against a hang, not the bound under test.
    let patience = std::time::Duration::from_secs(30);
    stream.set_read_timeout(Some(patience)).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: &str| {
        let t0 = std::time::Instant::now();
        writer.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .unwrap_or_else(|e| panic!("no reply to {line:?} within {patience:?}: {e}"));
        let v = mosaic_flow::telemetry::JsonValue::parse(reply.trim())
            .unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"));
        (v, t0.elapsed())
    };

    let (v, took) = exchange("{\"id\":5,\"domain\":\"100x100\",\"bc\":\"gp:1\"}\n");
    assert!(took.as_secs_f64() < 0.5, "the refusal took {took:?}");
    assert_eq!(v.get("id").and_then(|x| x.as_f64()), Some(5.0));
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("error"));
    let message = v.get("message").and_then(|s| s.as_str()).unwrap_or("");
    assert!(message.contains("out of bounds"), "{message}");
    assert_eq!(
        svc.stats().accepted,
        0,
        "the refused request reached the queue"
    );

    let (v, _) = exchange("{\"id\":6,\"domain\":\"1x1\",\"bc\":\"gp:1\"}\n");
    assert_eq!(
        v.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{v:?}"
    );
}

/// A line of 10 000 `[`s fits under the request-line cap, and a parser
/// that recursed once per `[` overflowed the connection thread's stack,
/// which aborts the process. It gets an error line, and the server then
/// answers a valid request on the same connection.
#[test]
fn a_line_of_ten_thousand_brackets_gets_an_error_and_the_server_serves_on() {
    let svc = Arc::new(service(ServeConfig {
        workers: 1,
        ..Default::default()
    }));
    let server = TcpServer::bind(Arc::clone(&svc), "127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: String| {
        writer.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        mosaic_flow::telemetry::JsonValue::parse(reply.trim())
            .unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"))
    };
    let status = |v: &mosaic_flow::telemetry::JsonValue| {
        v.get("status").and_then(|s| s.as_str()).map(str::to_string)
    };

    let deep = exchange(format!("{}\n", "[".repeat(10_000)));
    assert_eq!(status(&deep), Some("error".into()), "{deep:?}");
    let good = exchange("{\"id\":4,\"domain\":\"1x1\",\"bc\":\"sin\"}\n".into());
    assert_eq!(status(&good), Some("ok".into()), "{good:?}");
    assert_eq!(good.get("id").and_then(|x| x.as_f64()), Some(4.0));
}

#[test]
fn request_traces_decompose_wall_time_completely() {
    use mosaic_flow::reqtrace;
    // 12 concurrent clients against one worker force real batches; each
    // submits with a pre-minted trace context so its trace can be found
    // in the global request log even with other tests' requests
    // interleaved in the same process.
    let svc = Arc::new(service(ServeConfig {
        workers: 1,
        ..Default::default()
    }));
    svc.prewarm(1, 1, 12);
    let ctxs: Vec<_> = (0..12u64).map(|_| reqtrace::TraceContext::root()).collect();
    let clients: Vec<_> = ctxs
        .iter()
        .enumerate()
        .map(|(c, &ctx)| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let d = DomainSpec::new(spec(), 1, 1);
                let req = SolveRequest::new(1, 1, random_bc(d.boundary_len(), 400 + c as u64));
                loop {
                    match svc.solve_blocking_traced(req.clone(), ctx) {
                        Ok(_) => return,
                        Err(ServeError::Busy { retry_after_ms }) => {
                            std::thread::sleep(std::time::Duration::from_millis(retry_after_ms))
                        }
                        Err(e) => panic!("traced client {c}: {e}"),
                    }
                }
            })
        })
        .collect();
    for h in clients {
        h.join().unwrap();
    }

    // Replies are sent before the worker hands the batch's records to the
    // global log; give them a moment to land.
    let mut traces = Vec::new();
    for _ in 0..500 {
        traces = reqtrace::recent(reqtrace::RECENT_CAP);
        if ctxs.iter().all(|c| traces.iter().any(|t| t.req == c.req)) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    for ctx in &ctxs {
        let t = traces
            .iter()
            .find(|t| t.req == ctx.req)
            .unwrap_or_else(|| panic!("no trace drained for request {}", ctx.req));
        // The span tree is complete: exactly one span per phase, no
        // orphans (every record carries this request's id), and every
        // span inside the request's [enqueue, reply-sent] window.
        assert_eq!(
            t.nspans,
            5,
            "req {}: spans {:?}",
            t.req,
            &t.spans[..t.nspans as usize]
        );
        for ph in [
            reqtrace::Phase::Queue,
            reqtrace::Phase::BatchWait,
            reqtrace::Phase::Solve,
            reqtrace::Phase::ReplyWait,
            reqtrace::Phase::Serialize,
        ] {
            assert_eq!(
                t.spans[..t.nspans as usize]
                    .iter()
                    .filter(|s| s.phase == ph)
                    .count(),
                1,
                "req {}: phase {ph:?} missing or duplicated",
                t.req
            );
        }
        let end = t.enqueued_us + t.total_us;
        for s in &t.spans[..t.nspans as usize] {
            assert_eq!(s.req, t.req, "orphaned span in req {}'s trace", t.req);
            assert!(
                s.start_us >= t.enqueued_us && s.start_us + s.dur_us <= end,
                "req {}: span {s:?} outside [{}, {end}]",
                t.req,
                t.enqueued_us
            );
        }
        // The five phases tile the request's wall clock: they are
        // contiguous by construction (reply-wait is the sibling replies
        // sent ahead of this one), so on the in-process path their sum
        // is the end-to-end time, to the microsecond.
        let sum = t.queue_us + t.batch_wait_us + t.solve_us + t.reply_wait_us + t.serialize_us;
        assert_eq!(
            sum, t.total_us,
            "req {}: phases cover {sum}us of {}us wall time",
            t.req, t.total_us
        );
        assert!(t.iterations >= 1, "req {}: no iteration audit", t.req);
        assert!(t.batch >= 1 && t.worker as usize >= mosaic_flow::serve::WORKER_RANK_BASE);
    }
}

/// Warm-up sizes registers, it runs no solve per batch size, and it
/// reaches every lane of every worker's workspace: after
/// `prewarm(1, 1, 32)`, `run_many` bursts of every size up to 32 on the
/// service's solver — one per worker, side by side, each under a worker's
/// lane budget — leave every pool's miss count where warm-up left it. The
/// network is the benchmark's trunk width, so launches fan out over lanes
/// where the host gives a worker more than one.
#[test]
fn prewarm_reserves_every_lane_of_every_worker_in_a_handful_of_launches() {
    let mut cfg = SdNetConfig::small(spec().boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![48, 48];
    cfg.coord_fourier = 2;
    let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(12));
    let d = DomainSpec::new(spec(), 1, 1);
    let one_sweep = MfpConfig {
        max_iters: 1,
        ..Default::default()
    };
    for workers in [1, 2] {
        let svc = SolveService::new(
            PlanSolver::new(net.clone(), spec()),
            ServeConfig {
                workers,
                ..Default::default()
            },
        );
        let launches = svc.solver().launch_count();
        svc.prewarm(1, 1, 32);
        assert!(svc.solver().launch_count() - launches <= 4);
        assert_eq!(svc.solver().compiled_plans(), 2);
        let misses = svc.solver().pool_stats().misses;
        for k in 1..=32 {
            std::thread::scope(|s| {
                for w in 0..workers {
                    let (svc, one_sweep) = (&svc, &one_sweep);
                    s.spawn(move || {
                        let _lane = mosaic_flow::tensor::par::compute_lanes(workers);
                        let bcs: Vec<Tensor> = (0..k)
                            .map(|i| random_bc(d.boundary_len(), (w * k + i) as u64))
                            .collect();
                        Mfp::new(svc.solver(), d).run_many(&bcs, one_sweep);
                    });
                }
            });
            assert_eq!(
                svc.solver().pool_stats().misses,
                misses,
                "{workers} workers, bursts of {k}: a lane missed its pool after prewarm"
            );
        }
    }
}

#[test]
fn backpressure_is_typed_and_recoverable_end_to_end() {
    // Fill a tiny queue (no workers drain it), watch Busy come back with
    // a usable retry hint, then confirm a healthy service accepts again.
    let svc = service(ServeConfig {
        workers: 0,
        queue_depth: 2,
        ..Default::default()
    });
    let d = DomainSpec::new(spec(), 1, 1);
    let bc = random_bc(d.boundary_len(), 5);
    let _held: Vec<_> = (0..2)
        .map(|_| svc.submit(SolveRequest::new(1, 1, bc.clone())).unwrap())
        .collect();
    match svc.submit(SolveRequest::new(1, 1, bc.clone())) {
        Err(ServeError::Busy { retry_after_ms }) => assert!(retry_after_ms >= 1),
        other => panic!("expected Busy, got {other:?}"),
    }
    assert_eq!(svc.stats().rejected, 1);
}

//! **Serve load test**: cross-request batching vs per-request launches
//! in the long-lived solve service.
//!
//! A single MFP request issues tiny `[1, L]` launches (a 1×1 domain is
//! two cross sweeps plus one dense fill), so a serve worker pays the
//! full per-launch fixed cost — plan-cache probe, workspace checkout,
//! interpreter dispatch — for barely any arithmetic. The serve
//! scheduler drains every queued request sharing a batch key into one
//! `Mfp::run_many`, stacking their boundaries into shared fat
//! compiled-plan launches. This binary drives the in-process service
//! closed-loop with the default batch budget and with a zero budget
//! (`max_points: 0`, one request per batch) and gates:
//!
//! * `serve.req_per_s` — sustained completed requests per second
//!   (batched path),
//! * `serve.p99_ms` — client-observed 99th-percentile latency (batched),
//! * `serve.speedup_vs_no_batch` — batched ÷ one-request-per-batch
//!   req/s, the machine-independent win: ten runs on a 2-vCPU x86-64 host
//!   read 1.78–2.28× (median 2.06×), and the gate fails below 1.46×
//!   (baseline 2.25, tol 0.35),
//! * `serve.batch_occupancy` — mean requests per drained batch,
//! * `serve.warm_allocs` — workspace-pool misses after warmup; must be 0,
//! * `reqtrace.warm_allocs` — heap allocations on the request-tracing
//!   recording path after warmup; must be 0,
//! * `reqtrace.overhead` — batched req/s with tracing off ÷ tracing on;
//!   must stay within 3% of 1.0.
//!
//! The closed-loop clients also count the `Busy` replies they absorb
//! during the timed window (`serve.retries` gauge) — retried requests
//! consume queue capacity even though only the final attempt completes —
//! and the run ends with an in-process `/healthz` probe asserting the
//! SLO burn rates stayed inside the bench budgets.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_serve [--json out.json]
//!     [--clients C] [--secs S] [--workers W] [--open-loop RATE]
//!     [--connect HOST:PORT] [--reqs N] [--latency-out PATH]
//! ```
//!
//! `--open-loop RATE` appends an open-loop phase (seeded exponential
//! arrivals at RATE req/s, no retry on `Busy`) reporting delivered
//! throughput and rejection rate. `--connect HOST:PORT` switches to
//! driving a running `mosaic-flow serve` over TCP instead (the CI
//! `serve-loadtest` job's mode), with client-side percentiles and an
//! optional `--latency-out` JSON artifact.

use mf_bench::gate::Metric;
use mf_bench::*;
use mf_data::SubdomainSpec;
use mf_mfp::{PlanSolver, SubdomainSolver};
use mf_nn::{SdNet, SdNetConfig};
use mf_serve::{ServeConfig, ServeError, SolveRequest, SolveService};
use mf_telemetry::{JsonValue, JsonWriter};
use mf_tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn arg_val(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

fn get<T: std::str::FromStr>(name: &str, default: T) -> T {
    arg_val(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Nearest-rank percentile of an unsorted sample, in place.
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * xs.len() as f64).ceil().max(1.0) as usize;
    xs[rank.min(xs.len()) - 1]
}

/// The load-test network: the narrow-trunk regime from
/// `repro_mfp_throughput`, where per-launch fixed cost dominates the
/// GEMM work and batching has real leverage.
fn serve_net(spec: SubdomainSpec) -> SdNet {
    let mut cfg = SdNetConfig::small(spec.boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![16];
    cfg.coord_fourier = 16;
    SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(7))
}

/// A seeded random boundary walk for a 1×1 request.
fn request_bc(len: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_fn(1, len, |_, _| rng.gen_range(-1.0..1.0))
}

struct LoadResult {
    completed: u64,
    /// `Busy` replies clients absorbed (and retried) during the timed
    /// window — invisible in `completed` but real queueing pressure.
    retries: u64,
    elapsed: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    occupancy: f64,
    launches: u64,
    warm_allocs: u64,
    /// Heap allocations the reqtrace recording path made after warmup
    /// (ring/scope creation past `mark_warm`); must stay 0.
    reqtrace_warm_allocs: u64,
}

impl LoadResult {
    fn req_per_s(&self) -> f64 {
        self.completed as f64 / self.elapsed
    }
}

/// Closed-loop load under a `max_points` batch budget: `clients` threads
/// each submit-and-wait in a tight loop for `secs` after a joint warmup
/// barrier. Latencies are measured client-side (submit to reply, wall
/// clock).
fn run_closed_loop(max_points: usize, clients: usize, workers: usize, secs: f64) -> LoadResult {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let cfg = ServeConfig {
        workers,
        max_points,
        ..ServeConfig::default()
    };
    let service = Arc::new(SolveService::new(
        PlanSolver::new(serve_net(spec), spec),
        cfg,
    ));
    // Reserve every worker's workspace for the largest batch the backlog
    // can produce (`clients` requests per drain) before any client
    // arrives; steady state must not allocate, and the warm-alloc gate
    // below asserts it.
    service.prewarm(1, 1, clients);
    let bc_len = 4 * (spec.m - 1); // 1×1 domain perimeter
                                   // A short concurrent warmup on top settles caches, branch
                                   // predictors, and thread scheduling before the timed window. +1:
                                   // the main thread joins the barrier so it can snapshot the
                                   // warm-alloc counter at the phase boundary.
    let warm_secs = (secs * 0.25).clamp(0.25, 1.0);
    let barrier = Arc::new(Barrier::new(clients + 1));
    let completed = Arc::new(AtomicU64::new(0));
    // Busy replies absorbed during the timed window. Dropping these from
    // the books understates load: a retried request consumed queue
    // capacity and client time even though only its final attempt lands
    // in `completed`.
    let retries = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let completed = Arc::clone(&completed);
            let retries = Arc::clone(&retries);
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let mut n = 0u64;
                let solve = |seq: u64, count_retries: bool| {
                    let req = SolveRequest::new(1, 1, request_bc(bc_len, (c as u64) << 32 | seq));
                    let t0 = Instant::now();
                    loop {
                        match service.solve_blocking(req.clone()) {
                            Ok(_) => return t0.elapsed().as_secs_f64() * 1e3,
                            Err(ServeError::Busy { retry_after_ms }) => {
                                if count_retries {
                                    retries.fetch_add(1, Ordering::Relaxed);
                                }
                                std::thread::sleep(Duration::from_millis(retry_after_ms));
                            }
                            Err(e) => panic!("load client failed: {e}"),
                        }
                    }
                };
                let warm0 = Instant::now();
                while warm0.elapsed().as_secs_f64() < warm_secs {
                    solve(n, false);
                    n += 1;
                }
                barrier.wait();
                let t0 = Instant::now();
                while t0.elapsed().as_secs_f64() < secs {
                    lat.push(solve(n, true));
                    n += 1;
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                lat
            })
        })
        .collect();

    barrier.wait();
    // Warmup is over: from here on, neither the serve workspace pool nor
    // the request log (its ring was reserved by the workers) may allocate.
    mf_reqtrace::mark_warm();
    mf_reqtrace::reset_warm_allocs();
    let warm0 = service.solver().warm_allocs();
    let launches0 = service.solver().launch_count() as u64;
    let mut lat: Vec<f64> = Vec::new();
    for h in handles {
        lat.extend(h.join().expect("load client panicked"));
    }
    let sched = service.scheduler_stats();
    LoadResult {
        completed: completed.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        elapsed: secs,
        p50: percentile(&mut lat, 50.0),
        p95: percentile(&mut lat, 95.0),
        p99: percentile(&mut lat, 99.0),
        occupancy: sched.occupancy(),
        launches: service.solver().launch_count() as u64 - launches0,
        warm_allocs: service.solver().warm_allocs() - warm0,
        reqtrace_warm_allocs: mf_reqtrace::warm_allocs(),
    }
}

/// Interleaved A/B of the request-tracing overhead: one batched service,
/// free-running closed-loop clients, and alternating 100 ms slices with
/// request tracing enabled / disabled. Two back-to-back full runs drift
/// by ±10% on a busy box — far too noisy to gate a 3% budget —
/// but adjacent slices share thermal and scheduling conditions, so the
/// off ÷ on rate ratio isolates the tracing cost.
fn reqtrace_overhead(clients: usize, workers: usize, secs: f64) -> f64 {
    use std::sync::atomic::AtomicBool;
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let service = Arc::new(SolveService::new(
        PlanSolver::new(serve_net(spec), spec),
        cfg,
    ));
    service.prewarm(1, 1, clients);
    let bc_len = 4 * (spec.m - 1);
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let req = SolveRequest::new(1, 1, request_bc(bc_len, (c as u64) << 32 | n));
                    n += 1;
                    loop {
                        match service.solve_blocking(req.clone()) {
                            Ok(_) => break,
                            Err(ServeError::Busy { retry_after_ms }) => {
                                std::thread::sleep(Duration::from_millis(retry_after_ms));
                            }
                            Err(e) => panic!("overhead client failed: {e}"),
                        }
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_secs_f64(0.5)); // settle
    let slice = Duration::from_millis(100);
    // Guard after each toggle: requests in flight when the switch flips
    // straddle both regimes and would smear the measurement.
    let guard = Duration::from_millis(20);
    let measure = |on: bool| {
        mf_reqtrace::set_enabled(on);
        std::thread::sleep(guard);
        let c0 = completed.load(Ordering::Relaxed);
        let t0 = Instant::now();
        std::thread::sleep(slice);
        let dt = t0.elapsed().as_secs_f64();
        (completed.load(Ordering::Relaxed) - c0) as f64 / dt
    };
    let npairs = ((secs / 0.2).ceil() as usize).max(5);
    let mut ratios: Vec<f64> = (0..npairs)
        .map(|_| {
            let on_rate = measure(true);
            let off_rate = measure(false);
            off_rate / on_rate
        })
        .collect();
    mf_reqtrace::set_enabled(true);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("overhead client panicked");
    }
    // Median of paired off÷on ratios: pairing adjacent slices cancels
    // slow drift, and the median discards scheduler-hiccup outliers.
    // Above 1.0 means recording costs throughput.
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[ratios.len() / 2]
}

/// Open-loop load: seeded exponential arrivals at `rate` req/s, no
/// retry on `Busy` — rejected arrivals are dropped (that is what the
/// backpressure contract is for). Latency comes from the worker-stamped
/// queue-wait + solve time.
fn run_open_loop(rate: f64, workers: usize, secs: f64) {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let service = SolveService::new(PlanSolver::new(serve_net(spec), spec), cfg);
    let bc_len = 4 * (spec.m - 1);
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let mut pending = Vec::new();
    let mut rejected = 0u64;
    let mut offered = 0u64;
    let t0 = Instant::now();
    let mut next = 0.0f64;
    while next < secs {
        let now = t0.elapsed().as_secs_f64();
        if now < next {
            std::thread::sleep(Duration::from_secs_f64(next - now));
        }
        offered += 1;
        let req = SolveRequest::new(1, 1, request_bc(bc_len, offered));
        match service.submit(req) {
            Ok(rx) => pending.push(rx),
            Err(ServeError::Busy { .. }) => rejected += 1,
            Err(e) => panic!("open-loop submit failed: {e}"),
        }
        let u: f64 = rng.gen_range(0.0..1.0);
        next += -(1.0 - u).ln() / rate;
    }
    let mut lat: Vec<f64> = pending
        .into_iter()
        .filter_map(|rx| rx.recv().ok().and_then(|r| r.ok()).map(|r| r.latency_ms))
        .collect();
    let delivered = lat.len() as u64;
    println!("\nopen loop @ {rate:.0} req/s offered, {secs:.0}s:");
    println!("  offered {offered}, delivered {delivered}, rejected {rejected} (busy)");
    println!(
        "  latency p50/p95/p99: {:.2} / {:.2} / {:.2} ms (queue wait + solve)",
        percentile(&mut lat, 50.0),
        percentile(&mut lat, 95.0),
        percentile(&mut lat, 99.0),
    );
}

/// Drive a running `mosaic-flow serve` over TCP, closed-loop: the CI
/// `serve-loadtest` mode. Client-side percentiles; `Busy` replies are
/// honored with the server's retry hint.
fn run_tcp(addr: &str, clients: usize, reqs_per_client: u64, latency_out: Option<String>) {
    use std::io::{BufRead, BufReader, Write};
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(&addr)
                    .unwrap_or_else(|e| panic!("connect {addr}: {e}"));
                stream.set_nodelay(true).ok();
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut writer = stream;
                let mut lat = Vec::new();
                let mut busy = 0u64;
                for seq in 0..reqs_per_client {
                    let id = (c as u64) << 32 | seq;
                    let line = JsonWriter::object(|w| {
                        w.field("id", id)
                            .field("domain", "1x1")
                            .field("bc", format!("rand:{id}").as_str())
                            .field("max_iters", 100u32)
                            .field("tol", 1e-4);
                    }) + "\n";
                    let t0 = Instant::now();
                    loop {
                        writer.write_all(line.as_bytes()).expect("write request");
                        let mut reply = String::new();
                        reader.read_line(&mut reply).expect("read reply");
                        let doc = JsonValue::parse(reply.trim()).ok();
                        match doc.as_ref().and_then(|d| d.get("status")?.as_str()) {
                            Some("busy") => {
                                busy += 1;
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Some("ok") => {
                                lat.push(t0.elapsed().as_secs_f64() * 1e3);
                                break;
                            }
                            _ => panic!("unexpected reply: {reply}"),
                        }
                    }
                }
                (lat, busy)
            })
        })
        .collect();
    let t0 = Instant::now();
    let mut lat = Vec::new();
    let mut busy = 0u64;
    for h in handles {
        let (l, b) = h.join().expect("tcp client panicked");
        lat.extend(l);
        busy += b;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let total = lat.len() as u64;
    let req_per_s = total as f64 / elapsed;
    let (p50, p95, p99) = (
        percentile(&mut lat, 50.0),
        percentile(&mut lat, 95.0),
        percentile(&mut lat, 99.0),
    );
    println!("TCP load against {addr}: {clients} clients x {reqs_per_client} requests");
    println!("  completed {total} in {elapsed:.2}s = {req_per_s:.0} req/s ({busy} busy retries)");
    println!("  latency p50/p95/p99: {p50:.2} / {p95:.2} / {p99:.2} ms (client wall clock)");
    if let Some(path) = latency_out {
        let body = JsonWriter::object(|w| {
            w.field("mode", "tcp")
                .field("addr", addr)
                .field("clients", clients)
                .field("completed", total)
                .field("elapsed_s", elapsed)
                .field("req_per_s", req_per_s)
                .field("busy_retries", busy)
                .field("p50_ms", p50)
                .field("p95_ms", p95)
                .field("p99_ms", p99);
            // Each sample rounded to 0.1 µs keeps the artifact small.
            w.key("latencies_ms").arr(|w| {
                for l in lat.iter().take(10_000) {
                    w.val((l * 1e4).round() / 1e4);
                }
            });
        }) + "\n";
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("wrote latency artifact to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    emit_metrics(&[
        (
            "serve.tcp_req_per_s".to_string(),
            Metric {
                value: req_per_s,
                tol: 0.6,
                higher_better: true,
            },
        ),
        (
            "serve.tcp_p99_ms".to_string(),
            Metric {
                value: p99,
                tol: 1.5,
                higher_better: false,
            },
        ),
    ]);
}

fn main() {
    let trace = init_telemetry();

    if let Some(addr) = arg_val("--connect") {
        let clients = get("--clients", 4);
        let reqs = get("--reqs", if full_scale() { 2000 } else { 400 });
        run_tcp(&addr, clients, reqs, arg_val("--latency-out"));
        finish_trace(trace);
        return;
    }

    let clients = get("--clients", 16);
    let workers = get("--workers", 1);
    let secs = get("--secs", if full_scale() { 10.0 } else { 3.0 });

    println!(
        "serve load test: {clients} closed-loop clients, {workers} workers, {secs:.0}s per phase"
    );
    // Generous SLO budgets for the bench box: the in-process health
    // check below asserts the burn-rate *wiring* (finite burns, healthy
    // verdict), not production latency targets.
    mf_reqtrace::set_slo(mf_reqtrace::SloConfig {
        p99_ms: 10_000.0,
        error_rate: 1.5,
        conv_fail_rate: 1.5,
    });
    // The baseline arm: a zero budget caps every batch at one request.
    let unbatched = run_closed_loop(0, clients, workers, secs);
    let default_points = ServeConfig::default().max_points;
    let batched = run_closed_loop(default_points, clients, workers, secs);
    let speedup = batched.req_per_s() / unbatched.req_per_s();

    // A/B the request-tracing overhead on the batched path: alternating
    // on/off slices against one service. Ratio ≈ 1.0; the baseline
    // gates it at ≤ 3% (tracing must stay invisible in throughput).
    let overhead = reqtrace_overhead(clients, workers, secs);

    print_table(
        "serve throughput (1x1 BVPs, closed loop)",
        &[
            "mode",
            "req/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "launches",
            "occupancy",
        ],
        &[
            vec![
                "1 req/batch".into(),
                format!("{:.0}", unbatched.req_per_s()),
                format!("{:.2}", unbatched.p50),
                format!("{:.2}", unbatched.p95),
                format!("{:.2}", unbatched.p99),
                format!("{}", unbatched.launches),
                "-".into(),
            ],
            vec![
                "batched".into(),
                format!("{:.0}", batched.req_per_s()),
                format!("{:.2}", batched.p50),
                format!("{:.2}", batched.p95),
                format!("{:.2}", batched.p99),
                format!("{}", batched.launches),
                format!("{:.1}", batched.occupancy),
            ],
        ],
    );
    println!(
        "  speedup: {speedup:.2}x req/s, warm pool misses: {}",
        batched.warm_allocs
    );
    println!(
        "  busy retries: {} (batched) / {} (1 req/batch); reqtrace overhead {:.3}x, \
         warm trace allocs: {}",
        batched.retries, unbatched.retries, overhead, batched.reqtrace_warm_allocs
    );
    mf_telemetry::gauge("serve.retries").set(batched.retries as f64);
    assert_eq!(
        batched.warm_allocs, 0,
        "serve hot path allocated on a warm launch"
    );

    // End-to-end reqtrace health: the workers logged the completed
    // requests, and the SLO machinery reports healthy within the bench
    // budgets set above.
    assert!(
        mf_reqtrace::completed() > 0,
        "no request traces reached the recent ring"
    );
    let sample = mf_reqtrace::recent(32);
    assert!(
        sample.iter().any(|t| t.solve_us > 0),
        "logged traces carry no solve spans"
    );
    mf_reqtrace::set_ready(true);
    let (healthy, body) = mf_reqtrace::healthz();
    assert!(healthy, "serve SLO burn exceeded bench budget: {body}");
    let (ready, _) = mf_reqtrace::readyz();
    assert!(ready, "readiness flag did not stick");

    if let Some(rate) = arg_val("--open-loop").and_then(|v| v.parse::<f64>().ok()) {
        run_open_loop(rate, workers, secs);
    }

    emit_metrics(&[
        (
            "serve.req_per_s".to_string(),
            Metric {
                value: batched.req_per_s(),
                tol: 0.5,
                higher_better: true,
            },
        ),
        (
            "serve.p99_ms".to_string(),
            Metric {
                value: batched.p99,
                tol: 1.5,
                higher_better: false,
            },
        ),
        (
            "serve.speedup_vs_no_batch".to_string(),
            Metric {
                value: speedup,
                tol: 0.3,
                higher_better: true,
            },
        ),
        (
            "serve.batch_occupancy".to_string(),
            Metric {
                value: batched.occupancy,
                tol: 0.5,
                higher_better: true,
            },
        ),
        (
            "serve.warm_allocs".to_string(),
            Metric {
                value: batched.warm_allocs as f64,
                tol: 0.0,
                higher_better: false,
            },
        ),
        (
            "reqtrace.warm_allocs".to_string(),
            Metric {
                value: batched.reqtrace_warm_allocs as f64,
                tol: 0.0,
                higher_better: false,
            },
        ),
        (
            "reqtrace.overhead".to_string(),
            Metric {
                value: overhead,
                tol: 0.03,
                higher_better: false,
            },
        ),
    ]);
    finish_trace(trace);
}

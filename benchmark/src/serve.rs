//! `serve_lines`: the request path of `mosaic-flow serve` with the socket
//! stubbed. One generator thread keeps [`OUTSTANDING`] requests in flight
//! against an in-process `SolveService` (a closed loop of that many
//! clients: each reply is rendered and its slot refilled at once). A unit is
//! one request from wire line in to wire line out, driven as
//! `tcp::respond` drives it: `parse_request` → `to_solve_request` →
//! `submit` → reply → `render_ok`.

use crate::fixture::{self, SPEC};
use crate::run::{Run, Size};
use crate::spans::{Recorder, SpanId, NONE};
use crate::{host, inputs, solve, stats};
use mf_mfp::{DomainSpec, Mfp, MfpConfig, PlanSolver};
use mf_reqtrace::TraceContext;
use mf_serve::{protocol, ServeConfig, ServeError, SolveResponse, SolveService};
use mf_telemetry::JsonValue;
use mf_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::time::Instant;

pub const OUTSTANDING: usize = 32;
pub const POOL: usize = 256;
/// Every this-many-th reply line is kept and parsed back after the window.
const SAMPLE_EVERY: usize = 64;

/// What `mosaic-flow serve --workers 1` does before it accepts connections.
pub fn start_service() -> Result<SolveService, String> {
    let cfg = ServeConfig {
        workers: 1,
        ..Default::default()
    };
    let service = SolveService::new(PlanSolver::new(fixture::load()?, SPEC), cfg);
    mf_reqtrace::set_slo(mf_reqtrace::SloConfig::default());
    service.prewarm(1, 1, OUTSTANDING);
    mf_reqtrace::mark_warm();
    mf_reqtrace::set_ready(true);
    Ok(service)
}

/// The wire line of pool entry `k`: an explicit 32-value boundary array,
/// every digit kept, the grid asked for.
pub fn request_line(k: usize, bc: &Tensor) -> String {
    let vals: Vec<String> = bc.as_slice().iter().map(|v| format!("{v:?}")).collect();
    format!(
        "{{\"id\":{k},\"domain\":\"1x1\",\"bc\":[{}],\"want_grid\":true}}",
        vals.join(",")
    )
}

struct InFlight {
    rx: Receiver<Result<SolveResponse, ServeError>>,
    /// Index of the request in the window and of its boundary in the pool.
    i: usize,
    k: usize,
    req: u64,
    t0: Instant,
    unit: SpanId,
    wait: SpanId,
}

/// Line in → submitted. `None` when the service refused the request.
fn send(
    service: &SolveService,
    conn: u64,
    lines: &[String],
    i: usize,
    rec: &mut Recorder,
) -> Option<InFlight> {
    let k = i % POOL;
    rec.tid = (i % OUTSTANDING) as u32;
    let t0 = Instant::now();
    let unit = rec.begin("unit", NONE, i as u32);
    let s = rec.begin("serve.parse", unit, i as u32);
    let wire = protocol::parse_request(&lines[k]).ok()?;
    rec.end(s);
    let s = rec.begin("serve.submit", unit, i as u32);
    let req = protocol::to_solve_request(&wire, service.spec());
    let ctx = TraceContext::child_of(conn);
    mf_telemetry::set_current_request(ctx.req);
    let rx = service.submit_traced(req, ctx).ok()?;
    rec.end(s);
    let wait = rec.begin("serve.wait", unit, i as u32);
    Some(InFlight {
        rx,
        i,
        k,
        req: ctx.req,
        t0,
        unit,
        wait,
    })
}

pub fn run(seed: u64, size: &Size) -> Result<Run, String> {
    let pool = inputs::jittered_pool(SPEC.boundary_len(), POOL, seed);
    let lines: Vec<String> = pool
        .iter()
        .enumerate()
        .map(|(k, bc)| request_line(k, bc))
        .collect();

    // Set-up from fresh state: weights → service (worker spawned, plans
    // compiled, workspaces grown by prewarm) → first request answered.
    let set_up = || -> Result<(SolveService, f64), String> {
        let t = Instant::now();
        let svc = start_service()?;
        let wire = protocol::parse_request(&lines[0])?;
        let resp = svc.solve_blocking(protocol::to_solve_request(&wire, svc.spec()));
        std::hint::black_box(protocol::render_ok(0, &resp.map_err(|e| e.to_string())?));
        Ok((svc, t.elapsed().as_secs_f64()))
    };
    let warm_from = Instant::now();
    let (service, cold) = set_up()?;
    let mut setup_s = vec![cold];
    let conn = mf_reqtrace::next_id();

    // Untimed warm-up of the pipelined path.
    let mut rec = Recorder::new(false, Instant::now(), 0);
    let mut flight: VecDeque<InFlight> = VecDeque::new();
    let mut i = 0;
    while warm_from.elapsed() < size.warmup {
        if flight.len() == OUTSTANDING {
            let f = flight.pop_front().expect("non-empty");
            let _ = f.rx.recv();
        }
        flight.extend(send(&service, conn, &lines, i, &mut rec));
        i += 1;
    }
    for f in flight.drain(..) {
        let _ = f.rx.recv();
    }

    let n = size.units;
    let mut unit_ms = Vec::with_capacity(n);
    let mut done_s = Vec::with_capacity(n);
    let mut worker_ms = Vec::with_capacity(n);
    // Per reply: pool index, bits of the reply's mean, converged.
    let mut replies: Vec<(usize, u64, bool)> = Vec::with_capacity(n);
    // Index into `replies` and the rendered line of every sampled reply.
    let mut sampled: Vec<(usize, String)> = Vec::new();
    let mut refused = 0usize;
    let sched0 = service.scheduler_stats();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut next = 0;
    while done_s.len() + refused < n {
        while flight.len() < OUTSTANDING && next < n {
            size.enter(next, &mut rec);
            match send(&service, conn, &lines, next, &mut rec) {
                Some(f) => flight.push_back(f),
                None => refused += 1,
            }
            next += 1;
        }
        let Some(f) = flight.pop_front() else {
            continue;
        };
        let reply = f.rx.recv();
        // The spans of a request are on or off as a whole: `NONE` ids
        // from an untraced send make these calls no-ops.
        rec.set_on(f.unit != NONE);
        rec.tid = (f.i % OUTSTANDING) as u32;
        rec.end(f.wait);
        let Ok(Ok(resp)) = reply else {
            refused += 1;
            continue;
        };
        let s = rec.begin("serve.render", f.unit, f.i as u32);
        let t_ser = mf_telemetry::now_us();
        let line = protocol::render_ok(f.k as u64, &resp);
        mf_reqtrace::note_serialize(f.req, t_ser, mf_telemetry::now_us().saturating_sub(t_ser));
        rec.end(s);
        rec.end(f.unit);
        unit_ms.push(f.t0.elapsed().as_secs_f64() * 1e3);
        done_s.push(start.elapsed().as_secs_f64());
        worker_ms.push(resp.latency_ms);
        replies.push((f.k, resp.mean.to_bits(), resp.converged));
        if f.i % SAMPLE_EVERY == 0 {
            sampled.push((replies.len() - 1, line));
        } else {
            std::hint::black_box(line);
        }
    }
    mf_telemetry::set_current_request(0);
    let cpu_s = host::cpu_seconds() - cpu0;
    let sched = service.scheduler_stats();
    drop(service);
    let peak_rss_mb = host::peak_rss_mb();
    for _ in 1..size.setup_reps {
        setup_s.push(set_up()?.1);
    }

    // Untimed: every pool entry solved alone through `Mfp::run` with the
    // wire defaults, and its multigrid reference.
    let solo_solver = PlanSolver::new(fixture::load()?, SPEC);
    let d = DomainSpec::new(SPEC, 1, 1);
    let cfg = MfpConfig {
        max_iters: 100,
        tol: 1e-4,
        ..Default::default()
    };
    let solo: Vec<Tensor> = pool
        .iter()
        .map(|bc| Mfp::new(&solo_solver, d).run(bc, &cfg).grid)
        .collect();
    // The service's own formula for `mean`, on the solo grids.
    let solo_mean: Vec<u64> = solo
        .iter()
        .map(|g| (g.as_slice().iter().sum::<f64>() / g.numel() as f64).to_bits())
        .collect();
    let mut bad: Vec<bool> = replies
        .iter()
        .map(|(k, mean, conv)| !(*conv && *mean == solo_mean[*k]))
        .collect();
    for (r, line) in &sampled {
        let k = replies[*r].0;
        let parsed = JsonValue::parse(line.trim()).ok();
        let grid: Option<Vec<f64>> = parsed
            .as_ref()
            .and_then(|v| v.get("grid"))
            .and_then(JsonValue::as_arr)
            .and_then(|a| a.iter().map(JsonValue::as_f64).collect());
        let id = parsed
            .as_ref()
            .and_then(|v| v.get("id"))
            .and_then(JsonValue::as_f64);
        let same = grid.is_some_and(|g| {
            g.len() == solo[k].numel()
                && g.iter()
                    .zip(solo[k].as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !(same && id == Some(k as f64)) {
            bad[*r] = true;
        }
    }
    let failed = refused + bad.iter().filter(|b| **b).count();
    let mut mae = 0.0;
    let mut scale = 0.0;
    for (bc, g) in pool.iter().zip(&solo) {
        let r = solve::reference(&d, bc)?;
        mae += g.mean_abs_diff(&r);
        scale += r.as_slice().iter().map(|v| v.abs()).sum::<f64>() / r.numel() as f64;
    }

    let batches = (sched.batches - sched0.batches).max(1) as f64;
    let facts = vec![
        ("serve.parse_us", rec.median_us("serve.parse")),
        ("serve.submit_us", rec.median_us("serve.submit")),
        ("serve.render_us", rec.median_us("serve.render")),
        (
            "serve.batch_occupancy",
            (sched.drained - sched0.drained) as f64 / batches,
        ),
        ("serve.worker_latency_ms_p50", stats::median(&worker_ms)),
        ("serve.busy_share", refused as f64 / n as f64),
    ];
    // Refused requests have no duration; they are failures, and the
    // timing vectors hold the answered ones.
    Ok(Run {
        setup_s,
        unit_ms,
        done_s,
        cpu_s,
        peak_rss_mb,
        failed,
        accuracy_err: mae / scale,
        facts,
        recorders: vec![rec],
    })
}

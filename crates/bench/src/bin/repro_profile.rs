//! **Profiler overhead**: the continuous profiler's cost on the warm
//! inference hot path, plus the exposition server's scrape latency, for
//! the CI bench gate.
//!
//! The zone timers (`mf_profile::zone!`) are on by default inside the
//! per-kernel hot loops (`gemm`, `unfold`, `activation`, VJP passes,
//! halo exchange), so their overhead budget is part of the repo's
//! performance contract:
//!
//! * `profile.overhead` — ratio of warm `InferencePlan::execute_into`
//!   time with zones enabled to the time with them disabled, gated at
//!   ≤ 3% (`tol: 0.03`, baseline `value: 1.0`).
//! * `profile.warm_allocs` — workspace allocations during the profiled
//!   warm loop; must be exactly 0 (recording into the histogram reuses
//!   per-thread storage after the first touch).
//! * `profile.scrape_us` — median `GET /metrics` round-trip against the
//!   in-process exposition server, loosely gated (wall clock on shared
//!   CI is noisy).
//!
//! Methodology mirrors `repro_observe`: prime the workspace pool, then
//! interleave zones-on and zones-off rounds (A/B/A/B…) and compare the
//! *medians* of per-round mean execute times. Interleaving cancels slow
//! drift; medians shrug off outliers.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_profile [--json PATH]
//! ```

use mf_bench::*;
use mf_infer::{InferencePlan, Workspace};
use mf_nn::SdNet;
use mf_profile::MetricsServer;
use mf_tensor::Tensor;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const ROUNDS: usize = 9;
const EXECS_PER_ROUND: usize = 32;
const SCRAPES: usize = 15;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Mean seconds per warm plan execution over one round.
fn round(plan: &InferencePlan, ws: &mut Workspace, bounds: &Tensor, out: &mut Tensor) -> f64 {
    let t0 = Instant::now();
    for _ in 0..EXECS_PER_ROUND {
        plan.execute_into(ws, bounds, out);
    }
    t0.elapsed().as_secs_f64() / EXECS_PER_ROUND as f64
}

fn main() {
    let trace = init_telemetry();
    let spec = bench_spec();
    let net = SdNet::new(bench_net_config(spec), &mut ChaCha8Rng::seed_from_u64(0));

    // A batched-MFP-shaped workload: B subdomain boundary walks through
    // one compiled plan over the interior query points.
    let b = 16;
    let q = (spec.m - 2) * (spec.m - 2);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let l = net.config().boundary_len;
    let bounds = Tensor::from_fn(b, l, |_, _| rng.gen_range(-1.0..1.0));
    let extent = net.config().coord_extent;
    let pts = Tensor::from_fn(q, 2, |_, _| rng.gen_range(0.0..extent));
    let plan = InferencePlan::compile(&net, &pts);
    let mut ws = Workspace::new();
    let mut out = Tensor::zeros(b * q, 1);

    // Prime the pool (and the per-thread zone storage): the first
    // executions allocate, later ones must not.
    mf_profile::set_enabled(true);
    for _ in 0..4 {
        plan.execute_into(&mut ws, &bounds, &mut out);
    }
    let warm_allocs_before = ws.warm_allocs();

    let mut on = Vec::with_capacity(ROUNDS);
    let mut off = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        mf_profile::set_enabled(true);
        on.push(round(&plan, &mut ws, &bounds, &mut out));
        mf_profile::set_enabled(false);
        off.push(round(&plan, &mut ws, &bounds, &mut out));
    }
    mf_profile::set_enabled(true);
    let warm_allocs = ws.warm_allocs() - warm_allocs_before;

    let (t_on, t_off) = (median(on), median(off));
    let overhead = t_on / t_off;
    print_table(
        "Profiler: zone-timer overhead on the warm inference plan",
        &["zones", "median execute", "ratio"],
        &[
            vec!["off".into(), fmt_secs(t_off), "1.000".into()],
            vec!["on".into(), fmt_secs(t_on), format!("{overhead:.3}")],
        ],
    );
    println!("warm-loop workspace allocations with zones on: {warm_allocs}");

    // Scrape latency: publish this thread's metrics, then time full
    // GET /metrics round-trips against a loopback server.
    mf_telemetry::publish_thread();
    let scrape_us = match MetricsServer::start("127.0.0.1:0") {
        Ok(server) => {
            let addr = server.addr();
            let mut times = Vec::with_capacity(SCRAPES);
            for _ in 0..SCRAPES {
                let t0 = Instant::now();
                let (status, body) = mf_profile::http_get(addr, "/metrics").expect("scrape failed");
                times.push(t0.elapsed().as_secs_f64() * 1e6);
                assert!(status.contains("200"), "bad scrape status: {status}");
                assert!(body.ends_with("# EOF\n"), "truncated exposition");
            }
            median(times)
        }
        Err(e) => {
            eprintln!("skipping scrape benchmark (bind failed: {e})");
            f64::NAN
        }
    };
    println!("median GET /metrics round-trip: {scrape_us:.0}us");
    println!(
        "\ncontract: always-on zone timers must cost <= 3% of a warm plan\n\
         execution (one atomic load when disabled; one clock pair and one\n\
         histogram bump when enabled — no heap traffic after the first\n\
         record)."
    );

    let mut metrics = vec![
        (
            "profile.overhead".to_string(),
            gate::Metric {
                value: overhead,
                tol: 0.03,
                higher_better: false,
            },
        ),
        (
            "profile.warm_allocs".to_string(),
            gate::Metric {
                value: warm_allocs as f64,
                tol: 0.0,
                higher_better: false,
            },
        ),
    ];
    if scrape_us.is_finite() {
        metrics.push((
            "profile.scrape_us".to_string(),
            gate::Metric {
                value: scrape_us,
                tol: 3.0,
                higher_better: false,
            },
        ));
    }
    emit_metrics(&metrics);
    finish_trace(trace);
}

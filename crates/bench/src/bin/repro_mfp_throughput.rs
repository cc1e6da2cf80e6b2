//! **MFP solve throughput**: compiled inference plan vs graph-based
//! solver on the MFP hot path.
//!
//! The MFP's inner loop launches the subdomain solver on one sweep
//! group's boundaries against a *fixed* set of query points (the center
//! cross). The graph path rebuilds the tape — including the query-point
//! Fourier features and the `W_x · X` half of the input-split layer —
//! on every launch; the compiled plan (`mf-infer`) caches both per point
//! set and replays a flat list of fused `f32` kernels over pooled
//! workspaces, within its launch bound of the `f64` graph (checked before
//! anything is timed). This binary measures both on the same warm workload
//! and gates:
//!
//! * `infer.pts_per_s` — compiled-plan solve throughput,
//! * `infer.speedup_vs_graph` — must stay ≥ 5× (machine-independent),
//! * `infer.warm_allocs` — pool misses after warmup; must be 0.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_mfp_throughput [--json out.json]
//! ```

use mf_bench::gate::Metric;
use mf_bench::*;
use mf_data::SubdomainSpec;
use mf_infer::InferencePlan;
use mf_mfp::{PlanSolver, SubdomainSolver};
use mf_nn::{SdNet, SdNetConfig};
use mf_tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Center-cross query points of a subdomain: the interior of the middle
/// row and middle column, center counted once — `2(m-2)-1` points, the
/// exact set the MFP sweeps evaluate.
fn cross_points(spec: SubdomainSpec) -> Tensor {
    let m = spec.m;
    let h = spec.spatial / (m - 1) as f64;
    let c = (m - 1) / 2;
    let mut pts = Vec::new();
    for i in 1..m - 1 {
        pts.push(i as f64 * h);
        pts.push(c as f64 * h);
    }
    for j in 1..m - 1 {
        if j == c {
            continue;
        }
        pts.push(c as f64 * h);
        pts.push(j as f64 * h);
    }
    Tensor::from_vec(2 * (m - 2) - 1, 2, pts)
}

fn warm_allocs_counter() -> u64 {
    mf_telemetry::snapshot()
        .metrics
        .iter()
        .find_map(|(n, v)| match (n.as_str(), v) {
            ("infer.warm_allocs", mf_telemetry::MetricValue::Counter(c)) => Some(*c),
            _ => None,
        })
        .unwrap_or(0)
}

fn main() {
    let trace = init_telemetry();
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    // The MFP-iteration regime: a narrow trunk keeps the shared GEMM work
    // small relative to the per-launch graph overhead the plan removes
    // (tape bookkeeping, query-point Fourier features, the W_x·X GEMM).
    let mut cfg = SdNetConfig::small(spec.boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![16];
    cfg.coord_fourier = 16;
    let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(7));

    let b = 16; // one sweep group's worth of subdomains
    let pts = cross_points(spec);
    let q = pts.rows();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let bnds = Tensor::from_fn(b, spec.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));

    // The graph path: the shared query points tiled for every boundary,
    // then one `SdNet::predict`, the tape rebuilt per launch.
    let graph = |bnds: &Tensor| {
        let tiled = Tensor::from_vec(b * q, 2, pts.as_slice().repeat(b));
        net.predict(bnds, &tiled, q)
    };
    let plan = PlanSolver::new(net.clone(), spec);

    // The f32 plan must hold its contract with the f64 graph — every
    // output within the launch's bound — before any timing matters.
    let expect = graph(&bnds);
    let got = plan.solve_batch(&bnds, &pts);
    let bound = InferencePlan::compile(plan.net(), &pts).graph_error_bound(&bnds);
    for ((e, g), b) in (expect.as_slice().iter().zip(got.as_slice())).zip(bound.as_slice()) {
        assert!((e - g).abs() <= *b, "plan left its bound of the graph path");
    }

    let launches = if full_scale() { 800 } else { 150 };
    let time = |f: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..launches {
            f();
        }
        (b * q * launches) as f64 / t0.elapsed().as_secs_f64()
    };
    let run_graph = || {
        graph(&bnds);
    };
    let run_plan = || {
        plan.solve_batch(&bnds, &pts);
    };
    for _ in 0..10 {
        run_graph(); // warm the thread-local graph and the plan's pools
        run_plan();
    }

    // Shared-core CI machines drift mid-run; interleaving the two paths
    // and taking the median per-round ratio makes the gated speedup
    // insensitive to when the noise lands.
    let rounds = 7;
    let allocs_before = warm_allocs_counter();
    let mut ratios = Vec::with_capacity(rounds);
    let mut graph_pps: f64 = 0.0;
    let mut plan_pps: f64 = 0.0;
    for _ in 0..rounds {
        let g = time(&run_graph);
        let p = time(&run_plan);
        graph_pps = graph_pps.max(g);
        plan_pps = plan_pps.max(p);
        ratios.push(p / g);
    }
    let warm_allocs = warm_allocs_counter() - allocs_before;
    ratios.sort_by(|a, b| a.total_cmp(b));
    let speedup = ratios[rounds / 2];

    println!("MFP solve throughput (B={b} boundaries x q={q} cross points, warm):");
    println!(
        "  graph solver:    {:>10.0} pts/s (best of {rounds} rounds)",
        graph_pps
    );
    println!(
        "  compiled plan:   {:>10.0} pts/s (best of {rounds} rounds)",
        plan_pps
    );
    println!("  speedup:         {speedup:>10.2}x (median per-round ratio)");
    println!("  warm pool misses: {warm_allocs}");
    assert_eq!(warm_allocs, 0, "compiled plan allocated on a warm launch");

    emit_metrics(&[
        (
            "infer.pts_per_s".to_string(),
            Metric {
                value: plan_pps,
                tol: 0.5,
                higher_better: true,
            },
        ),
        (
            "infer.speedup_vs_graph".to_string(),
            Metric {
                value: speedup,
                tol: 0.25,
                higher_better: true,
            },
        ),
        (
            "infer.warm_allocs".to_string(),
            Metric {
                value: warm_allocs as f64,
                tol: 0.0,
                higher_better: false,
            },
        ),
    ]);
    finish_trace(trace);
}

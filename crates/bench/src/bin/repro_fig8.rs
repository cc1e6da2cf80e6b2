//! **Figure 8**: batched vs unbatched atomic-subdomain inference, single
//! device, increasing domain size.
//!
//! The paper sweeps domains from 1×2 to 16×16 spatial units: the unbatched
//! baseline's time per iteration grows linearly with subdomain count while
//! batching keeps the device busy (up to ~100× faster per iteration, no
//! accuracy change). Here the subdomain solver is the SDNet on the solver
//! that ships, the compiled `f32` [`PlanSolver`]; the unbatched baseline is
//! the same plan behind [`UnbatchedSolver`] (batching = one fat launch per
//! sweep group vs one launch per subdomain).
//!
//! Every run checks the figure's claims and exits 1 naming any that fails:
//! the two arms' grids are bit-identical, they take the same points, and
//! the modeled GPU speedup does not fall as the subdomain count grows.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_fig8 [--full] [--trace out.json]
//! ```

use mf_bench::*;
use mf_dist::{GpuModel, PerfModel};
use mf_mfp::{DomainSpec, Mfp, MfpConfig, PlanSolver, SubdomainSolver, UnbatchedSolver};
use mf_nn::SdNet;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let trace = init_telemetry();
    let spec = bench_spec();
    // Untrained weights are fine here: Fig 8 measures per-iteration
    // throughput, not accuracy (the batched/unbatched results are
    // identical either way — checked below).
    let net = SdNet::new(bench_net_config(spec), &mut ChaCha8Rng::seed_from_u64(0));
    let plan = PlanSolver::new(net, spec);

    let domains: Vec<(usize, usize)> = if full_scale() {
        vec![
            (1, 2),
            (2, 2),
            (4, 2),
            (4, 4),
            (8, 4),
            (8, 8),
            (16, 8),
            (16, 16),
        ]
    } else {
        vec![(1, 2), (2, 2), (4, 2), (4, 4), (8, 4), (8, 8)]
    };

    println!("Figure 8 reproduction: batched vs unbatched MFP iteration time");
    println!("(CPU columns measured here; GPU columns from an A30-like occupancy model");
    println!(" fed by the real launch/point counts of each run; points: taken per run,");
    println!(" equal in both arms)");
    let gpu = GpuModel::a30_like();
    // Comm/compute overlap headroom (§4.3): the alpha-beta model's halo
    // cost per iteration at P=4, against the batched compute time — the
    // fraction of modeled communication hideable behind compute.
    let net_model = PerfModel::a30_cluster();
    const OVERLAP_P: usize = 4;
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    let mut last_speedup = 0.0;
    for &(sx, sy) in &domains {
        let domain = DomainSpec::new(spec, sx, sy);
        let bc = gp_boundary(&domain, 3);
        let iters = if domain.subdomains().len() > 200 {
            3
        } else {
            8
        };

        let cfg = MfpConfig {
            max_iters: iters,
            tol: 0.0,
            // Fig. 8 times the paper's one-level sweep.
            accelerate: false,
            ..Default::default()
        };
        let run = |batched: bool| {
            let (l0, p0) = (plan.launch_count(), plan.inference_count());
            // The unbatched baseline is the same solver behind the
            // one-launch-per-subdomain adapter.
            let (r, secs) = if batched {
                mf_telemetry::timed!("fig8.run_batched", || {
                    Mfp::new(&plan, domain).run(&bc, &cfg)
                })
            } else {
                mf_telemetry::timed!("fig8.run_unbatched", || {
                    Mfp::new(&UnbatchedSolver(&plan), domain).run(&bc, &cfg)
                })
            };
            let cpu = secs / iters as f64;
            let launches = plan.launch_count() - l0;
            let points = plan.inference_count() - p0;
            let gpu_time = gpu.time(launches, points) / iters as f64;
            (r, points, cpu, gpu_time)
        };

        let (ru, points_u, cpu_u, gpu_u) = run(false);
        let (rb, points_b, cpu_b, gpu_b) = run(true);
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let speedup = gpu_u / gpu_b;
        for (holds, claim) in [
            (
                bits(rb.grid.as_slice()) == bits(ru.grid.as_slice()),
                "batched and unbatched grids are bit-identical",
            ),
            (points_b == points_u, "both arms take the same points"),
            (
                speedup >= last_speedup,
                "the modeled GPU speedup does not fall as the subdomain count grows",
            ),
        ] {
            if !holds {
                violations.push(format!(
                    "{claim} ({sx}x{sy} atoms: points {points_b} batched, {points_u} \
                     unbatched; speedup {speedup:.2}x after {last_speedup:.2}x)"
                ));
            }
        }
        last_speedup = speedup;

        let comm_per_iter = net_model.mfp_comm_cost(1, domain.nx(), spec.m, OVERLAP_P);
        let overlap = if comm_per_iter > 0.0 {
            (gpu_b.min(comm_per_iter) / comm_per_iter).min(1.0)
        } else {
            1.0
        };
        rows.push(vec![
            format!("{}x{}", sx as f64 * spec.spatial, sy as f64 * spec.spatial),
            domain.subdomains().len().to_string(),
            points_b.to_string(),
            fmt_secs(cpu_u),
            fmt_secs(cpu_b),
            fmt_secs(gpu_u),
            fmt_secs(gpu_b),
            format!("{speedup:.0}x"),
            format!("{overlap:.2}"),
        ]);
    }
    print_table(
        &format!("Fig 8: time per MFP iteration (overlap modeled at P={OVERLAP_P})"),
        &[
            "domain",
            "subdomains",
            "points",
            "CPU unbat.",
            "CPU batch",
            "GPU unbat.",
            "GPU batch",
            "GPU speedup",
            "overlap",
        ],
        &rows,
    );
    println!(
        "\nshape check vs paper: on a device with launch overhead and an occupancy\n\
         ramp, unbatched time grows linearly with the subdomain count while the\n\
         batched time stays near-flat, so the speedup widens with domain size\n\
         (the paper measures up to ~100x at 16x16). Checked on this run: the two\n\
         arms' grids are bit-identical, they take the same points, and the\n\
         modeled GPU speedup does not fall as the domain grows."
    );
    finish_trace(trace);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("repro_fig8: claim violated: {v}");
        }
        std::process::exit(1);
    }
}

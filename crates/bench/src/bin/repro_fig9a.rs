//! **Figure 9a + Table 4**: strong scaling of the distributed MFP on a
//! fixed global domain.
//!
//! The paper solves a 32×32 spatial domain (2048×2048, 4096 atomic
//! subdomains) to MAE ≤ 0.05 on 1..32 A30 GPUs: total time drops ~10×
//! while the communication fraction grows; iterations rise mildly from
//! 3200 to 3500 (Table 4). Here the same algorithm runs on simulated
//! ranks; per-rank compute seconds are measured (each rank's own busy
//! time) and communication is modeled from the real message/byte counters
//! with the A30-like alpha-beta model, plus the mpi4py-like model the
//! paper actually measured.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_fig9a [--full]
//! ```

use mf_bench::*;
use mf_dist::PerfModel;
use mf_mfp::{run_distributed, DistMfpConfig, DomainSpec, MaeTarget, OracleSolver};

fn main() {
    let trace = init_telemetry();
    let spec = bench_spec();
    let (sx, sy) = if full_scale() { (16, 16) } else { (8, 8) };
    let ranks: Vec<usize> = if full_scale() {
        vec![1, 2, 4, 8, 16, 32]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let domain = DomainSpec::new(spec, sx, sy);
    println!(
        "Figure 9a / Table 4 reproduction: strong scaling on a {}x{} spatial domain",
        sx as f64 * spec.spatial,
        sy as f64 * spec.spatial,
    );
    println!(
        "({}x{} grid, {} atomic / {} overlapping subdomains; paper: 2048x2048, 4096 atomic)\n",
        domain.nx(),
        domain.ny(),
        domain.atomic_subdomains().len(),
        domain.subdomains().len()
    );

    let bc = gp_boundary(&domain, 9);
    let reference = reference_solution(&domain, &bc);
    let oracle = OracleSolver::new(spec, 1e-9);
    let model = PerfModel::a30_cluster();
    let mpi4py = PerfModel::mpi4py_serialized();

    let mut rows = Vec::new();
    let mut iter_row = vec!["Iterations".to_string()];
    let mut base_total = f64::NAN;
    for &p in &ranks {
        let res = run_distributed(
            &oracle,
            &domain,
            &bc,
            p,
            &DistMfpConfig {
                max_iters: 5000,
                tol: 0.0,
                target: Some(MaeTarget {
                    reference: reference.clone(),
                    mae: 0.05,
                    every: 1,
                }),
                // Fig. 9 counts the paper's one-level iterations.
                accelerate: false,
                ..Default::default()
            },
        );
        assert!(res.converged, "P={p} did not reach MAE 0.05");
        // The slowest rank sets the pace; a rank's busy time is its own
        // work even when all ranks timeshare one core.
        let compute = res
            .reports
            .iter()
            .map(|r| r.compute_seconds)
            .fold(0.0, f64::max);
        let io = res
            .reports
            .iter()
            .map(|r| r.pack_seconds)
            .fold(0.0, f64::max);
        let comm = res
            .reports
            .iter()
            .map(|r| model.time_for(&r.halo))
            .fold(0.0, f64::max);
        let comm_mpi4py = res
            .reports
            .iter()
            .map(|r| mpi4py.time_for(&r.halo))
            .fold(0.0, f64::max);
        let total = compute + io + comm;
        if p == 1 {
            base_total = total;
        }
        rows.push(vec![
            p.to_string(),
            res.iterations.to_string(),
            fmt_secs(compute),
            fmt_secs(io),
            fmt_secs(comm),
            fmt_secs(comm_mpi4py),
            fmt_secs(total),
            format!("{:.2}x", base_total / total),
            format!("{:.0}%", 100.0 * comm / total),
        ]);
        iter_row.push(res.iterations.to_string());
    }
    print_table(
        "Fig 9a: strong scaling (compute measured, comm modeled)",
        &[
            "ranks",
            "iters",
            "compute",
            "bound. IO",
            "comm (IB)",
            "comm (mpi4py)",
            "total",
            "speedup",
            "comm %",
        ],
        &rows,
    );

    let mut header = vec!["GPU count".to_string()];
    header.extend(ranks.iter().map(|p| p.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "Table 4: iterations to reach MAE 0.05",
        &header_refs,
        &[iter_row],
    );
    println!(
        "\npaper Table 4:  1->3200, 2->3250, 4->3250, 8->3300, 16->3400, 32->3500\n\
         (mild growth from relaxed synchronization; same trend expected above)\n\
         paper Fig 9a: total 880s -> 90s over 1..32 GPUs with the communication\n\
         share growing — the compute column above falls ~1/P while modeled comm\n\
         shrinks only ~1/sqrt(P), reproducing the shape."
    );
    finish_trace(trace);
}

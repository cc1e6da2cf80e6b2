//! **Figure 9b**: weak scaling of the distributed MFP — fixed per-rank
//! subdomain, fixed iteration count, growing rank count.
//!
//! The paper fixes a 16×8 spatial (1024×512) subdomain per GPU and runs
//! 2000 iterations: compute time stays flat while communication time rises
//! from 2 to 8 ranks (neighbor count grows from 3 to 8) and then plateaus.
//! This binary fixes a per-rank block, runs a fixed iteration budget and
//! reports measured compute, measured pack time ("Boundaries IO") and
//! alpha-beta-modeled communication per rank count.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_fig9b [--full]
//! ```

use mf_bench::*;
use mf_dist::{CartesianGrid, PerfModel};
use mf_mfp::{run_distributed, DistMfpConfig, DomainSpec, OracleSolver};

fn main() {
    let trace = init_telemetry();
    let spec = bench_spec();
    // Per-rank block of atomic subdomains (paper: 16x8 spatial per GPU).
    let (bx, by) = if full_scale() { (8, 4) } else { (4, 2) };
    let iters = if full_scale() { 200 } else { 50 };
    let ranks: Vec<usize> = if full_scale() {
        vec![1, 2, 4, 8, 16, 32]
    } else {
        vec![1, 2, 4, 8, 16]
    };

    println!("Figure 9b reproduction: weak scaling, {bx}x{by} atomic subdomains per rank,");
    println!("{iters} iterations (paper: 1024x512 per GPU, 2000 iterations)\n");

    let oracle = OracleSolver::new(spec, 1e-9);
    let model = PerfModel::a30_cluster();
    let mpi4py = PerfModel::mpi4py_serialized();

    let mut rows = Vec::new();
    for &p in &ranks {
        // Grow the global domain with the processor grid.
        let grid = CartesianGrid::square_for(p);
        let domain = DomainSpec::new(spec, bx * grid.px(), by * grid.py());
        let bc = gp_boundary(&domain, 17);
        let res = run_distributed(
            &oracle,
            &domain,
            &bc,
            p,
            &DistMfpConfig {
                max_iters: iters,
                tol: 0.0,
                // Fig. 9 breaks down the paper's one-level iteration.
                accelerate: false,
                ..Default::default()
            },
        );
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
        let comm_ser = res
            .reports
            .iter()
            .map(|r| mpi4py.time_for(&r.halo))
            .fold(0.0, f64::max);
        let max_neighbors = (0..p).map(|r| grid.neighbors(r).len()).max().unwrap_or(0);
        rows.push(vec![
            p.to_string(),
            format!("{}x{}", domain.nx(), domain.ny()),
            max_neighbors.to_string(),
            fmt_secs(compute),
            fmt_secs(io),
            fmt_secs(comm),
            fmt_secs(comm_ser),
        ]);
    }
    print_table(
        "Fig 9b: weak scaling (fixed per-rank block)",
        &[
            "ranks",
            "global grid",
            "max nbrs",
            "compute",
            "bound. IO",
            "comm (IB)",
            "comm (mpi4py)",
        ],
        &rows,
    );
    println!(
        "\nshape check vs paper: compute stays flat (per-rank work is constant);\n\
         communication rises while the neighbor count grows from 0 (P=1) through\n\
         3 (P=2) to 8 (P>=16, interior ranks appear) and then plateaus — the\n\
         paper saw the same ~4x rise from 2 to 8 GPUs followed by a plateau,\n\
         dominated by per-message latency (hence the mpi4py column)."
    );
    finish_trace(trace);
}

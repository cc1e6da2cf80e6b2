//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **two-level accelerated iteration** — the paper's one-level
//!    Algorithm 2 (`--one-level`), with the coarse-grid seed (cited future
//!    work \[10\]/\[8\] of the paper), and with seed + Anderson mixing (the
//!    default) — iterations to converge;
//! 2. **communication-avoiding** halo exchange (`comm_every = k`) —
//!    iterations vs bytes, the §5.3 "Open problems" tradeoff;
//! 3. **Morton vs row-scan rank placement** (§4.2's suggested future
//!    study) — neighbor rank distance and correctness;
//! 4. **convolutional boundary embedding vs none** (§3.1's architecture
//!    choice) — training convergence.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_ablations [--full]
//! ```

use mf_bench::*;
use mf_data::Dataset;
use mf_dist::{CartesianGrid, RankOrder};
use mf_mfp::{
    run_distributed, DistMfpConfig, DomainSpec, Mfp, MfpConfig, OracleSolver, SubdomainSolver,
};
use mf_nn::SdNet;
use mf_numerics::boundary::grid_with_boundary;
use mf_opt::LrSchedule;
use mf_tensor::Tensor;
use mf_train::trainer::{train_single, OptKind, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Iterations of the one-level sweep started from the coarse seed — the
/// middle row of ablation 1. No configuration runs it (seed and mixing
/// are one switch), so it is spelled out on the public pieces: the sweep
/// groups, one `solve_batch` per group, Algorithm 2's relative-change test.
fn seeded_one_level_iters(
    oracle: &OracleSolver,
    domain: DomainSpec,
    bc: &Tensor,
    max_iters: usize,
    tol: f64,
) -> usize {
    let mut grid = grid_with_boundary(domain.ny(), domain.nx(), bc);
    domain.coarse_initialize(&mut grid);
    let groups = Mfp::new(oracle, domain).sweep_groups();
    let cross = domain.center_cross_offsets();
    let points = domain.offsets_to_points(&cross);
    for it in 1..=max_iters {
        let prev = grid.clone();
        for group in groups.iter().filter(|g| !g.is_empty()) {
            let windows: Vec<Tensor> = group
                .iter()
                .map(|&sd| domain.read_window_boundary(&grid, sd))
                .collect();
            let preds = oracle.solve_batch(&Tensor::vstack(&windows), &points);
            for (sd, pred) in group.iter().zip(preds.as_slice().chunks_exact(cross.len())) {
                for (&(j, i), &v) in cross.iter().zip(pred) {
                    grid.set(sd.oy + j, sd.ox + i, v);
                }
            }
        }
        let (mut change, mut norm) = (0.0, 0.0);
        for j in 0..domain.ny() {
            for i in (0..domain.nx()).filter(|&i| domain.on_lattice(j, i)) {
                change += (grid.get(j, i) - prev.get(j, i)).powi(2);
                norm += prev.get(j, i).powi(2);
            }
        }
        if (change / norm).sqrt() < tol {
            return it;
        }
    }
    max_iters
}

fn ablate_acceleration(spec: mf_data::SubdomainSpec) {
    let oracle = OracleSolver::new(spec, 1e-9);
    let (max_iters, tol) = (5000, 1e-7);
    let mut rows = Vec::new();
    for (sx, sy) in [(4, 4), (8, 8), (16, 16)] {
        let domain = DomainSpec::new(spec, sx, sy);
        let bc = gp_boundary(&domain, 5);
        let mfp = Mfp::new(&oracle, domain);
        let run = |accelerate: bool| {
            let res = mfp.run(
                &bc,
                &MfpConfig {
                    max_iters,
                    tol,
                    accelerate,
                    ..Default::default()
                },
            );
            assert!(res.converged);
            res
        };
        let (one_level, two_level) = (run(false), run(true));
        let seeded = seeded_one_level_iters(&oracle, domain, &bc, max_iters, tol);
        rows.push(vec![
            format!("{}x{}", sx, sy),
            one_level.iterations.to_string(),
            seeded.to_string(),
            two_level.iterations.to_string(),
            format!(
                "{:.1}x",
                one_level.iterations as f64 / two_level.iterations as f64
            ),
            format!("{:.1e}", one_level.grid.mean_abs_diff(&two_level.grid)),
        ]);
    }
    print_table(
        "Ablation 1: two-level accelerated iteration (iterations to tol 1e-7)",
        &[
            "atomic domain",
            "one-level",
            "seed",
            "seed + mixing",
            "gain",
            "solution diff",
        ],
        &rows,
    );
    println!("(one-level Schwarz propagates boundary information one subdomain per");
    println!(" iteration, so its count grows with the domain; the coarse seed does it");
    println!(" at once and the mixing extrapolates the rest: the count stays flat)");
}

fn ablate_comm_avoiding(spec: mf_data::SubdomainSpec) {
    let oracle = OracleSolver::new(spec, 1e-9);
    let domain = DomainSpec::new(spec, 4, 4);
    let bc = gp_boundary(&domain, 6);
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8] {
        let run = |accelerate: bool| {
            let res = run_distributed(
                &oracle,
                &domain,
                &bc,
                4,
                &DistMfpConfig {
                    max_iters: 3000,
                    tol: 1e-7,
                    comm_every: k,
                    accelerate,
                    ..Default::default()
                },
            );
            assert!(res.converged, "comm_every={k} did not converge");
            res
        };
        // Traffic columns: the paper's one-level iteration.
        let res = run(false);
        let halo_bytes: usize = res.reports.iter().map(|r| r.halo.bytes_sent).sum();
        let halo_msgs: usize = res.reports.iter().map(|r| r.halo.msgs_sent).sum();
        rows.push(vec![
            k.to_string(),
            res.iterations.to_string(),
            halo_msgs.to_string(),
            format!("{:.1} KB", halo_bytes as f64 / 1e3),
            run(true).iterations.to_string(),
        ]);
    }
    print_table(
        "Ablation 2: communication-avoiding halo exchange (4 ranks)",
        &[
            "exchange every",
            "iterations",
            "total msgs",
            "total halo bytes",
            "iterations, accelerated",
        ],
        &rows,
    );
    println!("(skipping exchanges trades extra iterations for less traffic — the");
    println!(" latency-vs-redundancy tradeoff of §5.3 'Open problems'; the accelerated");
    println!(" iteration mixes only on the iterations that exchange)");
}

fn ablate_rank_order() {
    let mut rows = Vec::new();
    for p in [16usize, 64] {
        let metric = |order: RankOrder| {
            let g = CartesianGrid::square_for(p, order);
            let mut total = 0usize;
            let mut count = 0usize;
            for rank in 0..g.size() {
                for (_, nb) in g.neighbors(rank) {
                    total += rank.abs_diff(nb);
                    count += 1;
                }
            }
            total as f64 / count as f64
        };
        rows.push(vec![
            p.to_string(),
            format!("{:.2}", metric(RankOrder::RowMajor)),
            format!("{:.2}", metric(RankOrder::Morton)),
        ]);
    }
    print_table(
        "Ablation 3: rank placement locality (mean |rank - neighbor rank|)",
        &["ranks", "row-scan", "Morton"],
        &rows,
    );
    println!("(§4.2 suggests space-filling-curve placement; lower rank distance means");
    println!(" neighbors are more likely to share a node in a real cluster)");
}

fn ablate_conv_embedding(spec: mf_data::SubdomainSpec) {
    let samples = if full_scale() { 320 } else { 160 };
    let epochs = if full_scale() { 60 } else { 30 };
    let dataset = Dataset::generate(spec, samples, 0);
    let (train, val) = dataset.split(0.9);
    let cfg = TrainConfig {
        epochs,
        batch_size: 8,
        qd: 48,
        qc: 16,
        pde_weight: 0.02,
        schedule: LrSchedule {
            max_lr: 8e-3,
            ..LrSchedule::paper_default(epochs * (train.len() / 8))
        },
        opt: OptKind::Adam,
        seed: 0,
        clip_norm: None,
    };
    let mut rows = Vec::new();
    for (label, channels) in [
        ("conv embedding", vec![4]),
        ("no conv (raw boundary)", vec![]),
    ] {
        let mut netcfg = bench_net_config(spec);
        netcfg.conv_channels = channels;
        let mut net = SdNet::new(netcfg, &mut ChaCha8Rng::seed_from_u64(0));
        let logs = train_single(&mut net, &train, &val, &cfg);
        let half = &logs[logs.len() / 2];
        let last = logs.last().unwrap();
        rows.push(vec![
            label.to_string(),
            net.count_params().to_string(),
            format!("{:.5}", half.val_mse),
            format!("{:.5}", last.val_mse),
        ]);
    }
    print_table(
        "Ablation 4: convolutional boundary embedding (SDNet, same budget)",
        &["variant", "params", "val MSE @ half", "val MSE final"],
        &rows,
    );
    println!("(§3.1: convolving the boundary curve captures local structure and");
    println!(" improves convergence at negligible per-iteration cost)");
}

fn main() {
    let trace = init_telemetry();
    let spec = bench_spec();
    println!("Design-choice ablations (see DESIGN.md)");
    ablate_acceleration(spec);
    ablate_comm_avoiding(spec);
    ablate_rank_order();
    ablate_conv_embedding(spec);
    finish_trace(trace);
}

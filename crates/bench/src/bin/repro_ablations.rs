//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **two-level accelerated iteration** — the paper's one-level
//!    Algorithm 2 (`--one-level`), with the coarse-grid seed (cited future
//!    work \[10\]/\[8\] of the paper), and with seed + Anderson mixing (the
//!    default) — iterations to converge;
//! 3. **Morton vs row-scan rank placement** (§4.2's suggested future
//!    study) — neighbor rank distance;
//! 4. **convolutional boundary embedding vs none** (§3.1's architecture
//!    choice) — training convergence, with a verdict computed from the
//!    two validation errors.
//!
//! (Ablation 2, a communication-avoiding halo cadence, went with the
//! cadence: every iteration exchanges once, as Algorithm 2 does.)
//!
//! Every run checks the ablations' claims and exits 1 naming any that
//! fails: at every domain size seed + mixing needs at most a third of the
//! one-level iterations and lands within 1e-6 of its solution, and Morton
//! placement's mean rank distance is at most row-scan's at 16 and 64
//! ranks. Ablation 4's verdict is reported, not checked.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_ablations [--full]
//! ```

use mf_bench::*;
use mf_data::Dataset;
use mf_dist::{CartesianGrid, RankOrder};
use mf_mfp::{DomainSpec, Mfp, MfpConfig, OracleSolver, SubdomainSolver};
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

/// Ablation 1: seed + mixing takes at most 1/`ACCEL_MIN_GAIN` of the
/// one-level iterations.
const ACCEL_MIN_GAIN: usize = 3;
/// Largest mean difference between the one-level and the accelerated
/// solution ablation 1 accepts.
const SOLUTION_DIFF_MAX: f64 = 1e-6;

/// A claim with whether this run upholds it.
type Claim = (bool, String);

fn ablate_acceleration(spec: mf_data::SubdomainSpec) -> Vec<Claim> {
    let oracle = OracleSolver::new(spec, 1e-9);
    let (max_iters, tol) = (5000, 1e-7);
    let mut rows = Vec::new();
    let mut gain_holds = true;
    let (mut worst_share, mut worst_diff) = (0.0f64, 0.0f64);
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
        let diff = one_level.grid.mean_abs_diff(&two_level.grid);
        gain_holds &= ACCEL_MIN_GAIN * two_level.iterations <= one_level.iterations;
        worst_share = worst_share.max(two_level.iterations as f64 / one_level.iterations as f64);
        worst_diff = worst_diff.max(diff);
        rows.push(vec![
            format!("{}x{}", sx, sy),
            one_level.iterations.to_string(),
            seeded.to_string(),
            two_level.iterations.to_string(),
            format!(
                "{:.1}x",
                one_level.iterations as f64 / two_level.iterations as f64
            ),
            format!("{diff:.1e}"),
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
    vec![
        (
            gain_holds,
            format!(
                "at every domain size seed + mixing needs at most 1/{ACCEL_MIN_GAIN} of the \
                 one-level iterations (worst share {worst_share:.3})"
            ),
        ),
        (
            worst_diff <= SOLUTION_DIFF_MAX,
            format!(
                "at every domain size the two solutions differ by at most {SOLUTION_DIFF_MAX:.0e} \
                 (worst {worst_diff:.1e})"
            ),
        ),
    ]
}

fn ablate_rank_order() -> Vec<Claim> {
    let mut rows = Vec::new();
    let mut claims = Vec::new();
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
        let (row_scan, morton) = (metric(RankOrder::RowMajor), metric(RankOrder::Morton));
        rows.push(vec![
            p.to_string(),
            format!("{row_scan:.2}"),
            format!("{morton:.2}"),
        ]);
        claims.push((
            morton <= row_scan,
            format!(
                "at {p} ranks Morton's mean rank distance is at most row-scan's \
                 ({morton:.2} vs {row_scan:.2})"
            ),
        ));
    }
    print_table(
        "Ablation 3: rank placement locality (mean |rank - neighbor rank|)",
        &["ranks", "row-scan", "Morton"],
        &rows,
    );
    println!("(§4.2 suggests space-filling-curve placement; lower rank distance means");
    println!(" neighbors are more likely to share a node in a real cluster)");
    claims
}

/// Train the SDNet with and without the convolutional boundary embedding
/// on the same budget and return the verdict on §3.1's claim, read off the
/// two final validation errors.
fn ablate_conv_embedding(spec: mf_data::SubdomainSpec) -> String {
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
    let mut finals = Vec::new();
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
        finals.push(last.val_mse);
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
    let (conv, raw) = (finals[0], finals[1]);
    let verdict = if conv < raw {
        "holds"
    } else {
        "does not hold at this budget"
    };
    let verdict = format!(
        "{verdict}: convolving the boundary curve improves convergence (§3.1) — final \
         val MSE {conv:.5} with the embedding, {raw:.5} without"
    );
    println!("{verdict}");
    verdict
}

fn main() {
    let trace = init_telemetry();
    let spec = bench_spec();
    println!("Design-choice ablations (see DESIGN.md)");
    let mut claims = ablate_acceleration(spec);
    claims.extend(ablate_rank_order());
    let conv_verdict = ablate_conv_embedding(spec);
    println!("\n== Ablation claims ==");
    let mut violated = false;
    for (holds, claim) in claims {
        println!("{}: {claim}", if holds { "holds" } else { "VIOLATED" });
        if !holds {
            eprintln!("repro_ablations: claim violated: {claim}");
            violated = true;
        }
    }
    println!("reported: {conv_verdict}");
    finish_trace(trace);
    if violated {
        std::process::exit(1);
    }
}

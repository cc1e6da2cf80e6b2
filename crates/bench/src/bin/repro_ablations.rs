//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **two-level accelerated iteration** — the paper's one-level
//!    Algorithm 2 (`--one-level`), with the coarse-grid seed (cited future
//!    work \[10\]/\[8\] of the paper), and the two-level iteration (the
//!    default: seed, Anderson mixing and a coarse-grid correction after
//!    every sweep) — iterations to converge, at two tolerances;
//! 4. **convolutional boundary embedding vs none** (§3.1's architecture
//!    choice) — training convergence, with a verdict computed from the
//!    two validation errors.
//!
//! (Ablation 2, a communication-avoiding halo cadence, went with the
//! cadence: every iteration exchanges once, as Algorithm 2 does. Ablation
//! 3, Morton against row-scan rank placement, went with the Morton
//! placement: nothing prices a halo message by the distance between its
//! ranks, so only a locality metric told the two apart.)
//!
//! Every run checks the ablations' claims and exits 1 naming any that
//! fails: at every domain size the two-level iteration needs at most a
//! third of the one-level iterations and lands within 1e-6 of its
//! solution (both run to tol 1e-9), and its count on the largest domain is
//! at most 1.5 times its count on 4×4 at both tolerances. Ablation 4's
//! verdict is reported, not checked.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_ablations [--full]
//! ```

use mf_bench::*;
use mf_data::Dataset;
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

/// Ablation 1: the two-level iteration takes at most 1/`ACCEL_MIN_GAIN` of
/// the one-level iterations.
const ACCEL_MIN_GAIN: usize = 3;
/// Largest mean difference between the one-level and the accelerated
/// solution ablation 1 accepts, both run to `TIGHT_TOL`: at `TOL` the
/// one-level iteration stops short of its own fixed point by more than
/// this from 16×16 on (2.2e-6 there, where the two-level one stops 7.5e-8
/// from it), so the difference would measure the reference's error.
const SOLUTION_DIFF_MAX: f64 = 1e-6;
/// Largest ratio of the two-level count on the largest domain to its count
/// on 4×4, at either tolerance: the coarse correction keeps it flat, where
/// the one-level count grows with the side.
const FLATNESS_MAX: f64 = 1.5;
/// Ablation 1's tolerances: the one the table is run at, and the tight one
/// of the last column.
const TOL: f64 = 1e-7;
const TIGHT_TOL: f64 = 1e-9;

/// A claim with whether this run upholds it.
type Claim = (bool, String);

fn ablate_acceleration(spec: mf_data::SubdomainSpec) -> Vec<Claim> {
    let oracle = OracleSolver::new(spec, 1e-9);
    let max_iters = 5000;
    let mut rows = Vec::new();
    let mut gain_holds = true;
    let (mut worst_share, mut worst_diff) = (0.0f64, 0.0f64);
    // Two-level counts per domain, at `TOL` and at `TIGHT_TOL`.
    let mut counts = Vec::new();
    let sides = [4, 8, 16, 32];
    for side in sides {
        let domain = DomainSpec::new(spec, side, side);
        let bc = gp_boundary(&domain, 5);
        let mfp = Mfp::new(&oracle, domain);
        let run = |accelerate: bool, tol: f64| {
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
        let (one_level, two_level) = (run(false, TOL), run(true, TOL));
        let (one_tight, two_tight) = (run(false, TIGHT_TOL), run(true, TIGHT_TOL));
        let tight = two_tight.iterations;
        let seeded = seeded_one_level_iters(&oracle, domain, &bc, max_iters, TOL);
        let diff = one_tight.grid.mean_abs_diff(&two_tight.grid);
        gain_holds &= ACCEL_MIN_GAIN * two_level.iterations <= one_level.iterations;
        worst_share = worst_share.max(two_level.iterations as f64 / one_level.iterations as f64);
        worst_diff = worst_diff.max(diff);
        counts.push((two_level.iterations, tight));
        rows.push(vec![
            format!("{side}x{side}"),
            one_level.iterations.to_string(),
            seeded.to_string(),
            two_level.iterations.to_string(),
            format!(
                "{:.1}x",
                one_level.iterations as f64 / two_level.iterations as f64
            ),
            one_tight.iterations.to_string(),
            tight.to_string(),
            format!("{diff:.1e}"),
        ]);
    }
    print_table(
        &format!(
            "Ablation 1: two-level accelerated iteration (iterations to tol {TOL:.0e}; \
             tight: to {TIGHT_TOL:.0e})"
        ),
        &[
            "atomic domain",
            "one-level",
            "seed",
            "two-level",
            "gain",
            "one-level, tight",
            "two-level, tight",
            "solution diff, tight",
        ],
        &rows,
    );
    println!("(one-level Schwarz propagates boundary information one subdomain per");
    println!(" iteration, so its count grows with the domain; the coarse seed does it");
    println!(" once, and the mixing plus a coarse correction after every sweep keep");
    println!(" doing it: the two-level count is checked flat below)");
    let largest = sides[sides.len() - 1];
    let (first, last) = (counts[0], counts[counts.len() - 1]);
    let flat = |a: usize, b: usize| b as f64 <= FLATNESS_MAX * a as f64;
    vec![
        (
            gain_holds,
            format!(
                "at every domain size the two-level iteration needs at most 1/{ACCEL_MIN_GAIN} \
                 of the one-level iterations (worst share {worst_share:.3})"
            ),
        ),
        (
            worst_diff <= SOLUTION_DIFF_MAX,
            format!(
                "at every domain size the two solutions at tol {TIGHT_TOL:.0e} differ by at most \
                 {SOLUTION_DIFF_MAX:.0e} (worst {worst_diff:.1e})"
            ),
        ),
        (
            flat(first.0, last.0) && flat(first.1, last.1),
            format!(
                "the two-level count at {largest}x{largest} is at most {FLATNESS_MAX}x its count \
                 at 4x4, at tol {TOL:.0e} ({} vs {}) and at tol {TIGHT_TOL:.0e} ({} vs {})",
                last.0, first.0, last.1, first.1
            ),
        ),
    ]
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
    let claims = ablate_acceleration(spec);
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

//! Golden-fixture regression tests: seeded MFP residual trajectories (the
//! one-level iteration of Algorithm 2 and the accelerated default, one
//! fixture each) and trainer loss curves are pinned to committed fixtures under
//! `tests/fixtures/`, so a refactor that silently shifts convergence
//! behaviour fails loudly here.
//!
//! The fixtures run on the kernels that ship (`backend::simd()`; there is
//! no other production kernel set). They were recorded on the scalar
//! reference kernels, and the production kernels stay within `TOL` of
//! them on a build with FMA and on one without (CI runs this file on both);
//! kernel-by-kernel agreement with the reference is the differential
//! harness's job (`tests/backend.rs`).
//!
//! Regenerate after an *intentional* numerical change with:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test regression
//! ```
//!
//! Regeneration records the production kernels' numbers, in the build it
//! runs in.

use mosaic_flow::data::{Dataset, SubdomainSpec};
use mosaic_flow::mfp::{run_distributed, DistMfpConfig, DomainSpec, OracleSolver};
use mosaic_flow::nn::{SdNet, SdNetConfig};
use mosaic_flow::opt::LrSchedule;
use mosaic_flow::tensor::Tensor;
use mosaic_flow::train::trainer::OptKind;
use mosaic_flow::train::{train_ddp, GradSync, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

/// Relative tolerance of the fixture comparison: a value must match to
/// 1e-9 of its magnitude, and values below 1e-6 to 1e-15 absolute, so the
/// smallest residuals are not compared against a floor far above them. It
/// does not catch every change to the numerics: a reordered sum that moves
/// the last bits passes. It holds the drift between the FMA build and the
/// `x86-64-v2` one (measured: ≤ 4.5e-12 relative on the one-level
/// trajectory, ≤ 1.5e-15 on the loss curve, ≤ 3.1e-17 absolute on the
/// accelerated one, whose tail is below 1e-6; at least 46× inside the
/// bound) and a libm with differently-rounded transcendentals.
const TOL: f64 = 1e-9;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn write_fixture(name: &str, header: &str, values: &[f64]) {
    let path = fixture_path(name);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let mut out = String::new();
    for line in header.lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    for v in values {
        out.push_str(&format!("{v:.17e}\n"));
    }
    std::fs::write(&path, out).unwrap();
}

fn read_fixture(name: &str) -> Vec<f64> {
    let path = fixture_path(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\n(regenerate with UPDATE_FIXTURES=1 cargo test --test regression)",
            path.display()
        )
    });
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.trim().parse().unwrap())
        .collect()
}

/// Compare `got` against the named fixture, or rewrite the fixture when
/// `UPDATE_FIXTURES=1` is set.
fn check_fixture(name: &str, header: &str, got: &[f64]) {
    if std::env::var("UPDATE_FIXTURES").as_deref() == Ok("1") {
        write_fixture(name, header, got);
        return;
    }
    let want = read_fixture(name);
    assert_eq!(
        want.len(),
        got.len(),
        "{name}: value count changed ({} -> {}); regenerate with UPDATE_FIXTURES=1 if intended",
        want.len(),
        got.len()
    );
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        let tol = TOL * w.abs().max(1e-6);
        assert!(
            (w - g).abs() <= tol,
            "{name}: value {i} drifted: fixture {w:.17e}, got {g:.17e} \
             (|diff| {:.3e} > tol {tol:.3e}); regenerate with UPDATE_FIXTURES=1 if intended",
            (w - g).abs()
        );
    }
}

#[test]
fn mfp_residual_trajectory_matches_fixture() {
    // Algorithm 2 as printed: this fixture predates the accelerated
    // default and does not move with it.
    mfp_residual_trajectory_body(
        false,
        25,
        "mfp_residuals.txt",
        "Distributed MFP residual trajectory",
    )
}

#[test]
fn accelerated_mfp_residual_trajectory_matches_fixture() {
    // A dozen iterations take it where the one-level trajectory is after
    // some forty-five; a few more and it would stop at the tolerance.
    mfp_residual_trajectory_body(
        true,
        12,
        "mfp_residuals_accelerated.txt",
        "Distributed MFP residual trajectory, accelerated (coarse seed, Anderson mixing, coarse correction)",
    )
}

fn mfp_residual_trajectory_body(accelerate: bool, iters: usize, fixture: &str, title: &str) {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let d = DomainSpec::new(spec, 2, 2);
    let oracle = OracleSolver::new(spec, 1e-10);
    // Harmonic boundary x² − y² + x/4 along the domain walk.
    let h = d.h();
    let coords = mosaic_flow::numerics::boundary::boundary_coords(d.ny(), d.nx());
    let bc = Tensor::from_vec(
        1,
        coords.len(),
        coords
            .iter()
            .map(|&(j, i)| {
                let (x, y) = (i as f64 * h, j as f64 * h);
                x * x - y * y + 0.25 * x
            })
            .collect(),
    );
    // Fixed iteration count (tol checks still run every iteration) so the
    // trajectory length never depends on a convergence race.
    let res = run_distributed(
        &oracle,
        &d,
        &bc,
        4,
        &DistMfpConfig {
            max_iters: iters,
            tol: 1e-15,
            accelerate,
            ..Default::default()
        },
    );
    assert_eq!(res.deltas.len(), iters);
    check_fixture(
        fixture,
        &format!(
            "{title}\n\
             domain 2x2 atoms (m=9), oracle solver 1e-10, 4 ranks, {iters} iterations\n\
             one relative lattice change per line"
        ),
        &res.deltas,
    );
}

#[test]
fn trainer_loss_curve_matches_fixture() {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let ds = Dataset::generate(spec, 8, 1);
    let (train, val) = ds.split(0.75);
    let mut net_cfg = SdNetConfig::small(spec.boundary_len());
    net_cfg.conv_channels = vec![2];
    net_cfg.hidden = vec![12, 12];
    let template = SdNet::new(net_cfg, &mut ChaCha8Rng::seed_from_u64(3));
    let cfg = TrainConfig {
        epochs: 5,
        batch_size: 2,
        qd: 8,
        qc: 4,
        pde_weight: 0.05,
        schedule: LrSchedule::paper_default(10),
        opt: OptKind::Adam,
        seed: 0,
        clip_norm: None,
    };
    let res = train_ddp(2, &template, &train, &val, &cfg, GradSync::Fused);
    assert_eq!(res.logs.len(), 5);
    let mut values = Vec::new();
    for l in &res.logs {
        values.push(l.data_loss);
        values.push(l.pde_loss);
        values.push(l.val_mse);
    }
    check_fixture(
        "trainer_loss.txt",
        "2-rank DDP training curve (fused allreduce)\n\
         8 GP samples (6 train / 2 val), tiny SDNet seed 3, Adam, 5 epochs\n\
         three lines per epoch: data_loss, pde_loss, val_mse",
        &values,
    );
}

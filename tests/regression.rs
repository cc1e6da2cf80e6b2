//! Golden-fixture regression tests: seeded MFP residual trajectories (the
//! one-level iteration of Algorithm 2 and the accelerated default, one
//! fixture each) and trainer loss curves are pinned to committed fixtures under
//! `tests/fixtures/`, so a refactor that silently shifts convergence
//! behaviour fails loudly here.
//!
//! Every fixture test runs pinned to the **scalar** kernel backend
//! (`with_backend(BackendKind::Scalar, ..)`), regardless of `MF_BACKEND`
//! or the auto-detected default: the fixtures define the reference
//! numerics, and the vectorized backend's agreement with them is the
//! differential harness's job (`tests/backend.rs`), not this file's.
//! This is what lets CI run the whole test matrix under `MF_BACKEND=simd`
//! without the fixtures seeing ulp-level tanh/gelu drift.
//!
//! Regenerate after an *intentional* numerical change with:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test regression
//! ```
//!
//! (Regeneration also runs pinned to scalar, so fixtures never encode
//! vectorized-backend rounding.)

use mosaic_flow::data::{Dataset, SubdomainSpec};
use mosaic_flow::mfp::{run_distributed, DistMfpConfig, DomainSpec, OracleSolver};
use mosaic_flow::nn::{SdNet, SdNetConfig};
use mosaic_flow::opt::LrSchedule;
use mosaic_flow::tensor::{with_backend, BackendKind, Tensor};
use mosaic_flow::train::trainer::OptKind;
use mosaic_flow::train::{train_ddp, GradSync, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

/// Absolute tolerance scale for fixture comparison: values must match to
/// 1e-9 relative (1e-9 absolute for values below 1). Tight enough to
/// catch any change to the numerics, loose enough to tolerate a libm
/// with differently-rounded transcendentals.
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
        let tol = TOL * w.abs().max(1.0);
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
    with_backend(BackendKind::Scalar, || {
        mfp_residual_trajectory_body(
            false,
            25,
            "mfp_residuals.txt",
            "Distributed MFP residual trajectory",
        )
    })
}

#[test]
fn accelerated_mfp_residual_trajectory_matches_fixture() {
    with_backend(BackendKind::Scalar, || {
        // A dozen iterations take it where the one-level trajectory is
        // after some forty-five; a few more and it would stop at the tolerance.
        mfp_residual_trajectory_body(
            true,
            12,
            "mfp_residuals_accelerated.txt",
            "Distributed MFP residual trajectory, accelerated (coarse seed + Anderson mixing)",
        )
    })
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
    with_backend(BackendKind::Scalar, trainer_loss_curve_body)
}

fn trainer_loss_curve_body() {
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

/// Guard: the fixture tests above must actually run on the scalar
/// backend even when the process-wide default is simd — a regression in
/// the pinning (a dropped `with_backend`, say) would silently re-record
/// fixtures against vectorized numerics on the next UPDATE_FIXTURES run.
#[test]
fn fixture_tests_pin_the_scalar_backend() {
    use mosaic_flow::tensor::backend_kind;
    with_backend(BackendKind::Simd, || {
        let inside = with_backend(BackendKind::Scalar, backend_kind);
        assert_eq!(inside, BackendKind::Scalar);
        // and the pin is scoped: the surrounding choice is restored.
        assert_eq!(backend_kind(), BackendKind::Simd);
    });
}

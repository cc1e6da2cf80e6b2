//! Integration tests of the fault-injection stack: collectives under
//! seeded delays, checkpoint/kill/restart, and world-size-independent
//! training determinism.
//!
//! The `fault_recovery_holds_for_env_seed` test reads `MF_FAULT_SEED`
//! (default 42) so CI can sweep a seed matrix; assertion messages embed
//! the seed for local reproduction.

use mosaic_flow::data::{BatchSampler, Dataset, SubdomainSpec};
use mosaic_flow::dist::{Cluster, CrashAt, FaultPlan};
use mosaic_flow::nn::{SdNet, SdNetConfig};
use mosaic_flow::opt::{LrSchedule, Sgd};
use mosaic_flow::train::trainer::OptKind;
use mosaic_flow::train::{
    train_ddp_resumable, train_step_distributed, CheckpointConfig, GradSync, TrainConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn spec() -> SubdomainSpec {
    SubdomainSpec { m: 9, spatial: 0.5 }
}

fn env_seed() -> u64 {
    std::env::var("MF_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Acceptance criterion: kill a rank mid-training, restart from the last
/// checkpoint, and the final model is bitwise-identical to a run that
/// was never interrupted.
#[test]
fn checkpoint_kill_restart_resumes_bitwise_identically() {
    let spec = spec();
    let ds = Dataset::generate(spec, 8, 1);
    let (train, val) = ds.split(0.75);
    let mut net_cfg = SdNetConfig::small(spec.boundary_len());
    net_cfg.conv_channels = vec![2];
    net_cfg.hidden = vec![12, 12];
    let template = SdNet::new(net_cfg, &mut ChaCha8Rng::seed_from_u64(3));
    let cfg = TrainConfig {
        epochs: 6,
        batch_size: 2,
        qd: 8,
        qc: 4,
        pde_weight: 0.05,
        schedule: LrSchedule::paper_default(12),
        opt: OptKind::Adam,
        seed: 0,
        clip_norm: None,
    };

    // Uninterrupted reference.
    let reference = train_ddp_resumable(
        2,
        &template,
        &train,
        &val,
        &cfg,
        GradSync::Fused,
        FaultPlan::none(),
        None,
    )
    .unwrap();

    // Crash rank 1 mid-run with periodic checkpoints.
    let dir = std::env::temp_dir().join(format!("mf_kill_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ck = CheckpointConfig {
        dir: dir.clone(),
        every_steps: 2,
        keep: 2,
    };
    let crash_plan = FaultPlan {
        crash: Some(CrashAt {
            rank: 1,
            after_sends: 9,
        }),
        ..FaultPlan::none()
    };
    let err = train_ddp_resumable(
        2,
        &template,
        &train,
        &val,
        &cfg,
        GradSync::Fused,
        crash_plan,
        Some(&ck),
    )
    .unwrap_err();
    assert_eq!(err.origin(), 1, "{err}");
    // At least one checkpoint landed before the crash.
    assert!(
        !mosaic_flow::train::checkpoint::available_steps(&ck, 0).is_empty(),
        "no checkpoint was written before the crash"
    );

    // Restart: resumes from the newest common step and finishes.
    let resumed = train_ddp_resumable(
        2,
        &template,
        &train,
        &val,
        &cfg,
        GradSync::Fused,
        FaultPlan::none(),
        Some(&ck),
    )
    .unwrap();
    assert_eq!(
        resumed.params_flat, reference.params_flat,
        "resumed parameters are not bitwise-identical"
    );
    assert_eq!(resumed.logs.len(), reference.logs.len());
    for (a, b) in resumed.logs.iter().zip(&reference.logs) {
        assert_eq!(a.data_loss, b.data_loss, "epoch {}", a.epoch);
        assert_eq!(a.pde_loss, b.pde_loss, "epoch {}", a.epoch);
        assert_eq!(a.val_mse, b.val_mse, "epoch {}", a.epoch);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With the rank-order-fixed reduction, the same per-step batches yield
/// the same loss curve whether computed on 1, 2, or 4 ranks, and each
/// world size is bitwise-repeatable.
#[test]
fn ordered_sync_loss_curves_are_world_size_independent() {
    let ds = Dataset::generate(spec(), 8, 0);
    let mut bs = BatchSampler::new(1, 4, 4, 7);
    let batches: Vec<_> = (0..6).map(|i| bs.make_batch(&ds, &[i])).collect();
    let mut net_cfg = SdNetConfig::small(spec().boundary_len());
    net_cfg.conv_channels = vec![2];
    net_cfg.hidden = vec![10, 10];
    let template = SdNet::new(net_cfg, &mut ChaCha8Rng::seed_from_u64(11));

    let batches_ref = &batches;
    let t = &template;
    let run = |world: usize| {
        Cluster::run(world, move |comm| {
            let mut net = t.clone();
            let mut opt = Sgd::new();
            let mut curve = Vec::new();
            for batch in batches_ref {
                // Every rank sees the same batch, so the global batch is
                // world-size invariant and curves are comparable.
                let stats = train_step_distributed(
                    &mut net,
                    batch,
                    &mut opt,
                    0.05,
                    0.02,
                    comm,
                    GradSync::OrderedFused,
                );
                curve.push((stats.data_loss, stats.pde_loss));
            }
            (curve, net.params.flatten())
        })
        .into_iter()
        .next()
        .unwrap()
    };

    let (c1, p1) = run(1);
    let (c2, p2) = run(2);
    let (c4, p4) = run(4);
    // Bitwise repeatability at a fixed world size.
    let (c4b, p4b) = run(4);
    assert_eq!(c4, c4b, "4-rank run is not deterministic");
    assert_eq!(p4, p4b);
    // Cross-world-size: the ordered reduction keeps the mean of P equal
    // gradients within one ulp-accumulation of the P=1 gradient.
    for (step, ((a, b), c)) in c1.iter().zip(&c2).zip(&c4).enumerate() {
        assert!(
            (a.0 - b.0).abs() <= 1e-12 * a.0.abs().max(1.0),
            "step {step}: data loss P=1 {} vs P=2 {}",
            a.0,
            b.0
        );
        assert!(
            (a.0 - c.0).abs() <= 1e-10 * a.0.abs().max(1.0),
            "step {step}: data loss P=1 {} vs P=4 {}",
            a.0,
            c.0
        );
        assert!((a.1 - c.1).abs() <= 1e-10 * a.1.abs().max(1.0));
    }
    for ((a, b), c) in p1.iter().zip(&p2).zip(&p4) {
        assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
        assert!((a - c).abs() <= 1e-10 * a.abs().max(1.0));
    }
}

/// Seed-matrix entry point for CI: collectives under seeded delays give
/// the bitwise result of the undelayed run for whatever `MF_FAULT_SEED`
/// says (delays never reorder a link, so every rank sums the same
/// payloads in the same order).
#[test]
fn fault_recovery_holds_for_env_seed() {
    let seed = env_seed();
    let p = 4;
    let body = |c: &mut mosaic_flow::dist::Communicator| {
        let mut buf: Vec<f64> = (0..32).map(|i| (c.rank() * 32 + i) as f64 * 0.5).collect();
        c.allreduce_sum(&mut buf);
        let gathered = c.allgather(&buf[..3]);
        (buf, gathered)
    };
    let clean = Cluster::run(p, body);
    let plan = FaultPlan {
        seed,
        delay_rate: 0.5,
        delay_max_us: 2_000,
        ..FaultPlan::none()
    };
    let faulty = Cluster::try_run(p, plan, body)
        .unwrap_or_else(|e| panic!("MF_FAULT_SEED={seed}: cluster failed: {e}"));
    assert_eq!(
        clean, faulty,
        "MF_FAULT_SEED={seed}: recovered collectives deviate from lossless run"
    );
}

//! Epoch-level training, single-device and distributed: one epoch loop
//! (`run_epochs`) under a local driver ([`train_single`]) and a per-rank
//! driver ([`train_ddp_resumable`]'s closure).

use crate::checkpoint::{
    latest_step, load_checkpoint, save_checkpoint, CheckpointConfig, TrainState,
};
use crate::step::{step_core, GradSync, Reduce};
use mf_data::{BatchSampler, Dataset};
use mf_dist::{Cluster, ClusterError, CommStats, Communicator, FaultPlan};
use mf_nn::SdNet;
use mf_opt::{Adam, AdamW, Lamb, LrSchedule, Optimizer, OptimizerState, Sgd};
use mf_tensor::Tensor;
use std::time::Instant;

/// Optimizer selection for a training run.
#[derive(Clone, Copy, Debug)]
pub enum OptKind {
    /// Plain SGD.
    Sgd,
    /// Adam.
    Adam,
    /// AdamW with decoupled weight decay.
    AdamW(f64),
    /// LAMB — the paper's choice for large-batch multi-device training.
    Lamb(f64),
}

/// Hyperparameters of a training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Epochs over the (sharded) training set.
    pub epochs: usize,
    /// Boundary conditions per batch *per rank*.
    pub batch_size: usize,
    /// Data points per boundary.
    pub qd: usize,
    /// Collocation points per boundary.
    pub qc: usize,
    /// Weight of the PDE loss term.
    pub pde_weight: f64,
    /// Base (single-device) LR schedule; DDP scales it per the paper.
    pub schedule: LrSchedule,
    /// Optimizer.
    pub opt: OptKind,
    /// RNG seed for batching.
    pub seed: u64,
    /// Optional global gradient-norm clip applied before the optimizer
    /// step (guards against early PDE-loss gradient spikes).
    pub clip_norm: Option<f64>,
}

impl TrainConfig {
    /// Small defaults for tests and examples.
    pub fn small(epochs: usize, total_steps: usize) -> Self {
        Self {
            epochs,
            batch_size: 4,
            qd: 16,
            qc: 16,
            pde_weight: 0.1,
            schedule: LrSchedule::paper_default(total_steps),
            opt: OptKind::Adam,
            seed: 0,
            clip_norm: None,
        }
    }
}

/// Per-epoch training record.
#[derive(Clone, Copy, Debug)]
pub struct EpochLog {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean data loss over the epoch's steps.
    pub data_loss: f64,
    /// Mean (weighted) PDE loss over the epoch's steps.
    pub pde_loss: f64,
    /// Validation MSE on full solution grids after this epoch.
    pub val_mse: f64,
    /// Cumulative wall-clock seconds of training (excluding validation).
    pub seconds: f64,
}

/// Result of a distributed training run.
#[derive(Clone, Debug)]
pub struct DdpResult {
    /// Final parameters (identical on every rank; taken from rank 0).
    pub params_flat: Vec<f64>,
    /// Rank-0 epoch logs.
    pub logs: Vec<EpochLog>,
    /// Per-rank communication counters.
    pub comm_stats: Vec<CommStats>,
}

fn make_opt(kind: OptKind) -> Box<dyn OptimizerObj> {
    match kind {
        OptKind::Sgd => Box::new(Sgd::new()),
        OptKind::Adam => Box::new(Adam::new()),
        OptKind::AdamW(wd) => Box::new(AdamW::new(wd)),
        OptKind::Lamb(wd) => Box::new(Lamb::new(wd)),
    }
}

/// Object-safe optimizer adapter (the `Optimizer` trait is generic over
/// the parameter iterator, so box a closure-style wrapper instead).
trait OptimizerObj {
    fn step_net(&mut self, net: &mut SdNet, grads: &[Tensor], lr: f64);
    fn export_state(&self) -> OptimizerState;
    fn import_state(&mut self, state: &OptimizerState);
}

impl<O: Optimizer> OptimizerObj for O {
    fn step_net(&mut self, net: &mut SdNet, grads: &[Tensor], lr: f64) {
        self.step(net.params.tensors_mut(), grads, lr);
    }

    fn export_state(&self) -> OptimizerState {
        Optimizer::export_state(self)
    }

    fn import_state(&mut self, state: &OptimizerState) {
        Optimizer::import_state(self, state);
    }
}

fn mean_sq_diff(pred: &Tensor, truth: &Tensor) -> f64 {
    let sum: f64 = pred
        .as_slice()
        .iter()
        .zip(truth.as_slice())
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    sum / pred.numel() as f64
}

/// Mean squared error of the network against full solution grids, on the
/// `f64` graph (`SdNet::predict`): validation measures the network
/// training produced, in training's arithmetic — the compiled plan is
/// `f32`.
pub fn evaluate_mse(net: &SdNet, ds: &Dataset) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    let spec = ds.spec;
    let q = spec.m * spec.m;
    // Grid coordinates in row-major (j, i) order, matching the solution
    // tensor layout.
    let mut pts = Vec::with_capacity(q * 2);
    for j in 0..spec.m {
        for i in 0..spec.m {
            let (x, y) = spec.coords(j, i);
            pts.push(x);
            pts.push(y);
        }
    }
    let points = Tensor::from_vec(q, 2, pts);
    let acc = ds.samples.iter().fold(0.0, |acc, s| {
        acc + mean_sq_diff(&net.predict(&s.boundary, &points, q), &s.solution)
    });
    acc / ds.len() as f64
}

/// The per-rank driver's side of an epoch run: what needs the other ranks.
struct Peers<'a> {
    comm: &'a mut Communicator,
    sync: GradSync,
    ckpt: Option<&'a CheckpointConfig>,
    /// Batches every rank runs per epoch: the smallest shard's count.
    batches: usize,
}

/// The epoch loop, once: snapshot the sampler, draw the epoch, one
/// [`step_core`] per batch at the schedule's LR, checkpoint when due, then
/// the epoch's log and validation. `peers` is `None` on one device;
/// `resume` is the state a checkpoint restored, to continue
/// bitwise-identically from. Returns the epoch logs (rank 0's; empty on
/// the other ranks).
fn run_epochs(
    net: &mut SdNet,
    data: &Dataset,
    val: &Dataset,
    cfg: &TrainConfig,
    schedule: &LrSchedule,
    mut peers: Option<Peers<'_>>,
    resume: Option<TrainState>,
) -> Vec<EpochLog> {
    let rank = peers.as_ref().map_or(0, |p| p.comm.rank());
    let seed = cfg.seed.wrapping_add(rank as u64);
    let mut sampler = BatchSampler::new(cfg.batch_size, cfg.qd, cfg.qc, seed);
    let mut opt = make_opt(cfg.opt);
    let mut logs = Vec::new();
    let mut global_step = 0usize;
    let mut train_seconds = 0.0;
    let mut start_epoch = 0usize;
    let mut resume_skip = 0usize;
    let mut dl = 0.0;
    let mut pl = 0.0;
    if let Some(state) = resume {
        *net = state.net;
        opt.import_state(&state.opt);
        sampler = BatchSampler::restore(&state.sampler_at_epoch_start);
        global_step = state.step;
        start_epoch = state.epoch;
        resume_skip = state.batch_in_epoch;
        train_seconds = state.train_seconds;
        dl = state.data_loss_sum;
        pl = state.pde_loss_sum;
        logs = state.logs;
    }

    for epoch in start_epoch..cfg.epochs {
        let t0 = Instant::now();
        // Snapshot the sampler *before* drawing the epoch, so a
        // checkpoint taken mid-epoch can regenerate the identical
        // batch list and skip into it.
        let sampler_at_epoch_start = sampler.state();
        let skip = if epoch == start_epoch { resume_skip } else { 0 };
        if skip == 0 {
            dl = 0.0;
            pl = 0.0;
        }
        let mut batches = sampler.epoch(data);
        if let Some(p) = &peers {
            // Keep ranks in lockstep: shards differ in size by at most one
            // sample, which can give a larger shard one more full batch,
            // so every rank runs the smallest shard's count, known from the
            // global train length with no message. A strided shard holds
            // at least ⌊len/world⌋ samples, so no rank has fewer.
            batches.truncate(p.batches);
            assert_eq!(
                batches.len(),
                p.batches,
                "rank {rank}: shard holds fewer batches than the smallest shard's count"
            );
        }
        for (bi, batch) in batches.iter().enumerate().skip(skip) {
            let lr = schedule.lr_at(global_step);
            mf_telemetry::set_step_context(epoch as u64, global_step as u64);
            let reduce = match &mut peers {
                Some(p) => Reduce::Ranks(p.comm, p.sync),
                None => Reduce::Local,
            };
            let update = |net: &mut SdNet, grads: &[Tensor]| opt.step_net(net, grads, lr);
            let stats = step_core(net, batch, cfg.pde_weight, reduce, cfg.clip_norm, update);
            dl += stats.data_loss;
            pl += stats.pde_loss;
            global_step += 1;
            if let Some(ck) = peers.as_ref().and_then(|p| p.ckpt) {
                if global_step.is_multiple_of(ck.every_steps) {
                    let state = TrainState {
                        step: global_step,
                        epoch,
                        batch_in_epoch: bi + 1,
                        train_seconds: train_seconds + t0.elapsed().as_secs_f64(),
                        data_loss_sum: dl,
                        pde_loss_sum: pl,
                        net: net.clone(),
                        opt: opt.export_state(),
                        sampler_at_epoch_start: sampler_at_epoch_start.clone(),
                        logs: logs.clone(),
                    };
                    save_checkpoint(ck, rank, &state)
                        .unwrap_or_else(|e| panic!("rank {rank}: checkpoint save failed: {e}"));
                }
            }
        }
        train_seconds += t0.elapsed().as_secs_f64();
        let nb = batches.len().max(1) as f64;
        if rank == 0 {
            logs.push(EpochLog {
                epoch,
                data_loss: dl / nb,
                pde_loss: pl / nb,
                val_mse: evaluate_mse(net, val),
                seconds: train_seconds,
            });
        }
    }
    logs
}

/// Train on a single device: the local driver of the epoch loop — the
/// caller's thread, the caller's network, the whole compute pool, no
/// communicator and no checkpoints.
pub fn train_single(
    net: &mut SdNet,
    train: &Dataset,
    val: &Dataset,
    cfg: &TrainConfig,
) -> Vec<EpochLog> {
    run_epochs(net, train, val, cfg, &cfg.schedule, None, None)
}

/// Distributed data-parallel training (Algorithm 1) on `world` simulated
/// devices. The LR schedule is scaled per §5.2 (√batch-growth for the max
/// LR, linear for the warmup fraction); every rank trains on its strided
/// shard, as many batches per epoch as the smallest shard holds, and
/// applies the identical averaged gradient.
pub fn train_ddp(
    world: usize,
    template: &SdNet,
    train: &Dataset,
    val: &Dataset,
    cfg: &TrainConfig,
    sync: GradSync,
) -> DdpResult {
    train_ddp_resumable(
        world,
        template,
        train,
        val,
        cfg,
        sync,
        FaultPlan::none(),
        None,
    )
    .unwrap_or_else(|e| panic!("cluster failed: {e}"))
}

/// [`train_ddp`] with fault injection and periodic checkpoint/restart.
///
/// * `plan` injects delays or a rank crash into the cluster's links
///   ([`mf_dist::FaultPlan`]); [`FaultPlan::none`] reproduces `train_ddp`
///   exactly (same messages, same numerics).
/// * `ckpt`, when given, saves a per-rank [`TrainState`] every
///   `every_steps` optimizer steps (atomic write, keep-K pruning). On
///   entry every rank offers its newest on-disk step and the cluster
///   resumes from the *minimum* common step — or from scratch if any rank
///   has nothing. A resumed run replays the epoch's batch list from the
///   sampler snapshot and continues bitwise-identically to a run that was
///   never interrupted. Panics, before any rank starts, on a cadence or a
///   keep count of zero.
///
/// Rank panics (including injected crashes) surface as a typed
/// [`ClusterError`] naming the failed rank instead of hanging.
#[allow(clippy::too_many_arguments)]
pub fn train_ddp_resumable(
    world: usize,
    template: &SdNet,
    train: &Dataset,
    val: &Dataset,
    cfg: &TrainConfig,
    sync: GradSync,
    plan: FaultPlan,
    ckpt: Option<&CheckpointConfig>,
) -> Result<DdpResult, ClusterError> {
    if let Some(ck) = ckpt {
        ck.validate();
    }
    let schedule = cfg.schedule.scaled_for_devices(world);
    // The per-rank driver of the epoch loop.
    let results = Cluster::try_run(world, plan, |comm| {
        let rank = comm.rank();
        // A rank is a device: one of `world` threads computing at once.
        let _lane = mf_tensor::par::compute_lanes(world);
        // Resume negotiation: every rank offers its newest checkpointed
        // step (−1 when it has none); the run restarts from the newest
        // step *all* ranks have, so a crash that interrupted some ranks
        // mid-save rolls everyone back to a consistent state.
        let resume = ckpt.and_then(|ck| {
            let mine = latest_step(ck, rank).map(|s| s as f64).unwrap_or(-1.0);
            let offers = comm.allgather(&[mine]);
            let common = offers.iter().map(|v| v[0]).fold(f64::INFINITY, f64::min);
            (common >= 0.0).then(|| {
                load_checkpoint(ck, common as usize, rank).unwrap_or_else(|e| {
                    panic!("rank {rank}: failed to load checkpoint at step {common}: {e}")
                })
            })
        });
        let mut net = template.clone();
        let shard = train.shard(rank, world);
        let peers = Peers {
            comm: &mut *comm,
            sync,
            ckpt,
            batches: train.len() / world / cfg.batch_size,
        };
        let logs = run_epochs(&mut net, &shard, val, cfg, &schedule, Some(peers), resume);
        (net.params.flatten(), logs, comm.stats())
    })?;

    let comm_stats = results.iter().map(|(_, _, s)| *s).collect();
    let (params_flat, logs, _) = results.into_iter().next().unwrap();
    Ok(DdpResult {
        params_flat,
        logs,
        comm_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_data::SubdomainSpec;
    use mf_nn::SdNetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_net(seed: u64, boundary_len: usize) -> SdNet {
        let mut cfg = SdNetConfig::small(boundary_len);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![12, 12];
        SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    fn tiny_cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 2,
            qd: 8,
            qc: 4,
            pde_weight: 0.05,
            schedule: LrSchedule {
                max_lr: 3e-3,
                warmup_frac: 0.05,
                total_steps: epochs * 4,
            },
            opt: OptKind::Adam,
            seed: 0,
            clip_norm: None,
        }
    }

    #[test]
    fn single_device_training_reduces_validation_mse() {
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        // 16 samples (12 train / 4 val) keep the validation signal stable;
        // with only 2 validation samples the MSE is too noisy to assert on.
        let ds = Dataset::generate(spec, 16, 2);
        let (train, val) = ds.split(0.8);
        let mut net = tiny_net(0, spec.boundary_len());
        let before = evaluate_mse(&net, &val);
        let logs = train_single(&mut net, &train, &val, &tiny_cfg(30));
        let after = logs.last().unwrap().val_mse;
        assert!(
            after < before * 0.8,
            "val MSE did not improve: {before} -> {after}"
        );
        // Training loss must also have dropped substantially.
        assert!(
            logs.last().unwrap().data_loss < logs[0].data_loss * 0.5,
            "data loss: {} -> {}",
            logs[0].data_loss,
            logs.last().unwrap().data_loss
        );
        // Logs are complete and time is monotone.
        assert_eq!(logs.len(), 30);
        assert!(logs.windows(2).all(|w| w[1].seconds >= w[0].seconds));
    }

    #[test]
    fn ddp_ranks_agree_and_learn() {
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let ds = Dataset::generate(spec, 8, 1);
        let (train, val) = ds.split(0.75);
        let template = tiny_net(1, spec.boundary_len());
        let before = evaluate_mse(&template, &val);
        let res = train_ddp(2, &template, &train, &val, &tiny_cfg(6), GradSync::Fused);
        assert_eq!(res.logs.len(), 6);
        let after = res.logs.last().unwrap().val_mse;
        assert!(after < before, "DDP did not learn: {before} -> {after}");
        // Communication happened on both ranks and is symmetric in volume.
        assert!(res.comm_stats[0].msgs_sent > 0);
        assert_eq!(res.comm_stats[0].bytes_sent, res.comm_stats[1].bytes_sent);
    }

    #[test]
    fn uneven_shards_run_the_smallest_shards_batch_count() {
        // 15 samples over 2 ranks: strided shards of 8 and 7, which make
        // one batch of 8 and none. Every rank runs none.
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let train = Dataset::generate(spec, 15, 7);
        let val = Dataset::generate(spec, 2, 8);
        let template = tiny_net(1, spec.boundary_len());
        let cfg = TrainConfig {
            batch_size: 8,
            ..tiny_cfg(2)
        };
        let res = train_ddp(2, &template, &train, &val, &cfg, GradSync::Fused);
        assert_eq!(res.logs.len(), 2);
        assert_eq!(res.params_flat, template.params.flatten());
        assert_eq!(res.comm_stats[0].msgs_sent, res.comm_stats[1].msgs_sent);
    }

    #[test]
    fn one_rank_is_bitwise_the_single_device() {
        // The training twin of `one_rank_is_bitwise_the_sequential_mfp`:
        // the per-rank driver at world 1 (LR scaled by √1, seed + 0, a
        // mean over one rank) is the local driver, whatever the sync
        // strategy, the optimizer or the clip.
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let ds = Dataset::generate(spec, 10, 4);
        let (train, val) = ds.split(0.8);
        let template = tiny_net(3, spec.boundary_len());
        for opt in [OptKind::Adam, OptKind::Lamb(0.01)] {
            let mut unclipped = None;
            for clip_norm in [None, Some(0.05)] {
                let cfg = TrainConfig {
                    opt,
                    clip_norm,
                    ..tiny_cfg(3)
                };
                let mut net = template.clone();
                let single = train_single(&mut net, &train, &val, &cfg);
                let params = net.params.flatten();
                // The clip bites, or its cases would repeat the plain ones.
                if let Some(plain) = unclipped.replace(params.clone()) {
                    assert_ne!(plain, params, "{opt:?}: clip {clip_norm:?} changed nothing");
                }
                for sync in [GradSync::Fused, GradSync::PerLoss, GradSync::OrderedFused] {
                    let case = format!("{opt:?}, clip {clip_norm:?}, {sync:?}");
                    let ddp = train_ddp(1, &template, &train, &val, &cfg, sync);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&ddp.params_flat), bits(&params), "{case}: parameters");
                    let curve = |logs: &[EpochLog]| {
                        let of = |l: &EpochLog| bits(&[l.data_loss, l.pde_loss, l.val_mse]);
                        logs.iter().map(of).collect::<Vec<_>>()
                    };
                    assert_eq!(curve(&ddp.logs), curve(&single), "{case}: epoch logs");
                }
            }
        }
    }

    /// A run whose result is dropped: only a panic on the calling thread,
    /// before `Cluster::try_run` has a rank to report, reaches the test.
    fn run_with_checkpoints(ck: &CheckpointConfig) {
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let ds = Dataset::generate(spec, 8, 1);
        let (train, val) = ds.split(0.75);
        let template = tiny_net(1, spec.boundary_len());
        let _ = train_ddp_resumable(
            2,
            &template,
            &train,
            &val,
            &tiny_cfg(1),
            GradSync::Fused,
            FaultPlan::none(),
            Some(ck),
        );
    }

    #[test]
    #[should_panic(expected = "CheckpointConfig::every_steps must be at least 1")]
    fn zero_checkpoint_cadence_is_rejected_at_entry() {
        run_with_checkpoints(&CheckpointConfig {
            dir: std::env::temp_dir().join("mf_ckpt_zero_cadence"),
            every_steps: 0,
            keep: 2,
        });
    }

    #[test]
    #[should_panic(expected = "CheckpointConfig::keep must be at least 1")]
    fn zero_checkpoint_keep_is_rejected_at_entry() {
        run_with_checkpoints(&CheckpointConfig {
            dir: std::env::temp_dir().join("mf_ckpt_zero_keep"),
            every_steps: 1,
            keep: 0,
        });
    }

    #[test]
    fn clipped_training_still_learns() {
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let ds = Dataset::generate(spec, 10, 3);
        let (train, val) = ds.split(0.8);
        let mut net = tiny_net(5, spec.boundary_len());
        let before = evaluate_mse(&net, &val);
        let mut cfg = tiny_cfg(20);
        cfg.clip_norm = Some(1.0);
        let logs = train_single(&mut net, &train, &val, &cfg);
        assert!(
            logs.last().unwrap().val_mse < before,
            "clipped training did not improve: {} -> {}",
            before,
            logs.last().unwrap().val_mse
        );
    }

    #[test]
    fn evaluate_mse_is_zero_for_perfect_oracle() {
        // A network can't be perfect, but MSE must be exactly 0 when
        // predictions equal the stored solution — check the plumbing by
        // comparing a solution against itself through the same code path.
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let ds = Dataset::generate(spec, 1, 2);
        // evaluate by hand: reuse the internal point layout.
        let s = &ds.samples[0];
        let q = spec.m * spec.m;
        let mut pts = Vec::new();
        for j in 0..spec.m {
            for i in 0..spec.m {
                let (x, y) = spec.coords(j, i);
                pts.push(x);
                pts.push(y);
            }
        }
        assert_eq!(pts.len(), q * 2);
        // The flattened row-major order of the solution must match the
        // point order used by evaluate_mse.
        let first_xy = (pts[0], pts[1]);
        assert_eq!(first_xy, (0.0, 0.0));
        assert_eq!(s.solution.get(0, 0), s.solution.as_slice()[0]);
    }
}

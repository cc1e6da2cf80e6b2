//! `train_ddp`: Algorithm 1 at world 2. Inside `Cluster::run(2, …)` each
//! rank loops `train_step_distributed` (LAMB, fused gradient sync) over
//! pre-sampled batches of its shard; a unit is one step, timed on rank 0.

use crate::fixture::{self, SPEC};
use crate::run::{Alternate, Run, Size};
use crate::spans::{Recorder, NONE};
use crate::{host, inputs, stats};
use mf_data::{Batch, BatchSampler, Dataset};
use mf_dist::{Cluster, Communicator};
use mf_nn::SdNet;
use mf_opt::{Lamb, LrSchedule, Optimizer};
use mf_tensor::Tensor;
use mf_train::{evaluate_mse, local_gradients, train_step_distributed, GradSync};
use std::time::Instant;

pub const WORLD: usize = 2;
const SAMPLES: usize = 64;
const BATCH: usize = 8;
const QD: usize = 48;
const QC: usize = 16;
const PDE_WEIGHT: f64 = 0.02;
/// Epochs of batches sampled ahead per rank; the window cycles them.
const PRESAMPLED_EPOCHS: usize = 16;
/// Length the learning-rate schedule is laid out for. Fixed, so that the
/// parameters after [`ACCURACY_STEP`] steps do not depend on `--seconds`.
const SCHEDULE_STEPS: usize = 4000;
/// `accuracy_err` is taken from the parameters after exactly this many steps.
pub const ACCURACY_STEP: usize = 300;
const VAL_SAMPLES: usize = 32;
const VAL_SEED: u64 = 77;
/// Steps over which the composed step must stay bitwise equal to
/// `train_step_distributed` before a traced run may use it.
const EQUALITY_STEPS: usize = 50;

fn schedule() -> LrSchedule {
    LrSchedule {
        max_lr: 8e-3,
        ..LrSchedule::paper_default(SCHEDULE_STEPS)
    }
    .scaled_for_devices(WORLD)
}

/// Per-rank batch lists, sampled as `train_ddp` samples them.
fn presample(train: &Dataset, epochs: usize) -> Vec<Vec<Batch>> {
    (0..WORLD)
        .map(|rank| {
            let shard = train.shard(rank, WORLD);
            let mut sampler = BatchSampler::new(BATCH, QD, QC, rank as u64);
            (0..epochs).flat_map(|_| sampler.epoch(&shard)).collect()
        })
        .collect()
}

/// `train_step_distributed` with `GradSync::Fused`, put together from its
/// public pieces so that the benchmark can put a span around each.
fn composed_step(
    net: &mut SdNet,
    batch: &Batch,
    opt: &mut Lamb,
    lr: f64,
    comm: &mut Communicator,
    rec: &mut Recorder,
    unit: u32,
) -> (f64, f64) {
    let root = rec.begin("unit", NONE, unit);
    let s = rec.begin("train.local_gradients", root, unit);
    let (data_grads, pde_grads, stats) = local_gradients(net, batch, PDE_WEIGHT);
    rec.end(s);
    let s = rec.begin("train.flatten", root, unit);
    let local: Vec<Tensor> = data_grads
        .iter()
        .zip(&pde_grads)
        .map(|(d, p)| d.add(p))
        .collect();
    let mut flat: Vec<f64> = local
        .iter()
        .flat_map(|t| t.as_slice().iter().copied())
        .collect();
    rec.end(s);
    let s = rec.begin("train.allreduce_mean", root, unit);
    comm.allreduce_mean(&mut flat);
    rec.end(s);
    let s = rec.begin("train.opt_step", root, unit);
    let mut off = 0;
    let grads: Vec<Tensor> = local
        .iter()
        .map(|t| {
            let g = Tensor::from_vec(t.rows(), t.cols(), flat[off..off + t.numel()].to_vec());
            off += t.numel();
            g
        })
        .collect();
    opt.step(net.params.tensors_mut(), &grads, lr);
    rec.end(s);
    mf_telemetry::publish_thread();
    rec.end(root);
    (stats.data_loss, stats.pde_loss)
}

/// Run `steps` steps from `template` on both ranks and return rank 0's
/// parameters.
fn params_after(
    template: &SdNet,
    batches: &[Vec<Batch>],
    steps: usize,
    composed: bool,
) -> Vec<f64> {
    let sched = schedule();
    let mut outs = Cluster::run(WORLD, |comm| {
        let mine = &batches[comm.rank()];
        let mut net = template.clone();
        let mut opt = Lamb::new(0.0);
        let mut rec = Recorder::new(false, Instant::now(), 0);
        for step in 0..steps {
            let (batch, lr) = (&mine[step % mine.len()], sched.lr_at(step));
            if composed {
                composed_step(&mut net, batch, &mut opt, lr, comm, &mut rec, 0);
            } else {
                train_step_distributed(
                    &mut net,
                    batch,
                    &mut opt,
                    lr,
                    PDE_WEIGHT,
                    comm,
                    GradSync::Fused,
                );
            }
        }
        net.params.flatten()
    });
    outs.swap_remove(0)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

struct RankOut {
    unit_ms: Vec<f64>,
    done_s: Vec<f64>,
    cpu_s: f64,
    nonfinite: usize,
    loss_at_accuracy_step: f64,
    snapshot: Vec<f64>,
    params: Vec<f64>,
    peak_bytes: usize,
    heap_allocs: Vec<f64>,
    rec: Recorder,
}

pub fn run(seed: u64, size: &Size) -> Result<Run, String> {
    // Set-up from fresh state: data set → network → sampled batches →
    // ranks spawned → first step done.
    let set_up = || {
        let t = Instant::now();
        let train = inputs::training_set(SAMPLES, seed);
        let template = fixture::fresh_net(0);
        let batches = presample(&train, 1);
        std::hint::black_box(params_after(&template, &batches, 1, false));
        (train, template, t.elapsed().as_secs_f64())
    };
    let (train, template, cold) = set_up();
    let mut setup_s = vec![cold];
    let batches = presample(&train, PRESAMPLED_EPOCHS);

    if size.alternate == Alternate::Spans {
        let a = params_after(&template, &batches, EQUALITY_STEPS, false);
        let b = params_after(&template, &batches, EQUALITY_STEPS, true);
        if !same_bits(&a, &b) {
            return Err(format!(
                "the composed step and train_step_distributed differ after {EQUALITY_STEPS} steps"
            ));
        }
    }

    let sched = schedule();
    let n = size.units;
    let acc_step = ACCURACY_STEP.min(n);
    let epoch = Instant::now();
    let outs = Cluster::run(WORLD, |comm| {
        let rank = comm.rank();
        let mine = &batches[rank];
        {
            // Warm-up on a throw-away copy of the network, so that this
            // rank thread's graph pool is full when timing starts. Rank 0
            // decides when it is over; the allreduce tells the other rank.
            let mut net = template.clone();
            let mut opt = Lamb::new(0.0);
            let warm_from = Instant::now();
            for step in 0.. {
                let batch = &mine[step % mine.len()];
                train_step_distributed(
                    &mut net,
                    batch,
                    &mut opt,
                    sched.lr_at(step),
                    PDE_WEIGHT,
                    comm,
                    GradSync::Fused,
                );
                let mut more = vec![if warm_from.elapsed() < size.warmup {
                    1.0
                } else {
                    0.0
                }];
                comm.broadcast(0, &mut more);
                if more[0] == 0.0 {
                    break;
                }
            }
        }
        let mut net = template.clone();
        let mut opt = Lamb::new(0.0);
        let mut out = RankOut {
            unit_ms: Vec::with_capacity(n),
            done_s: Vec::with_capacity(n),
            cpu_s: 0.0,
            nonfinite: 0,
            loss_at_accuracy_step: f64::NAN,
            snapshot: Vec::new(),
            params: Vec::new(),
            peak_bytes: 0,
            heap_allocs: Vec::with_capacity(n),
            rec: Recorder::new(false, epoch, rank as u32),
        };
        comm.barrier();
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        for step in 0..n {
            let (batch, lr) = (&mine[step % mine.len()], sched.lr_at(step));
            size.enter(step, &mut out.rec);
            let t = Instant::now();
            let (data_loss, pde_loss) = if out.rec.on() {
                composed_step(
                    &mut net,
                    batch,
                    &mut opt,
                    lr,
                    comm,
                    &mut out.rec,
                    step as u32,
                )
            } else {
                let s = train_step_distributed(
                    &mut net,
                    batch,
                    &mut opt,
                    lr,
                    PDE_WEIGHT,
                    comm,
                    GradSync::Fused,
                );
                out.peak_bytes = out.peak_bytes.max(s.peak_bytes);
                out.heap_allocs.push(s.heap_allocs as f64);
                (s.data_loss, s.pde_loss)
            };
            out.unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.done_s.push(start.elapsed().as_secs_f64());
            if !(data_loss.is_finite() && pde_loss.is_finite()) {
                out.nonfinite += 1;
            }
            if step + 1 == acc_step {
                out.loss_at_accuracy_step = data_loss + pde_loss;
                out.snapshot = net.params.flatten();
            }
        }
        comm.barrier();
        out.cpu_s = host::cpu_seconds() - cpu0;
        out.params = net.params.flatten();
        out
    });
    let peak_rss_mb = host::peak_rss_mb();
    for _ in 1..size.setup_reps {
        setup_s.push(set_up().2);
    }
    let [r0, r1]: [RankOut; WORLD] = outs
        .try_into()
        .map_err(|_| "the cluster did not return one result per rank")?;

    // Untimed: ranks must have ended on the same bits; accuracy from the
    // snapshot against a fixed validation set.
    let mut failed = r0.nonfinite.max(r1.nonfinite);
    if !same_bits(&r0.params, &r1.params) {
        failed = n;
    }
    let val = Dataset::generate(SPEC, VAL_SAMPLES, VAL_SEED);
    let mut net = template.clone();
    net.params.unflatten(&r0.snapshot);
    let rmse = evaluate_mse(&net, &val).sqrt();
    let rms_ref = {
        let (sum, count) = val
            .samples
            .iter()
            .flat_map(|s| s.solution.as_slice())
            .fold((0.0, 0usize), |(s, c), v| (s + v * v, c + 1));
        (sum / count as f64).sqrt()
    };

    let facts = vec![
        (
            "train.grads_ms",
            r0.rec.median_us("train.local_gradients") / 1e3,
        ),
        (
            "train.sync_ms",
            (r0.rec.median_us("train.flatten") + r0.rec.median_us("train.allreduce_mean")) / 1e3,
        ),
        ("train.opt_ms", r0.rec.median_us("train.opt_step") / 1e3),
        (
            "train.graph_peak_mb",
            r0.peak_bytes as f64 / (1 << 20) as f64,
        ),
        ("train.heap_allocs_per_step", stats::median(&r0.heap_allocs)),
        ("train.loss_at_300", r0.loss_at_accuracy_step),
    ];
    Ok(Run {
        setup_s,
        unit_ms: r0.unit_ms,
        done_s: r0.done_s,
        cpu_s: r0.cpu_s,
        peak_rss_mb,
        failed: failed.min(n),
        accuracy_err: rmse / rms_ref,
        facts,
        recorders: vec![r0.rec, r1.rec],
    })
}

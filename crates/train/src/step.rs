//! One training iteration — Algorithm 1 of the paper.
//!
//! ```text
//! Step 1: forward + backward on data points        (no sync)
//! Step 2: forward + backward on collocation points (accumulate grads)
//! Step 3: ONE allreduce-mean of the accumulated gradient
//! ```
//!
//! Splitting the two point sets into separate passes keeps the data loss
//! applied only where solutions are known; accumulating before a single
//! fused allreduce preserves exact SGD semantics (a true global average)
//! while paying one collective per iteration instead of two.
//!
//! The step is written once, in the private `step_core`, parameterised by
//! where the gradients are averaged: [`train_step_single`] (nowhere) and
//! [`train_step_distributed`] (across a communicator) are that core without
//! a clip, and the epoch loops of [`crate::trainer`] call it with theirs.

use crate::losses::{data_loss, pde_loss};
use mf_autodiff::Graph;
use mf_data::Batch;
use mf_dist::Communicator;
use mf_nn::SdNet;
use mf_observe::GradHealth;
use mf_opt::Optimizer;
use mf_telemetry::{counter, gauge, span, Counter, Gauge};
use mf_tensor::Tensor;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};

thread_local! {
    /// The per-rank training graph. It persists across steps so that the
    /// buffer pool it owns reaches a steady state: after the first step
    /// every tensor the hot path needs comes back out of the pool and the
    /// heap allocator is no longer involved.
    static STEP_GRAPH: RefCell<Graph> = RefCell::new(Graph::new());
    static CKPT_SEGMENTS: Cell<bool> = const { Cell::new(false) };
}

/// Opt into checkpointed segments for the second-order residual backward
/// on this thread: the PDE loss evicts cheap-to-recompute node values
/// between its inner backward passes and rematerializes them on demand
/// (bitwise-identically) during the weight backward. Trades FLOPs for
/// peak graph bytes; off by default.
pub fn set_checkpointed_segments(on: bool) {
    CKPT_SEGMENTS.with(|c| c.set(on));
}

/// Whether [`set_checkpointed_segments`] is active on this thread.
pub fn checkpointed_segments() -> bool {
    CKPT_SEGMENTS.with(|c| c.get())
}

/// Gradient synchronization strategy (ablation knob).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GradSync {
    /// Algorithm 1: accumulate data + collocation gradients locally, one
    /// fused allreduce.
    Fused,
    /// One allreduce per loss term (what naive DDP hooks would do): same
    /// numerics, twice the latency cost.
    PerLoss,
    /// Like [`GradSync::Fused`] but the mean is computed in a fixed rank
    /// order (allgather + ordered local sum), so the floating-point
    /// reduction is independent of the world size. Costs more bandwidth
    /// than the ring allreduce; use it when loss curves must match
    /// across 1/2/4-rank runs bit-for-bit.
    OrderedFused,
}

/// Cached `mf-telemetry` handles for the trainer hot path (registered
/// once; recording is thread-local and lock-free).
pub(crate) struct TrainMetrics {
    pub graph_nodes: Gauge,
    pub graph_bytes: Gauge,
    pub bytes_peak: Gauge,
    pub pool_hits: Counter,
    pub pool_misses: Counter,
    pub allocs_per_step: Gauge,
    pub grad_norm: Gauge,
    pub nonfinite_grads: Counter,
}

/// The shared trainer metric handles.
pub(crate) fn train_metrics() -> &'static TrainMetrics {
    use std::sync::OnceLock;
    static M: OnceLock<TrainMetrics> = OnceLock::new();
    M.get_or_init(|| TrainMetrics {
        graph_nodes: gauge("autodiff.graph_nodes"),
        graph_bytes: gauge("autodiff.graph_bytes"),
        bytes_peak: gauge("graph.bytes_peak"),
        pool_hits: counter("pool.hits"),
        pool_misses: counter("pool.misses"),
        allocs_per_step: gauge("graph.allocs_per_step"),
        grad_norm: gauge("health.grad_norm"),
        nonfinite_grads: counter("health.nonfinite_grads"),
    })
}

/// Metrics from one training step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Data-loss value.
    pub data_loss: f64,
    /// PDE-loss value (after weighting).
    pub pde_loss: f64,
    /// Autograd nodes created this step.
    pub graph_nodes: usize,
    /// Autograd bytes held at peak (sum over both passes).
    pub graph_bytes: usize,
    /// High-water mark of live graph bytes within a single pass.
    pub peak_bytes: usize,
    /// Tensor-buffer acquisitions served from the graph's pool this step.
    pub pool_hits: u64,
    /// Tensor-buffer acquisitions that had to touch the heap allocator.
    pub pool_misses: u64,
    /// Heap allocations attributable to the graph this step (pool misses
    /// plus adopted external buffers). Near zero once the pool is warm.
    pub heap_allocs: u64,
}

/// Compute the local (unsynchronized) gradients of
/// `L = L_data + pde_weight · L_pde` for one batch, using two separate
/// forward/backward passes as in Algorithm 1.
///
/// Returns `(data_grads, pde_grads, stats)` so callers choose how to
/// combine/synchronize; `pde_grads` is already scaled by `pde_weight`.
pub fn local_gradients(
    net: &SdNet,
    batch: &Batch,
    pde_weight: f64,
) -> (Vec<Tensor>, Vec<Tensor>, StepStats) {
    STEP_GRAPH.with(|cell| {
        let g = &mut *cell.borrow_mut();
        g.set_checkpointing(checkpointed_segments());
        let pool_before = g.pool_stats();
        let allocs_before = g.heap_allocs();
        let mut stats = StepStats::default();

        // Pass 1: data points. `clear()` recycles the previous step's
        // buffers into the pool instead of freeing them, so a warm graph
        // rebuilds the tape without touching the heap allocator.
        let data_grads = {
            span!("train.data_pass");
            g.clear();
            let bound = net.params.bind(g);
            let ld = data_loss(g, net, &bound, batch);
            stats.data_loss = g.value(ld).item();
            let dgrads = {
                mf_profile::zone!("vjp_data");
                g.grad(ld, bound.all_vars())
            };
            let data_grads: Vec<Tensor> = dgrads.iter().map(|&v| g.value(v).clone()).collect();
            stats.graph_nodes += g.len();
            stats.graph_bytes += g.bytes_allocated();
            stats.peak_bytes = stats.peak_bytes.max(g.peak_bytes());
            data_grads
        };

        // Pass 2: collocation points (cleared tape, like a fresh autograd
        // graph in PyTorch once the first backward freed its buffers).
        let pde_grads = {
            span!("train.pde_pass");
            g.clear();
            let bound = net.params.bind(g);
            let lp = pde_loss(g, net, &bound, batch);
            let lp = g.scale(lp, pde_weight);
            stats.pde_loss = g.value(lp).item();
            let pgrads = {
                mf_profile::zone!("vjp_pde");
                g.grad(lp, bound.all_vars())
            };
            let pde_grads: Vec<Tensor> = pgrads.iter().map(|&v| g.value(v).clone()).collect();
            stats.graph_nodes += g.len();
            stats.graph_bytes += g.bytes_allocated();
            stats.peak_bytes = stats.peak_bytes.max(g.peak_bytes());
            pde_grads
        };

        let pool_delta = g.pool_stats().since(&pool_before);
        stats.pool_hits = pool_delta.hits;
        stats.pool_misses = pool_delta.misses;
        stats.heap_allocs = g.heap_allocs() - allocs_before;

        // Numerical-health watchdog: one allocation-free pass over the
        // gradients the step already produced. The gauge/counter updates
        // are lock-free; the post-mortem dump fires at most once per
        // process (and only when MF_OBSERVE enables bundle writing), so
        // the warm-step allocation pin above stays intact.
        let mut health = GradHealth::default();
        for t in data_grads.iter().chain(&pde_grads) {
            health.scan(t.as_slice());
        }
        let health = health.finish();

        let m = train_metrics();
        m.grad_norm.set(health.norm);
        if health.is_bad() {
            m.nonfinite_grads.add(health.nan + health.inf);
            mf_observe::record("train.nonfinite_grad", health.nan + health.inf, health.norm);
            dump_on_first_nonfinite(&health, &stats);
        }
        m.graph_nodes.update(|v| v.max(stats.graph_nodes as f64));
        m.graph_bytes.update(|v| v.max(stats.graph_bytes as f64));
        m.bytes_peak.update(|v| v.max(stats.peak_bytes as f64));
        m.pool_hits.add(stats.pool_hits);
        m.pool_misses.add(stats.pool_misses);
        m.allocs_per_step.set(stats.heap_allocs as f64);

        (data_grads, pde_grads, stats)
    })
}

/// First non-finite gradient in the process triggers one post-mortem
/// bundle; later incidents only bump the `health.nonfinite_grads`
/// counter (a diverged run produces NaNs every step — one bundle is the
/// useful artifact, a thousand are noise).
static NONFINITE_DUMPED: AtomicBool = AtomicBool::new(false);

fn dump_on_first_nonfinite(health: &GradHealth, stats: &StepStats) {
    if NONFINITE_DUMPED.swap(true, Ordering::SeqCst) {
        return;
    }
    let (epoch, step) = mf_telemetry::step_context();
    mf_observe::postmortem::dump(
        &mf_observe::postmortem::DumpReason {
            kind: "nonfinite-gradient".to_string(),
            detail: format!(
                "{} NaN + {} Inf gradient elements at epoch {} step {} (finite-part norm {:.3e})",
                health.nan, health.inf, epoch, step, health.norm
            ),
            failing_rank: mf_telemetry::thread_rank(),
        },
        &format!(
            "data_loss = {:.6e}\npde_loss = {:.6e}\ngraph_nodes = {}",
            stats.data_loss, stats.pde_loss, stats.graph_nodes
        ),
    );
}

/// Where one step's gradients are averaged before the update.
pub(crate) enum Reduce<'a> {
    /// Nowhere: one device holds the whole batch.
    Local,
    /// Across the communicator's ranks, by the given strategy.
    Ranks(&'a mut Communicator, GradSync),
}

fn sum(data_grads: &[Tensor], pde_grads: &[Tensor]) -> Vec<Tensor> {
    data_grads
        .iter()
        .zip(pde_grads)
        .map(|(d, p)| d.add(p))
        .collect()
}

/// `grads` after `allreduce` has run over them as one flat buffer: one
/// collective however many parameter tensors there are.
fn averaged(mut grads: Vec<Tensor>, allreduce: impl FnOnce(&mut [f64])) -> Vec<Tensor> {
    let mut flat = Vec::with_capacity(grads.iter().map(|t| t.numel()).sum());
    for t in &grads {
        flat.extend_from_slice(t.as_slice());
    }
    allreduce(&mut flat);
    let mut rest = flat.as_slice();
    for t in &mut grads {
        let (mine, tail) = rest.split_at(t.numel());
        t.as_mut_slice().copy_from_slice(mine);
        rest = tail;
    }
    assert!(rest.is_empty(), "averaged: length mismatch");
    grads
}

/// Algorithm 1, once: local gradients of both passes, combined and averaged
/// as `reduce` says, clipped to `clip_norm` if given, then handed to
/// `update` — the optimizer step, passed as the update it performs so that
/// an `impl Optimizer` and the trainer's boxed one reach the same code.
/// Every training step in the crate is this function.
pub(crate) fn step_core(
    net: &mut SdNet,
    batch: &Batch,
    pde_weight: f64,
    reduce: Reduce<'_>,
    clip_norm: Option<f64>,
    update: impl FnOnce(&mut SdNet, &[Tensor]),
) -> StepStats {
    span!("train.step", epoch = mf_telemetry::step_context().0);
    let (data_grads, pde_grads, stats) = local_gradients(net, batch, pde_weight);
    let mut grads = match reduce {
        Reduce::Local => sum(&data_grads, &pde_grads),
        Reduce::Ranks(comm, sync) => {
            span!("train.sync");
            match sync {
                // Accumulate locally (line 9), then one allreduce (line 10).
                GradSync::Fused => averaged(sum(&data_grads, &pde_grads), |flat| {
                    comm.allreduce_mean(flat)
                }),
                GradSync::OrderedFused => averaged(sum(&data_grads, &pde_grads), |flat| {
                    comm.allreduce_mean_ordered(flat)
                }),
                // Naive variant: synchronize each term separately.
                GradSync::PerLoss => sum(
                    &averaged(data_grads, |flat| comm.allreduce_mean(flat)),
                    &averaged(pde_grads, |flat| comm.allreduce_mean(flat)),
                ),
            }
        }
    };
    if let Some(max) = clip_norm {
        mf_opt::clip_grad_norm(&mut grads, max);
    }
    {
        span!("train.opt");
        update(net, &grads);
    }
    // Make this step's metrics visible to a live /metrics scrape
    // (a warm publish does not allocate).
    mf_telemetry::publish_thread();
    stats
}

/// Single-device training step: local gradients, optimizer update. No
/// clipping — `clip_norm` belongs to the epoch loops' [`TrainConfig`].
///
/// A caller that loops over this itself sets the `(epoch, step)` its spans
/// and flight-recorder entries are filed under
/// ([`mf_telemetry::set_step_context`]); only the epoch loops do it for you.
///
/// [`TrainConfig`]: crate::trainer::TrainConfig
pub fn train_step_single(
    net: &mut SdNet,
    batch: &Batch,
    opt: &mut impl Optimizer,
    lr: f64,
    pde_weight: f64,
) -> StepStats {
    step_core(net, batch, pde_weight, Reduce::Local, None, |net, grads| {
        opt.step(net.params.tensors_mut(), grads, lr)
    })
}

/// Distributed training step (Algorithm 1). Every rank calls this with its
/// own shard's batch; parameters stay bit-identical across ranks because
/// each applies the same averaged gradient. No clipping, and the caller
/// sets the step context, as for [`train_step_single`].
pub fn train_step_distributed(
    net: &mut SdNet,
    batch: &Batch,
    opt: &mut impl Optimizer,
    lr: f64,
    pde_weight: f64,
    comm: &mut Communicator,
    sync: GradSync,
) -> StepStats {
    // Every rank runs this step at once: one lane each (a no-op under
    // `train_ddp`, which declares its ranks itself).
    let _lane = mf_tensor::par::compute_lanes(comm.size());
    let reduce = Reduce::Ranks(comm, sync);
    step_core(net, batch, pde_weight, reduce, None, |net, grads| {
        opt.step(net.params.tensors_mut(), grads, lr)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_data::{BatchSampler, Dataset, SubdomainSpec};
    use mf_dist::Cluster;
    use mf_nn::SdNetConfig;
    use mf_opt::Sgd;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_net(seed: u64) -> SdNet {
        let mut cfg = SdNetConfig::small(32);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![10, 10];
        SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    fn tiny_batches(n: usize) -> Vec<Batch> {
        let ds = Dataset::generate(SubdomainSpec { m: 9, spatial: 0.5 }, n, 0);
        let mut bs = BatchSampler::new(1, 4, 4, 0);
        (0..n).map(|i| bs.make_batch(&ds, &[i])).collect()
    }

    #[test]
    fn single_step_changes_parameters_and_reduces_loss() {
        let mut net = tiny_net(0);
        let batch = &tiny_batches(1)[0];
        let before = net.params.flatten();
        let mut opt = Sgd::new(0.0);
        let s1 = train_step_single(&mut net, batch, &mut opt, 0.05, 0.01);
        let after = net.params.flatten();
        assert!(before.iter().zip(&after).any(|(a, b)| a != b));
        // A few more steps on the same batch must reduce the data loss.
        let mut last = s1.data_loss;
        for _ in 0..20 {
            last = train_step_single(&mut net, batch, &mut opt, 0.05, 0.01).data_loss;
        }
        assert!(
            last < s1.data_loss,
            "loss did not decrease: {} -> {last}",
            s1.data_loss
        );
    }

    #[test]
    fn ddp_two_ranks_matches_single_device_on_union_batch() {
        // Algorithm 1's claim: averaging per-rank gradients over
        // equal-size shards equals the gradient of the union batch.
        let batches = tiny_batches(2);

        // Single device on the union: average the two batch gradients by
        // hand (same qd/qc per batch makes means compatible).
        let net0 = tiny_net(1);
        let (d0, p0, _) = local_gradients(&net0, &batches[0], 0.01);
        let (d1, p1, _) = local_gradients(&net0, &batches[1], 0.01);
        let manual: Vec<Tensor> = d0
            .iter()
            .zip(&p0)
            .zip(d1.iter().zip(&p1))
            .map(|((a, b), (c, d))| a.add(b).add(&c.add(d)).scale(0.5))
            .collect();
        let mut net_ref = net0.clone();
        let mut opt_ref = Sgd::new(0.0);
        opt_ref.step(net_ref.params.tensors_mut(), &manual, 0.1);

        // Two-rank DDP with the same batches.
        let batches_ref = &batches;
        let net_template = net0.clone();
        let results = Cluster::run(2, move |comm| {
            let mut net = net_template.clone();
            let mut opt = Sgd::new(0.0);
            train_step_distributed(
                &mut net,
                &batches_ref[comm.rank()],
                &mut opt,
                0.1,
                0.01,
                comm,
                GradSync::Fused,
            );
            net.params.flatten()
        });
        let expect = net_ref.params.flatten();
        for (rank, result) in results.iter().enumerate() {
            for (a, b) in result.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-10, "rank {rank}: {a} vs {b}");
            }
        }
        // Ranks stay in lockstep with each other.
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn distributed_step_at_world_one_is_bitwise_the_single_step() {
        // A mean over one rank is exact, so every sync strategy is the
        // local step: the two public step functions are one core.
        let batches = tiny_batches(3);
        let mut single = tiny_net(4);
        let mut opt = mf_opt::Adam::new();
        for batch in &batches {
            train_step_single(&mut single, batch, &mut opt, 0.01, 0.02);
        }
        let expect: Vec<u64> = single
            .params
            .flatten()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for sync in [GradSync::Fused, GradSync::PerLoss, GradSync::OrderedFused] {
            let (template, batches) = (tiny_net(4), &batches);
            let got = Cluster::run(1, move |comm| {
                let (mut net, mut opt) = (template.clone(), mf_opt::Adam::new());
                for batch in batches {
                    train_step_distributed(&mut net, batch, &mut opt, 0.01, 0.02, comm, sync);
                }
                net.params.flatten()
            });
            let got: Vec<u64> = got[0].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect, "{sync:?}");
        }
    }

    #[test]
    fn fused_and_per_loss_sync_agree_numerically_but_not_in_messages() {
        let batches = tiny_batches(2);
        let batches_ref = &batches;
        let template = tiny_net(2);
        let t = &template;
        let run = |sync: GradSync| {
            Cluster::run(2, move |comm| {
                let mut net = t.clone();
                let mut opt = Sgd::new(0.0);
                train_step_distributed(
                    &mut net,
                    &batches_ref[comm.rank()],
                    &mut opt,
                    0.1,
                    0.01,
                    comm,
                    sync,
                );
                (net.params.flatten(), comm.stats())
            })
        };
        let fused = run(GradSync::Fused);
        let perloss = run(GradSync::PerLoss);
        for (a, b) in fused[0].0.iter().zip(&perloss[0].0) {
            assert!((a - b).abs() < 1e-12);
        }
        // PerLoss pays twice the messages.
        assert_eq!(perloss[0].1.msgs_sent, 2 * fused[0].1.msgs_sent);
    }

    #[test]
    fn stats_report_graph_growth() {
        let net = tiny_net(3);
        let batch = &tiny_batches(1)[0];
        let (_, _, stats) = local_gradients(&net, batch, 1.0);
        assert!(stats.graph_nodes > 50);
        assert!(stats.graph_bytes > 1000);
        assert!(stats.peak_bytes >= stats.graph_bytes / 2);
    }

    #[test]
    fn warm_graph_steps_do_not_touch_the_heap() {
        // The tentpole claim: after the first step primes the pool, every
        // later step of the same shape is served entirely from recycled
        // buffers — zero pool misses, zero graph heap allocations.
        let net = tiny_net(7);
        let batch = &tiny_batches(1)[0];
        let (_, _, first) = local_gradients(&net, batch, 0.5);
        assert!(first.pool_misses > 0, "cold step must populate the pool");
        for step in 2..=4 {
            let (_, _, s) = local_gradients(&net, batch, 0.5);
            assert_eq!(s.pool_misses, 0, "step {step} missed the pool");
            assert_eq!(s.heap_allocs, 0, "step {step} touched the heap");
            assert!(s.pool_hits > 100, "step {step} barely used the pool");
        }
    }

    #[test]
    fn checkpointed_segments_keep_gradients_bitwise_and_lower_peak() {
        let net = tiny_net(9);
        let batch = &tiny_batches(1)[0];
        let (d0, p0, s0) = local_gradients(&net, batch, 0.3);
        set_checkpointed_segments(true);
        let (d1, p1, s1) = local_gradients(&net, batch, 0.3);
        set_checkpointed_segments(false);
        for (a, b) in d0.iter().zip(&d1).chain(p0.iter().zip(&p1)) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "ckpt changed a gradient");
            }
        }
        assert!(
            s1.peak_bytes < s0.peak_bytes,
            "ckpt peak {} not below plain peak {}",
            s1.peak_bytes,
            s0.peak_bytes
        );
    }
}

//! Allocation-regression tests for the pooled autodiff hot path.
//!
//! The lean engine's contract is that a fixed training loop reaches a
//! zero-allocation steady state: step 1 populates the graph's buffer
//! pool, and every later step of the same shape is served entirely from
//! recycled buffers — zero pool misses, zero heap allocations. These
//! tests pin that contract at the workspace level so a change anywhere
//! in the tensor/autodiff/nn stack that silently reintroduces per-step
//! allocation fails CI.

use mosaic_flow::autodiff::{Graph, Var};
use mosaic_flow::nn::{Linear, Params};
use mosaic_flow::tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A fixed two-layer MLP regression step: forward, MSE loss, full
/// backward through both layers. Returns the loss variable.
fn two_layer_step(g: &mut Graph, ps: &mut Params, l1: &Linear, l2: &Linear, lr: f64) -> Var {
    let x = Tensor::from_fn(8, 6, |r, c| ((r * 6 + c) as f64 * 0.13).sin());
    let y = Tensor::from_fn(8, 1, |r, _| (r as f64 * 0.4).cos());
    let bound = ps.bind(g);
    let xv = g.constant_from(&x);
    let h = l1.forward(g, &bound, xv);
    let h = g.gelu(h);
    let h = g.tanh(h);
    let out = l2.forward(g, &bound, h);
    let target = g.constant_from(&y);
    let loss = g.mse(out, target);
    let grads = g.grad(loss, bound.all_vars());
    // SGD update so later steps see genuinely different parameter values
    // (same shapes, different data — the pool must still fully absorb it).
    let step: Vec<Tensor> = grads.iter().map(|&gv| g.value(gv).clone()).collect();
    for (p, gt) in ps.tensors_mut().zip(&step) {
        p.axpy(-lr, gt);
    }
    loss
}

fn fresh_net() -> (Params, Linear, Linear) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut ps = Params::new();
    let l1 = Linear::new(&mut ps, &mut rng, "l1", 6, 16, true);
    let l2 = Linear::new(&mut ps, &mut rng, "l2", 16, 1, true);
    (ps, l1, l2)
}

/// Steps 2..N of a fixed two-layer training loop must be served entirely
/// from the buffer pool: zero misses, zero heap allocations.
#[test]
fn warm_two_layer_loop_has_zero_pool_misses() {
    let (mut ps, l1, l2) = fresh_net();
    let mut g = Graph::new();
    let mut pool_before = g.pool_stats();
    let mut allocs_before = g.heap_allocs();
    let mut losses = Vec::new();
    for step in 1..=6 {
        g.clear();
        let loss = two_layer_step(&mut g, &mut ps, &l1, &l2, 1e-2);
        losses.push(g.value(loss).item());
        let d = g.pool_stats().since(&pool_before);
        let allocs = g.heap_allocs() - allocs_before;
        if step == 1 {
            assert!(d.misses > 0, "cold step must populate the pool");
        } else {
            assert_eq!(d.misses, 0, "step {step} missed the pool");
            assert_eq!(allocs, 0, "step {step} touched the heap allocator");
            assert!(d.hits > 0, "step {step} should recycle buffers");
        }
        pool_before = g.pool_stats();
        allocs_before = g.heap_allocs();
    }
    // Sanity: the loop is actually training, not a no-op.
    assert!(
        losses.last().unwrap() < &losses[0],
        "loss should decrease: {losses:?}"
    );
}

/// The end-to-end SDNet training step (data pass + PDE triple-backward)
/// reaches the same steady state through `local_gradients`' persistent
/// per-thread graph.
#[test]
fn warm_sdnet_steps_report_zero_misses_in_stats() {
    use mosaic_flow::data::{BatchSampler, Dataset, SubdomainSpec};
    use mosaic_flow::nn::{SdNet, SdNetConfig};
    use mosaic_flow::train::local_gradients;

    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let ds = Dataset::generate(spec, 2, 0);
    let net = SdNet::new(
        SdNetConfig::small(spec.boundary_len()),
        &mut ChaCha8Rng::seed_from_u64(0),
    );
    let mut sampler = BatchSampler::new(2, 6, 6, 0);
    let batch = sampler.make_batch(&ds, &[0, 1]);

    let (_, _, first) = local_gradients(&net, &batch, 1.0);
    assert!(first.pool_misses > 0, "cold step must populate the pool");
    for step in 2..=4 {
        let (_, _, warm) = local_gradients(&net, &batch, 1.0);
        assert_eq!(warm.pool_misses, 0, "step {step} missed the pool");
        assert_eq!(warm.heap_allocs, 0, "step {step} touched the heap");
    }
}

//! Allocation-regression tests for the pooled autodiff hot path.
//!
//! The graph's contract is that a fixed training loop reaches a
//! zero-allocation steady state: step 1 populates the graph's buffer
//! pool, and every later step of the same shape is served entirely from
//! recycled buffers — zero pool misses, zero heap allocations. These
//! tests pin that contract at the workspace level so a change anywhere
//! in the tensor/autodiff/nn stack that silently reintroduces per-step
//! allocation fails CI.
//!
//! The binary's global allocator records, per thread, the largest block
//! asked for, so a test can also pin that a warm pass makes no large
//! allocation of its own (a per-call copy of an operand, say) even where
//! the graph's pool counters cannot see it.

use mosaic_flow::autodiff::{Graph, Var};
use mosaic_flow::nn::{Linear, Params};
use mosaic_flow::tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording the largest block this thread asks for
/// (thread-local, so concurrent tests do not interfere).
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// The largest block `f` allocates on this thread, and its result.
fn largest_block_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

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

/// A warm consuming backward of the benchmark's training step — one
/// 4-channel conv, a 3×48 GELU trunk, 8 boundaries with 48 data and 16
/// collocation points each — allocates no block of 32 KiB or more, on the
/// data tape or the forward-Laplacian PDE tape: its transposed GEMM
/// operands (48–144 KiB here) are packed into reused per-thread scratch,
/// and every node value comes from the pool. Run on one lane, so that
/// every kernel, pack included, runs on the measured thread.
#[test]
fn warm_sdnet_backward_allocates_no_large_block() {
    use mosaic_flow::data::{BatchSampler, Dataset, SubdomainSpec};
    use mosaic_flow::nn::{SdNet, SdNetConfig};
    use mosaic_flow::tensor::par::compute_lanes;
    use mosaic_flow::train::{data_loss, pde_loss};

    let _one_lane = compute_lanes(usize::MAX);
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let mut cfg = SdNetConfig::small(spec.boundary_len());
    cfg.conv_channels = vec![4];
    cfg.hidden = vec![48, 48, 48];
    let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
    let ds = Dataset::generate(spec, 8, 0);
    let idx: Vec<usize> = (0..8).collect();
    let batch = BatchSampler::new(8, 48, 16, 0).make_batch(&ds, &idx);

    for pde in [false, true] {
        let mut g = Graph::new();
        for step in 0..3 {
            g.clear();
            let bound = net.params.bind(&mut g);
            let loss = if pde {
                let lp = pde_loss(&mut g, &net, &bound, &batch);
                g.scale(lp, 0.02)
            } else {
                data_loss(&mut g, &net, &bound, &batch)
            };
            let (largest, _) = largest_block_of(|| g.backward(loss, bound.all_vars()));
            if step > 0 {
                assert!(
                    largest < 32 << 10,
                    "warm step {step} of the {} backward allocated a {largest}-byte block",
                    if pde { "PDE" } else { "data" }
                );
            }
        }
    }
}

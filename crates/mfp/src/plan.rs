//! [`PlanSolver`]: the compiled-plan subdomain solver.
//!
//! Wraps `mf-infer`'s [`InferencePlan`](mf_infer::InferencePlan) behind
//! the [`SubdomainSolver`] trait so the sequential and distributed MFP
//! paths run graph-free. The MFP evaluates the network on a tiny number
//! of distinct query-point sets (the center cross during sweeps, the
//! subdomain interior during the dense fill), so the solver keeps one
//! compiled plan per point set via mf-infer's shared [`PlanCache`] and
//! revalidates it against the network's parameter version on every launch
//! — an optimizer step anywhere in the process automatically invalidates
//! every cached plan. The same cache and [`WorkspacePool`] also back the
//! serve layer's cross-request batcher (`mf-serve`), which coalesces
//! points from concurrent requests into one fat launch against the same
//! machinery.

use crate::solver::{LaunchCounter, SubdomainSolver};
use mf_data::SubdomainSpec;
use mf_infer::{InferencePlan, PlanCache, WorkspacePool};
use mf_nn::SdNet;
use mf_tensor::Tensor;

/// SDNet-backed subdomain solver on the graph-free compiled path.
///
/// Results are bitwise identical to [`NeuralSolver`](crate::NeuralSolver)
/// (asserted by the `seq` equality tests); the difference is purely cost:
/// no autodiff tape, pooled workspaces, and the query-coordinate half of
/// the input-split layer computed once per (point set, weight version)
/// instead of once per launch.
pub struct PlanSolver {
    net: SdNet,
    spec: SubdomainSpec,
    plans: PlanCache,
    workspaces: WorkspacePool,
    counter: LaunchCounter,
}

impl PlanSolver {
    /// Wrap a trained network. Panics if the network's boundary length
    /// does not match the subdomain geometry or the network uses the
    /// `Concat` embedding (which stays on the graph path — check
    /// [`InferencePlan::supports`] before constructing).
    pub fn new(net: SdNet, spec: SubdomainSpec) -> Self {
        assert_eq!(
            net.config().boundary_len,
            spec.boundary_len(),
            "PlanSolver: network boundary length does not match subdomain"
        );
        assert!(
            InferencePlan::supports(&net),
            "PlanSolver: network embedding cannot be lowered to a plan"
        );
        Self {
            net,
            spec,
            plans: PlanCache::new(),
            workspaces: WorkspacePool::new(),
            counter: LaunchCounter::default(),
        }
    }

    /// Access the wrapped network.
    pub fn net(&self) -> &SdNet {
        &self.net
    }

    /// Mutable access to the wrapped network, e.g. for applying an
    /// optimizer step between solves. Any mutable parameter access bumps
    /// the store's version counter, so cached plans recompile on the next
    /// launch — no explicit invalidation call needed.
    pub fn net_mut(&mut self) -> &mut SdNet {
        &mut self.net
    }

    /// Launches served by an already-compiled, still-fresh plan.
    pub fn cache_hits(&self) -> usize {
        self.plans.hits() as usize
    }

    /// Pool misses on warm plan executions across all pooled workspaces
    /// currently checked in. Zero means the hot path is allocation-free.
    pub fn warm_allocs(&self) -> u64 {
        self.workspaces.warm_allocs()
    }
}

impl SubdomainSolver for PlanSolver {
    fn spec(&self) -> SubdomainSpec {
        self.spec
    }

    fn solve_batch(&self, boundaries: &Tensor, points: &Tensor) -> Tensor {
        let b = boundaries.rows();
        let q = points.rows();
        let plan = self.plans.get_or_compile(&self.net, points);
        // Check a workspace out of the shared pool so concurrent sweep
        // groups never contend on one buffer pool.
        let mut ws = self.workspaces.checkout();
        let mut out = Tensor::zeros(b * q, 1);
        plan.execute_into(&mut ws, boundaries, &mut out);
        self.workspaces.checkin(ws);
        self.counter.record(b * q);
        out
    }

    fn inference_count(&self) -> usize {
        self.counter.inferences()
    }

    fn launch_count(&self) -> usize {
        self.counter.launches()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NeuralSolver;
    use mf_nn::SdNetConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn spec() -> SubdomainSpec {
        SubdomainSpec { m: 9, spatial: 0.5 }
    }

    fn net(seed: u64) -> SdNet {
        let mut cfg = SdNetConfig::small(spec().boundary_len());
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![10, 10];
        cfg.coord_fourier = 3;
        SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    #[test]
    fn matches_neural_solver_bitwise() {
        let spec = spec();
        let n = net(0);
        let plan = PlanSolver::new(n.clone(), spec);
        let graph = NeuralSolver::new(n, spec);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let b = Tensor::from_fn(5, spec.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
        let pts = Tensor::from_fn(4, 2, |_, _| rng.gen_range(0.0..0.5));
        for _ in 0..3 {
            let a = plan.solve_batch(&b, &pts);
            let e = graph.solve_batch(&b, &pts);
            for (x, y) in e.as_slice().iter().zip(a.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(plan.inference_count(), 3 * 5 * 4);
        assert_eq!(plan.launch_count(), 3);
        // First launch compiles, the rest hit the cache.
        assert_eq!(plan.cache_hits(), 2);
        // Single-threaded reuse of one pooled workspace stays warm.
        assert_eq!(plan.warm_allocs(), 0);
    }

    #[test]
    fn weight_update_invalidates_cached_plans() {
        let spec = spec();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let b = Tensor::from_fn(2, spec.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
        let pts = Tensor::from_fn(3, 2, |_, _| rng.gen_range(0.0..0.5));

        let mut solver = PlanSolver::new(net(2), spec);
        let before = solver.solve_batch(&b, &pts);
        let hits_before = solver.cache_hits();

        // An in-place optimizer-style step bumps the params version...
        for t in solver.net_mut().params.tensors_mut() {
            t.as_mut_slice().iter_mut().for_each(|v| *v += 0.1);
        }
        // ...so the next launch recompiles instead of serving stale bits.
        let after = solver.solve_batch(&b, &pts);
        assert_eq!(solver.cache_hits(), hits_before);
        assert!(before.max_abs_diff(&after) > 0.0);
        let expect = NeuralSolver::new(solver.net().clone(), spec).solve_batch(&b, &pts);
        for (x, y) in expect.as_slice().iter().zip(after.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // And once recompiled, the fresh plan is cached again.
        let _ = solver.solve_batch(&b, &pts);
        assert_eq!(solver.cache_hits(), hits_before + 1);
    }

    #[test]
    fn distinct_point_sets_get_distinct_plans() {
        let spec = spec();
        let solver = PlanSolver::new(net(4), spec);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let b = Tensor::from_fn(1, spec.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
        let p1 = Tensor::from_fn(3, 2, |_, _| rng.gen_range(0.0..0.5));
        let p2 = Tensor::from_fn(6, 2, |_, _| rng.gen_range(0.0..0.5));
        let _ = solver.solve_batch(&b, &p1);
        let _ = solver.solve_batch(&b, &p2);
        let _ = solver.solve_batch(&b, &p1);
        let _ = solver.solve_batch(&b, &p2);
        // Two compiles, then every launch is a hit.
        assert_eq!(solver.cache_hits(), 2);
    }
}

//! [`PlanSolver`]: the compiled-plan subdomain solver.
//!
//! Wraps `mf-infer`'s [`InferencePlan`](mf_infer::InferencePlan) behind
//! the [`SubdomainSolver`] trait so the sequential and distributed MFP
//! paths run graph-free. The MFP evaluates the network on a tiny number
//! of distinct query-point sets (the center cross during sweeps, the
//! subdomain interior during the dense fill), so the solver keeps one
//! compiled plan per point set via mf-infer's shared [`PlanCache`]. The
//! solver owns its network and never changes the weights, so a plan,
//! once compiled, serves every later launch. The same cache and
//! [`WorkspacePool`] also back the serve layer's cross-request batcher
//! (`mf-serve`), which coalesces points from concurrent requests into one
//! fat launch against the same machinery.

use crate::domain::DomainSpec;
use crate::engine::{whole_grid, SweepEngine};
use crate::solver::{LaunchCounter, SubdomainSolver};
use mf_data::SubdomainSpec;
use mf_infer::{PlanCache, Subset, Workspace, WorkspacePool};
use mf_nn::SdNet;
use mf_tensor::{PoolStats, Tensor};

/// SDNet-backed subdomain solver on the graph-free compiled path. A
/// [`SubdomainSolver::solve_batch_subset`] launch evaluates only the taken
/// points.
///
/// It takes and returns `f64` tensors like every solver, so the lattice,
/// the stop test and Anderson mixing stay `f64`; the network runs in
/// `f32` inside each launch. Against itself a launch is bitwise, whatever
/// its batch, block partition, pool width or rank, and whatever subset of
/// its points a boundary takes — so batched serving equals solving alone,
/// and a sweep of the live points equals one of full crosses. Against
/// the `f64` graph ([`SdNet::predict`]) each output is within
/// [`InferencePlan::graph_error_bound`](mf_infer::InferencePlan::graph_error_bound)
/// of its launch; over a whole solve
/// on the benchmark network the iteration count stays within one of the
/// graph's, the fixed point within 1e-5 grid MAE and the error against
/// the exact five-point solve within 10 % (`tests/precision.rs`). Besides
/// twice the lanes, the plan saves the autodiff tape, pools its workspaces
/// and computes the query-coordinate half of the input-split layer once per
/// point set instead of once per launch.
pub struct PlanSolver {
    net: SdNet,
    spec: SubdomainSpec,
    plans: PlanCache,
    workspaces: WorkspacePool,
    counter: LaunchCounter,
}

impl PlanSolver {
    /// Wrap a trained network (either embedding lowers). Panics if the
    /// network's boundary length does not match the subdomain geometry.
    pub fn new(net: SdNet, spec: SubdomainSpec) -> Self {
        assert_eq!(
            net.config().boundary_len,
            spec.boundary_len(),
            "PlanSolver: network boundary length does not match subdomain"
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

    /// Launches served by an already-compiled plan.
    pub fn cache_hits(&self) -> usize {
        self.plans.hits() as usize
    }

    /// Registers grown on warm plan executions across all pooled
    /// workspaces currently checked in. Zero means the hot path is
    /// allocation-free.
    pub fn warm_allocs(&self) -> u64 {
        self.workspaces.warm_allocs()
    }

    /// Register statistics ([`Workspace::pool_stats`]) of all pooled
    /// workspaces currently checked in, cold blocks and reservations
    /// included.
    pub fn pool_stats(&self) -> PoolStats {
        self.workspaces.pool_stats()
    }

    /// Distinct point sets with a compiled plan.
    pub fn compiled_plans(&self) -> usize {
        self.plans.len()
    }

    /// Get ready for [`Mfp::run_many`](crate::Mfp::run_many) batches of up
    /// to `max_requests` requests on `domain`, made from `workspaces`
    /// threads with the calling thread's lane budget: compile the domain's
    /// two plans — the sweeps' center cross and the dense fill's interior —
    /// and [`reserve`](mf_infer::Workspace::reserve) that many pooled
    /// workspaces for the widest sweep launch and the dense-fill launch
    /// such a batch forms. That sizes their registers and runs nothing.
    /// No launch of such a batch then grows a register, whichever of those
    /// workspaces it checks out.
    pub fn reserve(&self, domain: &DomainSpec, max_requests: usize, workspaces: usize) {
        let engine = SweepEngine::new(self, domain, &whole_grid(domain), 0.0, None);
        let widest = engine
            .groups
            .iter()
            .map(|g| g.subs.len())
            .max()
            .unwrap_or(0);
        let cross = self.plans.get_or_compile(&self.net, &engine.cross.pts);
        let interior = self.plans.get_or_compile(&self.net, &engine.interior.pts);
        let launches = [
            (&*cross, max_requests * widest),
            (&*interior, max_requests * engine.atoms.len()),
        ];
        let mut taken: Vec<Workspace> = (0..workspaces)
            .map(|_| self.workspaces.checkout())
            .collect();
        for ws in &mut taken {
            ws.reserve(&launches);
        }
        for ws in taken {
            self.workspaces.checkin(ws);
        }
    }
}

impl SubdomainSolver for PlanSolver {
    fn spec(&self) -> SubdomainSpec {
        self.spec
    }

    fn solve_batch_subset(
        &self,
        sigma: f64,
        boundaries: &Tensor,
        forcings: Option<&Tensor>,
        points: &Tensor,
        subset: Subset<'_>,
    ) -> Tensor {
        assert!(
            sigma == 0.0 && forcings.is_none(),
            "this subdomain solver supports only the Laplace equation"
        );
        let b = boundaries.rows();
        let q = points.rows();
        let plan = self.plans.get_or_compile(&self.net, points);
        // Check a workspace out of the shared pool so concurrent sweep
        // groups never contend on one set of registers.
        let mut ws = self.workspaces.checkout();
        let mut out = Tensor::zeros(b * q, 1);
        plan.execute_subset_into(&mut ws, boundaries, subset, &mut out);
        self.workspaces.checkin(ws);
        self.counter.record(subset.total(0..b, q));
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
pub(crate) mod tests {
    use super::*;
    use mf_nn::SdNetConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The `f64` graph as a subdomain solver, the oracle the `f32` plan is
    /// checked against and the solver of tests whose `tol` lies below the
    /// plan's rounding: each launch tiles the points for every boundary,
    /// runs [`SdNet::predict`] and compacts to the subset.
    pub(crate) struct GraphSolver {
        net: SdNet,
        spec: SubdomainSpec,
        counter: LaunchCounter,
    }

    impl GraphSolver {
        pub(crate) fn new(net: SdNet, spec: SubdomainSpec) -> Self {
            Self {
                net,
                spec,
                counter: LaunchCounter::default(),
            }
        }
    }

    impl SubdomainSolver for GraphSolver {
        fn spec(&self) -> SubdomainSpec {
            self.spec
        }

        fn solve_batch_subset(
            &self,
            sigma: f64,
            boundaries: &Tensor,
            forcings: Option<&Tensor>,
            points: &Tensor,
            subset: Subset<'_>,
        ) -> Tensor {
            assert!(sigma == 0.0 && forcings.is_none(), "Laplace only");
            let (b, q) = (boundaries.rows(), points.rows());
            let tiled = Tensor::from_vec(b * q, 2, points.as_slice().repeat(b));
            self.counter.record(b * q);
            let mut out = self.net.predict(boundaries, &tiled, q);
            subset.compact(out.as_mut_slice(), q);
            out
        }

        fn inference_count(&self) -> usize {
            self.counter.inferences()
        }

        fn launch_count(&self) -> usize {
            self.counter.launches()
        }
    }

    /// A [`PlanSolver`] whose every launch is checked against the `f64`
    /// graph on the same boundaries and points: each taken row within the
    /// bound of the graph's row for the same point
    /// (`InferencePlan::graph_error_bound`). It serves the plan's outputs,
    /// so a run on it is bitwise the run on the plan.
    pub(crate) struct Checked<'a>(pub &'a PlanSolver, pub GraphSolver);

    impl<'a> Checked<'a> {
        pub(crate) fn new(plan: &'a PlanSolver) -> Self {
            Self(plan, GraphSolver::new(plan.net.clone(), plan.spec))
        }
    }

    impl SubdomainSolver for Checked<'_> {
        fn spec(&self) -> SubdomainSpec {
            self.0.spec
        }

        fn solve_batch_subset(
            &self,
            sigma: f64,
            boundaries: &Tensor,
            forcings: Option<&Tensor>,
            points: &Tensor,
            subset: Subset<'_>,
        ) -> Tensor {
            let got = self
                .0
                .solve_batch_subset(sigma, boundaries, forcings, points, subset);
            let mut want = self.1.solve_batch(boundaries, points);
            let plan = self.0.plans.get_or_compile(&self.0.net, points);
            let mut bound = plan.graph_error_bound(boundaries);
            let q = points.rows();
            subset.compact(want.as_mut_slice(), q);
            subset.compact(bound.as_mut_slice(), q);
            for b in 0..boundaries.rows() {
                for i in b * q..b * q + subset.count(b, q) {
                    let (w, g, e) = (want.get(i, 0), got.get(i, 0), bound.get(i, 0));
                    assert!(
                        (w - g).abs() <= e,
                        "row {i}: plan {g:e}, graph {w:e}, bound {e:e}"
                    );
                }
            }
            got
        }

        fn inference_count(&self) -> usize {
            self.0.inference_count()
        }

        fn launch_count(&self) -> usize {
            self.0.launch_count()
        }
    }

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
    fn matches_the_graph_within_the_launch_bound() {
        let spec = spec();
        let plan = PlanSolver::new(net(0), spec);
        let checked = Checked::new(&plan);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let b = Tensor::from_fn(5, spec.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
        let pts = Tensor::from_fn(4, 2, |_, _| rng.gen_range(0.0..0.5));
        let first = checked.solve_batch(&b, &pts);
        for _ in 0..2 {
            let again = checked.solve_batch(&b, &pts);
            assert!(first
                .as_slice()
                .iter()
                .zip(again.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        assert_eq!(plan.inference_count(), 3 * 5 * 4);
        assert_eq!(plan.launch_count(), 3);
        // The first launch compiles, the rest hit the cache (each checked
        // launch looks its plan up once more for the bound).
        assert_eq!(plan.cache_hits(), 2 + 3);
        // Single-threaded reuse of one pooled workspace stays warm.
        assert_eq!(plan.warm_allocs(), 0);
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

    #[test]
    #[should_panic(expected = "boundary length")]
    fn checks_geometry() {
        let mut cfg = SdNetConfig::small(16);
        cfg.conv_channels = vec![];
        cfg.hidden = vec![4];
        let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
        let _ = PlanSolver::new(net, spec()); // spec wants 32
    }
}

//! The MFP iteration loop, and [`Mfp`], which runs it with no peers.
//!
//! `Mfp::iterate` is Algorithm 2's loop, the only one in the crate, for any
//! number of requests on one domain: seed the lattice at iteration 0,
//! snapshot, sweep the four groups, reduce the stop-test sums, the Gram
//! sums and the coarse residual, judge, mix, correct; then one dense fill.
//! [`Mfp::run`], [`Mfp::run_shifted`] and
//! [`Mfp::run_many`] run it with no peers on the whole grid: a reduction is
//! the identity, nothing is in flight, every sweep stacks each active
//! request's group boundaries into one batched solver launch (§4.1), and
//! requests drop out independently as the stop rule fires.
//! [`run_distributed`](crate::run_distributed) runs it on every rank with
//! one request and that rank's peers (`dist.rs`).

use crate::dist::Peers;
use crate::domain::{DomainSpec, Subdomain};
use crate::engine::{
    sweep_groups_in, whole_grid, Accelerator, MaeTarget, StopRule, SweepEngine, Verdict,
};
use crate::solver::SubdomainSolver;
use mf_telemetry::span;
use mf_tensor::Tensor;

/// Iteration controls for [`Mfp::run`].
#[derive(Clone, Debug)]
pub struct MfpConfig {
    /// Maximum Schwarz iterations.
    pub max_iters: usize,
    /// Relative-change convergence threshold `δ` (Algorithm 2, line 5);
    /// set to 0 to disable.
    pub tol: f64,
    /// Optional reference-based stop.
    pub target: Option<MaeTarget>,
    /// Run the two-level accelerated iteration (the coarse-grid correction
    /// of §5.3's cited future work): seed the lattice from an exact coarse
    /// solve of the run's problem, and after every sweep Anderson-mix the
    /// lattice iterate, then add the coarse-grid correction of the sweep's
    /// change at the coarse nodes. Same fixed point and same meaning of
    /// `tol` as the one-level iteration of Algorithm 2, which `false` runs
    /// as printed, in many times the iterations: the accelerated count
    /// stays about flat as the domain grows, the one-level count grows
    /// with its side.
    pub accelerate: bool,
}

impl Default for MfpConfig {
    fn default() -> Self {
        Self {
            max_iters: 1000,
            tol: 1e-4,
            target: None,
            accelerate: true,
        }
    }
}

/// Outcome of an MFP run.
#[derive(Clone, Debug, Default)]
pub struct MfpResult {
    /// Dense solution on the global grid.
    pub grid: Tensor,
    /// Schwarz iterations performed.
    pub iterations: usize,
    /// Whether a stop criterion fired before `max_iters` (a solve whose
    /// residual turned non-finite ends early *without* having converged).
    pub converged: bool,
    /// Relative lattice change per iteration.
    pub deltas: Vec<f64>,
    /// `(iteration, lattice MAE)` history when a target was given.
    pub mae_history: Vec<(usize, f64)>,
}

/// The Mosaic Flow predictor bound to a solver and a domain.
pub struct Mfp<'a, S: SubdomainSolver> {
    solver: &'a S,
    domain: DomainSpec,
}

impl<'a, S: SubdomainSolver> Mfp<'a, S> {
    /// Bind a solver to a domain (geometries must match).
    pub fn new(solver: &'a S, domain: DomainSpec) -> Self {
        assert_eq!(
            solver.spec(),
            domain.sub,
            "Mfp: solver and domain subdomain geometry differ"
        );
        Self { solver, domain }
    }

    /// Solve the BVP given the global boundary walk `bc`
    /// (`1×boundary_len`).
    pub fn run(&self, bc: &Tensor, cfg: &MfpConfig) -> MfpResult {
        self.run_shifted(bc, 0.0, None, cfg)
    }

    /// Solve the shifted problem `σu − Δu = f` with `f` given on the full
    /// global grid. With `σ = 1/(α·Δt)` and `f = σ·uⁿ` this is one
    /// implicit-Euler step of the heat equation — the time-dependent
    /// extension hypothesized in §5.3 of the paper. Requires a subdomain
    /// solver whose [`SubdomainSolver::solve_batch_subset`] takes `σ ≠ 0`
    /// and a forcing (the oracle does).
    pub fn run_shifted(
        &self,
        bc: &Tensor,
        sigma: f64,
        forcing: Option<&Tensor>,
        cfg: &MfpConfig,
    ) -> MfpResult {
        let mut results = self.run_local(std::slice::from_ref(bc), sigma, forcing, cfg);
        results.pop().expect("one request in, one result out")
    }

    /// Solve many BVPs on the *same* domain in one batched pass: each
    /// Schwarz sweep stacks every active request's group boundaries into
    /// a single launch, and the final dense fill packs all requests into
    /// one launch per point set.
    ///
    /// Because every solver row is independent of its batch (the
    /// [`SubdomainSolver`] contract), each request's grid, iteration
    /// count, and deltas are **bitwise identical** to calling [`Mfp::run`]
    /// on that request alone — which is this function with one request.
    /// Requests converge independently: a request that meets `cfg.tol`
    /// drops out of subsequent sweeps while the rest continue.
    ///
    /// This is the serving hot path: cross-request batching amortizes
    /// the per-launch fixed cost (plan-cache probe, workspace checkout,
    /// interpreter dispatch) that dominates small single-request
    /// launches.
    pub fn run_many(&self, bcs: &[Tensor], cfg: &MfpConfig) -> Vec<MfpResult> {
        self.run_local(bcs, 0.0, None, cfg)
    }

    /// `bcs.len()` requests sharing `σ`/`forcing`, with no peers.
    fn run_local(
        &self,
        bcs: &[Tensor],
        sigma: f64,
        forcing: Option<&Tensor>,
        cfg: &MfpConfig,
    ) -> Vec<MfpResult> {
        self.check_problem(bcs, forcing);
        let stop = StopRule::new(cfg.tol, cfg.max_iters, cfg.target.as_ref());
        self.iterate(bcs, sigma, forcing, &stop, cfg.accelerate, None)
    }

    /// Panics unless every boundary walk in `bcs` and the forcing fit the
    /// domain: checked where a solve enters, before any rank starts.
    pub(crate) fn check_problem(&self, bcs: &[Tensor], forcing: Option<&Tensor>) {
        let d = &self.domain;
        for bc in bcs {
            assert_eq!(
                bc.numel(),
                d.boundary_len(),
                "MFP: global boundary has wrong length"
            );
        }
        if let Some(f) = forcing {
            assert_eq!(f.shape(), (d.ny(), d.nx()), "MFP: forcing shape mismatch");
        }
    }

    /// The MFP iteration loop: `bcs.len()` requests sharing `σ`/`forcing`
    /// (checked by [`Self::check_problem`]), each iterated until `stop`
    /// ends it, then densely filled.
    ///
    /// With no `peers` the requests own the whole grid, a reduction is the
    /// identity and nothing is ever in flight, so every sweep is the
    /// full-group pass and every iteration checks and mixes. A rank of
    /// [`run_distributed`](crate::run_distributed) passes its [`Peers`]
    /// and one request: the engine covers the rank's block, the sums are
    /// allreduced, the halo exchange posted at the end of every iteration
    /// is in flight during the next one's interior pass, and the dense
    /// grid is gathered at the end.
    pub(crate) fn iterate(
        &self,
        bcs: &[Tensor],
        sigma: f64,
        forcing: Option<&Tensor>,
        stop: &StopRule<'_>,
        accelerate: bool,
        mut peers: Option<&mut Peers<'_>>,
    ) -> Vec<MfpResult> {
        let d = &self.domain;
        let mut grids: Vec<Tensor> = bcs.iter().map(|bc| d.initial_grid(bc)).collect();
        // Per-request snapshots, allocated once and overwritten in place.
        let mut prevs = grids.clone();
        let mut results = vec![MfpResult::default(); bcs.len()];

        let owned = peers
            .as_ref()
            .map_or_else(|| whole_grid(d), |p| p.owned.clone());
        let engine = SweepEngine::new(self.solver, d, &owned, sigma, forcing);
        // Per-request mixing state, so every request stays bitwise the
        // request solved alone.
        let mut accel = Accelerator::new(accelerate, d, &owned, sigma, grids.len());
        // What a request reduces: `[Σf², Σx²]`, then the accelerator's sums.
        let mut sums = vec![0.0; 2 + accel.as_ref().map_or(0, Accelerator::sums_len)];
        let mut active: Vec<usize> = (0..grids.len()).collect();
        for it in 0..stop.max_iters {
            if active.is_empty() {
                break;
            }
            if let Some(p) = peers.as_deref_mut() {
                p.begin_iteration(it);
            }
            span!(
                "mfp.iteration",
                it = it as f64,
                depth = accel.as_ref().map_or(0, |a| a.depth(&active)) as f64
            );
            if let (0, Some(accel)) = (it, &mut accel) {
                accel.seed(d, &mut grids, forcing);
            }
            for &r in &active {
                prevs[r].as_mut_slice().copy_from_slice(grids[r].as_slice());
                results[r].iterations = it + 1;
            }
            match peers.as_deref_mut() {
                Some(p) => p.sweep(&engine, &mut grids[0]),
                None => {
                    mf_profile::zone!("sweep");
                    for group in &engine.groups {
                        engine.sweep(group, &mut grids, &active);
                    }
                }
            }

            // Algorithm 2, line 5, and the second level. A rank skips the
            // residual's allreduce when nothing reads it; without peers
            // there is no message to save, so every iteration records its
            // delta. The last sweep allowed is left as it is: the grid
            // returned is always a plain sweep's output.
            let n = it + 1;
            let mixes = accel.is_some() && n < stop.max_iters;
            let judges = peers.is_none() || stop.tol > 0.0 || mixes;
            active.retain(|&r| {
                let res = &mut results[r];
                let (grid, prev) = (&mut grids[r], &prevs[r]);
                sums.fill(0.0);
                let mut verdict = Verdict::Continue;
                if judges {
                    let residual = engine.residual_sums(grid, prev);
                    sums[..2].copy_from_slice(&residual);
                    // The accelerator never files a non-finite sweep: the
                    // residual sums end such a solve, on every rank.
                    if mixes && residual.iter().all(|v| v.is_finite()) {
                        let accel = accel.as_mut().expect("mixes");
                        accel.observe(r, grid, prev, &mut sums[2..]);
                    }
                    if let Some(p) = peers.as_deref_mut() {
                        let reduced = if mixes { sums.len() } else { 2 };
                        p.allreduce(&mut sums[..reduced]);
                    }
                    verdict = stop.residual_verdict([sums[0], sums[1]], &mut res.deltas);
                    if let Some(p) = peers.as_deref_mut() {
                        p.watch_stall(n, &res.deltas);
                    }
                }
                res.converged = verdict == Verdict::Converged;
                let mut stopped = verdict != Verdict::Continue;
                if let Some(reference) = stop.error_check_due(n).filter(|_| !stopped) {
                    let mut sums = engine.error_sums(grid, reference);
                    if let Some(p) = peers.as_deref_mut() {
                        p.allreduce(&mut sums);
                    }
                    res.converged = stop.error_converged(n, sums, &mut res.mae_history);
                    stopped = res.converged;
                }
                // A request that goes on continues from the mixed and
                // corrected iterate (a rank posts its halo from it).
                if mixes && !stopped {
                    let accel = accel.as_mut().expect("mixes");
                    let gamma = {
                        mf_profile::zone!("accelerate");
                        let delta = *res.deltas.last().expect("pushed by the stop rule");
                        accel.mix(r, &sums[2..], delta, grid)
                    };
                    mf_profile::zone!("coarse_correct");
                    accel.correct(r, &sums[2..], &gamma, grid);
                }
                !stopped
            });
            if let Some(p) = peers.as_deref_mut() {
                p.end_iteration(&mut grids[0], it);
            }
            // Make this thread's metrics visible to live scrapes once per
            // iteration (a warm publish does not allocate).
            mf_telemetry::publish_thread();
        }

        // One dense launch packs every request's atomic subdomains: each
        // grid is frozen after its own convergence, so deferring the fill
        // to the end changes nothing. A rank fills its own atoms, then
        // gathers the global grid.
        match peers {
            Some(p) => p.finish(&engine, &mut grids[0], &bcs[0]),
            None => {
                let all: Vec<usize> = (0..grids.len()).collect();
                engine.fill(&mut grids, &all);
            }
        }
        for (res, grid) in results.iter_mut().zip(grids) {
            res.grid = grid;
        }
        results
    }

    /// The four non-overlapping sweep groups, in a fixed alternating
    /// order.
    pub fn sweep_groups(&self) -> [Vec<Subdomain>; 4] {
        sweep_groups_in(&self.domain, &whole_grid(&self.domain))
    }

    /// Final dense pass: predict every interior point of every atomic
    /// subdomain from its current lattice boundary.
    pub fn dense_fill(&self, grid: &mut Tensor) {
        let d = &self.domain;
        let engine = SweepEngine::new(self.solver, d, &whole_grid(d), 0.0, None);
        engine.fill(std::slice::from_mut(grid), &[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::OracleSolver;
    use mf_data::SubdomainSpec;
    use mf_numerics::boundary::{apply_boundary, boundary_coords, grid_with_boundary};
    use mf_numerics::{solve_dirichlet, Poisson};

    fn spec() -> SubdomainSpec {
        SubdomainSpec { m: 9, spatial: 0.5 }
    }

    /// Global boundary walk of a harmonic function on the domain.
    fn harmonic_bc(d: &DomainSpec) -> (Tensor, Tensor) {
        let h = d.h();
        let f = |x: f64, y: f64| x * x - y * y + 0.3 * x * y;
        let coords = boundary_coords(d.ny(), d.nx());
        let bc = Tensor::from_vec(
            1,
            coords.len(),
            coords
                .iter()
                .map(|&(j, i)| f(i as f64 * h, j as f64 * h))
                .collect(),
        );
        let exact = Tensor::from_fn(d.ny(), d.nx(), |j, i| f(i as f64 * h, j as f64 * h));
        (bc, exact)
    }

    /// Reference via a single global numerical solve.
    fn reference(d: &DomainSpec, bc: &Tensor) -> Tensor {
        let guess = grid_with_boundary(d.ny(), d.nx(), bc);
        let (sol, stats) = solve_dirichlet(&Poisson::laplace(d.ny(), d.nx(), d.h()), &guess, 1e-9);
        assert!(stats.converged);
        sol
    }

    #[test]
    fn single_subdomain_domain_is_solved_in_one_iteration() {
        let d = DomainSpec::new(spec(), 1, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, exact) = harmonic_bc(&d);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 3,
                tol: 1e-10,
                ..Default::default()
            },
        );
        assert!(
            res.grid.max_abs_diff(&exact) < 1e-5,
            "err {}",
            res.grid.max_abs_diff(&exact)
        );
    }

    #[test]
    fn mfp_with_oracle_converges_to_global_solution() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let refsol = reference(&d, &bc);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 200,
                tol: 1e-8,
                ..Default::default()
            },
        );
        assert!(
            res.converged,
            "did not converge in {} iters",
            res.iterations
        );
        let mae = res.grid.mean_abs_diff(&refsol);
        assert!(mae < 1e-4, "MAE vs global solve: {mae}");
    }

    #[test]
    fn unbatched_adapter_is_bitwise_the_batched_run_at_one_launch_per_subdomain() {
        let d = DomainSpec::new(spec(), 2, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let (bc, _) = harmonic_bc(&d);
        let cfg = MfpConfig {
            max_iters: 5,
            tol: 0.0,
            ..Default::default()
        };
        let launches = |run: &dyn Fn() -> MfpResult| {
            let before = oracle.launch_count();
            (run(), oracle.launch_count() - before)
        };
        let (rb, batched) = launches(&|| Mfp::new(&oracle, d).run(&bc, &cfg));
        let unbatched = crate::UnbatchedSolver(&oracle);
        let (ru, per_row) = launches(&|| Mfp::new(&unbatched, d).run(&bc, &cfg));
        assert_eq!(rb.iterations, ru.iterations);
        assert_grids_bitwise(&rb.grid, &ru.grid, "batched vs one launch per row");
        // 2x1 atoms: three overlapping subdomains in two non-empty sweep
        // groups, and two atoms in the dense fill.
        assert_eq!(batched, 2 * cfg.max_iters + 1);
        assert_eq!(
            per_row,
            d.subdomains().len() * cfg.max_iters + d.atomic_subdomains().len()
        );
    }

    /// A small Fourier-feature SDNet for the compiled-vs-graph equality
    /// tests.
    fn equality_net(seed: u64) -> mf_nn::SdNet {
        use rand::SeedableRng;
        let mut cfg = mf_nn::SdNetConfig::small(spec().boundary_len());
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![10, 10];
        cfg.coord_fourier = 2;
        mf_nn::SdNet::new(cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed))
    }

    fn assert_grids_bitwise(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape());
        for (k, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: cell {k} differs ({x} vs {y})"
            );
        }
    }

    #[test]
    fn graph_runs_are_bitwise_across_batching_and_every_plan_launch_holds_its_bound() {
        // The batched and the unbatched graph path agree *bit for bit*
        // through a full MFP run, and every launch of the compiled-plan
        // run — sweeps and dense fill, two distinct plans — is within its
        // bound of the graph on the same inputs.
        let d = DomainSpec::new(spec(), 2, 1);
        let net = equality_net(42);
        let (bc, _) = harmonic_bc(&d);
        let cfg = MfpConfig {
            max_iters: 3,
            tol: 0.0,
            ..Default::default()
        };

        let plan = crate::PlanSolver::new(net.clone(), spec());
        let graph = crate::plan::tests::GraphSolver::new(net, spec());
        let rp = Mfp::new(&plan, d).run(&bc, &cfg);
        let rc = Mfp::new(&crate::plan::tests::Checked::new(&plan), d).run(&bc, &cfg);
        let rb = Mfp::new(&graph, d).run(&bc, &cfg);
        let ru = Mfp::new(&crate::UnbatchedSolver(&graph), d).run(&bc, &cfg);
        assert_grids_bitwise(&rp.grid, &rc.grid, "plan vs checked plan");
        assert_grids_bitwise(&rb.grid, &ru.grid, "batched vs unbatched graph");
        // Sweeps reuse the cross-point plan after the first compile; the
        // dense fill compiles a second plan for the interior points.
        assert!(plan.cache_hits() > 0);
    }

    #[test]
    fn run_many_matches_individual_runs_bitwise() {
        let d = DomainSpec::new(spec(), 1, 1);
        let net = equality_net(3);
        let plan = crate::PlanSolver::new(net, spec());
        let mfp = Mfp::new(&plan, d);
        let cfg = MfpConfig {
            max_iters: 20,
            tol: 1e-6,
            ..Default::default()
        };
        let bcs = random_bcs(&d, 5);
        let many = mfp.run_many(&bcs, &cfg);
        assert_eq!(many.len(), bcs.len());
        for (bc, m) in bcs.iter().zip(&many) {
            let alone = mfp.run(bc, &cfg);
            assert_eq!(alone.iterations, m.iterations);
            assert_eq!(alone.converged, m.converged);
            assert_eq!(alone.deltas.len(), m.deltas.len());
            for (a, b) in alone.deltas.iter().zip(&m.deltas) {
                assert_eq!(a.to_bits(), b.to_bits(), "delta history diverged");
            }
            assert_grids_bitwise(&alone.grid, &m.grid, "run_many vs run");
        }
    }

    #[test]
    fn run_many_handles_mixed_convergence_points() {
        // On a 2x2 domain different boundaries converge at different
        // iterations; early finishers must drop out of the sweeps without
        // perturbing the stragglers.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let cfg = MfpConfig {
            max_iters: 300,
            tol: 1e-6,
            ..Default::default()
        };
        // A zero boundary keeps the grid identically zero (delta 0 on the
        // first check); a harmonic one takes many Schwarz iterations.
        let flat = Tensor::zeros(1, d.boundary_len());
        let (hard, _) = harmonic_bc(&d);
        let many = mfp.run_many(&[flat.clone(), hard.clone()], &cfg);
        let flat_alone = mfp.run(&flat, &cfg);
        let hard_alone = mfp.run(&hard, &cfg);
        assert!(many[0].iterations < many[1].iterations);
        assert_eq!(many[0].iterations, flat_alone.iterations);
        assert_eq!(many[1].iterations, hard_alone.iterations);
        assert_grids_bitwise(&many[0].grid, &flat_alone.grid, "flat");
        assert_grids_bitwise(&many[1].grid, &hard_alone.grid, "hard");
    }

    /// `many` must equal solving each of `bcs` alone, field for field and
    /// bit for bit.
    fn assert_results_match_solo_runs(
        many: &[MfpResult],
        solo: impl Fn(&Tensor) -> MfpResult,
        bcs: &[Tensor],
    ) {
        assert_eq!(many.len(), bcs.len());
        for (bc, m) in bcs.iter().zip(many) {
            let alone = solo(bc);
            assert_eq!(alone.iterations, m.iterations);
            assert_eq!(alone.converged, m.converged);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&alone.deltas), bits(&m.deltas), "delta history");
            assert_eq!(alone.mae_history.len(), m.mae_history.len());
            for (a, b) in alone.mae_history.iter().zip(&m.mae_history) {
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()), "MAE history");
            }
            assert_grids_bitwise(&alone.grid, &m.grid, "many vs alone");
        }
    }

    #[test]
    fn run_many_shares_the_stop_rule_of_run_under_acceleration_and_mae_target() {
        // All three entry points go through one stop rule: k requests
        // must stop where k solo runs stop, also when the iteration is
        // accelerated and when a MaeTarget (checked every 2nd iteration,
        // so both due and not-due iterations occur) decides.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (hard, _) = harmonic_bc(&d);
        let bcs = [
            hard.clone(),
            hard.scale(-0.5),
            Tensor::zeros(1, d.boundary_len()),
        ];
        let cfg = MfpConfig {
            max_iters: 60,
            tol: 1e-7,
            accelerate: true,
            target: Some(MaeTarget {
                reference: reference(&d, &hard),
                mae: 1e-3,
                every: 2,
            }),
        };
        let many = mfp.run_many(&bcs, &cfg);
        assert_results_match_solo_runs(&many, |bc| mfp.run(bc, &cfg), &bcs);
        // The target fired for the request it describes and only there.
        assert!(many[0].converged && many[0].mae_history.last().unwrap().1 <= 1e-3);
        assert!(many[0].iterations < many[1].iterations);
    }

    #[test]
    fn shifted_solves_through_the_multi_request_driver_match_run_shifted() {
        let d = DomainSpec::new(spec(), 2, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let sigma = 25.0;
        let forcing = Tensor::from_fn(d.ny(), d.nx(), |j, i| {
            ((j as f64) * 0.4).cos() + ((i as f64) * 0.3).sin()
        });
        let (hard, _) = harmonic_bc(&d);
        let bcs = [Tensor::zeros(1, d.boundary_len()), hard];
        let cfg = MfpConfig {
            max_iters: 40,
            tol: 1e-8,
            ..Default::default()
        };
        let many = mfp.run_local(&bcs, sigma, Some(&forcing), &cfg);
        assert_results_match_solo_runs(
            &many,
            |bc| mfp.run_shifted(bc, sigma, Some(&forcing), &cfg),
            &bcs,
        );
    }

    #[test]
    #[should_panic(expected = "MaeTarget::every must be at least 1")]
    fn zero_mae_target_cadence_is_rejected_at_entry() {
        let d = DomainSpec::new(spec(), 1, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let cfg = MfpConfig {
            target: Some(MaeTarget {
                reference: Tensor::zeros(d.ny(), d.nx()),
                mae: 0.05,
                every: 0,
            }),
            ..Default::default()
        };
        Mfp::new(&oracle, d).run(&Tensor::zeros(1, d.boundary_len()), &cfg);
    }

    #[test]
    fn run_many_on_empty_input_returns_empty() {
        let d = DomainSpec::new(spec(), 1, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        assert!(mfp.run_many(&[], &MfpConfig::default()).is_empty());
    }

    mod plan_equality_proptests {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// For any weights, boundaries, and query points, the compiled
            /// plan is within its launch bound of the batched graph path,
            /// which is bitwise the per-boundary graph path.
            #[test]
            fn plan_and_graph_paths_agree_within_the_launch_bound(
                net_seed in 0u64..1_000_000,
                data_seed in 0u64..1_000_000,
                b in 1usize..5,
                q in 1usize..9,
            ) {
                let spec = spec();
                let net = equality_net(net_seed);
                let plan = crate::PlanSolver::new(net.clone(), spec);
                let graph = crate::plan::tests::GraphSolver::new(net, spec);
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(data_seed);
                let bnd = Tensor::from_fn(b, spec.boundary_len(), |_, _| {
                    rng.gen_range(-1.0..1.0)
                });
                let pts = Tensor::from_fn(q, 2, |_, _| rng.gen_range(0.0..0.5));

                // Checks every output against the bound.
                crate::plan::tests::Checked::new(&plan).solve_batch(&bnd, &pts);
                let batched = graph.solve_batch(&bnd, &pts);
                // Unbatched graph path: one boundary per launch.
                for bi in 0..b {
                    let row = Tensor::from_fn(1, spec.boundary_len(), |_, c| bnd.get(bi, c));
                    let single = graph.solve_batch(&row, &pts);
                    for k in 0..q {
                        prop_assert_eq!(
                            single.get(k, 0).to_bits(),
                            batched.get(bi * q + k, 0).to_bits()
                        );
                    }
                }
            }

            /// Batched serving's correctness foundation: a multi-request
            /// `run_many` is bitwise identical to solving each request
            /// alone, for any weights, request count, and iteration
            /// budget.
            #[test]
            fn run_many_agrees_with_individual_runs_bitwise(
                net_seed in 0u64..1_000_000,
                data_seed in 0u64..1_000_000,
                n in 1usize..4,
                max_iters in 1usize..4,
                wide in proptest::bool::ANY,
            ) {
                use rand::{Rng, SeedableRng};
                let spec = spec();
                let d = DomainSpec::new(spec, if wide { 2 } else { 1 }, 1);
                let net = equality_net(net_seed);
                let plan = crate::PlanSolver::new(net, spec);
                let mfp = Mfp::new(&plan, d);
                let cfg = MfpConfig {
                    max_iters,
                    tol: 1e-3,
                    ..Default::default()
                };
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(data_seed);
                let bcs: Vec<Tensor> = (0..n)
                    .map(|_| Tensor::from_fn(1, d.boundary_len(), |_, _| {
                        rng.gen_range(-1.0..1.0)
                    }))
                    .collect();
                let many = mfp.run_many(&bcs, &cfg);
                for (bc, m) in bcs.iter().zip(&many) {
                    let alone = mfp.run(bc, &cfg);
                    prop_assert_eq!(alone.iterations, m.iterations);
                    prop_assert_eq!(alone.converged, m.converged);
                    for (x, y) in alone.grid.as_slice().iter().zip(m.grid.as_slice()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn deltas_decay_monotonically_in_the_tail() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 30,
                tol: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(res.deltas.len(), 30);
        // Schwarz for Laplace contracts: late deltas well below early ones.
        let early = res.deltas[1];
        let late = *res.deltas.last().unwrap();
        assert!(
            late < early * 0.1,
            "deltas did not contract: {early} -> {late}"
        );
    }

    #[test]
    fn global_boundary_is_never_modified() {
        let d = DomainSpec::new(spec(), 2, 1);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 3,
                tol: 0.0,
                ..Default::default()
            },
        );
        let out_bc = mf_numerics::boundary::extract_boundary(&res.grid);
        assert!(out_bc.allclose(&bc, 1e-12));
    }

    #[test]
    fn shifted_mfp_matches_global_shifted_solve() {
        // Manufactured problem: σu − Δu = f with u = sin(πx/W)sin(πy/H)
        // on the domain, zero boundary.
        use mf_numerics::solve_shifted;
        let d = DomainSpec::new(spec(), 2, 1);
        let (w, hgt) = ((d.nx() - 1) as f64 * d.h(), (d.ny() - 1) as f64 * d.h());
        let pi = std::f64::consts::PI;
        let sigma = 40.0;
        let exact = Tensor::from_fn(d.ny(), d.nx(), |j, i| {
            (pi * i as f64 * d.h() / w).sin() * (pi * j as f64 * d.h() / hgt).sin()
        });
        let lam = (pi / w).powi(2) + (pi / hgt).powi(2);
        let forcing = exact.scale(sigma + lam);
        let bc = Tensor::zeros(1, d.boundary_len());

        // Global reference with the same discretization.
        let problem = mf_numerics::Poisson {
            f: forcing.clone(),
            h: d.h(),
        };
        let guess = Tensor::zeros(d.ny(), d.nx());
        let reference = solve_shifted(&problem, sigma, &guess);

        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let res = mfp.run_shifted(
            &bc,
            sigma,
            Some(&forcing),
            &MfpConfig {
                max_iters: 300,
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(res.converged, "shifted MFP did not converge");
        let mae = res.grid.mean_abs_diff(&reference);
        assert!(mae < 1e-5, "MAE vs global shifted solve: {mae}");
        // And against the continuum solution, up to discretization error.
        assert!(res.grid.mean_abs_diff(&exact) < 5e-3);
    }

    #[test]
    fn shifted_mfp_converges_faster_than_laplace_mfp() {
        // Diagonal dominance (σ > 0) localizes the problem: information
        // needs fewer Schwarz iterations — the basis of §5.3's hypothesis
        // that time-dependent problems suit one-level Schwarz.
        let d = DomainSpec::new(spec(), 4, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let cfg = MfpConfig {
            max_iters: 2000,
            tol: 1e-7,
            ..Default::default()
        };
        let laplace = mfp.run(&bc, &cfg);
        let zero_forcing = Tensor::zeros(d.ny(), d.nx());
        let shifted = mfp.run_shifted(&bc, 200.0, Some(&zero_forcing), &cfg);
        assert!(laplace.converged && shifted.converged);
        assert!(
            shifted.iterations < laplace.iterations,
            "shifted ({}) should beat Laplace ({})",
            shifted.iterations,
            laplace.iterations
        );
    }

    #[test]
    fn acceleration_cuts_iterations_without_changing_the_answer() {
        // The coarse-grid seed (cited future work of §5.3) propagates
        // boundary information globally in one cheap solve, so the Schwarz
        // iteration starts much closer to the fixed point, and the mixing
        // extrapolates towards it.
        let d = DomainSpec::new(spec(), 4, 4);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let plain = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 2000,
                tol: 1e-7,
                accelerate: false,
                ..Default::default()
            },
        );
        let coarse = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 2000,
                tol: 1e-7,
                accelerate: true,
                ..Default::default()
            },
        );
        assert!(plain.converged && coarse.converged);
        assert!(
            (coarse.iterations as f64) <= 0.8 * plain.iterations as f64,
            "acceleration should cut iterations noticeably: {} vs {}",
            coarse.iterations,
            plain.iterations
        );
        assert!(
            plain.grid.mean_abs_diff(&coarse.grid) < 1e-5,
            "acceleration changed the converged solution"
        );
    }

    #[test]
    fn accelerated_and_one_level_iterations_share_the_fixed_point() {
        // Mixing is the identity where `f = 0`, so the accelerated
        // iteration can only stop where the one-level iteration stops:
        // same grid at tight tolerance, in a fraction of the sweeps.
        fn run<S: SubdomainSolver>(
            mfp: &Mfp<'_, S>,
            bc: &Tensor,
            tol: f64,
            accelerate: bool,
        ) -> MfpResult {
            let res = mfp.run(
                bc,
                &MfpConfig {
                    max_iters: 2000,
                    tol,
                    accelerate,
                    ..Default::default()
                },
            );
            assert!(res.converged, "accelerate = {accelerate}: not converged");
            res
        }
        let d = DomainSpec::new(spec(), 4, 4);
        let oracle = OracleSolver::new(spec(), 1e-11);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let (one_level, two_level) = (run(&mfp, &bc, 1e-10, false), run(&mfp, &bc, 1e-10, true));
        let gap = one_level.grid.max_abs_diff(&two_level.grid);
        assert!(gap < 1e-8, "oracle: fixed points {gap} apart");
        assert!(
            3 * two_level.iterations <= one_level.iterations,
            "{} accelerated vs {} one-level iterations",
            two_level.iterations,
            one_level.iterations
        );

        // And with an inexact, nonlinear subdomain solver: the `f64` graph,
        // which can meet `tol 1e-9` (the `f32` plan's relative change
        // bottoms out near its rounding, about 1e-7).
        let d = DomainSpec::new(spec(), 2, 2);
        let graph = crate::plan::tests::GraphSolver::new(equality_net(2), spec());
        let mfp = Mfp::new(&graph, d);
        for bc in random_bcs(&d, 4) {
            let (one_level, two_level) = (run(&mfp, &bc, 1e-9, false), run(&mfp, &bc, 1e-9, true));
            let gap = one_level.grid.max_abs_diff(&two_level.grid);
            assert!(gap < 1e-6, "network: fixed points {gap} apart");
            assert!(two_level.iterations <= one_level.iterations);
        }
    }

    /// A GP boundary walk of `seed` on `d`, as `--boundary gp:<seed>`
    /// draws it.
    fn gp_bc(d: &DomainSpec, seed: u64) -> Tensor {
        use rand::SeedableRng;
        let mut sampler =
            mf_gp::BoundarySampler::new(d.boundary_len(), (0.4, 0.8), (0.5, 1.0), true);
        sampler.sample(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed))
    }

    #[test]
    fn the_coarse_correction_keeps_the_one_level_fixed_point() {
        // Both levels run to tol 1e-10 on the exact subdomain map: the
        // correction moves the path only.
        let spec = SubdomainSpec { m: 5, spatial: 0.5 };
        let oracle = OracleSolver::new(spec, 1e-11);
        for side in [4, 8, 16] {
            let d = DomainSpec::new(spec, side, side);
            let mfp = Mfp::new(&oracle, d);
            let bc = gp_bc(&d, 5);
            let run = |accelerate: bool| {
                let res = mfp.run(
                    &bc,
                    &MfpConfig {
                        max_iters: 5000,
                        tol: 1e-10,
                        accelerate,
                        ..Default::default()
                    },
                );
                assert!(res.converged, "{side}x{side}, accelerate = {accelerate}");
                res
            };
            let gap = run(true).grid.max_abs_diff(&run(false).grid);
            assert!(gap < 1e-6, "{side}x{side}: solutions {gap} apart");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only: 32x32 and 48x48 solves")]
    fn the_accelerated_count_stays_flat_as_the_domain_grows() {
        // The one-level count grows with the side (85 → 4431 sweeps from
        // 4×4 to 32×32 at m = 9); the coarse correction keeps the
        // accelerated one within 1.5× of its 4×4 count, for the same
        // subdomain size and GP seed. A correction that stops for good
        // after a short plateau leaves 48×48 (m = 9, seed 0) at 222.
        let count = |m: usize, side: usize, seed: u64| {
            let spec = SubdomainSpec { m, spatial: 0.5 };
            let oracle = OracleSolver::new(spec, 1e-11);
            let d = DomainSpec::new(spec, side, side);
            let cfg = MfpConfig {
                max_iters: 400,
                tol: 1e-9,
                ..Default::default()
            };
            let res = Mfp::new(&oracle, d).run(&gp_bc(&d, seed), &cfg);
            assert!(res.converged, "m {m}, {side}x{side}, seed {seed}");
            res.iterations
        };
        for (m, side, seed) in [(5, 32, 5), (9, 48, 0)] {
            let (small, large) = (count(m, 4, seed), count(m, side, seed));
            assert!(
                2 * large <= 3 * small,
                "m {m}, seed {seed}: {large} iterations at {side}x{side} vs {small} at 4x4"
            );
        }
    }

    /// Boundary walks of uniform noise, seeds `0..n`.
    fn random_bcs(d: &DomainSpec, n: u64) -> Vec<Tensor> {
        use rand::{Rng, SeedableRng};
        (0..n)
            .map(|s| {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(s);
                Tensor::from_fn(1, d.boundary_len(), |_, _| rng.gen_range(-1.0..1.0))
            })
            .collect()
    }

    #[test]
    fn run_many_matches_solo_runs_bitwise_through_a_restart() {
        // Mixing state is per request: a request whose relative change
        // grows mid-solve (so its history is dropped and rebuilt) and its
        // smoothly converging batch mates each repeat their solo run.
        // On the `f64` graph: the `f32` plan cannot meet `tol 1e-9`.
        let d = DomainSpec::new(spec(), 2, 2);
        let graph = crate::plan::tests::GraphSolver::new(equality_net(2), spec());
        let mfp = Mfp::new(&graph, d);
        let cfg = MfpConfig {
            max_iters: 60,
            tol: 1e-9,
            ..Default::default()
        };
        let bcs = random_bcs(&d, 4);
        let many = mfp.run_many(&bcs, &cfg);
        assert_results_match_solo_runs(&many, |bc| mfp.run(bc, &cfg), &bcs);
        assert!(many.iter().all(|m| m.converged));
        let grows = |m: &MfpResult| m.deltas.windows(2).skip(1).any(|w| w[1] > w[0]);
        assert!(
            grows(&many[2]),
            "request 2 no longer restarts: pick another"
        );
        assert!(!grows(&many[0]), "request 0 restarts too");
    }

    #[test]
    fn a_non_finite_request_stops_at_once_and_leaves_its_batch_alone() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (hard, _) = harmonic_bc(&d);
        let mut poisoned = hard.clone();
        poisoned.as_mut_slice()[3] = f64::NAN;
        let mut overflowing = hard.clone();
        overflowing.as_mut_slice()[5] = f64::INFINITY;
        for accelerate in [true, false] {
            let cfg = MfpConfig {
                max_iters: 200,
                tol: 1e-8,
                accelerate,
                ..Default::default()
            };
            let bcs = [
                hard.clone(),
                poisoned.clone(),
                hard.scale(-0.5),
                overflowing.clone(),
            ];
            let launches = oracle.launch_count();
            let many = mfp.run_many(&bcs, &cfg);
            let launches = oracle.launch_count() - launches;
            for bad in [&many[1], &many[3]] {
                assert_eq!((bad.iterations, bad.converged), (1, false));
            }
            for good in [0, 2] {
                assert!(many[good].converged);
                let solo = std::slice::from_ref(&bcs[good]);
                assert_results_match_solo_runs(&many[good..=good], |bc| mfp.run(bc, &cfg), solo);
            }
            // The batch launched for as long as its slower good request
            // (four sweep groups an iteration, one dense fill), not to
            // `max_iters`.
            let good_iters = many[0].iterations.max(many[2].iterations);
            assert!(good_iters < cfg.max_iters);
            assert_eq!(launches, 4 * good_iters + 1);
        }
    }

    #[test]
    fn the_returned_lattice_is_the_last_sweeps_output() {
        // Mixing only ever moves the iterate a sweep *starts* from. The
        // last sweep group's center crosses lie on atomic-subdomain edges,
        // which the dense fill never writes, so in the returned grid they
        // must hold the last sweep launch's predictions bit for bit —
        // whether the run stopped at the tolerance or ran out of
        // iterations.
        struct Recording<'a>(&'a OracleSolver, std::sync::Mutex<Vec<Tensor>>);
        impl SubdomainSolver for Recording<'_> {
            fn spec(&self) -> mf_data::SubdomainSpec {
                self.0.spec()
            }
            /// Records every point of the launch, then takes the subset.
            fn solve_batch_subset(
                &self,
                sigma: f64,
                boundaries: &Tensor,
                forcings: Option<&Tensor>,
                points: &Tensor,
                subset: crate::Subset<'_>,
            ) -> Tensor {
                let mut preds = self.0.solve_batch_subset(
                    sigma,
                    boundaries,
                    forcings,
                    points,
                    crate::Subset::All,
                );
                self.1.lock().unwrap().push(preds.clone());
                subset.compact(preds.as_mut_slice(), points.rows());
                preds
            }
            fn inference_count(&self) -> usize {
                self.0.inference_count()
            }
            fn launch_count(&self) -> usize {
                self.0.launch_count()
            }
        }
        let d = DomainSpec::new(spec(), 3, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let (bc, _) = harmonic_bc(&d);
        for (max_iters, tol) in [(4, 0.0), (200, 1e-7)] {
            let recording = Recording(&oracle, Default::default());
            let mfp = Mfp::new(&recording, d);
            let res = mfp.run(
                &bc,
                &MfpConfig {
                    max_iters,
                    tol,
                    ..Default::default()
                },
            );
            assert_eq!(res.converged, tol > 0.0);
            let launches = recording.1.lock().unwrap();
            // Four sweep launches per iteration, then the dense fill.
            assert_eq!(launches.len(), 4 * res.iterations + 1);
            let last_sweep = &launches[launches.len() - 2];
            let cross = d.center_cross_offsets();
            let last_group = &mfp.sweep_groups()[3];
            assert!(!last_group.is_empty());
            for (sd, preds) in last_group
                .iter()
                .zip(last_sweep.as_slice().chunks_exact(cross.len()))
            {
                for (&(j, i), p) in cross.iter().zip(preds) {
                    assert_eq!(res.grid.get(sd.oy + j, sd.ox + i).to_bits(), p.to_bits());
                }
            }
        }
    }

    #[test]
    fn coarse_initialize_is_exact_for_linear_solutions() {
        // A linear harmonic function is reproduced exactly by the coarse
        // solve + linear interpolation, so the lattice starts at the
        // exact solution.
        let d = DomainSpec::new(spec(), 2, 2);
        let h = d.h();
        let f = |x: f64, y: f64| 1.0 + 2.0 * x - 3.0 * y;
        let coords = mf_numerics::boundary::boundary_coords(d.ny(), d.nx());
        let bc = Tensor::from_vec(
            1,
            coords.len(),
            coords
                .iter()
                .map(|&(j, i)| f(i as f64 * h, j as f64 * h))
                .collect(),
        );
        let mut grid = Tensor::zeros(d.ny(), d.nx());
        apply_boundary(&mut grid, &bc);
        d.coarse_initialize(&mut grid);
        for j in 0..d.ny() {
            for i in 0..d.nx() {
                if d.on_lattice(j, i) {
                    let e = f(i as f64 * h, j as f64 * h);
                    assert!(
                        (grid.get(j, i) - e).abs() < 1e-12,
                        "lattice point ({j},{i}): {} vs {e}",
                        grid.get(j, i)
                    );
                }
            }
        }
    }

    #[test]
    fn mae_target_stops_early_and_records_history() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let refsol = reference(&d, &bc);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 500,
                tol: 0.0,
                target: Some(MaeTarget {
                    reference: refsol,
                    mae: 0.05,
                    every: 1,
                }),
                ..Default::default()
            },
        );
        assert!(res.converged);
        assert!(res.iterations < 500);
        assert!(!res.mae_history.is_empty());
        // History MAE is decreasing overall.
        let first = res.mae_history[0].1;
        let last = res.mae_history.last().unwrap().1;
        assert!(last <= first);
        assert!(last <= 0.05);
    }
}

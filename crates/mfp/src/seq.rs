//! Single-process Mosaic Flow predictor: the baseline (unbatched) and the
//! device-parallel batched variant (§4.1).

use crate::domain::{diff_sumsq_at, sumsq_at, DomainSpec, PointSet, Subdomain, SweepTables};
use crate::solver::SubdomainSolver;
use mf_numerics::boundary::apply_boundary;
use mf_telemetry::{histogram, span, Buckets};
use mf_tensor::Tensor;
use rayon::prelude::*;

/// Early-stop criterion based on a reference solution (used by the
/// strong-scaling experiments, which iterate until MAE ≤ 0.05).
#[derive(Clone, Debug)]
pub struct MaeTarget {
    /// Reference solution on the full global grid.
    pub reference: Tensor,
    /// Stop once the lattice MAE against the reference drops below this.
    pub mae: f64,
    /// Check every this many iterations.
    pub every: usize,
}

/// Iteration controls for [`Mfp::run`].
#[derive(Clone, Debug)]
pub struct MfpConfig {
    /// Maximum Schwarz iterations.
    pub max_iters: usize,
    /// Relative-change convergence threshold `δ` (Algorithm 2, line 5);
    /// set to 0 to disable.
    pub tol: f64,
    /// Batch each sweep group into one inference (§4.1) instead of solving
    /// one subdomain at a time.
    pub batched: bool,
    /// Optional reference-based stop.
    pub target: Option<MaeTarget>,
    /// Initialize the lattice from a coarse global solve before
    /// iterating (the coarse-grid correction of §5.3's cited future
    /// work) — typically cuts the iteration count severalfold on large
    /// domains.
    pub coarse_init: bool,
}

impl Default for MfpConfig {
    fn default() -> Self {
        Self {
            max_iters: 1000,
            tol: 1e-4,
            batched: true,
            target: None,
            coarse_init: false,
        }
    }
}

/// Outcome of an MFP run.
#[derive(Clone, Debug)]
pub struct MfpResult {
    /// Dense solution on the global grid.
    pub grid: Tensor,
    /// Schwarz iterations performed.
    pub iterations: usize,
    /// Whether a stop criterion fired before `max_iters`.
    pub converged: bool,
    /// Relative lattice change per iteration.
    pub deltas: Vec<f64>,
    /// `(iteration, lattice MAE)` history when a target was given.
    pub mae_history: Vec<(usize, f64)>,
}

/// Sweep one batch of same-group subdomains with immediate updates:
/// gather the window boundaries (and forcing windows) into a single
/// batched inference and write the predictions at `points` back.
/// `boundaries` is the caller's reused `[B, L]` gather buffer.
///
/// Shared by the sequential sweep, the dense fill and the distributed
/// interior/boundary passes. The distributed overlapped schedule calls
/// this on arbitrary *subsets* of a group, which is exact because
/// same-group subdomains never read one another's cross writes (their
/// windows share at most the one-cell seam line, which crosses never
/// touch), so splitting a group's batch cannot change any value.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_batch_shifted<S: SubdomainSolver>(
    solver: &S,
    tables: &SweepTables,
    grid: &mut Tensor,
    subs: &[Subdomain],
    points: &PointSet,
    sigma: f64,
    forcing: Option<&Tensor>,
    boundaries: &mut Tensor,
) {
    if subs.is_empty() {
        return;
    }
    tables.gather(subs.len(), subs.iter().map(|&sd| (&*grid, sd)), boundaries);
    let fw = forcing.map(|f| {
        Tensor::vstack(
            &subs
                .iter()
                .map(|&sd| tables.domain.read_window_field(f, sd))
                .collect::<Vec<_>>(),
        )
    });
    let preds = solver.solve_batch_shifted(sigma, boundaries, fw.as_ref(), &points.pts);
    let q = points.pts.rows();
    for (&sd, p) in subs.iter().zip(preds.as_slice().chunks_exact(q)) {
        tables.scatter(grid, sd, points, p);
    }
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

    /// The bound domain.
    pub fn domain(&self) -> &DomainSpec {
        &self.domain
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
    /// solver that implements
    /// [`SubdomainSolver::solve_batch_shifted`] (the oracle does).
    pub fn run_shifted(
        &self,
        bc: &Tensor,
        sigma: f64,
        forcing: Option<&Tensor>,
        cfg: &MfpConfig,
    ) -> MfpResult {
        let d = &self.domain;
        if let Some(f) = forcing {
            assert_eq!(
                f.shape(),
                (d.ny(), d.nx()),
                "run_shifted: forcing shape mismatch"
            );
        }
        assert_eq!(
            bc.numel(),
            d.boundary_len(),
            "Mfp::run: global boundary has wrong length"
        );
        let mut grid = Tensor::zeros(d.ny(), d.nx());
        apply_boundary(&mut grid, bc);
        if cfg.coarse_init {
            d.coarse_initialize(&mut grid);
        }

        let groups = self.sweep_groups();
        let tables = SweepTables::new(d);
        let lattice = d.lattice_indices(0..d.ny(), 0..d.nx());
        let cross = tables.point_set(&d.center_cross_offsets());
        let mut boundaries = Tensor::zeros(0, 0);
        let mut prev = grid.clone();

        let mut deltas = Vec::new();
        let mut mae_history = Vec::new();
        let mut converged = false;
        let mut iterations = 0;

        let h_residual = histogram("mfp.residual", Buckets::exponential(1e-9, 10.0, 12));

        for it in 0..cfg.max_iters {
            span!("mfp.iteration", it = it as f64);
            prev.as_mut_slice().copy_from_slice(grid.as_slice());
            {
                mf_profile::zone!("sweep");
                for group in &groups {
                    self.sweep_group(
                        &tables,
                        &mut grid,
                        group,
                        &cross,
                        cfg.batched,
                        sigma,
                        forcing,
                        &mut boundaries,
                    );
                }
            }
            iterations = it + 1;
            // Make this thread's metrics visible to live scrapes once
            // per iteration (a warm publish does not allocate).
            mf_telemetry::publish_thread();

            let delta = {
                let num = diff_sumsq_at(&grid, &prev, &lattice);
                let den = sumsq_at(&prev, &lattice).max(f64::MIN_POSITIVE);
                (num / den).sqrt()
            };
            h_residual.record(delta);
            deltas.push(delta);
            if cfg.tol > 0.0 && delta < cfg.tol {
                converged = true;
                break;
            }
            if let Some(t) = &cfg.target {
                if iterations % t.every == 0 {
                    let mae = d.lattice_mae(&grid, &t.reference);
                    mae_history.push((iterations, mae));
                    if mae <= t.mae {
                        converged = true;
                        break;
                    }
                }
            }
        }

        self.dense_fill_shifted(&mut grid, sigma, forcing);
        MfpResult {
            grid,
            iterations,
            converged,
            deltas,
            mae_history,
        }
    }

    /// Solve many BVPs on the *same* domain in one batched pass: each
    /// Schwarz sweep stacks every active request's group boundaries into
    /// a single `solve_batch` launch, and the final dense fill packs all
    /// requests into one launch per point set.
    ///
    /// Because every solver row is independent (the property
    /// `plan_and_graph_paths_agree_bitwise` proves for the compiled
    /// plan), each request's grid, iteration count, and deltas are
    /// **bitwise identical** to calling [`Mfp::run`] on that request
    /// alone. Requests converge independently: a request that meets
    /// `cfg.tol` drops out of subsequent sweeps while the rest continue.
    ///
    /// This is the serving hot path: cross-request batching amortizes
    /// the per-launch fixed cost (plan-cache probe, workspace checkout,
    /// interpreter dispatch) that dominates small single-request
    /// launches.
    pub fn run_many(&self, bcs: &[Tensor], cfg: &MfpConfig) -> Vec<MfpResult> {
        let d = &self.domain;
        for bc in bcs {
            assert_eq!(
                bc.numel(),
                d.boundary_len(),
                "Mfp::run_many: global boundary has wrong length"
            );
        }
        struct State {
            grid: Tensor,
            deltas: Vec<f64>,
            mae_history: Vec<(usize, f64)>,
            iterations: usize,
            converged: bool,
        }
        let mut states: Vec<State> = bcs
            .iter()
            .map(|bc| {
                let mut grid = Tensor::zeros(d.ny(), d.nx());
                apply_boundary(&mut grid, bc);
                if cfg.coarse_init {
                    d.coarse_initialize(&mut grid);
                }
                State {
                    grid,
                    deltas: Vec::new(),
                    mae_history: Vec::new(),
                    iterations: 0,
                    converged: false,
                }
            })
            .collect();

        let groups = self.sweep_groups();
        let tables = SweepTables::new(d);
        let lattice = d.lattice_indices(0..d.ny(), 0..d.nx());
        let cross = tables.point_set(&d.center_cross_offsets());
        let mut boundaries = Tensor::zeros(0, 0);
        let h_residual = histogram("mfp.residual", Buckets::exponential(1e-9, 10.0, 12));

        let mut active: Vec<usize> = (0..states.len()).collect();
        for it in 0..cfg.max_iters {
            if active.is_empty() {
                break;
            }
            span!("mfp.iteration", it = it as f64);
            mf_reqtrace::note_iteration(it as u32, active.len() as u32);
            let prev: Vec<Tensor> = active.iter().map(|&r| states[r].grid.clone()).collect();
            {
                mf_profile::zone!("sweep");
                for group in &groups {
                    if group.is_empty() {
                        continue;
                    }
                    // One launch covers every active request's group:
                    // request-major, subdomain-minor row order.
                    let rows = || {
                        active
                            .iter()
                            .flat_map(|&r| group.iter().map(move |&sd| (r, sd)))
                    };
                    tables.gather(
                        active.len() * group.len(),
                        rows().map(|(r, sd)| (&states[r].grid, sd)),
                        &mut boundaries,
                    );
                    let preds = self.solver.solve_batch(&boundaries, &cross.pts);
                    let q = cross.pts.rows();
                    for ((r, sd), p) in rows().zip(preds.as_slice().chunks_exact(q)) {
                        tables.scatter(&mut states[r].grid, sd, &cross, p);
                    }
                }
            }
            mf_telemetry::publish_thread();

            let mut still = Vec::with_capacity(active.len());
            for (ai, &r) in active.iter().enumerate() {
                let s = &mut states[r];
                s.iterations = it + 1;
                let delta = {
                    let num = diff_sumsq_at(&s.grid, &prev[ai], &lattice);
                    let den = sumsq_at(&prev[ai], &lattice).max(f64::MIN_POSITIVE);
                    (num / den).sqrt()
                };
                h_residual.record(delta);
                s.deltas.push(delta);
                if cfg.tol > 0.0 && delta < cfg.tol {
                    s.converged = true;
                    mf_reqtrace::note_slot(r, it as u32, delta, true);
                    continue;
                }
                if let Some(t) = &cfg.target {
                    if s.iterations.is_multiple_of(t.every) {
                        let mae = d.lattice_mae(&s.grid, &t.reference);
                        s.mae_history.push((s.iterations, mae));
                        if mae <= t.mae {
                            s.converged = true;
                            mf_reqtrace::note_slot(r, it as u32, delta, true);
                            continue;
                        }
                    }
                }
                mf_reqtrace::note_slot(r, it as u32, delta, false);
                still.push(r);
            }
            active = still;
        }

        // One dense launch packs every request's atomic subdomains: each
        // grid is frozen after its own convergence, so deferring the
        // fill to the end changes nothing.
        if !states.is_empty() {
            let interior = tables.point_set(&d.interior_offsets());
            let atoms = d.atomic_subdomains();
            tables.gather(
                states.len() * atoms.len(),
                states
                    .iter()
                    .flat_map(|s| atoms.iter().map(move |&sd| (&s.grid, sd))),
                &mut boundaries,
            );
            let preds = self.solver.solve_batch(&boundaries, &interior.pts);
            let per_request = atoms.len() * interior.pts.rows();
            for (s, p) in states
                .iter_mut()
                .zip(preds.as_slice().chunks_exact(per_request))
            {
                for (&sd, p) in atoms.iter().zip(p.chunks_exact(interior.pts.rows())) {
                    tables.scatter(&mut s.grid, sd, &interior, p);
                }
            }
        }

        states
            .into_iter()
            .map(|s| MfpResult {
                grid: s.grid,
                iterations: s.iterations,
                converged: s.converged,
                deltas: s.deltas,
                mae_history: s.mae_history,
            })
            .collect()
    }

    /// The four non-overlapping sweep groups, in a fixed alternating
    /// order.
    pub fn sweep_groups(&self) -> [Vec<Subdomain>; 4] {
        let mut groups: [Vec<Subdomain>; 4] = Default::default();
        for sd in self.domain.subdomains() {
            groups[self.domain.group_of(sd)].push(sd);
        }
        groups
    }

    /// Run one group's inferences and write the center crosses back.
    /// `batched = false` issues one inference per subdomain (the original
    /// baseline); within a group the results are identical because group
    /// members never overlap.
    #[allow(clippy::too_many_arguments)]
    fn sweep_group(
        &self,
        tables: &SweepTables,
        grid: &mut Tensor,
        group: &[Subdomain],
        cross: &PointSet,
        batched: bool,
        sigma: f64,
        forcing: Option<&Tensor>,
        boundaries: &mut Tensor,
    ) {
        if group.is_empty() {
            return;
        }
        if batched {
            sweep_batch_shifted(
                self.solver,
                tables,
                grid,
                group,
                cross,
                sigma,
                forcing,
                boundaries,
            );
        } else {
            // Same-color subdomains never overlap, so their solves are
            // independent: fan the per-subdomain launches out on the pool
            // and write the crosses back (to disjoint lattice cells)
            // afterwards.
            let gridr: &Tensor = grid;
            let preds: Vec<Tensor> = group
                .to_vec()
                .into_par_iter()
                .map(|sd| {
                    let boundary = self.domain.read_window_boundary(gridr, sd);
                    let fw = forcing.map(|f| self.domain.read_window_field(f, sd));
                    self.solver
                        .solve_batch_shifted(sigma, &boundary, fw.as_ref(), &cross.pts)
                })
                .collect();
            for (&sd, p) in group.iter().zip(&preds) {
                tables.scatter(grid, sd, cross, p.as_slice());
            }
        }
    }

    /// Final dense pass: predict every interior point of every atomic
    /// subdomain from its current lattice boundary.
    pub fn dense_fill(&self, grid: &mut Tensor) {
        self.dense_fill_shifted(grid, 0.0, None)
    }

    /// Dense pass for the shifted operator.
    pub fn dense_fill_shifted(&self, grid: &mut Tensor, sigma: f64, forcing: Option<&Tensor>) {
        let d = &self.domain;
        let tables = SweepTables::new(d);
        sweep_batch_shifted(
            self.solver,
            &tables,
            grid,
            &d.atomic_subdomains(),
            &tables.point_set(&d.interior_offsets()),
            sigma,
            forcing,
            &mut Tensor::zeros(0, 0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::OracleSolver;
    use mf_data::SubdomainSpec;
    use mf_numerics::boundary::{boundary_coords, grid_with_boundary};
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
                batched: true,
                target: None,
                coarse_init: false,
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
    fn batched_and_unbatched_produce_identical_results() {
        let d = DomainSpec::new(spec(), 2, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let cfg_b = MfpConfig {
            max_iters: 5,
            tol: 0.0,
            batched: true,
            target: None,
            coarse_init: false,
        };
        let cfg_u = MfpConfig {
            batched: false,
            ..cfg_b.clone()
        };
        let rb = mfp.run(&bc, &cfg_b);
        let ru = mfp.run(&bc, &cfg_u);
        assert_eq!(rb.iterations, ru.iterations);
        assert!(
            rb.grid.max_abs_diff(&ru.grid) < 1e-12,
            "batched vs unbatched diverge: {}",
            rb.grid.max_abs_diff(&ru.grid)
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
    fn plan_batched_and_unbatched_mfp_runs_are_bitwise_identical() {
        // The compiled-plan solver, the batched graph path, and the
        // unbatched graph path must agree *bit for bit* through a full
        // MFP run (sweeps + dense fill exercise two distinct plans).
        let d = DomainSpec::new(spec(), 2, 1);
        let net = equality_net(42);
        let (bc, _) = harmonic_bc(&d);
        let cfg_b = MfpConfig {
            max_iters: 3,
            tol: 0.0,
            batched: true,
            target: None,
            coarse_init: false,
        };
        let cfg_u = MfpConfig {
            batched: false,
            ..cfg_b.clone()
        };

        let plan = crate::PlanSolver::new(net.clone(), spec());
        let graph = crate::NeuralSolver::new(net, spec());
        let rp = Mfp::new(&plan, d).run(&bc, &cfg_b);
        let rb = Mfp::new(&graph, d).run(&bc, &cfg_b);
        let ru = Mfp::new(&graph, d).run(&bc, &cfg_u);
        assert_grids_bitwise(&rb.grid, &rp.grid, "plan vs batched graph");
        assert_grids_bitwise(&rb.grid, &ru.grid, "batched vs unbatched graph");
        // Sweeps reuse the cross-point plan after the first compile; the
        // dense fill compiles a second plan for the interior points.
        assert!(plan.cache_hits() > 0);
    }

    #[test]
    fn run_many_matches_individual_runs_bitwise() {
        use rand::{Rng, SeedableRng};
        let d = DomainSpec::new(spec(), 1, 1);
        let net = equality_net(3);
        let plan = crate::PlanSolver::new(net, spec());
        let mfp = Mfp::new(&plan, d);
        let cfg = MfpConfig {
            max_iters: 20,
            tol: 1e-6,
            ..Default::default()
        };
        let bcs: Vec<Tensor> = (0..5u64)
            .map(|s| {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(s);
                Tensor::from_fn(1, d.boundary_len(), |_, _| rng.gen_range(-1.0..1.0))
            })
            .collect();
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

            /// The compiled plan, the batched graph path, and the
            /// per-boundary graph path must be bitwise-identical for any
            /// weights, boundaries, and query points.
            #[test]
            fn plan_and_graph_paths_agree_bitwise(
                net_seed in 0u64..1_000_000,
                data_seed in 0u64..1_000_000,
                b in 1usize..5,
                q in 1usize..9,
            ) {
                let spec = spec();
                let net = equality_net(net_seed);
                let plan = crate::PlanSolver::new(net.clone(), spec);
                let graph = crate::NeuralSolver::new(net, spec);
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(data_seed);
                let bnd = Tensor::from_fn(b, spec.boundary_len(), |_, _| {
                    rng.gen_range(-1.0..1.0)
                });
                let pts = Tensor::from_fn(q, 2, |_, _| rng.gen_range(0.0..0.5));

                let compiled = plan.solve_batch(&bnd, &pts);
                let batched = graph.solve_batch(&bnd, &pts);
                for (x, y) in batched.as_slice().iter().zip(compiled.as_slice()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
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
        use mf_numerics::solve_shifted_sor;
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
        let (reference, st) = solve_shifted_sor(&problem, sigma, &guess, 1.5, 100_000, 1e-10);
        assert!(st.converged);

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
    fn coarse_init_cuts_iterations_without_changing_the_answer() {
        // The coarse-grid initialization (cited future work of §5.3)
        // propagates boundary information globally in one cheap solve, so
        // the Schwarz iteration starts much closer to the fixed point.
        let d = DomainSpec::new(spec(), 4, 4);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let plain = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 2000,
                tol: 1e-7,
                ..Default::default()
            },
        );
        let coarse = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 2000,
                tol: 1e-7,
                coarse_init: true,
                ..Default::default()
            },
        );
        assert!(plain.converged && coarse.converged);
        assert!(
            (coarse.iterations as f64) <= 0.8 * plain.iterations as f64,
            "coarse init should cut iterations noticeably: {} vs {}",
            coarse.iterations,
            plain.iterations
        );
        assert!(
            plain.grid.mean_abs_diff(&coarse.grid) < 1e-5,
            "coarse init changed the converged solution"
        );
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
                        (grid.get(j, i) - e).abs() < 1e-7,
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
                batched: true,
                target: Some(MaeTarget {
                    reference: refsol,
                    mae: 0.05,
                    every: 1,
                }),
                coarse_init: false,
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

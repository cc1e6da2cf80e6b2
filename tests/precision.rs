//! The compiled plan's `f32` arithmetic, judged where it matters: whole
//! MFP solves of the benchmark's network, against the same solves on the
//! `f64` graph.
//!
//! Per boundary of the benchmark's seed-0 pool on its 8×8 domain (the
//! checked-in fixture `benchmark/fixtures/sdnet_m9.f64hex`, read-only),
//! `PlanSolver` against the `f64` graph (`GraphSolver`):
//!
//! * iterations to the benchmark's `tol 1e-4` (`mfp.iters_to_tol`) at most
//!   one above the graph's;
//! * at `tol 1e-7`, the fixed point within 1e-5 grid MAE of the graph's;
//! * grid MAE against the exact five-point solve within 10 % of the
//!   graph's, at `tol 1e-4`
//!   (what `accuracy_err` measures).
//!
//! And what a tolerance below the plan's rounding floor does, on the
//! solver and through the serve layer: it either converges — the sweep
//! landed on an exact `f32` fixed point — or runs to `max_iters` and says
//! `converged: false`, with a finite grid; it never hangs or returns NaN.
//!
//! Ignored in debug builds (the graph solves take minutes there):
//!
//! ```text
//! cargo test --release --test precision -- --include-ignored --nocapture
//! ```
//!
//! prints one markdown row per boundary (CI appends the table to the job
//! summary).

use mosaic_flow::mfp::Subset;
use mosaic_flow::numerics::boundary::grid_with_boundary;
use mosaic_flow::numerics::{solve_dirichlet, Poisson};
use mosaic_flow::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SPEC: SubdomainSpec = SubdomainSpec { m: 9, spatial: 0.5 };

/// The `f64` graph as a subdomain solver: each launch tiles the points for
/// every boundary, runs `SdNet::predict` and compacts to the subset. It
/// keeps no tallies; nothing here reads them.
struct GraphSolver(SdNet);

impl SubdomainSolver for GraphSolver {
    fn spec(&self) -> SubdomainSpec {
        SPEC
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
        let mut out = self.0.predict(boundaries, &tiled, q);
        subset.compact(out.as_mut_slice(), q);
        out
    }

    fn inference_count(&self) -> usize {
        0
    }

    fn launch_count(&self) -> usize {
        0
    }
}

/// The fixture, parsed the way `benchmark/src/fixture.rs` does: one `f64`
/// per line as 16 hex digits of its bits, in `Params::flatten` order, into
/// the architecture `mosaic-flow train` builds.
fn fixture() -> SdNet {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/benchmark/fixtures/sdnet_m9.f64hex"
    );
    let text = std::fs::read_to_string(path).expect("read the benchmark fixture");
    let flat: Vec<f64> = text
        .lines()
        .map(|l| f64::from_bits(u64::from_str_radix(l.trim(), 16).expect("hex line")))
        .collect();
    let mut cfg = SdNetConfig::small(SPEC.boundary_len());
    cfg.conv_channels = vec![4];
    cfg.hidden = vec![48, 48, 48];
    let mut net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
    assert_eq!(flat.len(), net.count_params(), "fixture size");
    net.params.unflatten(&flat);
    net
}

/// `jittered_pool(len, 5, 0)` of `benchmark/src/inputs.rs`: base walk `k`
/// plus 1e-3 times the seed's walk, from the same `BoundarySampler` calls.
fn pool(len: usize) -> Vec<Tensor> {
    let walk = |seed: u64| {
        BoundarySampler::new(len, (0.4, 0.8), (0.5, 1.0), true)
            .sample(&mut ChaCha8Rng::seed_from_u64(seed))
    };
    (0..5u64)
        .map(|k| {
            let mut bc = walk(k);
            bc.axpy(1e-3, &walk(1_000_000 + k));
            bc
        })
        .collect()
}

fn reference(d: &DomainSpec, bc: &Tensor) -> Tensor {
    let guess = grid_with_boundary(d.ny(), d.nx(), bc);
    let (sol, st) = solve_dirichlet(&Poisson::laplace(d.ny(), d.nx(), d.h()), &guess, 1e-9);
    assert!(st.converged, "exact reference");
    sol
}

fn config(tol: f64) -> MfpConfig {
    MfpConfig {
        max_iters: 400,
        tol,
        ..Default::default()
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: minutes of graph solves in debug"
)]
fn the_f32_plan_keeps_iterations_fixed_point_and_accuracy_on_every_pool_boundary() {
    let net = fixture();
    let plan = PlanSolver::new(net.clone(), SPEC);
    let graph = GraphSolver(net);
    let d = DomainSpec::new(SPEC, 8, 8);
    // A line of its own: the test harness prints the test's name before it.
    println!(
        "\n| boundary | iterations f64 / f32, tol 1e-4 | iterations f64 / f32, tol 1e-7 \
         | f32 last relative change | fixed-point gap, grid MAE | MAE vs exact solve f64 / f32 |"
    );
    println!("|---:|---:|---:|---:|---:|---:|");
    for (k, bc) in pool(d.boundary_len()).iter().enumerate() {
        let on_plan = |tol| Mfp::new(&plan, d).run(bc, &config(tol));
        let on_graph = |tol| {
            let r = Mfp::new(&graph, d).run(bc, &config(tol));
            assert!(
                r.converged,
                "boundary {k}: the graph did not converge at tol {tol:e}"
            );
            r
        };
        let (p4, g4) = (on_plan(1e-4), on_graph(1e-4));
        assert!(
            p4.converged,
            "boundary {k}: the plan did not converge at tol 1e-4"
        );
        // 1e-7 is at the plan's floor of relative change (2e-7 to 3e-7
        // here): it may run to the cap, as close to its fixed point as
        // f32 predictions resolve.
        let (p7, g7) = (on_plan(1e-7), on_graph(1e-7));
        let truth = reference(&d, bc);
        let (mae_p, mae_g) = (p4.grid.mean_abs_diff(&truth), g4.grid.mean_abs_diff(&truth));
        let gap = p7.grid.mean_abs_diff(&g7.grid);
        println!(
            "| {k} | {} / {} | {} / {}{} | {:.1e} | {gap:.2e} | {mae_g:.6} / {mae_p:.6} |",
            g4.iterations,
            p4.iterations,
            g7.iterations,
            p7.iterations,
            if p7.converged { "" } else { " (cap)" },
            p7.deltas.last().unwrap()
        );
        assert!(
            p4.iterations <= g4.iterations + 1,
            "boundary {k}: {} iterations on the plan, {} on the graph",
            p4.iterations,
            g4.iterations
        );
        assert!(gap <= 1e-5, "boundary {k}: fixed points {gap:e} apart");
        assert!(
            (mae_p - mae_g).abs() <= 0.1 * mae_g,
            "boundary {k}: MAE {mae_p} on the plan, {mae_g} on the graph"
        );
    }
}

/// `tol 1e-10` is below what the plan's `f32` predictions can resolve.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: minutes of graph solves in debug"
)]
fn an_unreachable_tolerance_ends_converged_or_capped_and_finite() {
    let d = DomainSpec::new(SPEC, 8, 8);
    let bcs = pool(d.boundary_len());
    let plan = PlanSolver::new(fixture(), SPEC);
    let check =
        |what: &str, converged: bool, iterations: usize, max_iters: usize, grid: &Tensor| {
            assert!(
                grid.as_slice().iter().all(|v| v.is_finite()),
                "{what}: grid not finite"
            );
            assert!(iterations <= max_iters, "{what}: {iterations} iterations");
            assert!(
                converged || iterations == max_iters,
                "{what}: stopped unconverged early"
            );
        };
    for (k, bc) in bcs.iter().enumerate() {
        let r = Mfp::new(&plan, d).run(bc, &config(1e-10));
        check(
            &format!("plan, boundary {k}"),
            r.converged,
            r.iterations,
            400,
            &r.grid,
        );
        if r.converged {
            // Only an exact fixed point gets there: a relative change of
            // at least one f32 rounding is far above 1e-10.
            assert_eq!(*r.deltas.last().unwrap(), 0.0, "boundary {k}");
        }
    }
    let service = SolveService::new(
        PlanSolver::new(fixture(), SPEC),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let mut req = SolveRequest::new(8, 8, bcs[0].clone());
    req.tol = 1e-10;
    req.max_iters = 200;
    req.want_grid = true;
    let resp = service.solve_blocking(req).expect("served");
    let grid = resp.grid.expect("grid asked for");
    check("served", resp.converged, resp.iterations, 200, &grid);
}

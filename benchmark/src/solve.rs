//! `solve_seq` and `solve_dist`: one unit is one boundary value problem on
//! the 8×8-subdomain domain (65×65 grid, 225 overlapping subdomains) solved
//! to tolerance by inference alone, dense fill included — through
//! `Mfp::run` or, at two ranks, `run_distributed` with its defaults.

use crate::fixture::{self, SPEC};
use crate::run::{Run, Size};
use crate::spans::{Recorder, NONE};
use crate::{host, inputs, stats};
use mf_mfp::{
    run_distributed, DistMfpConfig, DomainSpec, Mfp, MfpConfig, OracleSolver, PlanSolver,
    RankReport, SubdomainSolver,
};
use mf_numerics::boundary::grid_with_boundary;
use mf_numerics::{solve_dirichlet, Poisson};
use mf_tensor::Tensor;
use std::time::Instant;

/// Boundaries cycled round-robin. Odd on purpose: iteration counts differ
/// between boundaries, and with an even pool the median unit falls in the
/// gap between two of them and flips.
pub const POOL: usize = 5;
/// `nproc` on the host this was sized for; more ranks than cores would
/// measure the scheduler.
pub const RANKS: usize = 2;
const MAX_ITERS: usize = 400;
const TOL: f64 = 1e-4;

/// What the fixture network does on this domain, per boundary of the pool
/// of seed 0 (`--regen-fixture` prints these rows): grid MAE of `Mfp::run`
/// against multigrid, and grid MAE between `run_distributed` and
/// `Mfp::run`. A unit counts as correct within twice its boundary's
/// figures.
///
/// The second column is a finding, not a tolerance: it does not shrink
/// with `tol` (6.5e-3 at 1e-4 and 6.6e-3 at 1e-7 on the last boundary,
/// with 2.4 times the iterations). Neighbouring subdomains' center crosses
/// overlap, the last writer of a shared lattice point wins, and the two
/// programs sweep in different orders — with an inexact subdomain solver
/// they converge to different fixed points. The 1e-3 agreement ISSUE 15
/// asks of `solve_dist` therefore cannot be asked of the network's grids;
/// it is asked of Algorithm 2 itself, with the exact subdomain solver
/// ([`ORACLE_GAP`]).
const FIXTURE: [(f64, f64); POOL] = [
    (0.0500, 2.90e-3),
    (0.0155, 5.44e-3),
    (0.0150, 4.41e-3),
    (0.0172, 6.14e-3),
    (0.0080, 6.54e-3),
];
/// Largest grid MAE allowed between `run_distributed` and `Mfp::run` when
/// both use the numerical subdomain solver, on the first boundary of the
/// pool at the workload's tolerance (measured 1.1e-4; both sit within
/// 8e-4 of the multigrid reference there).
const ORACLE_GAP: f64 = 1e-3;

pub fn domain() -> DomainSpec {
    DomainSpec::new(SPEC, 8, 8)
}

struct Solved {
    grid: Tensor,
    iterations: usize,
    converged: bool,
    reports: Vec<RankReport>,
}

fn solve<S: SubdomainSolver>(solver: &S, bc: &Tensor, dist: bool) -> Solved {
    if dist {
        let cfg = DistMfpConfig {
            max_iters: MAX_ITERS,
            tol: TOL,
            ..Default::default()
        };
        let r = run_distributed(solver, &domain(), bc, RANKS, &cfg);
        Solved {
            grid: r.grid,
            iterations: r.iterations,
            converged: r.converged,
            reports: r.reports,
        }
    } else {
        let cfg = MfpConfig {
            max_iters: MAX_ITERS,
            tol: TOL,
            ..Default::default()
        };
        let r = Mfp::new(solver, domain()).run(bc, &cfg);
        Solved {
            grid: r.grid,
            iterations: r.iterations,
            converged: r.converged,
            reports: Vec::new(),
        }
    }
}

/// The multigrid solution of the same problem, as `mosaic-flow solve`
/// computes it for its MAE report.
pub fn reference(d: &DomainSpec, bc: &Tensor) -> Result<Tensor, String> {
    let guess = grid_with_boundary(d.ny(), d.nx(), bc);
    let (sol, st) = solve_dirichlet(&Poisson::laplace(d.ny(), d.nx(), d.h()), &guess, 1e-9);
    if st.converged {
        Ok(sol)
    } else {
        Err(format!("multigrid reference did not converge: {st:?}"))
    }
}

/// The rows of [`FIXTURE`] for the weights on disk, on the pool of seed 0.
pub fn print_fixture_table() -> Result<(), String> {
    let solver = PlanSolver::new(fixture::load()?, SPEC);
    let d = domain();
    for bc in inputs::jittered_pool(d.boundary_len(), POOL, 0) {
        let seq = solve(&solver, &bc, false).grid;
        let mae = seq.mean_abs_diff(&reference(&d, &bc)?);
        let gap = seq.mean_abs_diff(&solve(&solver, &bc, true).grid);
        eprintln!("    ({mae:.4}, {gap:.2e}),");
    }
    Ok(())
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn mean_abs(t: &Tensor) -> f64 {
    t.as_slice().iter().map(|v| v.abs()).sum::<f64>() / t.numel() as f64
}

pub fn run(dist: bool, seed: u64, size: &Size) -> Result<Run, String> {
    assert_eq!(
        size.units % POOL,
        0,
        "a solve window is whole cycles of the pool"
    );
    let pool = inputs::jittered_pool(domain().boundary_len(), POOL, seed);

    // Set-up from fresh state: weights → plan solver → first solve (which
    // compiles the plans and, distributed, spawns the ranks).
    let set_up = || -> Result<(PlanSolver, f64), String> {
        let t = Instant::now();
        let s = PlanSolver::new(fixture::load()?, SPEC);
        std::hint::black_box(solve(&s, &pool[0], dist));
        Ok((s, t.elapsed().as_secs_f64()))
    };
    let warm_from = Instant::now();
    let (solver, cold) = set_up()?;
    let mut setup_s = vec![cold];
    while warm_from.elapsed() < size.warmup {
        std::hint::black_box(solve(&solver, &pool[0], dist));
    }

    let mut rec = Recorder::new(false, Instant::now(), 0);
    let mut unit_ms = Vec::with_capacity(size.units);
    let mut done_s = Vec::with_capacity(size.units);
    let mut solved = Vec::with_capacity(size.units);
    let (launches0, points0) = (solver.launch_count(), solver.inference_count());
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    for i in 0..size.units {
        size.enter(i, &mut rec);
        let unit = rec.begin("unit", NONE, i as u32);
        let t = Instant::now();
        let call = rec.begin(
            if dist {
                "mfp.run_distributed"
            } else {
                "mfp.run"
            },
            unit,
            i as u32,
        );
        let s = solve(&solver, &pool[i % POOL], dist);
        rec.end(call);
        unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rec.end(unit);
        done_s.push(start.elapsed().as_secs_f64());
        solved.push(s);
    }
    let cpu_s = host::cpu_seconds() - cpu0;
    let peak_rss_mb = host::peak_rss_mb();
    for _ in 1..size.setup_reps {
        setup_s.push(set_up()?.1);
    }
    let n = size.units as f64;
    let launches = (solver.launch_count() - launches0) as f64 / n;
    let points = (solver.inference_count() - points0) as f64 / n;

    // Untimed from here: references and verification.
    let d = domain();
    let refs = pool
        .iter()
        .map(|bc| reference(&d, bc))
        .collect::<Result<Vec<_>, _>>()?;
    let seq: Vec<Solved> = if dist {
        pool.iter().map(|bc| solve(&solver, bc, false)).collect()
    } else {
        Vec::new()
    };
    let mut failed = 0;
    for (i, s) in solved.iter().enumerate() {
        let k = i % POOL;
        let (fixture_mae, fixture_gap) = FIXTURE[k];
        let finite = s.grid.as_slice().iter().all(|v| v.is_finite());
        // A distributed grid may sit further from the reference than the
        // sequential one by their distance from each other.
        let from_ref = fixture_mae + if dist { fixture_gap } else { 0.0 };
        let near_ref = s.grid.mean_abs_diff(&refs[k]) <= 2.0 * from_ref;
        let near_seq = !dist || s.grid.mean_abs_diff(&seq[k].grid) <= 2.0 * fixture_gap;
        // A solve is deterministic: every unit of one boundary must
        // repeat the first one bit for bit.
        let repeats = same_bits(&s.grid, &solved[k].grid) && s.iterations == solved[k].iterations;
        if !(finite && s.converged && near_ref && near_seq && repeats) {
            failed += 1;
        }
    }
    if dist {
        // Algorithm 2 itself, with the exact subdomain solver.
        let oracle = OracleSolver::new(SPEC, 1e-8);
        let gap = solve(&oracle, &pool[0], true)
            .grid
            .mean_abs_diff(&solve(&oracle, &pool[0], false).grid);
        eprintln!("oracle solver, distributed against sequential: grid MAE {gap:.3e}");
        // NaN fails too.
        if !(gap <= ORACLE_GAP) {
            failed = size.units;
        }
    }
    let mae: f64 = (0..POOL)
        .map(|k| solved[k].grid.mean_abs_diff(&refs[k]))
        .sum::<f64>()
        / POOL as f64;
    let scale: f64 = refs.iter().map(mean_abs).sum::<f64>() / POOL as f64;

    let iters: f64 = solved.iter().map(|s| s.iterations as f64).sum::<f64>() / n;
    let per_iter: Vec<f64> = solved
        .iter()
        .zip(&unit_ms)
        .map(|(s, ms)| ms / s.iterations as f64)
        .collect();
    let mut facts = vec![("solve.unit_ms_p50", stats::median(&unit_ms))];
    if dist {
        let seq_iters: f64 = seq.iter().map(|s| s.iterations as f64).sum::<f64>() / POOL as f64;
        // Per unit: a time summed over ranks, per rank and iteration.
        let per_rank_iter = |f: &dyn Fn(&RankReport) -> f64| -> f64 {
            let v: Vec<f64> = solved
                .iter()
                .map(|s| s.reports.iter().map(f).sum::<f64>() / (RANKS * s.iterations) as f64)
                .collect();
            stats::median(&v)
        };
        let total = |f: &dyn Fn(&RankReport) -> f64| -> f64 {
            solved
                .iter()
                .map(|s| s.reports.iter().map(f).sum::<f64>())
                .sum::<f64>()
        };
        let all_iters = iters * n;
        let compute_share: Vec<f64> = solved
            .iter()
            .zip(&unit_ms)
            .map(|(s, ms)| {
                s.reports.iter().map(|r| r.compute_seconds).sum::<f64>() * 1e3 / (RANKS as f64 * ms)
            })
            .collect();
        facts.extend([
            ("dist.compute_share", stats::median(&compute_share)),
            (
                "dist.pack_ms_per_iter",
                per_rank_iter(&|r| r.pack_seconds * 1e3),
            ),
            (
                "dist.wait_ms_per_iter",
                per_rank_iter(&|r| r.halo.comm_seconds * 1e3),
            ),
            (
                "dist.msgs_per_iter",
                total(&|r| r.halo.msgs_sent as f64) / all_iters,
            ),
            (
                "dist.bytes_per_iter",
                total(&|r| r.halo.bytes_sent as f64) / all_iters,
            ),
            (
                "dist.interior_share",
                total(&|r| r.interior_subdomains as f64) / total(&|r| r.owned_subdomains as f64),
            ),
            ("dist.extra_iters", iters - seq_iters),
        ]);
    } else {
        facts.extend([
            ("mfp.iters_to_tol", iters),
            ("mfp.iter_ms", stats::median(&per_iter)),
            ("mfp.launches_per_solve", launches),
            ("mfp.points_per_solve", points),
        ]);
    }
    Ok(Run {
        setup_s,
        unit_ms,
        done_s,
        cpu_s,
        peak_rss_mb,
        failed,
        accuracy_err: mae / scale,
        facts,
        recorders: vec![rec],
    })
}

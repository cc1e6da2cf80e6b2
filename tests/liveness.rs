//! The MFP sweeps write only *live* center-cross points: a point a later
//! sweep group of the same rank overwrites before anything reads it is
//! not predicted at all. Three checks hold that cut to being exact:
//!
//! * a brute-force replay of each rank's sweep order, where every skipped
//!   write must be rewritten before any window perimeter reads it, and
//!   before the iteration ends (the residual, the mixing and the halo pack
//!   read everything);
//! * a one-level alternating-Schwarz loop written here that sweeps full
//!   crosses, the old path, which `Mfp::run` and `Mfp::run_many` must
//!   equal bit for bit, on the oracle and on the compiled plan;
//! * the live writes of all ranks together still cover every interior
//!   lattice point.
//!
//! The 16×16 and 32×32 domains run in release only, and print the live
//! share (CI appends it to the job summary):
//!
//! ```text
//! cargo test --release --test liveness -- --include-ignored --nocapture
//! ```

use mosaic_flow::mfp::{live_cross_points, Subdomain};
use mosaic_flow::numerics::boundary::{boundary_coords, boundary_from_fn, grid_with_boundary};
use mosaic_flow::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SPEC: SubdomainSpec = SubdomainSpec { m: 9, spatial: 0.5 };

/// Replay one iteration of every rank's sweeps on `domain` over a grid of
/// "stale" flags: a launch reads its windows' perimeters, then writes its
/// live points (fresh) and skips the rest (stale). A stale point must not
/// be read, nor left stale when the iteration ends. Returns the live and
/// the total cross points of the iteration, summed over the ranks.
fn replay(domain: &DomainSpec, ranks: usize) -> (usize, usize) {
    let (nx, m) = (domain.nx(), domain.sub.m);
    let cross = domain.center_cross_offsets();
    let walk = boundary_coords(m, m);
    let at = |sd: &Subdomain, (j, i): (usize, usize)| (sd.oy + j) * nx + sd.ox + i;
    let (mut live, mut total) = (0, 0);
    for (rank, groups) in live_cross_points(domain, ranks).iter().enumerate() {
        let mut stale = vec![false; domain.ny() * nx];
        for (g, group) in groups.iter().enumerate() {
            for (sd, _) in group {
                for &p in &walk {
                    assert!(
                        !stale[at(sd, p)],
                        "{}x{} at {ranks} ranks, rank {rank}: group {g} at {sd:?} reads \
                         skipped point {p:?}",
                        domain.sx,
                        domain.sy
                    );
                }
            }
            for (sd, points) in group {
                assert!(points.windows(2).all(|w| w[0] < w[1]), "ascending");
                assert!(points.iter().all(|&c| c < cross.len()));
                for (c, &p) in cross.iter().enumerate() {
                    stale[at(sd, p)] = !points.contains(&c);
                }
                live += points.len();
                total += cross.len();
            }
        }
        let left: Vec<usize> = (0..stale.len()).filter(|&p| stale[p]).collect();
        assert!(
            left.is_empty(),
            "{}x{} at {ranks} ranks, rank {rank}: skipped points never rewritten: {left:?}",
            domain.sx,
            domain.sy
        );
    }
    (live, total)
}

/// Every interior lattice point is some rank's live write, and nothing
/// else is.
fn assert_live_writes_cover_the_lattice(domain: &DomainSpec, ranks: usize) {
    let cross = domain.center_cross_offsets();
    let mut written = std::collections::HashSet::new();
    for groups in live_cross_points(domain, ranks) {
        for (sd, points) in groups.iter().flatten() {
            for &c in points {
                let (j, i) = cross[c];
                written.insert((sd.oy + j, sd.ox + i));
            }
        }
    }
    for j in 1..domain.ny() - 1 {
        for i in 1..domain.nx() - 1 {
            assert_eq!(
                written.contains(&(j, i)),
                domain.on_lattice(j, i),
                "{}x{} at {ranks} ranks: point ({j},{i})",
                domain.sx,
                domain.sy
            );
        }
    }
    assert!(written
        .iter()
        .all(|&(j, i)| j >= 1 && j < domain.ny() - 1 && i >= 1 && i < domain.nx() - 1));
}

#[test]
fn every_skipped_write_is_rewritten_before_it_is_read() {
    for (sx, sy) in [(1, 1), (2, 3), (3, 2), (8, 8)] {
        let d = DomainSpec::new(SPEC, sx, sy);
        for ranks in 1..=4 {
            replay(&d, ranks);
        }
    }
    // The cut the rule makes on the benchmark's domain: the horizontal
    // arms of the even-column subdomains that face another subdomain,
    // 630 of 2 925 points.
    let d = DomainSpec::new(SPEC, 8, 8);
    assert_eq!(replay(&d, 1), (2295, 2925));
    // Two ranks split by columns: an arm facing the other rank's block is
    // overwritten only there, so it stays live here.
    let (live, _) = replay(&d, 2);
    assert!(live > 2295, "{live} live points at 2 ranks");
}

#[test]
fn live_writes_still_cover_every_interior_lattice_point() {
    for (sx, sy) in [(1, 1), (2, 3), (3, 2), (8, 8)] {
        let d = DomainSpec::new(SPEC, sx, sy);
        for ranks in 1..=4 {
            assert_live_writes_cover_the_lattice(&d, ranks);
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: large domains replayed point by point"
)]
fn large_domains_cut_exactly_at_every_rank_count() {
    for side in [16, 32] {
        let d = DomainSpec::new(SPEC, side, side);
        for ranks in [1, 2, 4] {
            let (live, total) = replay(&d, ranks);
            assert_live_writes_cover_the_lattice(&d, ranks);
            println!(
                "{side}x{side} domain, {ranks} rank(s): live cross points per iteration: \
                 {live} of {total}"
            );
        }
    }
}

/// Algorithm 2 one-level, as it ran before the cut: every sweep group in
/// one launch that predicts and writes the full center cross; the
/// relative lattice change judged after every iteration; one dense fill.
/// Returns the grid, the deltas and the iterations.
fn full_cross_schwarz<S: SubdomainSolver>(
    solver: &S,
    d: &DomainSpec,
    bc: &Tensor,
    max_iters: usize,
    tol: f64,
) -> (Tensor, Vec<f64>, usize) {
    let mut grid = grid_with_boundary(d.ny(), d.nx(), bc);
    let lattice = d.lattice_indices(0..d.ny(), 0..d.nx());
    let cross = d.center_cross_offsets();
    let cross_pts = d.offsets_to_points(&cross);
    let groups = Mfp::new(solver, *d).sweep_groups();
    let sweep =
        |grid: &mut Tensor, subs: &[Subdomain], offsets: &[(usize, usize)], pts: &Tensor| {
            if subs.is_empty() {
                return;
            }
            let rows: Vec<Tensor> = subs
                .iter()
                .map(|&sd| d.read_window_boundary(grid, sd))
                .collect();
            let preds = solver.solve_batch(&Tensor::vstack(&rows), pts);
            for (sd, p) in subs
                .iter()
                .zip(preds.as_slice().chunks_exact(offsets.len()))
            {
                for (&(j, i), &v) in offsets.iter().zip(p) {
                    grid.set(sd.oy + j, sd.ox + i, v);
                }
            }
        };
    let (mut deltas, mut iterations) = (Vec::new(), 0);
    for it in 0..max_iters {
        iterations = it + 1;
        let prev = grid.clone();
        for group in &groups {
            sweep(&mut grid, group, &cross, &cross_pts);
        }
        let (u, p) = (grid.as_slice(), prev.as_slice());
        let change = lattice.iter().fold(0.0, |acc, &k| {
            let e = u[k] - p[k];
            acc + e * e
        });
        let size = lattice.iter().fold(0.0, |acc, &k| acc + p[k] * p[k]);
        let delta = (change / f64::max(size, f64::MIN_POSITIVE)).sqrt();
        deltas.push(delta);
        if tol > 0.0 && delta < tol {
            break;
        }
    }
    let interior = d.interior_offsets();
    sweep(
        &mut grid,
        &d.atomic_subdomains(),
        &interior,
        &d.offsets_to_points(&interior),
    );
    (grid, deltas, iterations)
}

fn assert_full_cross_equivalence<S: SubdomainSolver>(solver: &S, d: &DomainSpec, tol: f64) {
    let one_level = MfpConfig {
        max_iters: 40,
        tol,
        accelerate: false,
        ..Default::default()
    };
    let bcs: Vec<Tensor> = (0..3)
        .map(|k| {
            boundary_from_fn(d.ny(), d.nx(), |t| {
                (2.0 * std::f64::consts::PI * (k + 1) as f64 * t).sin() + 0.3 * k as f64
            })
        })
        .collect();
    let mfp = Mfp::new(solver, *d);
    let many = mfp.run_many(&bcs, &one_level);
    for (k, (bc, batched)) in bcs.iter().zip(&many).enumerate() {
        let (grid, deltas, iterations) = full_cross_schwarz(solver, d, bc, 40, tol);
        let solo = mfp.run(bc, &one_level);
        for (what, res) in [("run", &solo), ("run_many", batched)] {
            let ctx = format!("{}x{} request {k}, {what}", d.sx, d.sy);
            assert_eq!(res.iterations, iterations, "{ctx}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&res.deltas), bits(&deltas), "{ctx}: deltas");
            assert_eq!(
                bits(res.grid.as_slice()),
                bits(grid.as_slice()),
                "{ctx}: grid"
            );
        }
    }
}

#[test]
fn the_cut_sweep_is_bitwise_the_full_cross_sweep() {
    let oracle = OracleSolver::new(SPEC, 1e-9);
    let mut cfg = SdNetConfig::small(SPEC.boundary_len());
    cfg.conv_channels = vec![4];
    cfg.hidden = vec![16, 16];
    let plan = PlanSolver::new(SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(3)), SPEC);
    for (sx, sy) in [(1, 1), (2, 3), (3, 2), (4, 4)] {
        let d = DomainSpec::new(SPEC, sx, sy);
        // Run to the cap, and to a tolerance the requests meet apart.
        for tol in [0.0, 1e-3] {
            assert_full_cross_equivalence(&oracle, &d, tol);
            assert_full_cross_equivalence(&plan, &d, tol);
        }
    }
}

//! The MFP iteration core shared by the local and the per-rank driver.
//!
//! Algorithm 2 is one loop, and this module is the part of it that does
//! not depend on where the loop runs: a [`SweepEngine`] bound to the
//! region of the global grid its caller owns (the whole grid for
//! [`Mfp`](crate::Mfp), one rank's block for
//! [`run_distributed`](crate::run_distributed)), with two operations —
//! *sweep* a list of subdomains across a set of grids in one solver launch
//! and the *residual sums* of a grid against its snapshot — the one
//! [`StopRule`] that turns those sums into continue/converged/diverged, and
//! the [`Accelerator`] that makes the iteration two-level: a coarse-grid
//! seed before the first sweep and Anderson mixing of the lattice iterate
//! after every sweep that did not stop the solve.

use crate::domain::{diff_sumsq_at, sumsq_at, DomainSpec, PointSet, Subdomain, SweepTables};
use crate::solver::SubdomainSolver;
use mf_telemetry::{counter, histogram, Buckets, Counter, Histogram};
use mf_tensor::Tensor;
use std::cell::RefCell;

/// Half-open `(rows, cols)` block of the global grid.
pub(crate) type Region = (std::ops::Range<usize>, std::ops::Range<usize>);

/// The region of a driver that owns the whole global grid.
pub(crate) fn whole_grid(domain: &DomainSpec) -> Region {
    (0..domain.ny(), 0..domain.nx())
}

/// Early-stop criterion based on a reference solution (used by the
/// strong-scaling experiments, which iterate until MAE ≤ 0.05).
#[derive(Clone, Debug)]
pub struct MaeTarget {
    /// Reference solution on the full global grid.
    pub reference: Tensor,
    /// Stop once the lattice MAE against the reference drops below this.
    pub mae: f64,
    /// Check every this many iterations (at least 1).
    pub every: usize,
}

/// The four non-overlapping sweep groups of the overlapping subdomains
/// whose centers fall inside `owned`, in a fixed alternating order.
pub(crate) fn sweep_groups_in(domain: &DomainSpec, owned: &Region) -> [Vec<Subdomain>; 4] {
    let s = domain.shift();
    let mut groups: [Vec<Subdomain>; 4] = Default::default();
    for sd in domain.subdomains() {
        if owned.0.contains(&(sd.oy + s)) && owned.1.contains(&(sd.ox + s)) {
            groups[domain.group_of(sd)].push(sd);
        }
    }
    groups
}

/// Sweep bookkeeping of one owned region, built once per run (or per
/// rank) and reused by every iteration.
pub(crate) struct SweepEngine<'a, S: SubdomainSolver> {
    solver: &'a S,
    tables: SweepTables,
    sigma: f64,
    forcing: Option<&'a Tensor>,
    /// The owned subdomains, split into the four sweep groups.
    pub(crate) groups: [Vec<Subdomain>; 4],
    /// The owned atomic subdomains (an atom belongs to the region holding
    /// its lower-left corner) — the dense fill's sweep list.
    pub(crate) atoms: Vec<Subdomain>,
    /// Center-cross points: what an iteration sweep predicts.
    pub(crate) cross: PointSet,
    /// Full window interior: what the final dense fill predicts.
    pub(crate) interior: PointSet,
    /// Flat indices of the owned lattice points, row-major — the order
    /// the sums below add them in.
    lattice: Vec<usize>,
    /// Reused `[B, L]` gather buffer.
    boundaries: RefCell<Tensor>,
}

impl<'a, S: SubdomainSolver> SweepEngine<'a, S> {
    pub(crate) fn new(
        solver: &'a S,
        domain: &DomainSpec,
        owned: &Region,
        sigma: f64,
        forcing: Option<&'a Tensor>,
    ) -> Self {
        let tables = SweepTables::new(domain);
        Self {
            solver,
            sigma,
            forcing,
            groups: sweep_groups_in(domain, owned),
            atoms: domain
                .atomic_subdomains()
                .into_iter()
                .filter(|sd| owned.0.contains(&sd.oy) && owned.1.contains(&sd.ox))
                .collect(),
            cross: tables.point_set(&domain.center_cross_offsets()),
            interior: tables.point_set(&domain.interior_offsets()),
            lattice: domain.lattice_indices(owned.0.clone(), owned.1.clone()),
            boundaries: RefCell::new(Tensor::zeros(0, 0)),
            tables,
        }
    }

    /// Sweep `subs` on every grid listed in `active` with immediate
    /// updates: gather the window boundaries (and forcing windows) into a
    /// single batched launch — request-major, subdomain-minor rows — and
    /// write the predictions at `points` back.
    ///
    /// `subs` must not overlap one another (one sweep group, the atoms, or
    /// any subset of either). Splitting a group over several calls is
    /// exact: same-group subdomains never read one another's cross writes
    /// (their windows share at most the one-cell seam line, which crosses
    /// never touch), and every solver row is independent, so neither the
    /// split nor the number of grids in the launch changes any value.
    pub(crate) fn sweep(
        &self,
        subs: &[Subdomain],
        points: &PointSet,
        grids: &mut [Tensor],
        active: &[usize],
    ) {
        if subs.is_empty() || active.is_empty() {
            return;
        }
        let rows = || {
            active
                .iter()
                .flat_map(|&r| subs.iter().map(move |&sd| (r, sd)))
        };
        let mut boundaries = self.boundaries.borrow_mut();
        self.tables.gather(
            active.len() * subs.len(),
            rows().map(|(r, sd)| (&grids[r], sd)),
            &mut boundaries,
        );
        let fw = self.forcing.map(|f| {
            Tensor::vstack(
                &rows()
                    .map(|(_, sd)| self.tables.domain.read_window_field(f, sd))
                    .collect::<Vec<_>>(),
            )
        });
        let preds =
            self.solver
                .solve_batch_shifted(self.sigma, &boundaries, fw.as_ref(), &points.pts);
        let q = points.pts.rows();
        for ((r, sd), p) in rows().zip(preds.as_slice().chunks_exact(q)) {
            self.tables.scatter(&mut grids[r], sd, points, p);
        }
    }

    /// [`Self::sweep`] for a driver that holds a single grid.
    pub(crate) fn sweep_grid(&self, subs: &[Subdomain], points: &PointSet, grid: &mut Tensor) {
        self.sweep(subs, points, std::slice::from_mut(grid), &[0]);
    }

    /// Local sums of Algorithm 2's relative-change test over the owned
    /// lattice: `[Σ (u − prev)², Σ prev²]`.
    pub(crate) fn residual_sums(&self, u: &Tensor, prev: &Tensor) -> [f64; 2] {
        [
            diff_sumsq_at(u, prev, &self.lattice),
            sumsq_at(prev, &self.lattice),
        ]
    }

    /// Local sums of the [`MaeTarget`] test over the owned lattice:
    /// `[Σ |u − reference|, point count]`.
    pub(crate) fn error_sums(&self, u: &Tensor, reference: &Tensor) -> [f64; 2] {
        let (u, reference) = (u.as_slice(), reference.as_slice());
        let abs = self
            .lattice
            .iter()
            .fold(0.0, |acc, &p| acc + (u[p] - reference[p]).abs());
        [abs, self.lattice.len() as f64]
    }
}

/// Difference columns the Anderson mixing keeps per request.
///
/// Iterations to `tol = 1e-4` on the benchmark's 8×8 domain and network
/// (mean over the pool of seed 3; one-level: 97.4, coarse seed alone: 54.6):
///
/// | depth            | 1    | 2    | 3    | 5    | 8    |
/// |------------------|------|------|------|------|------|
/// | mixing alone     | 36.0 | 27.8 | 20.6 | 16.4 | 15.6 |
/// | seed + mixing    | 20.0 | 16.0 | 12.6 | 12.2 | 12.2 |
///
/// Nothing is gained beyond 5, and 5 keeps the Gram sums of the per-rank
/// driver inside one small-message allreduce ([`SUMS_LEN`] doubles).
pub(crate) const ANDERSON_DEPTH: usize = 5;
const D: usize = ANDERSON_DEPTH;
/// Entries of the upper triangle of `ΔFᵀΔF`.
const TRI: usize = D * (D + 1) / 2;
/// `ΔFᵀΔF` (upper triangle, row-major) then `ΔFᵀf`.
pub(crate) const GRAM_LEN: usize = TRI + D;
/// What the per-rank driver reduces once per iteration:
/// `[Σf², Σx², ΔFᵀΔF, ΔFᵀf]`.
pub(crate) const SUMS_LEN: usize = 2 + GRAM_LEN;
/// Tikhonov term of the normal equations, relative to their unit diagonal
/// after column scaling.
const REGULARISATION: f64 = 1e-10;

/// Vectors of history a request holds: `f` and `g` of the previous sweep,
/// the `ΔF` ring, the `ΔG` ring.
const SLAB: usize = 2 + 2 * D;

/// Local Gram sums of one request's history against its newest residual.
pub(crate) type Gram = [f64; GRAM_LEN];

/// Mixing state of one request.
#[derive(Clone, Copy)]
struct Mixing {
    /// Difference columns held: ring slots `0..cols`.
    cols: usize,
    /// Ring slot the next column overwrites.
    next: usize,
    /// Whether `f`/`g` of the previous sweep are held to difference against.
    primed: bool,
    /// Relative change of the previous sweep.
    last_delta: f64,
}

const FRESH: Mixing = Mixing {
    cols: 0,
    next: 0,
    primed: false,
    last_delta: f64::INFINITY,
};

/// The second level of the iteration: the coarse-grid **seed** and
/// **Anderson mixing** of the owned lattice iterate.
///
/// With `x` the lattice before a sweep, `g` after it and `f = g − x` (the
/// vectors [`SweepEngine::residual_sums`] reads), the mixer keeps the last
/// [`ANDERSON_DEPTH`] differences `ΔF`, `ΔG` of successive `f` and `g`,
/// solves `min ‖f − ΔF γ‖` through the regularised normal equations and
/// continues from `x⁺ = g − ΔG γ`. The drivers call it in two halves so
/// the per-rank driver can allreduce in between: [`Self::observe`] files
/// the sweep and returns the *local* sums `ΔFᵀΔF`, `ΔFᵀf`;
/// [`Self::mix`] takes the *reduced* sums, so every rank computes the same
/// `γ` and mixes its own cells. It only ever moves the iterate a sweep
/// starts from: the stop test reads the un-mixed `g`, the grid a driver
/// returns is a plain sweep's output, and at the fixed point `f = 0`
/// makes the mix the identity.
///
/// All history lives in one buffer sized at construction — a warm
/// iteration allocates nothing.
pub(crate) struct Accelerator {
    /// Flat indices of the owned unknowns: the owned lattice cells off the
    /// global boundary ring (where `f` is identically zero).
    cells: Vec<usize>,
    /// Per request: `f`, `g` of the previous sweep, then the `ΔF` and the
    /// `ΔG` ring, each vector `cells.len()` long.
    history: Vec<f64>,
    mixing: Vec<Mixing>,
    restarts: Counter,
}

impl Accelerator {
    /// Mixing state for `requests` concurrent requests on the `owned`
    /// region of `domain`, when the run asks for it (`accelerate`) and has
    /// something to accelerate: a domain of one subdomain reads nothing
    /// but the global boundary, so its first sweep is already the fixed
    /// point and a seed or a mix could only cost time — which on the
    /// serve path's 1×1 requests is all they would do.
    pub(crate) fn new(
        accelerate: bool,
        domain: &DomainSpec,
        owned: &Region,
        requests: usize,
    ) -> Option<Self> {
        if !accelerate || (domain.sx, domain.sy) == (1, 1) {
            return None;
        }
        let inner = |r: &std::ops::Range<usize>, n: usize| r.start.max(1)..r.end.min(n - 1);
        let cells =
            domain.lattice_indices(inner(&owned.0, domain.ny()), inner(&owned.1, domain.nx()));
        Some(Self {
            history: vec![0.0; requests * SLAB * cells.len()],
            cells,
            mixing: vec![FRESH; requests],
            restarts: counter("mfp.anderson_restarts"),
        })
    }

    /// Seed the lattice of every grid (boundary ring set) from the coarse
    /// global solve — every rank computes the same one locally.
    pub(crate) fn seed(&self, domain: &DomainSpec, grids: &mut [Tensor]) {
        mf_profile::zone!("coarse_seed");
        for grid in grids {
            domain.coarse_initialize(grid);
        }
    }

    /// Most difference columns held by any of `requests` (the trace's
    /// `depth` argument).
    pub(crate) fn depth(&self, requests: &[usize]) -> usize {
        let cols = requests.iter().map(|&r| self.mixing[r].cols);
        cols.max().unwrap_or(0)
    }

    /// File the sweep `x → g` of `request` — its difference against the
    /// previous sweep becomes the newest column — and return the local
    /// Gram sums of the columns held against `f = g − x`. Both grids must
    /// be finite on the owned lattice.
    pub(crate) fn observe(&mut self, request: usize, g: &Tensor, x: &Tensor) -> Gram {
        let l = self.cells.len();
        let m = &mut self.mixing[request];
        let slab = &mut self.history[request * SLAB * l..][..SLAB * l];
        let (f_prev, rest) = slab.split_at_mut(l);
        let (g_prev, rest) = rest.split_at_mut(l);
        let (df, dg) = rest.split_at_mut(D * l);
        let (g, x) = (g.as_slice(), x.as_slice());
        if m.primed {
            let (df, dg) = (&mut df[m.next * l..][..l], &mut dg[m.next * l..][..l]);
            for (k, &p) in self.cells.iter().enumerate() {
                let f = g[p] - x[p];
                df[k] = f - f_prev[k];
                dg[k] = g[p] - g_prev[k];
                f_prev[k] = f;
                g_prev[k] = g[p];
            }
            m.next = (m.next + 1) % D;
            m.cols = (m.cols + 1).min(D);
        } else {
            for (k, &p) in self.cells.iter().enumerate() {
                f_prev[k] = g[p] - x[p];
                g_prev[k] = g[p];
            }
            m.primed = true;
        }
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y);
        let col = |i: usize| &df[i * l..][..l];
        let mut gram = [0.0; GRAM_LEN];
        for i in 0..m.cols {
            for j in i..m.cols {
                gram[tri(i, j)] = dot(col(i), col(j));
            }
            gram[TRI + i] = dot(col(i), f_prev);
        }
        gram
    }

    /// Continue `request` from the mixed iterate: with the *reduced* Gram
    /// sums of [`Self::observe`] and the reduced relative change `delta`
    /// of the sweep, overwrite the owned unknowns of `g` (the sweep's
    /// output) with `g − ΔG γ`.
    ///
    /// Restarts instead — `g` stays the plain sweep — when the relative
    /// change grew against the previous sweep's (the columns are dropped)
    /// or when `γ` is not finite (so is the previous sweep: a per-rank
    /// driver poisons its sums with NaN to have every rank forget a sweep
    /// that read a stale halo).
    pub(crate) fn mix(&mut self, request: usize, gram: &Gram, delta: f64, g: &mut Tensor) {
        let l = self.cells.len();
        let m = &mut self.mixing[request];
        let grew = delta > m.last_delta;
        m.last_delta = delta;
        let solved = solve_normal_equations(gram, m.cols);
        let Some(gamma) = solved.filter(|_| !(grew && m.cols > 0)) else {
            *m = Mixing {
                primed: solved.is_some(),
                last_delta: delta,
                ..FRESH
            };
            self.restarts.incr();
            return;
        };
        let dg = &self.history[request * SLAB * l..][(2 + D) * l..SLAB * l];
        let g = g.as_mut_slice();
        for (i, &c) in gamma[..m.cols].iter().enumerate() {
            if c != 0.0 {
                for (&p, d) in self.cells.iter().zip(&dg[i * l..][..l]) {
                    g[p] -= c * d;
                }
            }
        }
    }
}

/// Where `(ΔFᵀΔF)ᵢⱼ`, `i ≤ j`, sits in a [`Gram`].
fn tri(i: usize, j: usize) -> usize {
    debug_assert!(i <= j && j < D);
    i * D - i * (i + 1) / 2 + j
}

/// `γ` of `(ΔFᵀΔF + εI) γ = ΔFᵀf` over the first `cols` columns, after
/// scaling every column to unit length (the columns shrink geometrically
/// with the residual, so unscaled entries span many decades); `None` when
/// a sum or a coefficient is not finite. A zero column gets `γ = 0`.
fn solve_normal_equations(gram: &Gram, cols: usize) -> Option<[f64; D]> {
    if !gram.iter().all(|v| v.is_finite()) {
        return None;
    }
    let scale: [f64; D] = std::array::from_fn(|i| gram[tri(i, i)].sqrt());
    let live = |i: usize| i < cols && scale[i] > 0.0;
    let scaled = |i: usize, j: usize| {
        let ridge = if i == j { REGULARISATION } else { 0.0 };
        gram[tri(i.min(j), i.max(j))] / (scale[i] * scale[j]) + ridge
    };
    // Cholesky `L Lᵀ` of the scaled matrix, with the forward substitution
    // `L y = ΔFᵀf / scale` riding along row by row.
    let mut l = [[0.0; D]; D];
    let mut y = [0.0; D];
    for i in (0..D).filter(|&i| live(i)) {
        for j in (0..=i).filter(|&j| live(j)) {
            let dot: f64 = (0..j).map(|k| l[i][k] * l[j][k]).sum();
            let rest = scaled(i, j) - dot;
            l[i][j] = if i == j { rest.sqrt() } else { rest / l[j][j] };
        }
        let dot: f64 = (0..i).map(|k| l[i][k] * y[k]).sum();
        y[i] = (gram[TRI + i] / scale[i] - dot) / l[i][i];
    }
    // Back substitution `Lᵀ γ̂ = y`, in place.
    for i in (0..D).rev().filter(|&i| live(i)) {
        let dot: f64 = (i + 1..D).map(|k| l[k][i] * y[k]).sum();
        y[i] = (y[i] - dot) / l[i][i];
    }
    let gamma: [f64; D] = std::array::from_fn(|i| if live(i) { y[i] / scale[i] } else { 0.0 });
    gamma.iter().all(|c| c.is_finite()).then_some(gamma)
}

/// How a sweep left the request (or the run) it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Not below the tolerance yet.
    Continue,
    /// The sweep changed the lattice by less than the tolerance.
    Converged,
    /// The residual sums are NaN or infinite: nothing a further sweep
    /// could repair, so the solve ends unconverged.
    Diverged,
}

/// The stop decision of Algorithm 2, line 5, for both drivers: the
/// relative lattice change against `tol`, then the optional
/// [`MaeTarget`]. It takes *reduced* sums — the per-rank driver runs its
/// allreduce between [`SweepEngine::residual_sums`] and here — and
/// appends to the caller's histories, so one rule serves any number of
/// concurrent requests.
pub(crate) struct StopRule<'c> {
    tol: f64,
    target: Option<&'c MaeTarget>,
    h_residual: Histogram,
}

impl<'c> StopRule<'c> {
    /// Panics, naming the field, when the target's cadence or any of
    /// `cadences` (`(field, every)` pairs of the calling driver) is zero —
    /// here, at driver entry, instead of as a check that never fires or a
    /// division by zero inside a rank thread.
    pub(crate) fn new(tol: f64, target: Option<&'c MaeTarget>, cadences: &[(&str, usize)]) -> Self {
        let target_cadence = target.map(|t| ("MaeTarget::every", t.every));
        for (field, every) in cadences.iter().copied().chain(target_cadence) {
            assert!(every > 0, "{field} must be at least 1 (got 0)");
        }
        Self {
            tol,
            target,
            h_residual: histogram("mfp.residual", Buckets::exponential(1e-9, 10.0, 12)),
        }
    }

    /// Record the relative change of reduced [`SweepEngine::residual_sums`]
    /// and judge it against the tolerance (`tol = 0` never converges).
    /// Non-finite sums — a NaN boundary value, a diverging solver — are
    /// [`Verdict::Diverged`]: `NaN < tol` is false, so without it the
    /// driver would sweep NaNs to `max_iters`. (An infinite *ratio* of
    /// finite sums is a first sweep off a zero lattice, and goes on.)
    pub(crate) fn residual_verdict(&self, sums: [f64; 2], deltas: &mut Vec<f64>) -> Verdict {
        let delta = (sums[0] / sums[1].max(f64::MIN_POSITIVE)).sqrt();
        self.h_residual.record(delta);
        deltas.push(delta);
        if !(sums[0].is_finite() && sums[1].is_finite()) {
            Verdict::Diverged
        } else if self.tol > 0.0 && delta < self.tol {
            Verdict::Converged
        } else {
            Verdict::Continue
        }
    }

    /// The reference to measure against when iteration count `iterations`
    /// is one the [`MaeTarget`] checks.
    pub(crate) fn error_check_due(&self, iterations: usize) -> Option<&'c Tensor> {
        self.target
            .filter(|t| iterations.is_multiple_of(t.every))
            .map(|t| &t.reference)
    }

    /// Record the lattice MAE of reduced [`SweepEngine::error_sums`] taken
    /// after `iterations` iterations and return whether it meets the
    /// target.
    pub(crate) fn error_converged(
        &self,
        iterations: usize,
        sums: [f64; 2],
        mae_history: &mut Vec<(usize, f64)>,
    ) -> bool {
        let mae = sums[0] / sums[1].max(1.0);
        mae_history.push((iterations, mae));
        self.target.is_some_and(|t| mae <= t.mae)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::OracleSolver;
    use mf_data::SubdomainSpec;

    #[test]
    fn sums_run_over_the_owned_lattice_only() {
        // m=5 ⇒ s=2: the lattice is every point with an even row or col.
        let spec = SubdomainSpec { m: 5, spatial: 0.5 };
        let d = DomainSpec::new(spec, 2, 1);
        let oracle = OracleSolver::new(spec, 1e-9);
        let u = Tensor::from_fn(d.ny(), d.nx(), |j, i| (j + 2 * i) as f64);
        let zero = Tensor::zeros(d.ny(), d.nx());
        // The right-hand atom's block, as a rank would own it.
        let owned = (0..d.ny(), 4..d.nx());
        let engine = SweepEngine::new(&oracle, &d, &owned, 0.0, None);
        let (mut sumsq, mut abs, mut n) = (0.0, 0.0, 0.0);
        for j in owned.0.clone() {
            for i in owned.1.clone() {
                if j % 2 == 0 || i % 2 == 0 {
                    sumsq += u.get(j, i).powi(2);
                    abs += u.get(j, i);
                    n += 1.0;
                }
            }
        }
        assert_eq!(engine.residual_sums(&u, &zero), [sumsq, 0.0]);
        assert_eq!(engine.residual_sums(&zero, &u), [sumsq, sumsq]);
        assert_eq!(engine.error_sums(&u, &zero), [abs, n]);
        // Two of the three overlapping subdomains are centered in the
        // block (columns 4 and 6), one atom starts in it.
        assert_eq!(engine.groups.iter().flatten().count(), 2);
        assert_eq!(engine.atoms, [Subdomain { ox: 4, oy: 0 }]);
    }

    /// Drive `G(x) = Mx + c` on the accelerator's cells for `sweeps`
    /// iterations the way a driver does; returns the relative changes.
    fn iterate_affine(accelerate: bool, sweeps: usize) -> Vec<f64> {
        // Five of the unknowns move; the rest stay put (`f = 0` there).
        let spec = SubdomainSpec { m: 5, spatial: 0.5 };
        let d = DomainSpec::new(spec, 2, 1);
        let mut accel = Accelerator::new(true, &d, &whole_grid(&d), 1).expect("two subdomains");
        let cells = accel.cells[..5].to_vec();
        // A symmetric contraction with spectrum spread over (0, 0.95).
        let m = |i: usize, j: usize| {
            0.19 * (1.0 + ((i * j) as f64).cos()) * 0.5 + if i == j { 0.35 } else { 0.0 }
        };
        let mut u = Tensor::zeros(d.ny(), d.nx());
        let mut deltas = Vec::new();
        for _ in 0..sweeps {
            let prev = u.clone();
            for (i, &p) in cells.iter().enumerate() {
                let row: f64 = cells
                    .iter()
                    .enumerate()
                    .map(|(j, &q)| m(i, j) * prev.as_slice()[q])
                    .sum();
                u.as_mut_slice()[p] = row + 1.0 + i as f64;
            }
            let change: f64 = cells
                .iter()
                .map(|&p| (u.as_slice()[p] - prev.as_slice()[p]).powi(2))
                .sum();
            deltas.push(change.sqrt());
            if accelerate {
                let gram = accel.observe(0, &u, &prev);
                accel.mix(0, &gram, *deltas.last().unwrap(), &mut u);
            }
        }
        deltas
    }

    #[test]
    fn mixing_solves_an_affine_map_once_it_holds_a_column_per_unknown() {
        // Anderson mixing with as many columns as unknowns is a Krylov
        // method run to the end: five unknowns take a priming sweep and
        // five differences, so the eighth sweep finds nothing left to
        // change — where the plain iteration (contraction 0.99) has
        // barely moved.
        let plain = iterate_affine(false, 8);
        let mixed = iterate_affine(true, 8);
        assert!(plain[7] > 1e-3, "plain iteration: {plain:?}");
        assert!(mixed[7] < 1e-9 * mixed[0], "mixed iteration: {mixed:?}");
    }

    #[test]
    fn normal_equations_skip_dead_columns_and_refuse_non_finite_sums() {
        let mut gram = [0.0; GRAM_LEN];
        // Column 0 has length 2 and f·ΔF₀ = 2; column 1 is all zero.
        gram[0] = 4.0;
        gram[TRI] = 2.0;
        let gamma = solve_normal_equations(&gram, 2).expect("finite sums");
        assert!((gamma[0] - 0.5).abs() < 1e-9, "{gamma:?}");
        assert_eq!(gamma[1..], [0.0; D - 1]);
        // No columns: nothing to solve, nothing to mix.
        assert_eq!(solve_normal_equations(&gram, 0), Some([0.0; D]));
        gram[3] = f64::NAN;
        assert_eq!(solve_normal_equations(&gram, 2), None);
    }

    #[test]
    fn a_growing_residual_or_poisoned_sums_restart_the_history() {
        let spec = SubdomainSpec { m: 5, spatial: 0.5 };
        let d = DomainSpec::new(spec, 2, 1);
        // Nothing to accelerate on one subdomain, or when not asked to.
        let single = DomainSpec::new(spec, 1, 1);
        assert!(Accelerator::new(true, &single, &whole_grid(&single), 1).is_none());
        assert!(Accelerator::new(false, &d, &whole_grid(&d), 1).is_none());
        let mut accel = Accelerator::new(true, &d, &whole_grid(&d), 2).expect("two subdomains");
        let x = Tensor::zeros(d.ny(), d.nx());
        let sweep =
            |k: usize| Tensor::from_fn(d.ny(), d.nx(), |j, i| ((j + 2 * i + k) as f64).sin());
        for (k, delta) in [1.0, 0.5, 0.25].into_iter().enumerate() {
            let mut g = sweep(k);
            let gram = accel.observe(1, &g, &x);
            accel.mix(1, &gram, delta, &mut g);
        }
        assert_eq!(
            (accel.depth(&[0]), accel.depth(&[1])),
            (0, 2),
            "per request"
        );
        // The relative change grew: the columns go, the sweep stays plain
        // and is kept to difference the next one against.
        let mut g = sweep(3);
        let gram = accel.observe(1, &g, &x);
        accel.mix(1, &gram, 0.3, &mut g);
        assert_eq!(accel.depth(&[1]), 0);
        assert_eq!(g, sweep(3));
        let mut g = sweep(4);
        accel.observe(1, &g, &x);
        assert_eq!(accel.depth(&[1]), 1);
        // NaN sums (a stale halo somewhere): this sweep is forgotten too.
        accel.mix(1, &[f64::NAN; GRAM_LEN], 0.2, &mut g);
        assert_eq!(g, sweep(4));
        accel.observe(1, &sweep(5), &x);
        assert_eq!(accel.depth(&[1]), 0, "nothing to difference against");
    }
}

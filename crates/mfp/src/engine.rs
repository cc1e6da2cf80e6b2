//! What the MFP iteration loop is made of.
//!
//! Algorithm 2 is one loop (`Mfp::iterate` in `seq.rs`), run with no peers
//! by [`Mfp`](crate::Mfp) and with a rank's peers by
//! [`run_distributed`](crate::run_distributed). This module is the part
//! of it that does not depend on where the loop runs: a [`SweepEngine`]
//! bound to the region of the global grid the loop owns (the whole grid
//! without peers, one rank's block with them), with two operations —
//! *sweep* a list of subdomains across a set of grids in one solver launch
//! and the *residual sums* of a grid against its snapshot — the one
//! [`StopRule`] that turns those sums into continue/converged/diverged, and
//! the [`Accelerator`] that makes the iteration two-level: a coarse-grid
//! seed before the first sweep, then after every sweep that did not stop
//! the solve, Anderson mixing of the lattice iterate followed by a
//! coarse-grid correction — the sweep's change at the coarse nodes. Seed
//! and correction are one exact coarse solve of the run's operator
//! ([`FivePoint`]: the boundary samples around it for the seed, zero for
//! the correction), interpolated back along the lattice lines.

use crate::domain::{diff_sumsq_at, sumsq_at, DomainSpec, PointSet, Subdomain, SweepTables};
use crate::solver::SubdomainSolver;
use mf_infer::Subset;
use mf_numerics::boundary::boundary_coords;
use mf_numerics::FivePoint;
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

/// Subdomains of one sweep group, each with its **live** center-cross
/// points: the ones an iteration's sweep must write.
#[derive(Default)]
pub(crate) struct SweepList {
    pub(crate) subs: Vec<Subdomain>,
    /// `live[i]`: ascending indices into
    /// [`DomainSpec::center_cross_offsets`] of what `subs[i]` writes.
    pub(crate) live: Vec<Vec<usize>>,
}

impl SweepList {
    /// Split into the subdomains `keep` refuses and those it takes, each
    /// with its live points.
    pub(crate) fn partition(&self, keep: impl Fn(usize) -> bool) -> [SweepList; 2] {
        let mut out: [SweepList; 2] = Default::default();
        for (i, (&sd, live)) in self.subs.iter().zip(&self.live).enumerate() {
            let list = &mut out[usize::from(keep(i))];
            list.subs.push(sd);
            list.live.push(live.clone());
        }
        out
    }
}

/// The four sweep groups of [`sweep_groups_in`], each subdomain with its
/// live center-cross points.
///
/// A point of a subdomain's cross is **dead** when a later group of the
/// same region writes it in its own cross before any subdomain of the
/// region reads it on a window perimeter: no one could see the value.
/// It is live when a later group reads it first, or when nothing touches
/// it again before the iteration ends — the residual, the mixing and the
/// halo pack read everything then. Within a group no point is both read
/// and written (windows of a group share at most a seam line, which no
/// cross reaches), and a launch gathers before it writes. The rule is the
/// region's own: a cross arm that only a neighbouring rank's subdomain
/// overwrites stays live. On an 8×8 domain it drops the horizontal arms
/// of the even-column subdomains that face another subdomain, 21.5 % of
/// the cross points.
///
/// One flat table over the grid, filled in `O(subdomains × (L + q))`,
/// holds which groups read (bit `g`) and write (bit `4 + g`) each point.
pub(crate) fn sweep_lists_in(domain: &DomainSpec, owned: &Region) -> [SweepList; 4] {
    let mut groups = sweep_groups_in(domain, owned);
    let (m, nx) = (domain.sub.m, domain.nx());
    let cross = domain.center_cross_offsets();
    let walk = boundary_coords(m, m);
    let at = |sd: &Subdomain, (j, i): (usize, usize)| (sd.oy + j) * nx + sd.ox + i;
    let mut touched = vec![0u8; domain.ny() * nx];
    for (g, group) in groups.iter().enumerate() {
        for sd in group {
            for &p in &walk {
                touched[at(sd, p)] |= 1 << g;
            }
            for &p in &cross {
                touched[at(sd, p)] |= 16 << g;
            }
        }
    }
    let live = |g: usize, t: u8| {
        for h in g + 1..4 {
            if t & (1 << h) != 0 {
                return true;
            }
            if t & (16 << h) != 0 {
                return false;
            }
        }
        true
    };
    std::array::from_fn(|g| {
        let subs = std::mem::take(&mut groups[g]);
        let live = (subs.iter())
            .map(|sd| {
                (0..cross.len())
                    .filter(|&c| live(g, touched[at(sd, cross[c])]))
                    .collect()
            })
            .collect();
        SweepList { subs, live }
    })
}

/// Sweep bookkeeping of one owned region, built once per run (or per
/// rank) and reused by every iteration.
pub(crate) struct SweepEngine<'a, S: SubdomainSolver> {
    solver: &'a S,
    tables: SweepTables,
    sigma: f64,
    forcing: Option<&'a Tensor>,
    /// The owned subdomains, split into the four sweep groups, with
    /// their live points.
    pub(crate) groups: [SweepList; 4],
    /// The owned atomic subdomains (an atom belongs to the region holding
    /// its lower-left corner) — the dense fill's sweep list.
    pub(crate) atoms: Vec<Subdomain>,
    /// Center-cross points: what an iteration sweep predicts (the live
    /// ones of each subdomain).
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
            groups: sweep_lists_in(domain, owned),
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

    /// Sweep `list` (a sweep group or part of one) on every grid listed
    /// in `active` with immediate updates: one launch predicts each
    /// subdomain's live cross points.
    pub(crate) fn sweep(&self, list: &SweepList, grids: &mut [Tensor], active: &[usize]) {
        let subset = Subset::Cycle(&list.live);
        self.launch(&list.subs, &self.cross, subset, grids, active);
    }

    /// [`Self::sweep`] for a driver that holds a single grid.
    pub(crate) fn sweep_grid(&self, list: &SweepList, grid: &mut Tensor) {
        self.sweep(list, std::slice::from_mut(grid), &[0]);
    }

    /// The dense fill: predict every interior point of the owned atoms on
    /// every grid listed in `active`, in one launch.
    pub(crate) fn fill(&self, grids: &mut [Tensor], active: &[usize]) {
        self.launch(&self.atoms, &self.interior, Subset::All, grids, active);
    }

    /// Gather the window boundaries of `subs` (and forcing windows) on
    /// every grid listed in `active` into a single batched launch —
    /// request-major, subdomain-minor rows — and write the `subset` of
    /// `points` each subdomain takes back.
    ///
    /// `subs` must not overlap one another (one sweep group, the atoms, or
    /// any subset of either). Splitting a group over several calls is
    /// exact: same-group subdomains never read one another's cross writes
    /// (their windows share at most the one-cell seam line, which crosses
    /// never touch), and every solver row is independent, so neither the
    /// split, the number of grids in the launch nor the points taken
    /// change any value.
    fn launch(
        &self,
        subs: &[Subdomain],
        points: &PointSet,
        subset: Subset<'_>,
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
        let preds = self.solver.solve_batch_subset(
            self.sigma,
            &boundaries,
            fw.as_ref(),
            &points.pts,
            subset,
        );
        let q = points.pts.rows();
        for (k, ((r, sd), p)) in rows().zip(preds.as_slice().chunks_exact(q)).enumerate() {
            self.tables
                .scatter(&mut grids[r], sd, points, subset.of(k), p);
        }
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
/// | depth                      | 1    | 2    | 3    | 5    | 8    |
/// |----------------------------|------|------|------|------|------|
/// | mixing alone               | 36.0 | 27.8 | 20.6 | 16.4 | 15.6 |
/// | seed + mixing              | 20.0 | 16.0 | 12.6 | 12.2 | 12.2 |
/// | seed + mixing + correction | 6.2  | 6.0  | 6.0  | 6.0  | 6.0  |
///
/// Nothing is gained beyond 5 (with the coarse correction, nothing beyond
/// 2 at this tolerance), and the Gram sums stay a small part of what a
/// rank reduces ([`Accelerator::sums_len`] doubles).
pub(crate) const ANDERSON_DEPTH: usize = 5;
const D: usize = ANDERSON_DEPTH;
/// Entries of the upper triangle of `ΔFᵀΔF`.
const TRI: usize = D * (D + 1) / 2;
/// `ΔFᵀΔF` (upper triangle, row-major) then `ΔFᵀf`.
pub(crate) const GRAM_LEN: usize = TRI + D;
/// Tikhonov term of the normal equations, relative to their unit diagonal
/// after column scaling.
const REGULARISATION: f64 = 1e-10;

/// Vectors of history a request holds: `f` and `g` of the previous sweep,
/// the `ΔF` ring, the `ΔG` ring.
const SLAB: usize = 2 + 2 * D;

/// Mixing state of one request.
#[derive(Clone, Copy)]
struct Mixing {
    /// Difference columns held: ring slots `0..cols`.
    cols: usize,
    /// Ring slot the next column overwrites.
    next: usize,
    /// Whether `f`/`g` of the previous sweep are held to difference against.
    primed: bool,
    /// Whether the last [`Accelerator::observe`] filed a new column, whose
    /// coarse part the reduced sums complete.
    filed: bool,
    /// Relative change of the previous sweep.
    last_delta: f64,
}

const FRESH: Mixing = Mixing {
    cols: 0,
    next: 0,
    primed: false,
    filed: false,
    last_delta: f64::INFINITY,
};

/// The second level of the iteration: the coarse-grid **seed**,
/// **Anderson mixing** of the owned lattice iterate and the coarse-grid
/// **correction**.
///
/// With `x` the lattice before a sweep, `g` after it and `f = g − x` (the
/// vectors [`SweepEngine::residual_sums`] reads), the mixer keeps the last
/// [`ANDERSON_DEPTH`] differences `ΔF`, `ΔG` of successive `f` and `g`,
/// solves `min ‖f − ΔF γ‖` through the regularised normal equations and
/// continues from `g − ΔG γ`, the sweep of the extrapolated iterate. The
/// correction then adds `Z·L⁻¹·(f_H − ΔF_H γ)`: `f_H` is `f` at the
/// interior lattice intersections (the seed's coarse grid,
/// [`DomainSpec::coarse_dims`]), `ΔF_H` the same nodes of the `ΔF`
/// columns — so the correction acts on the residual the mix extrapolated
/// to, the preconditioned form of Anderson mixing — `L` the unit
/// five-point operator there, solved exactly ([`FivePoint`]), and `Z` the
/// seed's interpolation along the lattice lines. Correcting the plain
/// `f_H` instead costs the small domains up to twice the sweeps: on a 2×1
/// domain the mixing alone is nearly exact in five, and a correction it
/// does not know about keeps undoing it. Both steps are linear in `f`, so
/// at the fixed point (`f = 0`) both are the identity: they move the
/// path, not the answer.
///
/// The loop calls it in parts so a rank can allreduce in between:
/// [`Self::observe`] files the sweep and writes the *local* sums
/// `ΔFᵀΔF`, `ΔFᵀf` and the rank's own intersections of `f_H`;
/// [`Self::mix`] and [`Self::correct`] take the *reduced* ones, so every
/// rank computes the same `γ` and the same coarse correction and applies
/// them to its own cells. The correction comes after the mix: correcting
/// first would need the reduced `f_H` before the Gram sums of the
/// corrected iterate, a second allreduce per iteration. Neither moves the
/// iterate a sweep returns: the stop test reads the un-mixed `g`, and the
/// grid a driver returns is a plain sweep's output.
///
/// The correction's scale: iterations with `k·Z·L⁻¹·(f_H − ΔF_H γ)`, to
/// `tol 1e-4` on the benchmark's 8×8 domain and network (the five
/// boundaries of the pool of seed 0), and on the exact subdomain solver
/// at `tol 1e-9` on a 32×32 domain, `m = 5` (GP boundaries of seeds 0–4):
///
/// | `k`                | 0.5   | 1     | 2     |
/// |--------------------|-------|-------|-------|
/// | network, 8×8       | 6–7   | 6     | 6–7   |
/// | exact, 32×32       | 12–13 | 10–11 | 13–14 |
///
/// So `L` is used unscaled.
///
/// All history lives in buffers sized at construction — a warm iteration
/// allocates nothing.
pub(crate) struct Accelerator {
    /// Flat indices of the owned unknowns: the owned lattice cells off the
    /// global boundary ring (where `f` is identically zero).
    cells: Vec<usize>,
    /// Per request: `f`, `g` of the previous sweep, then the `ΔF` and the
    /// `ΔG` ring, each vector `cells.len()` long.
    history: Vec<f64>,
    /// Per request: the reduced `f_H` of the previous sweep, then the ring
    /// of its differences `ΔF_H` (the coarse part of the `ΔF` columns),
    /// each vector one per coarse unknown.
    coarse_history: Vec<f64>,
    mixing: Vec<Mixing>,
    restarts: Counter,
    /// Per cell of `cells`: its [`DomainSpec::coarse_stencil`].
    stencil: Vec<(usize, usize, f64)>,
    /// The restriction: `(grid index, coarse unknown)` of every owned
    /// interior intersection.
    restrict: Vec<(usize, usize)>,
    /// The coarse solve; between solves its grid's ring is zero, the
    /// Dirichlet values of the correction.
    coarse: FivePoint,
}

impl Accelerator {
    /// Mixing state for `requests` concurrent requests on the `owned`
    /// region of `domain`, when the run asks for it (`accelerate`) and has
    /// something to accelerate: a domain of one subdomain reads nothing
    /// but the global boundary, so its first sweep is already the fixed
    /// point and a seed, a mix or a correction could only cost time —
    /// which on the serve path's 1×1 requests is all they would do.
    pub(crate) fn new(
        accelerate: bool,
        domain: &DomainSpec,
        owned: &Region,
        sigma: f64,
        requests: usize,
    ) -> Option<Self> {
        if !accelerate || (domain.sx, domain.sy) == (1, 1) {
            return None;
        }
        let inner = |r: &std::ops::Range<usize>, n: usize| r.start.max(1)..r.end.min(n - 1);
        let cells =
            domain.lattice_indices(inner(&owned.0, domain.ny()), inner(&owned.1, domain.nx()));
        let nx = domain.nx();
        let (cny, cnx) = domain.coarse_dims();
        let stencil: Vec<_> = (cells.iter())
            .map(|&p| domain.coarse_stencil(p / nx, p % nx))
            .collect();
        // An intersection is both ends of its stencil; its unknown is its
        // coarse index without the boundary ring.
        let restrict = (cells.iter().zip(&stencil))
            .filter(|(_, &(a, b, _))| a == b)
            .map(|(&p, &(a, _, _))| (p, (a / cnx - 1) * (cnx - 2) + a % cnx - 1))
            .collect();
        let coarse = FivePoint::new(cny - 2, cnx - 2, sigma * domain.coarse_h2());
        Some(Self {
            history: vec![0.0; requests * SLAB * cells.len()],
            coarse_history: vec![0.0; requests * (1 + D) * coarse.unknowns()],
            cells,
            mixing: vec![FRESH; requests],
            restarts: counter("mfp.anderson_restarts"),
            stencil,
            restrict,
            coarse,
        })
    }

    /// Seed the lattice of every grid (boundary ring set) from the coarse
    /// global solve of the run's operator and forcing `f`
    /// ([`DomainSpec::coarse_seed`]) — every rank computes the same one
    /// locally, over the whole grid.
    pub(crate) fn seed(&mut self, d: &DomainSpec, grids: &mut [Tensor], f: Option<&Tensor>) {
        mf_profile::zone!("coarse_seed");
        for grid in grids {
            d.coarse_seed(&mut self.coarse, grid, f);
        }
        // The correction solves against a zero ring.
        self.coarse.grid_mut().fill(0.0);
    }

    /// Doubles of the accelerator's part of a rank's reduction: the Gram
    /// sums, then one per interior coarse node.
    pub(crate) fn sums_len(&self) -> usize {
        GRAM_LEN + self.coarse.unknowns()
    }

    /// Most difference columns held by any of `requests` (the trace's
    /// `depth` argument).
    pub(crate) fn depth(&self, requests: &[usize]) -> usize {
        let cols = requests.iter().map(|&r| self.mixing[r].cols);
        cols.max().unwrap_or(0)
    }

    /// File the sweep `x → g` of `request` — its difference against the
    /// previous sweep becomes the newest column — and write into `sums`
    /// ([`Self::sums_len`] long) the local Gram sums of the columns held
    /// against `f = g − x`, then `f` at the owned interior intersections
    /// (zero at the others). Both grids must be finite on the owned
    /// lattice.
    pub(crate) fn observe(&mut self, request: usize, g: &Tensor, x: &Tensor, sums: &mut [f64]) {
        let l = self.cells.len();
        let m = &mut self.mixing[request];
        let slab = &mut self.history[request * SLAB * l..][..SLAB * l];
        let (f_prev, rest) = slab.split_at_mut(l);
        let (g_prev, rest) = rest.split_at_mut(l);
        let (df, dg) = rest.split_at_mut(D * l);
        let (g, x) = (g.as_slice(), x.as_slice());
        m.filed = m.primed;
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
        let (gram, coarse) = sums.split_at_mut(GRAM_LEN);
        gram.fill(0.0);
        for i in 0..m.cols {
            for j in i..m.cols {
                gram[tri(i, j)] = dot(col(i), col(j));
            }
            gram[TRI + i] = dot(col(i), f_prev);
        }
        coarse.fill(0.0);
        for &(p, c) in &self.restrict {
            coarse[c] = g[p] - x[p];
        }
    }

    /// Continue `request` from the mixed iterate: with the *reduced* sums
    /// of [`Self::observe`] and the reduced relative change `delta` of the
    /// sweep, overwrite the owned unknowns of `g` (the sweep's output)
    /// with `g − ΔG γ`, and return `γ` for [`Self::correct`].
    ///
    /// Restarts instead — `g` stays the plain sweep, `γ` is zero — when the
    /// relative change grew against the previous sweep's (the columns are
    /// dropped) or when `γ` is not finite — a Gram sum overflowed or the
    /// Cholesky broke down — and so is the previous sweep.
    pub(crate) fn mix(
        &mut self,
        request: usize,
        sums: &[f64],
        delta: f64,
        g: &mut Tensor,
    ) -> [f64; D] {
        let (l, n) = (self.cells.len(), self.coarse.unknowns());
        let m = &mut self.mixing[request];
        // The reduced `f_H` completes the column `observe` filed.
        let coarse = &mut self.coarse_history[request * (1 + D) * n..][..(1 + D) * n];
        let (f_prev, df) = coarse.split_at_mut(n);
        let f_h = &sums[GRAM_LEN..];
        if m.filed {
            let slot = (m.next + D - 1) % D;
            for ((d, &f), &p) in df[slot * n..][..n].iter_mut().zip(f_h).zip(&*f_prev) {
                *d = f - p;
            }
        }
        f_prev.copy_from_slice(f_h);

        let grew = delta > m.last_delta;
        m.last_delta = delta;
        let gram = sums[..GRAM_LEN].try_into().expect("sums_len ≥ GRAM_LEN");
        let solved = solve_normal_equations(gram, m.cols);
        let Some(gamma) = solved.filter(|_| !(grew && m.cols > 0)) else {
            // The columns go; what the sweeps did stays.
            *m = Mixing {
                primed: solved.is_some(),
                last_delta: m.last_delta,
                ..FRESH
            };
            self.restarts.incr();
            return [0.0; D];
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
        gamma
    }

    /// Add the coarse-grid correction `Z·L⁻¹·(f_H − ΔF_H γ)` — the coarse
    /// part of the residual the mix extrapolated to, from the *reduced*
    /// sums of [`Self::observe`] and the `γ` of [`Self::mix`] — to the
    /// owned unknowns of `g`.
    pub(crate) fn correct(
        &mut self,
        request: usize,
        sums: &[f64],
        gamma: &[f64; D],
        g: &mut Tensor,
    ) {
        let m = &self.mixing[request];
        let rhs = self.coarse.rhs_mut();
        let n = rhs.len();
        let df = &self.coarse_history[request * (1 + D) * n..][n..(1 + D) * n];
        rhs.copy_from_slice(&sums[GRAM_LEN..]);
        for (i, &c) in gamma[..m.cols].iter().enumerate() {
            if c != 0.0 {
                for (v, d) in rhs.iter_mut().zip(&df[i * n..][..n]) {
                    *v -= c * d;
                }
            }
        }
        self.coarse.solve();
        let (c, g) = (self.coarse.grid(), g.as_mut_slice());
        for (&p, &(a, b, t)) in self.cells.iter().zip(&self.stencil) {
            g[p] += (1.0 - t) * c[a] + t * c[b];
        }
    }
}

/// Where `(ΔFᵀΔF)ᵢⱼ`, `i ≤ j`, sits in the Gram sums.
fn tri(i: usize, j: usize) -> usize {
    debug_assert!(i <= j && j < D);
    i * D - i * (i + 1) / 2 + j
}

/// `γ` of `(ΔFᵀΔF + εI) γ = ΔFᵀf` over the first `cols` columns, after
/// scaling every column to unit length (the columns shrink geometrically
/// with the residual, so unscaled entries span many decades); `None` when
/// a sum or a coefficient is not finite. A zero column gets `γ = 0`.
fn solve_normal_equations(gram: &[f64; GRAM_LEN], cols: usize) -> Option<[f64; D]> {
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

/// The stop decision of Algorithm 2, line 5, for the one iteration loop:
/// the iteration budget, the relative lattice change against `tol`, then
/// the optional [`MaeTarget`]. It takes *reduced* sums — a rank runs its
/// allreduce between [`SweepEngine::residual_sums`] and here — and
/// appends to the caller's histories, so one rule serves any number of
/// concurrent requests.
pub(crate) struct StopRule<'c> {
    /// Relative-change threshold (0 never converges).
    pub(crate) tol: f64,
    /// Iterations allowed.
    pub(crate) max_iters: usize,
    target: Option<&'c MaeTarget>,
    h_residual: Histogram,
}

impl<'c> StopRule<'c> {
    /// Panics when the target's cadence is zero — here, at driver entry,
    /// instead of as a division by zero inside a rank thread.
    pub(crate) fn new(tol: f64, max_iters: usize, target: Option<&'c MaeTarget>) -> Self {
        if let Some(t) = target {
            assert!(t.every > 0, "MaeTarget::every must be at least 1 (got 0)");
        }
        Self {
            tol,
            max_iters,
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
        assert_eq!(engine.groups.iter().map(|g| g.subs.len()).sum::<usize>(), 2);
        assert_eq!(engine.atoms, [Subdomain { ox: 4, oy: 0 }]);
    }

    /// Drive `G(x) = Mx + c` on the accelerator's cells for `sweeps`
    /// iterations the way a driver does; returns the relative changes.
    fn iterate_affine(accelerate: bool, sweeps: usize) -> Vec<f64> {
        // Five of the unknowns move; the rest stay put (`f = 0` there).
        let spec = SubdomainSpec { m: 5, spatial: 0.5 };
        let d = DomainSpec::new(spec, 2, 1);
        let mut accel =
            Accelerator::new(true, &d, &whole_grid(&d), 0.0, 1).expect("two subdomains");
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
                let mut sums = vec![0.0; accel.sums_len()];
                accel.observe(0, &u, &prev, &mut sums);
                accel.mix(0, &sums, *deltas.last().unwrap(), &mut u);
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
        assert!(Accelerator::new(true, &single, &whole_grid(&single), 0.0, 1).is_none());
        assert!(Accelerator::new(false, &d, &whole_grid(&d), 0.0, 1).is_none());
        let mut accel =
            Accelerator::new(true, &d, &whole_grid(&d), 0.0, 2).expect("two subdomains");
        let x = Tensor::zeros(d.ny(), d.nx());
        let sweep =
            |k: usize| Tensor::from_fn(d.ny(), d.nx(), |j, i| ((j + 2 * i + k) as f64).sin());
        let mut sums = vec![0.0; accel.sums_len()];
        for (k, delta) in [1.0, 0.5, 0.25].into_iter().enumerate() {
            let mut g = sweep(k);
            accel.observe(1, &g, &x, &mut sums);
            accel.mix(1, &sums, delta, &mut g);
        }
        assert_eq!(
            (accel.depth(&[0]), accel.depth(&[1])),
            (0, 2),
            "per request"
        );
        // The relative change grew: the columns go, the sweep stays plain
        // and is kept to difference the next one against.
        let mut g = sweep(3);
        accel.observe(1, &g, &x, &mut sums);
        accel.mix(1, &sums, 0.3, &mut g);
        assert_eq!(accel.depth(&[1]), 0);
        assert_eq!(g, sweep(3));
        let mut g = sweep(4);
        accel.observe(1, &g, &x, &mut sums);
        assert_eq!(accel.depth(&[1]), 1);
        // Non-finite sums (an overflowed product): this sweep is forgotten
        // too.
        accel.mix(1, &vec![f64::NAN; accel.sums_len()], 0.2, &mut g);
        assert_eq!(g, sweep(4));
        accel.observe(1, &sweep(5), &x, &mut sums);
        assert_eq!(accel.depth(&[1]), 0, "nothing to difference against");
    }

    #[test]
    fn the_seed_solves_the_runs_coarse_operator_exactly() {
        // At every interior intersection the seeded values satisfy
        // `(4 + σH²)·c − Σ neighbours = H²·f`, the boundary samples as
        // Dirichlet values: Laplace without a forcing, and a shifted
        // problem with one, on a coarse grid of 2ᵏ + 1 points a side (4×4)
        // and on two that are not (3×2, 6×6).
        use rand::{Rng, SeedableRng};
        let spec = SubdomainSpec { m: 5, spatial: 0.5 };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for (sx, sy) in [(4, 4), (3, 2), (6, 6)] {
            let d = DomainSpec::new(spec, sx, sy);
            let (s, hh) = (d.shift(), (d.shift() as f64 * d.h()).powi(2));
            for (sigma, forced) in [(0.0, false), (0.0, true), (50.0, true), (500.0, true)] {
                let bc = Tensor::from_fn(1, d.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
                let f = Tensor::from_fn(d.ny(), d.nx(), |_, _| rng.gen_range(-9.0..9.0));
                let forcing = forced.then_some(&f);
                let mut accel =
                    Accelerator::new(true, &d, &whole_grid(&d), sigma, 1).expect("subdomains");
                let mut grid = d.initial_grid(&bc);
                accel.seed(&d, std::slice::from_mut(&mut grid), forcing);
                let (cny, cnx) = d.coarse_dims();
                let c = |j: usize, i: usize| grid.get(j * s, i * s);
                for (j, i) in (1..cny - 1).flat_map(|j| (1..cnx - 1).map(move |i| (j, i))) {
                    let nbrs = [c(j - 1, i), c(j + 1, i), c(j, i - 1), c(j, i + 1)];
                    let diag = (4.0 + sigma * hh) * c(j, i);
                    let rhs = forcing.map_or(0.0, |f| hh * f.get(j * s, i * s));
                    let gap = diag - nbrs.iter().sum::<f64>() - rhs;
                    let scale = diag.abs() + nbrs.iter().map(|v| v.abs()).sum::<f64>() + rhs.abs();
                    assert!(
                        gap.abs() <= 1e-12 * scale,
                        "{sx}x{sy}, σ = {sigma}, forced = {forced}: node ({j}, {i}) off by {gap:e}"
                    );
                }
                // The seed leaves the correction's ring at zero: a zero
                // sweep change still corrects by nothing.
                let mut sums = vec![0.0; accel.sums_len()];
                accel.observe(0, &grid, &grid, &mut sums);
                let mut corrected = grid.clone();
                accel.correct(0, &sums, &[0.0; D], &mut corrected);
                assert_eq!(corrected, grid);
            }
        }
    }

    #[test]
    fn a_zero_sweep_change_is_corrected_by_nothing() {
        // The correction is linear in the sweep's change, so it is the
        // identity at a fixed point, and it touches the owned unknowns
        // only: never the global boundary ring.
        let spec = SubdomainSpec { m: 5, spatial: 0.5 };
        let d = DomainSpec::new(spec, 3, 2);
        let mut accel =
            Accelerator::new(true, &d, &whole_grid(&d), 0.0, 1).expect("six subdomains");
        let g = Tensor::from_fn(d.ny(), d.nx(), |j, i| ((3 * j + i) as f64).cos());
        let mut sums = vec![0.0; accel.sums_len()];
        accel.observe(0, &g, &g, &mut sums);
        let mut corrected = g.clone();
        accel.correct(0, &sums, &[0.0; D], &mut corrected);
        assert_eq!(corrected, g);
        // A change at one coarse node spreads over the lattice only.
        let mut x = g.clone();
        x.set(2, 2, x.get(2, 2) - 1.0);
        accel.observe(0, &g, &x, &mut sums);
        assert_eq!(sums[GRAM_LEN..].iter().filter(|&&v| v != 0.0).count(), 1);
        let mut corrected = g.clone();
        accel.correct(0, &sums, &[0.0; D], &mut corrected);
        for j in 0..d.ny() {
            for i in 0..d.nx() {
                let moved = corrected.get(j, i) != g.get(j, i);
                let inside = j > 0 && i > 0 && j + 1 < d.ny() && i + 1 < d.nx();
                assert!(!moved || (inside && d.on_lattice(j, i)), "({j}, {i}) moved");
            }
        }
        assert!(corrected.get(2, 2) > g.get(2, 2));
    }
}

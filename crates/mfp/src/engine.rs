//! The MFP iteration core shared by the local and the per-rank driver.
//!
//! Algorithm 2 is one loop, and this module is the part of it that does
//! not depend on where the loop runs: a [`SweepEngine`] bound to the
//! region of the global grid its caller owns (the whole grid for
//! [`Mfp`](crate::Mfp), one rank's block for
//! [`run_distributed`](crate::run_distributed)), with two operations —
//! *sweep* a list of subdomains across a set of grids in one solver launch
//! and the *residual sums* of a grid against its snapshot — and the one
//! [`StopRule`] that turns those sums into continue/converged.

use crate::domain::{diff_sumsq_at, sumsq_at, DomainSpec, PointSet, Subdomain, SweepTables};
use crate::solver::SubdomainSolver;
use mf_telemetry::{histogram, Buckets, Histogram};
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
    /// and return whether it is below the tolerance (`tol = 0` disables).
    pub(crate) fn residual_converged(&self, sums: [f64; 2], deltas: &mut Vec<f64>) -> bool {
        let delta = (sums[0] / sums[1].max(f64::MIN_POSITIVE)).sqrt();
        self.h_residual.record(delta);
        deltas.push(delta);
        self.tol > 0.0 && delta < self.tol
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
}

//! Global-domain geometry: the overlapping-subdomain lattice.

use mf_data::SubdomainSpec;
use mf_numerics::boundary::{apply_boundary, boundary_coords};
use mf_numerics::FivePoint;
use mf_tensor::Tensor;

/// A large solve domain tiled by `sx × sy` atomic subdomains.
///
/// With subdomain resolution `m` (odd), the half-subdomain shift is
/// `s = (m−1)/2` grid points. Overlapping subdomains sit at every origin
/// that is a multiple of `s`, giving `(2sx−1) × (2sy−1)` subdomains; the
/// `sx × sy` *atomic* subdomains are the non-overlapping subset at
/// origins that are multiples of `2s`.
#[derive(Clone, Copy, Debug)]
pub struct DomainSpec {
    /// Subdomain geometry (shared with the training data).
    pub sub: SubdomainSpec,
    /// Atomic subdomains along x.
    pub sx: usize,
    /// Atomic subdomains along y.
    pub sy: usize,
}

/// One overlapping subdomain: its origin in global grid coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Subdomain {
    /// Global column of the window's left edge.
    pub ox: usize,
    /// Global row of the window's bottom edge.
    pub oy: usize,
}

impl DomainSpec {
    /// Construct and validate (odd `m`, at least one atomic subdomain).
    pub fn new(sub: SubdomainSpec, sx: usize, sy: usize) -> Self {
        assert!(
            sub.m >= 5 && sub.m % 2 == 1,
            "DomainSpec: m must be odd and >= 5"
        );
        assert!(
            sx >= 1 && sy >= 1,
            "DomainSpec: need at least one atomic subdomain"
        );
        Self { sub, sx, sy }
    }

    /// Half-subdomain shift in grid points.
    pub fn shift(&self) -> usize {
        (self.sub.m - 1) / 2
    }

    /// Global grid columns.
    pub fn nx(&self) -> usize {
        self.sx * (self.sub.m - 1) + 1
    }

    /// Global grid rows.
    pub fn ny(&self) -> usize {
        self.sy * (self.sub.m - 1) + 1
    }

    /// Grid spacing (same as the training subdomain's).
    pub fn h(&self) -> f64 {
        self.sub.h()
    }

    /// Length of the global boundary walk.
    pub fn boundary_len(&self) -> usize {
        2 * (self.nx() - 1) + 2 * (self.ny() - 1)
    }

    /// Whether a global grid point lies on the subdomain-interface
    /// lattice (or the domain boundary) — the set of points the MFP
    /// iteration maintains.
    pub fn on_lattice(&self, j: usize, i: usize) -> bool {
        let s = self.shift();
        j.is_multiple_of(s) || i.is_multiple_of(s)
    }

    /// All overlapping subdomains, in row-major order of their origins.
    pub fn subdomains(&self) -> Vec<Subdomain> {
        let s = self.shift();
        let mut out = Vec::with_capacity((2 * self.sx - 1) * (2 * self.sy - 1));
        for gy in 0..(2 * self.sy - 1) {
            for gx in 0..(2 * self.sx - 1) {
                out.push(Subdomain {
                    ox: gx * s,
                    oy: gy * s,
                });
            }
        }
        out
    }

    /// The atomic (non-overlapping) subdomains.
    pub fn atomic_subdomains(&self) -> Vec<Subdomain> {
        let step = self.sub.m - 1;
        let mut out = Vec::with_capacity(self.sx * self.sy);
        for gy in 0..self.sy {
            for gx in 0..self.sx {
                out.push(Subdomain {
                    ox: gx * step,
                    oy: gy * step,
                });
            }
        }
        out
    }

    /// The sweep group (0..4) of a subdomain: origins with equal parity of
    /// `(ox/s, oy/s)` never overlap, so each group can be batched into one
    /// inference (§4.1).
    pub fn group_of(&self, sd: Subdomain) -> usize {
        let s = self.shift();
        (sd.ox / s % 2) + 2 * (sd.oy / s % 2)
    }

    /// Read a subdomain's boundary walk from the global grid as a `1×4(m−1)`
    /// row vector.
    pub fn read_window_boundary(&self, grid: &Tensor, sd: Subdomain) -> Tensor {
        let m = self.sub.m;
        let coords = boundary_coords(m, m);
        Tensor::from_vec(
            1,
            coords.len(),
            coords
                .iter()
                .map(|&(j, i)| grid.get(sd.oy + j, sd.ox + i))
                .collect(),
        )
    }

    /// Read a subdomain's full `m×m` window of a global field as a
    /// `1×m²` row vector (row-major) — the forcing-term format of the
    /// shifted-operator extension.
    pub fn read_window_field(&self, field: &Tensor, sd: Subdomain) -> Tensor {
        let m = self.sub.m;
        let mut data = Vec::with_capacity(m * m);
        for j in 0..m {
            for i in 0..m {
                data.push(field.get(sd.oy + j, sd.ox + i));
            }
        }
        Tensor::from_vec(1, m * m, data)
    }

    /// Local `(row, col)` offsets of a subdomain's center cross — the
    /// interior points of its vertical and horizontal center lines (the
    /// center point appears once). The MFP iteration predicts, per
    /// subdomain, the live ones among them
    /// ([`live_cross_points`](crate::live_cross_points)).
    pub fn center_cross_offsets(&self) -> Vec<(usize, usize)> {
        let m = self.sub.m;
        let s = self.shift();
        let mut out = Vec::with_capacity(2 * (m - 2) - 1);
        for j in 1..m - 1 {
            out.push((j, s));
        }
        for i in 1..m - 1 {
            if i != s {
                out.push((s, i));
            }
        }
        out
    }

    /// Local `(row, col)` offsets of a subdomain's full interior, row-major
    /// — used by the final dense pass over atomic subdomains.
    pub fn interior_offsets(&self) -> Vec<(usize, usize)> {
        let m = self.sub.m;
        let mut out = Vec::with_capacity((m - 2) * (m - 2));
        for j in 1..m - 1 {
            for i in 1..m - 1 {
                out.push((j, i));
            }
        }
        out
    }

    /// Physical local coordinates of a list of local offsets, as a `q×2`
    /// tensor of `(x, y)` — the query-point format of
    /// [`SubdomainSolver`](crate::SubdomainSolver).
    pub fn offsets_to_points(&self, offsets: &[(usize, usize)]) -> Tensor {
        let h = self.h();
        let mut data = Vec::with_capacity(offsets.len() * 2);
        for &(j, i) in offsets {
            data.push(i as f64 * h);
            data.push(j as f64 * h);
        }
        Tensor::from_vec(offsets.len(), 2, data)
    }

    /// Flat grid indices (`j·nx + i`) of the lattice points inside
    /// `rows × cols`, row-major — the order the convergence sums of
    /// Algorithm 2 add them in. Built once per run (or per rank, over its
    /// owned region), so the sums pay no `on_lattice` division per point.
    pub fn lattice_indices(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> Vec<usize> {
        let nx = self.nx();
        rows.flat_map(|j| cols.clone().map(move |i| (j, i)))
            .filter(|&(j, i)| self.on_lattice(j, i))
            .map(|(j, i)| j * nx + i)
            .collect()
    }

    /// The grid every MFP driver starts from: `bc` on the boundary ring,
    /// zero inside.
    pub(crate) fn initial_grid(&self, bc: &Tensor) -> Tensor {
        let mut grid = Tensor::zeros(self.ny(), self.nx());
        apply_boundary(&mut grid, bc);
        grid
    }

    /// Rows and columns of the coarse grid: the lattice intersections, at
    /// spacing `s` (the boundary ring included).
    pub(crate) fn coarse_dims(&self) -> (usize, usize) {
        let s = self.shift();
        ((self.ny() - 1) / s + 1, (self.nx() - 1) / s + 1)
    }

    /// How the lattice point `(j, i)` interpolates a coarse-grid field
    /// (row-major, [`Self::coarse_dims`]): the flat coarse indices `a`, `b`
    /// of the intersections at the ends of its lattice segment and the
    /// weight `t` of `b`, for `(1 − t)·c[a] + t·c[b]`. An intersection is
    /// both ends of its own segment, at `t = 0`.
    pub(crate) fn coarse_stencil(&self, j: usize, i: usize) -> (usize, usize, f64) {
        let s = self.shift();
        let cnx = self.coarse_dims().1;
        let (cj, ci) = (j / s, i / s);
        let a = cj * cnx + ci;
        match (j % s, i % s) {
            (0, 0) => (a, a, 0.0),
            (0, di) => (a, a + 1, di as f64 / s as f64),
            (dj, _) => (a, a + cnx, dj as f64 / s as f64),
        }
    }

    /// Initialize the lattice from a **coarse global solve** — the
    /// coarse-grid correction the paper cites as the cure for one-level
    /// Schwarz methods on many subdomains (§5.3, refs [10, 8]).
    ///
    /// The subdomain-interface lattice intersections form a coarse grid
    /// with spacing `H = s·h`; solving the global BVP there is cheap
    /// (`O((2sx)·(2sy))` unknowns) and propagates boundary information
    /// across the whole domain in one step instead of one subdomain per
    /// iteration. Intersection values come from the five-point Laplace
    /// equation there, solved exactly with the boundary samples as its
    /// Dirichlet values; the lattice lines between intersections are
    /// filled by linear interpolation (`coarse_stencil`). The boundary
    /// ring of `grid` must already hold the global BC. This is the seed of
    /// the accelerated iteration at `σ = 0` without a forcing.
    pub fn coarse_initialize(&self, grid: &mut Tensor) {
        let (cny, cnx) = self.coarse_dims();
        self.coarse_seed(&mut FivePoint::new(cny - 2, cnx - 2, 0.0), grid, None);
    }

    /// `H²`, the square of the coarse grid's spacing `H = s·h`.
    pub(crate) fn coarse_h2(&self) -> f64 {
        (self.shift() as f64 * self.h()).powi(2)
    }

    /// [`Self::coarse_initialize`] for `σu − Δu = f` on the grid `u`: the
    /// intersections solve `(4 + σH²)·c − Σ neighbours = H²·f` through
    /// `coarse`, the factor of `L + σH²` on the interior intersections,
    /// whose grid is left holding the boundary samples on its ring.
    pub(crate) fn coarse_seed(&self, coarse: &mut FivePoint, u: &mut Tensor, f: Option<&Tensor>) {
        // `n` interior intersections a row.
        let (s, n, h2) = (self.shift(), self.coarse_dims().1 - 2, self.coarse_h2());
        // The boundary samples ring the coarse grid; the solve writes the
        // rest.
        for (k, v) in coarse.grid_mut().iter_mut().enumerate() {
            *v = u.get(k / (n + 2) * s, k % (n + 2) * s);
        }
        for (k, v) in coarse.rhs_mut().iter_mut().enumerate() {
            *v = f.map_or(0.0, |f| h2 * f.get((k / n + 1) * s, (k % n + 1) * s));
        }
        coarse.solve();
        let (nx, c, g) = (self.nx(), coarse.grid(), u.as_mut_slice());
        for p in self.lattice_indices(1..self.ny() - 1, 1..nx - 1) {
            let (a, b, t) = self.coarse_stencil(p / nx, p % nx);
            g[p] = (1.0 - t) * c[a] + t * c[b];
        }
    }
}

/// Sum of squares of the grid values at flat indices `at`, in that order
/// (the denominator of Algorithm 2's relative-change test).
pub(crate) fn sumsq_at(grid: &Tensor, at: &[usize]) -> f64 {
    let g = grid.as_slice();
    at.iter().fold(0.0, |acc, &p| acc + g[p] * g[p])
}

/// Sum of squared differences of two grids at flat indices `at`, in that
/// order (the numerator of the relative-change test).
pub(crate) fn diff_sumsq_at(a: &Tensor, b: &Tensor, at: &[usize]) -> f64 {
    let (a, b) = (a.as_slice(), b.as_slice());
    at.iter().fold(0.0, |acc, &p| {
        let d = a[p] - b[p];
        acc + d * d
    })
}

/// A set of query points of the subdomain window: where they sit in the
/// grid (flat offsets from the window's origin) and their local physical
/// coordinates (the [`SubdomainSolver`](crate::SubdomainSolver) format).
pub(crate) struct PointSet {
    at: Vec<usize>,
    /// `q×2` local `(x, y)` coordinates.
    pub(crate) pts: Tensor,
}

/// The window-offset table of one domain's sweep bookkeeping, built once
/// per `Mfp` run (or per rank): a sweep gathers window boundaries straight
/// into one reused `[B, L]` tensor and scatters predictions back through
/// flat offsets — no allocation per subdomain. (Its companion for the
/// convergence sums is [`DomainSpec::lattice_indices`].)
pub(crate) struct SweepTables {
    pub(crate) domain: DomainSpec,
    nx: usize,
    /// Flat offsets of the boundary walk of a window at the grid's origin.
    walk: Vec<usize>,
}

impl SweepTables {
    pub(crate) fn new(d: &DomainSpec) -> Self {
        let nx = d.nx();
        Self {
            domain: *d,
            nx,
            walk: boundary_coords(d.sub.m, d.sub.m)
                .iter()
                .map(|&(j, i)| j * nx + i)
                .collect(),
        }
    }

    /// The point set at local `(row, col)` offsets of the window.
    pub(crate) fn point_set(&self, offsets: &[(usize, usize)]) -> PointSet {
        PointSet {
            at: offsets.iter().map(|&(j, i)| j * self.nx + i).collect(),
            pts: self.domain.offsets_to_points(offsets),
        }
    }

    fn origin(&self, sd: Subdomain) -> usize {
        sd.oy * self.nx + sd.ox
    }

    /// Stack the boundary walks of the `b` `windows` into the rows of
    /// `out`, reshaped to `[b, L]` (same values and order as
    /// [`DomainSpec::read_window_boundary`] row by row).
    pub(crate) fn gather<'g>(
        &self,
        b: usize,
        windows: impl Iterator<Item = (&'g Tensor, Subdomain)>,
        out: &mut Tensor,
    ) {
        let l = self.walk.len();
        out.resize(b, l);
        for ((grid, sd), row) in windows.zip(out.as_mut_slice().chunks_exact_mut(l)) {
            let window = &grid.as_slice()[self.origin(sd)..];
            for (o, &w) in row.iter_mut().zip(&self.walk) {
                *o = window[w];
            }
        }
    }

    /// Write one window's predictions into the grid: for the points
    /// `taken` lists (indices into `points`; all of them when `None`), in
    /// that order.
    pub(crate) fn scatter(
        &self,
        grid: &mut Tensor,
        sd: Subdomain,
        points: &PointSet,
        taken: Option<&[usize]>,
        preds: &[f64],
    ) {
        let window = &mut grid.as_mut_slice()[self.origin(sd)..];
        match taken {
            None => {
                for (&p, &v) in points.at.iter().zip(preds) {
                    window[p] = v;
                }
            }
            Some(taken) => {
                for (&c, &v) in taken.iter().zip(preds) {
                    window[points.at[c]] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DomainSpec {
        DomainSpec::new(SubdomainSpec { m: 9, spatial: 0.5 }, 2, 3)
    }

    #[test]
    fn grid_dimensions() {
        let d = spec();
        assert_eq!(d.shift(), 4);
        assert_eq!(d.nx(), 17);
        assert_eq!(d.ny(), 25);
        assert_eq!(d.boundary_len(), 2 * 16 + 2 * 24);
    }

    #[test]
    fn subdomain_counts() {
        let d = spec();
        assert_eq!(d.subdomains().len(), 3 * 5);
        assert_eq!(d.atomic_subdomains().len(), 6);
        // All windows fit inside the grid.
        for sd in d.subdomains() {
            assert!(sd.ox + d.sub.m <= d.nx());
            assert!(sd.oy + d.sub.m <= d.ny());
        }
    }

    #[test]
    fn groups_partition_and_never_overlap() {
        let d = spec();
        let sds = d.subdomains();
        for g in 0..4 {
            let group: Vec<_> = sds.iter().filter(|sd| d.group_of(**sd) == g).collect();
            // Pairwise non-overlap within a group: windows are m wide and
            // origins differ by at least 2s = m-1 in some axis.
            for (a, b) in group
                .iter()
                .enumerate()
                .flat_map(|(i, a)| group[i + 1..].iter().map(move |b| (a, b)))
            {
                let dx = a.ox.abs_diff(b.ox);
                let dy = a.oy.abs_diff(b.oy);
                assert!(
                    dx >= d.sub.m - 1 || dy >= d.sub.m - 1,
                    "group {g}: {a:?} and {b:?} overlap"
                );
            }
        }
        // Groups cover all subdomains.
        let total: usize = (0..4)
            .map(|g| sds.iter().filter(|sd| d.group_of(**sd) == g).count())
            .sum();
        assert_eq!(total, sds.len());
    }

    #[test]
    fn center_cross_offsets_shape() {
        let d = spec();
        let cc = d.center_cross_offsets();
        assert_eq!(cc.len(), 2 * (9 - 2) - 1);
        // All on the center lines.
        for &(j, i) in &cc {
            assert!(j == 4 || i == 4);
            assert!((1..=7).contains(&j) && (1..=7).contains(&i));
        }
        // No duplicates.
        let set: std::collections::HashSet<_> = cc.iter().collect();
        assert_eq!(set.len(), cc.len());
    }

    #[test]
    fn cross_writes_cover_every_interior_lattice_point() {
        // Union over all subdomains of (origin + center-cross offsets)
        // must equal the set of interior lattice points.
        let d = spec();
        let cc = d.center_cross_offsets();
        let mut written = std::collections::HashSet::new();
        for sd in d.subdomains() {
            for &(j, i) in &cc {
                written.insert((sd.oy + j, sd.ox + i));
            }
        }
        for j in 1..d.ny() - 1 {
            for i in 1..d.nx() - 1 {
                if d.on_lattice(j, i) {
                    assert!(
                        written.contains(&(j, i)),
                        "interior lattice point ({j},{i}) never written"
                    );
                }
            }
        }
        // And nothing outside the interior lattice is written.
        for &(j, i) in &written {
            assert!(d.on_lattice(j, i), "non-lattice point ({j},{i}) written");
            assert!(j >= 1 && j < d.ny() - 1 && i >= 1 && i < d.nx() - 1);
        }
    }

    #[test]
    fn window_boundary_reads_in_walk_order() {
        let d = spec();
        let grid = Tensor::from_fn(d.ny(), d.nx(), |j, i| (j * 100 + i) as f64);
        let b = d.read_window_boundary(&grid, Subdomain { ox: 4, oy: 8 });
        assert_eq!(b.numel(), 32);
        // Walk starts at the window origin.
        assert_eq!(b.as_slice()[0], (8 * 100 + 4) as f64);
        // Second point: one step right along the bottom edge.
        assert_eq!(b.as_slice()[1], (8 * 100 + 5) as f64);
    }

    #[test]
    fn offsets_to_points_uses_local_physical_coords() {
        let d = spec();
        let pts = d.offsets_to_points(&[(0, 0), (4, 8)]);
        assert_eq!(pts.shape(), (2, 2));
        assert_eq!(pts.get(0, 0), 0.0);
        let h = d.h();
        assert!((pts.get(1, 0) - 8.0 * h).abs() < 1e-15); // x = col*h
        assert!((pts.get(1, 1) - 4.0 * h).abs() < 1e-15); // y = row*h
    }

    #[test]
    fn lattice_metrics_agree_with_direct_computation() {
        let d = DomainSpec::new(SubdomainSpec { m: 5, spatial: 0.5 }, 1, 1);
        let a = Tensor::from_fn(5, 5, |j, i| (j + i) as f64);
        let b = Tensor::zeros(5, 5);
        // m=5 ⇒ s=2: lattice = rows/cols {0,2,4} — every point with even
        // row or col.
        let mut sumsq = 0.0;
        let mut n = 0;
        for j in 0..5 {
            for i in 0..5 {
                if j % 2 == 0 || i % 2 == 0 {
                    sumsq += ((j + i) as f64).powi(2);
                    n += 1;
                }
            }
        }
        let lattice = d.lattice_indices(0..5, 0..5);
        assert_eq!(lattice.len(), n);
        assert!((sumsq_at(&a, &lattice) - sumsq).abs() < 1e-12);
        assert!((diff_sumsq_at(&a, &b, &lattice) - sumsq).abs() < 1e-12);
    }

    #[test]
    fn tables_gather_and_scatter_like_the_per_window_accessors() {
        let d = spec();
        let t = SweepTables::new(&d);
        let grid = Tensor::from_fn(d.ny(), d.nx(), |j, i| (j * 100 + i) as f64);
        let subs = d.subdomains();
        // A stale, differently shaped buffer: gather must reshape it.
        let mut rows = Tensor::ones(1, 3);
        t.gather(subs.len(), subs.iter().map(|&sd| (&grid, sd)), &mut rows);
        assert_eq!(rows.shape(), (subs.len(), 4 * (d.sub.m - 1)));
        for (r, &sd) in subs.iter().enumerate() {
            assert_eq!(rows.row(r), d.read_window_boundary(&grid, sd).as_slice());
        }

        let cross = d.center_cross_offsets();
        let points = t.point_set(&cross);
        assert_eq!(points.pts, d.offsets_to_points(&cross));
        let sd = subs[subs.len() / 2];
        let preds: Vec<f64> = (0..cross.len()).map(|k| -1.0 - k as f64).collect();
        let mut got = grid.clone();
        t.scatter(&mut got, sd, &points, None, &preds);
        let mut want = grid.clone();
        for (&(j, i), &v) in cross.iter().zip(&preds) {
            want.set(sd.oy + j, sd.ox + i, v);
        }
        assert_eq!(got, want);
    }
}

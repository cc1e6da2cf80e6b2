//! Distributed Mosaic Flow predictor — Algorithm 2 of the paper.
//!
//! The global domain is partitioned over a 2-D processor grid (row-scan or
//! Morton rank placement). Each rank owns a half-open block of grid points
//! and the overlapping subdomains whose centers fall inside it. One
//! iteration is: sweep the four local groups with immediate local updates
//! (batched inference), then exchange the owned lattice values in a band
//! of half-a-subdomain width with up to eight neighbors — **once** per
//! iteration (the relaxed synchronization of §4.2). A final dense pass
//! fills the owned atomic subdomains and an allgather assembles the global
//! solution.

use crate::domain::{diff_sumsq_at, sumsq_at, DomainSpec, Subdomain, SweepTables};
use crate::seq::{sweep_batch_shifted, MaeTarget};
use crate::solver::SubdomainSolver;
use mf_dist::thread_cpu_time;
use mf_dist::{
    CartesianGrid, Cluster, ClusterError, CommError, CommStats, Communicator, Direction, FaultPlan,
    OverlapSample, OverlapTracker, PerfModel, RankOrder, RecvHandle,
};
use mf_numerics::boundary::apply_boundary;
use mf_observe::{RecKind, StallDetector};
use mf_telemetry::{counter, histogram, span, Buckets, Counter, Histogram};
use mf_tensor::Tensor;
use std::time::Duration;

/// Controls for [`run_distributed`].
#[derive(Clone, Debug)]
pub struct DistMfpConfig {
    /// Maximum Schwarz iterations.
    pub max_iters: usize,
    /// Relative-change threshold (0 disables the check and its allreduce).
    pub tol: f64,
    /// Evaluate the convergence check every this many iterations.
    pub check_every: usize,
    /// Exchange halos every this many iterations (1 = Algorithm 2;
    /// larger values are the communication-avoiding variant discussed in
    /// §5.3 "Open problems").
    pub comm_every: usize,
    /// Rank placement on the processor grid.
    pub order: RankOrder,
    /// Optional reference-based stop (MAE on lattice points).
    pub target: Option<MaeTarget>,
    /// Coarse-grid lattice initialization before iterating (each rank
    /// computes the same cheap coarse solve locally).
    pub coarse_init: bool,
    /// Fault injection for the cluster's links ([`FaultPlan::none`] keeps
    /// the lossless PR-1 semantics).
    pub plan: FaultPlan,
    /// Degraded mode: bound each halo exchange by [`Self::halo_timeout`]
    /// and *reuse the stale halo* from the previous exchange when a
    /// neighbor misses the deadline, instead of blocking the iteration.
    /// The Schwarz fixed point is unchanged — stale interface data only
    /// slows convergence (the same trade as `comm_every > 1`).
    pub degraded_halos: bool,
    /// Per-exchange deadline in degraded mode.
    pub halo_timeout: Duration,
    /// Overlapped schedule (default): post the halo exchange
    /// non-blocking, sweep the interior subdomains while it is in
    /// flight, then complete it and sweep the boundary subdomains; the
    /// convergence allreduce is pipelined one iteration deep. Produces
    /// bitwise-identical iterates and iteration counts to the
    /// alternating schedule (`false`, the `--no-overlap` path).
    pub overlap: bool,
    /// Force flat (recursive-doubling/ring) collectives even at world
    /// sizes where the hierarchical tree allreduce would be selected —
    /// the baseline arm of the overlap benchmarks.
    pub flat_collectives: bool,
    /// Alpha–beta model used by the per-rank overlap accounting
    /// (`dist.overlap_ratio` and friends).
    pub perf_model: PerfModel,
}

impl Default for DistMfpConfig {
    fn default() -> Self {
        Self {
            max_iters: 1000,
            tol: 1e-4,
            check_every: 1,
            comm_every: 1,
            order: RankOrder::RowMajor,
            target: None,
            coarse_init: false,
            plan: FaultPlan::none(),
            degraded_halos: false,
            halo_timeout: Duration::from_millis(50),
            overlap: true,
            flat_collectives: false,
            perf_model: PerfModel::a30_cluster(),
        }
    }
}

/// Per-rank measurements of a distributed run.
#[derive(Clone, Copy, Debug)]
pub struct RankReport {
    /// Rank id.
    pub rank: usize,
    /// Wall-clock seconds in subdomain solves (compute).
    pub compute_seconds: f64,
    /// Wall-clock seconds packing/unpacking halo buffers ("Boundaries IO"
    /// in Fig. 9).
    pub pack_seconds: f64,
    /// Communication counters for the whole run (iteration loop + final
    /// gather).
    pub comm: CommStats,
    /// Communication counters of the iteration loop only (halo exchanges
    /// and convergence allreduces) — the per-iteration cost of §4.3.
    pub halo: CommStats,
    /// Overlapping subdomains owned by this rank.
    pub owned_subdomains: usize,
    /// Subdomains swept in the interior pass — while the halo exchange
    /// is in flight — under the overlapped schedule (0 when overlap is
    /// disabled).
    pub interior_subdomains: usize,
    /// Halo slots served from stale data because a neighbor missed the
    /// degraded-mode deadline (always 0 outside degraded mode).
    pub stale_halos: usize,
    /// Cumulative comm/compute overlap accounting of the iteration
    /// loop (compute, measured wait, modeled wire time, hideable
    /// fraction) under [`DistMfpConfig::perf_model`].
    pub overlap: OverlapSample,
}

/// Result of [`run_distributed`].
#[derive(Clone, Debug)]
pub struct DistMfpResult {
    /// Assembled dense global solution.
    pub grid: Tensor,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether a stop criterion fired.
    pub converged: bool,
    /// Relative lattice change at each performed check.
    pub deltas: Vec<f64>,
    /// `(iteration, lattice MAE)` history when a target was given.
    pub mae_history: Vec<(usize, f64)>,
    /// One report per rank.
    pub reports: Vec<RankReport>,
}

/// Block partition of the global grid over a processor grid.
struct Partition<'a> {
    domain: &'a DomainSpec,
    grid: CartesianGrid,
}

type Region = (std::ops::Range<usize>, std::ops::Range<usize>);

/// Watch-mode side channel: gather every rank's per-atomic-subdomain
/// residual (mean |u − prev| over the window) and render the lattice
/// heatmap report on rank 0. Only called when watch mode is enabled, so
/// its allgather never runs under the pinned-message-count fixtures.
#[allow(clippy::too_many_arguments)]
fn watch_residual_report(
    comm: &mut Communicator,
    domain: &DomainSpec,
    owned: &Region,
    u: &Tensor,
    prev: &Tensor,
    deltas: &[f64],
    iteration: usize,
    stalled: bool,
    stale_in_window: u64,
) {
    // Encode owned atoms as (lattice index, residual) pairs: the gather
    // is ragged, each rank contributes only what it owns.
    let mut local = Vec::new();
    for (idx, sd) in domain.atomic_subdomains().into_iter().enumerate() {
        if owned.0.contains(&sd.oy) && owned.1.contains(&sd.ox) {
            let a = domain.read_window_field(u, sd);
            let b = domain.read_window_field(prev, sd);
            let n = a.numel().max(1) as f64;
            let resid = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| (x - y).abs())
                .sum::<f64>()
                / n;
            local.push(idx as f64);
            local.push(resid);
        }
    }
    let gathered = comm.allgather(&local);
    if comm.rank() == 0 {
        let mut grid = vec![0.0; domain.sx * domain.sy];
        for pair in gathered.iter().flat_map(|v| v.chunks_exact(2)) {
            grid[pair[0] as usize] = pair[1];
        }
        eprint!(
            "{}",
            mf_observe::mfp_watch_report(
                iteration,
                deltas,
                &grid,
                domain.sy,
                domain.sx,
                stalled,
                stale_in_window,
            )
        );
        // Live throughput from the published time-series ring: every rank
        // publishes its `dist.iterations` windows after each MFP iteration,
        // so the merged ring shows cluster-wide iteration rate.
        if let Some(s) = mf_telemetry::published_series("dist.iterations") {
            eprint!(
                "{}",
                mf_observe::series_rate_line(
                    "dist.iterations",
                    s.rate_per_sec(10),
                    &s.recent_counts(30)
                )
            );
        }
    }
}

impl<'a> Partition<'a> {
    fn new(domain: &'a DomainSpec, ranks: usize, order: RankOrder) -> Self {
        Self {
            domain,
            grid: CartesianGrid::square_for(ranks, order),
        }
    }

    /// Owned grid points of a rank: half-open `(rows, cols)`.
    ///
    /// Atomic subdomains are split near-evenly over the processor grid
    /// (boundaries at `⌊c·s/p⌋` subdomains, i.e. always on atom edges, so
    /// atoms never straddle ranks). When there are fewer atom rows or
    /// columns than processor rows or columns, the surplus ranks simply
    /// own an empty region — they exchange zero-length halos and
    /// contribute nothing to the gather. Edge ranks absorb the final
    /// global row/column.
    fn owned(&self, rank: usize) -> Region {
        let (prow, pcol) = self.grid.coords_of(rank);
        let step = self.domain.sub.m - 1;
        let (px, py) = (self.grid.px(), self.grid.py());
        let c0 = pcol * self.domain.sx / px * step;
        let c1 = if pcol + 1 == px {
            self.domain.nx()
        } else {
            (pcol + 1) * self.domain.sx / px * step
        };
        let r0 = prow * self.domain.sy / py * step;
        let r1 = if prow + 1 == py {
            self.domain.ny()
        } else {
            (prow + 1) * self.domain.sy / py * step
        };
        (r0..r1, c0..c1)
    }

    /// The band of `rank`'s owned points adjacent to its border in
    /// direction `dir`, of half-subdomain width — the halo data its
    /// neighbor in that direction needs. Clamped to the owned region, so
    /// narrow or empty blocks produce correspondingly narrow (or empty)
    /// bands; sender and receiver both evaluate this for the *owning*
    /// rank, so the two sides always agree on the size.
    fn band(&self, rank: usize, dir: Direction) -> Region {
        let s = self.domain.shift();
        let (rows, cols) = self.owned(rank);
        let rows = match dir.offset().0 {
            1 => rows.end.saturating_sub(s).max(rows.start)..rows.end,
            -1 => rows.start..(rows.start + s).min(rows.end),
            _ => rows,
        };
        let cols = match dir.offset().1 {
            1 => cols.end.saturating_sub(s).max(cols.start)..cols.end,
            -1 => cols.start..(cols.start + s).min(cols.end),
            _ => cols,
        };
        (rows, cols)
    }

    /// Lattice values of a region, row-major, written into a reused
    /// buffer. The buffer is cleared but never shrunk, so after the
    /// first exchange sized a direction's buffer, warm iterations pack
    /// with zero heap allocations (gated as `overlap.warm_allocs`).
    fn pack_into(&self, grid: &Tensor, region: &Region, out: &mut Vec<f64>) {
        out.clear();
        for j in region.0.clone() {
            for i in region.1.clone() {
                if self.domain.on_lattice(j, i) {
                    out.push(grid.get(j, i));
                }
            }
        }
    }

    /// Inverse of [`Partition::pack`].
    fn unpack(&self, grid: &mut Tensor, region: &Region, data: &[f64]) {
        let mut k = 0;
        for j in region.0.clone() {
            for i in region.1.clone() {
                if self.domain.on_lattice(j, i) {
                    grid.set(j, i, data[k]);
                    k += 1;
                }
            }
        }
        assert_eq!(k, data.len(), "halo unpack: size mismatch");
    }

    /// All grid values of a region, row-major (final gather), into a
    /// reused buffer.
    fn pack_dense_into(&self, grid: &Tensor, region: &Region, out: &mut Vec<f64>) {
        out.clear();
        out.reserve_exact(region.0.len() * region.1.len());
        for j in region.0.clone() {
            for i in region.1.clone() {
                out.push(grid.get(j, i));
            }
        }
    }

    /// All grid values of a region, row-major (final gather).
    fn pack_dense(&self, grid: &Tensor, region: &Region) -> Vec<f64> {
        let mut out = Vec::new();
        self.pack_dense_into(grid, region, &mut out);
        out
    }

    fn unpack_dense(&self, grid: &mut Tensor, region: &Region, data: &[f64]) {
        let mut k = 0;
        for j in region.0.clone() {
            for i in region.1.clone() {
                grid.set(j, i, data[k]);
                k += 1;
            }
        }
    }

    fn owned_lattice_absdiff_count(&self, a: &Tensor, b: &Tensor, region: &Region) -> (f64, usize) {
        let mut acc = 0.0;
        let mut n = 0;
        for j in region.0.clone() {
            for i in region.1.clone() {
                if self.domain.on_lattice(j, i) {
                    acc += (a.get(j, i) - b.get(j, i)).abs();
                    n += 1;
                }
            }
        }
        (acc, n)
    }
}

fn regions_overlap(a: &Region, b: &Region) -> bool {
    a.0.start < b.0.end && b.0.start < a.0.end && a.1.start < b.1.end && b.1.start < a.1.end
}

/// Geometric interior/boundary split of the sweep groups for the
/// overlapped schedule (computed once per run — it depends only on the
/// partition, not on iteration state).
///
/// A subdomain is **boundary** when its window rectangle touches a
/// region the halo unpack writes, or — transitively — when hoisting it
/// into the pre-unpack interior phase would reorder one of its window
/// reads or cross writes against a boundary subdomain of another
/// group. Everything else is **interior**: running all four groups'
/// interior parts (in group order) before the unpack and all boundary
/// parts (in group order) after it is a dependency-preserving
/// reordering of the alternating schedule, so the iterates are bitwise
/// identical (see DESIGN.md "Overlapped halo exchange").
fn split_sweep_groups(
    domain: &DomainSpec,
    groups: &[Vec<Subdomain>; 4],
    halo_regions: &[Region],
) -> ([Vec<Subdomain>; 4], [Vec<Subdomain>; 4]) {
    let m = domain.sub.m;
    let s = domain.shift();
    let window = |sd: &Subdomain| -> Region { (sd.oy..sd.oy + m, sd.ox..sd.ox + m) };
    // The cells a sweep writes: the center cross, which stays strictly
    // inside the open window (it never touches the perimeter ring that
    // other subdomains read — that is what makes same-group batching,
    // and this split, well defined).
    let crosses = |sd: &Subdomain| -> [Region; 2] {
        [
            (sd.oy + s..sd.oy + s + 1, sd.ox + 1..sd.ox + m - 1),
            (sd.oy + 1..sd.oy + m - 1, sd.ox + s..sd.ox + s + 1),
        ]
    };
    let conflicts = |a: &Subdomain, b: &Subdomain| -> bool {
        let (wa, wb) = (window(a), window(b));
        crosses(a).iter().any(|c| regions_overlap(c, &wb))
            || crosses(b).iter().any(|c| regions_overlap(c, &wa))
    };
    // Seed: any window rectangle that intersects an incoming halo
    // region. That covers both its perimeter reads and (since crosses
    // live inside the window) its writes racing the unpack.
    let mut tainted: [Vec<bool>; 4] = std::array::from_fn(|g| {
        groups[g]
            .iter()
            .map(|sd| halo_regions.iter().any(|h| regions_overlap(h, &window(sd))))
            .collect()
    });
    // Propagate to a fixed point: a boundary subdomain in one group
    // conflicts-taints subdomains of *later* groups (their interior
    // copies would otherwise run before its post-unpack sweep, i.e.
    // before it in the reordered schedule while after it in the
    // alternating one). Earlier groups need no taint: the interior
    // phase preserves group order, so an earlier-group interior sweep
    // still runs before a later-group boundary sweep. Interaction
    // range is one shift per hop, so this settles in ≤ 3 rounds.
    loop {
        let mut changed = false;
        for gi in 0..3 {
            for gj in gi + 1..4 {
                for (ai, a) in groups[gi].iter().enumerate() {
                    if !tainted[gi][ai] {
                        continue;
                    }
                    for (ci, c) in groups[gj].iter().enumerate() {
                        if !tainted[gj][ci] && conflicts(a, c) {
                            tainted[gj][ci] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut interior: [Vec<Subdomain>; 4] = Default::default();
    let mut boundary: [Vec<Subdomain>; 4] = Default::default();
    for g in 0..4 {
        for (i, &sd) in groups[g].iter().enumerate() {
            if tainted[g][i] {
                boundary[g].push(sd);
            } else {
                interior[g].push(sd);
            }
        }
    }
    (interior, boundary)
}

/// Reduce and act on stop-check sums stashed by a previous iteration:
/// the one-deep pipelined convergence check of the overlapped schedule
/// (the alternating path calls this immediately after stashing, i.e.
/// at depth zero). Returns `true` when a stop criterion fired. The
/// convergence delta is evaluated before the MAE target, matching the
/// alternating order; when the delta converges, a stashed MAE check is
/// dropped un-reduced, exactly as the alternating path skips it.
#[allow(clippy::too_many_arguments)]
fn complete_pending_checks(
    comm: &mut Communicator,
    cfg: &DistMfpConfig,
    part: &Partition<'_>,
    owned: &Region,
    u: &Tensor,
    watch_prev: Option<&Tensor>,
    pending_conv: &mut Option<(usize, [f64; 2])>,
    pending_mae: &mut Option<(usize, [f64; 2])>,
    deltas: &mut Vec<f64>,
    mae_history: &mut Vec<(usize, f64)>,
    h_residual: &Histogram,
    stall: &mut StallDetector,
    stalls_counter: &Counter,
    stall_stale_counter: &Counter,
    stale_halos: usize,
    stale_at_window: &mut usize,
) -> bool {
    if let Some((at_iter, mut nums)) = pending_conv.take() {
        comm.allreduce_sum(&mut nums);
        let delta = (nums[0] / nums[1].max(f64::MIN_POSITIVE)).sqrt();
        h_residual.record(delta);
        deltas.push(delta);
        let stalled = stall.observe(delta);
        if stalled {
            stalls_counter.incr();
            let stale_in_window = (stale_halos - *stale_at_window) as u64;
            stall_stale_counter.add(stale_in_window);
            mf_observe::record(RecKind::Health, "mfp.stall", stale_in_window, delta);
        }
        if mf_observe::watch_enabled() {
            if let Some(prev) = watch_prev {
                // Watch is opt-in, so the extra allgather never runs
                // under the pinned-message-count regression fixtures.
                let stale_in_window = (stale_halos - *stale_at_window) as u64;
                watch_residual_report(
                    comm,
                    part.domain,
                    owned,
                    u,
                    prev,
                    deltas,
                    at_iter,
                    stalled,
                    stale_in_window,
                );
            }
        }
        if stalled {
            *stale_at_window = stale_halos;
        }
        if delta < cfg.tol {
            return true;
        }
    }
    if let Some((at_iter, mut buf)) = pending_mae.take() {
        comm.allreduce_sum(&mut buf);
        let mae = buf[0] / buf[1].max(1.0);
        mae_history.push((at_iter, mae));
        if let Some(t) = &cfg.target {
            if mae <= t.mae {
                return true;
            }
        }
    }
    false
}

/// Complete an in-flight halo exchange: block on each receive handle
/// (deadline-bounded in degraded mode) and unpack into `u`. Handle
/// order matches `halo_regions` (both follow the neighbor list).
#[allow(clippy::too_many_arguments)]
fn complete_halo_exchange(
    comm: &mut Communicator,
    part: &Partition<'_>,
    u: &mut Tensor,
    inflight: &mut Vec<RecvHandle>,
    halo_regions: &[Region],
    degraded: bool,
    timeout: Duration,
    stale_halos: &mut usize,
    stale_counter: &Counter,
) {
    mf_profile::zone!("halo_wait");
    for (h, region) in inflight.drain(..).zip(halo_regions) {
        if degraded {
            match comm.wait_deadline(&h, timeout) {
                Ok(data) => part.unpack(u, region, &data),
                Err(CommError::Timeout { .. }) => {
                    *stale_halos += 1;
                    stale_counter.incr();
                }
                Err(e @ CommError::RankFailed { .. }) => panic!("halo exchange: {e}"),
            }
        } else {
            let data = comm.wait(&h);
            part.unpack(u, region, &data);
        }
    }
}

/// Run the distributed MF predictor on `ranks` simulated devices.
///
/// `bc` is the global boundary walk. The solver is shared by all ranks
/// (read-only), mirroring each GPU holding a replica of the pre-trained
/// SDNet.
pub fn run_distributed<S: SubdomainSolver>(
    solver: &S,
    domain: &DomainSpec,
    bc: &Tensor,
    ranks: usize,
    cfg: &DistMfpConfig,
) -> DistMfpResult {
    run_distributed_shifted(solver, domain, bc, 0.0, None, ranks, cfg)
}

/// [`run_distributed`] that surfaces rank failures (panics, injected
/// crashes) as a typed [`ClusterError`] instead of panicking.
pub fn try_run_distributed<S: SubdomainSolver>(
    solver: &S,
    domain: &DomainSpec,
    bc: &Tensor,
    ranks: usize,
    cfg: &DistMfpConfig,
) -> Result<DistMfpResult, ClusterError> {
    try_run_distributed_shifted(solver, domain, bc, 0.0, None, ranks, cfg)
}

/// [`run_distributed`] for the shifted operator `σu − Δu = f` (forcing on
/// the full global grid) — the distributed form of the time-dependent
/// extension. Every rank reads the shared forcing field; only the
/// lattice values are communicated, exactly as in the Laplace case.
pub fn run_distributed_shifted<S: SubdomainSolver>(
    solver: &S,
    domain: &DomainSpec,
    bc: &Tensor,
    sigma: f64,
    forcing: Option<&Tensor>,
    ranks: usize,
    cfg: &DistMfpConfig,
) -> DistMfpResult {
    try_run_distributed_shifted(solver, domain, bc, sigma, forcing, ranks, cfg)
        .unwrap_or_else(|e| panic!("cluster failed: {e}"))
}

/// [`run_distributed_shifted`] with typed failure reporting.
#[allow(clippy::too_many_arguments)]
pub fn try_run_distributed_shifted<S: SubdomainSolver>(
    solver: &S,
    domain: &DomainSpec,
    bc: &Tensor,
    sigma: f64,
    forcing: Option<&Tensor>,
    ranks: usize,
    cfg: &DistMfpConfig,
) -> Result<DistMfpResult, ClusterError> {
    if let Some(f) = forcing {
        assert_eq!(
            f.shape(),
            (domain.ny(), domain.nx()),
            "run_distributed_shifted: forcing shape mismatch"
        );
    }
    assert_eq!(
        solver.spec(),
        domain.sub,
        "run_distributed: solver and domain geometry differ"
    );
    assert_eq!(
        bc.numel(),
        domain.boundary_len(),
        "run_distributed: bad boundary length"
    );
    let part = Partition::new(domain, ranks, cfg.order);
    let part = &part;

    let tables = SweepTables::new(domain);
    let tables = &tables;
    let cross = tables.point_set(&domain.center_cross_offsets());
    let interior = tables.point_set(&domain.interior_offsets());
    let s = domain.shift();

    let per_rank = Cluster::try_run(ranks, cfg.plan.clone(), |comm| {
        let rank = comm.rank();
        // A rank is a device: one of `ranks` threads computing at once.
        let _lane = mf_tensor::par::compute_lanes(ranks);
        // Align per-rank clocks before iterating so the merged trace rows
        // share a time base (barrier-only: no link messages, so the
        // fault RNG streams and pinned message counts are untouched).
        comm.align_clocks();
        comm.set_flat_collectives(cfg.flat_collectives);
        let owned = part.owned(rank);
        let neighbors = part.grid.neighbors(rank);
        let stale_counter = counter("mfp.stale_halos");
        let mut stale_halos = 0usize;

        // Per-direction halo geometry, fixed for the whole run: the
        // bands we send and the neighbor-owned bands the unpack writes.
        let send_bands: Vec<Region> = neighbors
            .iter()
            .map(|&(dir, _)| part.band(rank, dir))
            .collect();
        let halo_regions: Vec<Region> = neighbors
            .iter()
            .map(|&(dir, nbr)| part.band(nbr, dir.opposite()))
            .collect();

        // The lattice points this rank's convergence sums run over, and
        // the gather buffer its sweeps reuse.
        let owned_lattice = domain.lattice_indices(owned.0.clone(), owned.1.clone());
        let mut boundaries = Tensor::zeros(0, 0);

        // Local copy of the global grid; only owned ∪ halo is maintained.
        let mut u = Tensor::zeros(domain.ny(), domain.nx());
        apply_boundary(&mut u, bc);
        if cfg.coarse_init {
            domain.coarse_initialize(&mut u);
        }

        // Owned overlapping subdomains, split into the four sweep groups.
        let mut groups: [Vec<Subdomain>; 4] = Default::default();
        for sd in domain.subdomains() {
            let (ccol, crow) = (sd.ox + s, sd.oy + s);
            if owned.0.contains(&crow) && owned.1.contains(&ccol) {
                groups[domain.group_of(sd)].push(sd);
            }
        }
        let owned_subdomains: usize = groups.iter().map(|g| g.len()).sum();

        // Interior/boundary split for the overlapped schedule (purely
        // geometric — computed once).
        let (interior_groups, boundary_groups): ([Vec<Subdomain>; 4], [Vec<Subdomain>; 4]) =
            if cfg.overlap {
                split_sweep_groups(domain, &groups, &halo_regions)
            } else {
                Default::default()
            };
        let interior_subdomains: usize = interior_groups.iter().map(|g| g.len()).sum();

        // Pooled per-direction pack buffers: sized by the first
        // exchange, then reused — warm iterations pack at 0 heap
        // allocations (`overlap.warm_allocs` counts the misses).
        let mut outgoing: Vec<(usize, Vec<f64>)> = neighbors
            .iter()
            .map(|&(_, nbr)| (nbr, Vec::new()))
            .collect();
        let pool_miss = counter("overlap.warm_allocs");

        // One-deep pipelined stop checks: local sums stashed at the end
        // of iteration k, reduced at the top of k+1 (or after the loop).
        let mut pending_conv: Option<(usize, [f64; 2])> = None;
        let mut pending_mae: Option<(usize, [f64; 2])> = None;
        let mut watch_prev: Option<Tensor> = None;
        // Receive handles of the exchange posted by the previous
        // iteration, completed mid-iteration between the passes.
        let mut inflight: Vec<RecvHandle> = Vec::new();

        let mut compute_seconds = 0.0;
        let mut pack_seconds = 0.0;
        let mut deltas = Vec::new();
        let mut mae_history = Vec::new();
        let mut converged = false;
        let mut iterations = 0;

        let h_residual = histogram("mfp.residual", Buckets::exponential(1e-9, 10.0, 12));
        let h_halo = histogram("mfp.halo_bytes", Buckets::bytes());

        // Convergence watchdog: trips after 5 residual checks without a
        // ≥ 1% improvement; in degraded mode the stale-halo delta over
        // the same window attributes the stall to a late neighbor.
        let mut stall = StallDetector::new(5);
        let stalls_counter = counter("mfp.stalls");
        let stall_stale_counter = counter("mfp.stall_stale_halos");
        let mut stale_at_window = 0usize;

        // Comm/compute overlap accounting (§4.3): measured busy/wait
        // intervals folded through the alpha-beta model into the
        // dist.overlap_ratio / dist.comm_wait_us / dist.compute_us
        // metrics, once per iteration. Reads counters only — never sends.
        let mut overlap = OverlapTracker::new(cfg.perf_model, comm);
        let mut busy_mark = 0.0;

        for it in 0..cfg.max_iters {
            // Complete the pipelined stop checks stashed by the
            // previous iteration before sweeping this one: the
            // allreduce for iteration k rides alongside iteration k+1,
            // so a convergence break lands here — with the iteration
            // count unchanged versus the alternating schedule, which
            // would have broken at the end of iteration k.
            if cfg.overlap
                && (pending_conv.is_some() || pending_mae.is_some())
                && complete_pending_checks(
                    comm,
                    cfg,
                    part,
                    &owned,
                    &u,
                    watch_prev.as_ref(),
                    &mut pending_conv,
                    &mut pending_mae,
                    &mut deltas,
                    &mut mae_history,
                    &h_residual,
                    &mut stall,
                    &stalls_counter,
                    &stall_stale_counter,
                    stale_halos,
                    &mut stale_at_window,
                )
            {
                converged = true;
                break;
            }
            mf_observe::set_step_context(0, it as u64);
            span!(
                "mfp.iteration",
                it = it as f64,
                owned = owned_subdomains as f64
            );
            mf_observe::record(
                RecKind::Iteration,
                "mfp.iteration",
                owned_subdomains as u64,
                deltas.last().copied().unwrap_or(f64::NAN),
            );
            let prev = u.clone();

            // Local sweeps with immediate updates (within-rank semantics
            // of the baseline are preserved).
            let t0 = thread_cpu_time();
            if !inflight.is_empty() {
                // Overlapped: sweep the interior (whose stencils never
                // touch a halo band) while last iteration's exchange is
                // still in flight, then complete it and sweep the
                // boundary.
                {
                    mf_profile::zone!("sweep_interior");
                    for group in &interior_groups {
                        sweep_batch_shifted(
                            solver,
                            tables,
                            &mut u,
                            group,
                            &cross,
                            sigma,
                            forcing,
                            &mut boundaries,
                        );
                    }
                }
                compute_seconds += thread_cpu_time() - t0;

                let t1 = thread_cpu_time();
                complete_halo_exchange(
                    comm,
                    part,
                    &mut u,
                    &mut inflight,
                    &halo_regions,
                    cfg.degraded_halos,
                    cfg.halo_timeout,
                    &mut stale_halos,
                    &stale_counter,
                );
                pack_seconds += thread_cpu_time() - t1;

                let t2 = thread_cpu_time();
                {
                    mf_profile::zone!("sweep_boundary");
                    for group in &boundary_groups {
                        sweep_batch_shifted(
                            solver,
                            tables,
                            &mut u,
                            group,
                            &cross,
                            sigma,
                            forcing,
                            &mut boundaries,
                        );
                    }
                }
                compute_seconds += thread_cpu_time() - t2;
            } else {
                // Alternating mode, the first iteration, or a
                // communication-avoiding gap: nothing in flight, sweep
                // everything in group order.
                {
                    mf_profile::zone!("sweep");
                    for group in &groups {
                        sweep_batch_shifted(
                            solver,
                            tables,
                            &mut u,
                            group,
                            &cross,
                            sigma,
                            forcing,
                            &mut boundaries,
                        );
                    }
                }
                compute_seconds += thread_cpu_time() - t0;
            }
            iterations = it + 1;

            // Relaxed synchronization: one halo exchange per iteration
            // (or every `comm_every` iterations). Overlapped mode only
            // *posts* it here — the next iteration's interior pass runs
            // while it is in flight.
            if iterations % cfg.comm_every == 0 {
                let t1 = thread_cpu_time();
                {
                    mf_profile::zone!("halo_pack");
                    for ((_, buf), band) in outgoing.iter_mut().zip(&send_bands) {
                        let cap = buf.capacity();
                        part.pack_into(&u, band, buf);
                        if buf.capacity() != cap {
                            pool_miss.incr();
                        }
                    }
                }
                pack_seconds += thread_cpu_time() - t1;
                h_halo.record(outgoing.iter().map(|(_, p)| p.len() * 8).sum::<usize>() as f64);
                if cfg.overlap {
                    inflight = comm.exchange_start(&outgoing, it as u64);
                } else if cfg.degraded_halos {
                    // Deadline-bounded exchange: a slot whose neighbor
                    // missed the deadline keeps its previous (stale)
                    // values — the iteration proceeds instead of
                    // blocking. The per-iteration tag keeps late round-N
                    // data out of round N+1.
                    let incoming = comm.exchange_deadline(&outgoing, it as u64, cfg.halo_timeout);
                    let t2 = thread_cpu_time();
                    for (region, (peer, result)) in halo_regions.iter().zip(incoming) {
                        debug_assert!(neighbors.iter().any(|&(_, nbr)| nbr == peer));
                        match result {
                            Ok(data) => part.unpack(&mut u, region, &data),
                            Err(CommError::Timeout { .. }) => {
                                stale_halos += 1;
                                stale_counter.incr();
                            }
                            Err(e @ CommError::RankFailed { .. }) => {
                                panic!("halo exchange: {e}");
                            }
                        }
                    }
                    pack_seconds += thread_cpu_time() - t2;
                } else {
                    let incoming = comm.exchange(&outgoing, it as u64);
                    let t2 = thread_cpu_time();
                    for (region, (peer, data)) in halo_regions.iter().zip(incoming) {
                        debug_assert!(neighbors.iter().any(|&(_, nbr)| nbr == peer));
                        // The neighbor sent its own band facing us.
                        part.unpack(&mut u, region, &data);
                    }
                    pack_seconds += thread_cpu_time() - t2;
                }
            }

            // Global convergence check (Algorithm 2, line 5): stash the
            // local sums; the alternating path reduces them on the
            // spot, the overlapped path at the top of the next
            // iteration. The sums read only owned lattice cells, which
            // no halo unpack ever writes, so stashing before the
            // in-flight exchange completes loses nothing.
            if cfg.tol > 0.0 && iterations % cfg.check_every == 0 {
                pending_conv = Some((
                    iterations,
                    [
                        diff_sumsq_at(&u, &prev, &owned_lattice),
                        sumsq_at(&prev, &owned_lattice),
                    ],
                ));
            }
            if let Some(t) = &cfg.target {
                if iterations % t.every == 0 {
                    let (local_abs, local_n) =
                        part.owned_lattice_absdiff_count(&u, &t.reference, &owned);
                    pending_mae = Some((iterations, [local_abs, local_n as f64]));
                }
            }
            if cfg.overlap {
                // Keep `prev` alive for the completion-time watch
                // report only when someone will look at it.
                watch_prev =
                    (mf_observe::watch_enabled() && pending_conv.is_some()).then(|| prev.clone());
            } else if (pending_conv.is_some() || pending_mae.is_some())
                && complete_pending_checks(
                    comm,
                    cfg,
                    part,
                    &owned,
                    &u,
                    Some(&prev),
                    &mut pending_conv,
                    &mut pending_mae,
                    &mut deltas,
                    &mut mae_history,
                    &h_residual,
                    &mut stall,
                    &stalls_counter,
                    &stall_stale_counter,
                    stale_halos,
                    &mut stale_at_window,
                )
            {
                converged = true;
                break;
            }

            // Close this iteration's busy/wait interval and make the
            // rank's metrics visible to live scrapes.
            let busy = compute_seconds + pack_seconds;
            overlap.observe_iteration(comm, busy - busy_mark);
            busy_mark = busy;
            mf_telemetry::publish_thread();
        }

        // Flush the pipeline: stop checks stashed by the final
        // iteration (the alternating schedule would have reduced them
        // inside that iteration) and the exchange it left in flight —
        // the final dense pass below reads halo cells, so the iterates
        // must be fully caught up before it runs.
        if cfg.overlap {
            if !converged
                && (pending_conv.is_some() || pending_mae.is_some())
                && complete_pending_checks(
                    comm,
                    cfg,
                    part,
                    &owned,
                    &u,
                    watch_prev.as_ref(),
                    &mut pending_conv,
                    &mut pending_mae,
                    &mut deltas,
                    &mut mae_history,
                    &h_residual,
                    &mut stall,
                    &stalls_counter,
                    &stall_stale_counter,
                    stale_halos,
                    &mut stale_at_window,
                )
            {
                converged = true;
            }
            if !inflight.is_empty() {
                let t = thread_cpu_time();
                complete_halo_exchange(
                    comm,
                    part,
                    &mut u,
                    &mut inflight,
                    &halo_regions,
                    cfg.degraded_halos,
                    cfg.halo_timeout,
                    &mut stale_halos,
                    &stale_counter,
                );
                pack_seconds += thread_cpu_time() - t;
            }
        }

        // A convergence break skips the in-loop accounting; flush the
        // final iteration's interval so its comm wait is not dropped.
        let busy = compute_seconds + pack_seconds;
        if busy > busy_mark {
            overlap.observe_iteration(comm, busy - busy_mark);
            mf_telemetry::publish_thread();
        }

        let halo_stats = comm.stats();

        // Final phase: dense prediction of owned atomic subdomains.
        let t0 = thread_cpu_time();
        let atoms: Vec<Subdomain> = domain
            .atomic_subdomains()
            .into_iter()
            .filter(|sd| {
                // An atomic subdomain belongs to the rank owning its
                // lower-left corner (blocks align with rank boundaries).
                owned.0.contains(&sd.oy) && owned.1.contains(&sd.ox)
            })
            .collect();
        sweep_batch_shifted(
            solver,
            tables,
            &mut u,
            &atoms,
            &interior,
            sigma,
            forcing,
            &mut boundaries,
        );
        compute_seconds += thread_cpu_time() - t0;

        // Allgather the owned dense blocks and assemble the global grid.
        let t1 = thread_cpu_time();
        let local = part.pack_dense(&u, &owned);
        pack_seconds += thread_cpu_time() - t1;
        let gathered = comm.allgather(&local);
        let t2 = thread_cpu_time();
        let mut global = Tensor::zeros(domain.ny(), domain.nx());
        apply_boundary(&mut global, bc);
        for (r, data) in gathered.iter().enumerate() {
            let region = part.owned(r);
            part.unpack_dense(&mut global, &region, data);
        }
        pack_seconds += thread_cpu_time() - t2;

        let report = RankReport {
            rank,
            compute_seconds,
            pack_seconds,
            comm: comm.stats(),
            halo: halo_stats,
            owned_subdomains,
            interior_subdomains,
            stale_halos,
            overlap: overlap.final_sample(),
        };
        if mf_telemetry::metrics_report_enabled() {
            mf_dist::print_merged_report(comm);
        }
        (global, iterations, converged, deltas, mae_history, report)
    })?;

    let reports: Vec<RankReport> = per_rank.iter().map(|r| r.5).collect();
    let (grid, iterations, converged, deltas, mae_history, _) =
        per_rank.into_iter().next().unwrap();
    Ok(DistMfpResult {
        grid,
        iterations,
        converged,
        deltas,
        mae_history,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{Mfp, MfpConfig};
    use crate::solver::OracleSolver;
    use mf_data::SubdomainSpec;
    use mf_numerics::boundary::boundary_coords;

    fn spec() -> SubdomainSpec {
        SubdomainSpec { m: 9, spatial: 0.5 }
    }

    fn harmonic_bc(d: &DomainSpec) -> Tensor {
        let h = d.h();
        let f = |x: f64, y: f64| x * x - y * y + 0.5 * x;
        let coords = boundary_coords(d.ny(), d.nx());
        Tensor::from_vec(
            1,
            coords.len(),
            coords
                .iter()
                .map(|&(j, i)| f(i as f64 * h, j as f64 * h))
                .collect(),
        )
    }

    #[test]
    fn one_rank_matches_sequential_mfp() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let seq = Mfp::new(&oracle, d).run(
            &bc,
            &MfpConfig {
                max_iters: 20,
                tol: 0.0,
                batched: true,
                target: None,
                coarse_init: false,
            },
        );
        let dist = run_distributed(
            &oracle,
            &d,
            &bc,
            1,
            &DistMfpConfig {
                max_iters: 20,
                tol: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(dist.iterations, 20);
        assert!(
            dist.grid.max_abs_diff(&seq.grid) < 1e-12,
            "P=1 distributed deviates from sequential: {}",
            dist.grid.max_abs_diff(&seq.grid)
        );
    }

    #[test]
    fn compiled_plan_solver_matches_graph_solver_across_ranks() {
        // The distributed MFP must be oblivious to which SDNet execution
        // path backs the subdomain solver: the compiled-plan and graph
        // paths produce bitwise-identical lattices on every rank count.
        use rand::SeedableRng;
        let d = DomainSpec::new(spec(), 2, 2);
        let mut cfg = mf_nn::SdNetConfig::small(spec().boundary_len());
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![10, 10];
        cfg.coord_fourier = 2;
        let net = mf_nn::SdNet::new(cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(7));
        let plan = crate::PlanSolver::new(net.clone(), spec());
        let graph = crate::NeuralSolver::new(net, spec());
        let bc = harmonic_bc(&d);
        let cfg = DistMfpConfig {
            max_iters: 3,
            tol: 0.0,
            ..Default::default()
        };
        for ranks in [1, 4] {
            let a = run_distributed(&plan, &d, &bc, ranks, &cfg);
            let e = run_distributed(&graph, &d, &bc, ranks, &cfg);
            assert_eq!(a.grid.shape(), e.grid.shape());
            for (x, y) in e.grid.as_slice().iter().zip(a.grid.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "P={ranks}");
            }
        }
        assert!(plan.cache_hits() > 0);
    }

    #[test]
    fn four_ranks_converge_to_the_sequential_solution() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let seq = Mfp::new(&oracle, d).run(
            &bc,
            &MfpConfig {
                max_iters: 400,
                tol: 1e-9,
                batched: true,
                target: None,
                coarse_init: false,
            },
        );
        assert!(seq.converged);
        let dist = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 400,
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(dist.converged, "distributed run did not converge");
        let diff = dist.grid.mean_abs_diff(&seq.grid);
        assert!(diff < 1e-5, "distributed vs sequential MAE {diff}");
    }

    #[test]
    fn relaxation_costs_iterations_but_not_correctness() {
        // More ranks ⇒ staler interfaces ⇒ same or more iterations to the
        // same tolerance (Table 4's trend), with the same fixed point.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let run = |p: usize| {
            run_distributed(
                &oracle,
                &d,
                &bc,
                p,
                &DistMfpConfig {
                    max_iters: 500,
                    tol: 1e-8,
                    ..Default::default()
                },
            )
        };
        let r1 = run(1);
        let r4 = run(4);
        assert!(r1.converged && r4.converged);
        assert!(
            r4.iterations >= r1.iterations,
            "P=4 ({}) should need at least as many iterations as P=1 ({})",
            r4.iterations,
            r1.iterations
        );
        assert!(r1.grid.mean_abs_diff(&r4.grid) < 1e-5);
    }

    #[test]
    fn communication_avoiding_variant_still_converges() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let every1 = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 600,
                tol: 1e-8,
                comm_every: 1,
                ..Default::default()
            },
        );
        let every4 = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 600,
                tol: 1e-8,
                comm_every: 4,
                ..Default::default()
            },
        );
        assert!(every1.converged && every4.converged);
        // Same solution; fewer halo messages, possibly more iterations.
        assert!(every1.grid.mean_abs_diff(&every4.grid) < 1e-4);
        let bytes = |r: &DistMfpResult| {
            r.reports
                .iter()
                .map(|rep| rep.comm.bytes_sent)
                .sum::<usize>()
        };
        // Halo payloads dominate byte volume; skipping 3 of 4 exchanges
        // must cut it even if convergence takes more iterations.
        assert!(
            bytes(&every4) < bytes(&every1),
            "comm-avoiding variant did not reduce byte volume: {} vs {}",
            bytes(&every4),
            bytes(&every1)
        );
    }

    #[test]
    fn morton_and_row_major_orders_agree() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let a = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 300,
                tol: 1e-8,
                order: RankOrder::RowMajor,
                ..Default::default()
            },
        );
        let b = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 300,
                tol: 1e-8,
                order: RankOrder::Morton,
                ..Default::default()
            },
        );
        assert!(a.converged && b.converged);
        assert!(a.grid.mean_abs_diff(&b.grid) < 1e-6);
    }

    #[test]
    fn distributed_shifted_matches_sequential_shifted() {
        // The heat-step operator, distributed over 4 ranks, must agree
        // with the sequential shifted MFP.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let sigma = 60.0;
        let forcing = Tensor::from_fn(d.ny(), d.nx(), |j, i| {
            ((j as f64) * 0.3).sin() * ((i as f64) * 0.2).cos()
        });
        let bc = Tensor::zeros(1, d.boundary_len());
        let seq = Mfp::new(&oracle, d).run_shifted(
            &bc,
            sigma,
            Some(&forcing),
            &MfpConfig {
                max_iters: 300,
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(seq.converged);
        let dist = crate::dist::run_distributed_shifted(
            &oracle,
            &d,
            &bc,
            sigma,
            Some(&forcing),
            4,
            &DistMfpConfig {
                max_iters: 300,
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(dist.converged);
        let mae = dist.grid.mean_abs_diff(&seq.grid);
        assert!(mae < 1e-6, "distributed vs sequential shifted MAE {mae}");
    }

    #[test]
    fn domain_smaller_than_processor_grid_still_works() {
        // 2x1 atoms over a 2x2 processor grid: one processor row owns an
        // empty region and exchanges zero-length halos.
        let d = DomainSpec::new(spec(), 2, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let seq = Mfp::new(&oracle, d).run(
            &bc,
            &MfpConfig {
                max_iters: 400,
                tol: 1e-9,
                batched: true,
                target: None,
                coarse_init: false,
            },
        );
        assert!(seq.converged);
        let dist = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 400,
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(dist.converged, "2x1 over 4 ranks did not converge");
        let diff = dist.grid.mean_abs_diff(&seq.grid);
        assert!(diff < 1e-5, "distributed vs sequential MAE {diff}");
        let total: usize = dist.reports.iter().map(|r| r.owned_subdomains).sum();
        assert_eq!(total, d.subdomains().len());
    }

    #[test]
    fn uneven_atom_split_converges() {
        // 3x3 atoms over a 2x2 processor grid: near-even 1/2 splits.
        let d = DomainSpec::new(spec(), 3, 3);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let seq = Mfp::new(&oracle, d).run(
            &bc,
            &MfpConfig {
                max_iters: 600,
                tol: 1e-8,
                batched: true,
                target: None,
                coarse_init: false,
            },
        );
        assert!(seq.converged);
        let dist = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 600,
                tol: 1e-8,
                ..Default::default()
            },
        );
        assert!(dist.converged, "3x3 over 4 ranks did not converge");
        let diff = dist.grid.mean_abs_diff(&seq.grid);
        assert!(diff < 1e-5, "distributed vs sequential MAE {diff}");
        let total: usize = dist.reports.iter().map(|r| r.owned_subdomains).sum();
        assert_eq!(total, d.subdomains().len());
    }

    #[test]
    fn dropped_halos_recover_to_the_fault_free_result() {
        // 10% drop with bounded retries: retransmission delivers the
        // identical payloads, so the run matches the fault-free residual
        // trajectory bitwise (well inside the 1e-6 acceptance bound).
        use mf_dist::RetryPolicy;
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let base = DistMfpConfig {
            max_iters: 60,
            tol: 1e-8,
            ..Default::default()
        };
        let clean = run_distributed(&oracle, &d, &bc, 4, &base);
        let faulty_cfg = DistMfpConfig {
            plan: FaultPlan {
                retry: RetryPolicy {
                    timeout: Duration::from_millis(20),
                    max_retries: 100,
                },
                ..FaultPlan::lossy(9, 0.10)
            },
            ..base
        };
        let faulty = try_run_distributed(&oracle, &d, &bc, 4, &faulty_cfg).unwrap();
        assert_eq!(clean.iterations, faulty.iterations);
        assert_eq!(clean.deltas, faulty.deltas, "residual trajectories differ");
        assert!(clean.grid.max_abs_diff(&faulty.grid) < 1e-6);
    }

    #[test]
    fn degraded_mode_reuses_stale_halos_and_still_converges() {
        // Sender-side delays larger than the halo deadline force timeouts;
        // degraded mode substitutes the stale halo and keeps iterating.
        // Stale interfaces only slow Schwarz convergence (same fixed
        // point), so the solution still lands on the sequential one.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let clean = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 500,
                tol: 1e-8,
                ..Default::default()
            },
        );
        let degraded_cfg = DistMfpConfig {
            max_iters: 500,
            tol: 1e-8,
            plan: FaultPlan {
                seed: 3,
                delay_rate: 0.4,
                delay_max_us: 30_000,
                ..FaultPlan::none()
            },
            degraded_halos: true,
            halo_timeout: Duration::from_millis(8),
            ..Default::default()
        };
        let degraded = try_run_distributed(&oracle, &d, &bc, 4, &degraded_cfg).unwrap();
        assert!(degraded.converged, "degraded run did not converge");
        let stale: usize = degraded.reports.iter().map(|r| r.stale_halos).sum();
        assert!(stale > 0, "delays never exceeded the halo deadline");
        assert!(
            clean.grid.mean_abs_diff(&degraded.grid) < 1e-5,
            "degraded solution diverged: {}",
            clean.grid.mean_abs_diff(&degraded.grid)
        );
    }

    #[test]
    fn injected_crash_in_mfp_names_the_rank() {
        use mf_dist::CrashAt;
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let cfg = DistMfpConfig {
            max_iters: 50,
            tol: 1e-8,
            plan: FaultPlan {
                crash: Some(CrashAt {
                    rank: 3,
                    after_sends: 10,
                }),
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let err = try_run_distributed(&oracle, &d, &bc, 4, &cfg).unwrap_err();
        assert_eq!(err.origin(), 3, "{err}");
    }

    #[test]
    fn reports_account_for_every_subdomain() {
        let d = DomainSpec::new(spec(), 4, 2);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let bc = harmonic_bc(&d);
        let r = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 3,
                tol: 0.0,
                ..Default::default()
            },
        );
        let total: usize = r.reports.iter().map(|rep| rep.owned_subdomains).sum();
        assert_eq!(total, d.subdomains().len());
        // Compute time is recorded on every rank.
        for rep in &r.reports {
            assert!(rep.compute_seconds > 0.0);
        }
    }

    #[test]
    fn overlapped_and_alternating_schedules_are_bitwise_identical() {
        let d = DomainSpec::new(spec(), 4, 4);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let bc = harmonic_bc(&d);
        let run = |overlap: bool| {
            run_distributed(
                &oracle,
                &d,
                &bc,
                4,
                &DistMfpConfig {
                    max_iters: 60,
                    tol: 1e-6,
                    overlap,
                    ..Default::default()
                },
            )
        };
        let ovl = run(true);
        let alt = run(false);
        // The overlapped schedule is a dependency-preserving reorder of
        // the alternating one: identical iterates, identical
        // convergence trajectory, identical iteration count — not just
        // "close".
        assert_eq!(ovl.iterations, alt.iterations);
        assert_eq!(ovl.converged, alt.converged);
        assert_eq!(ovl.deltas, alt.deltas, "delta trajectories diverged");
        assert_eq!(
            ovl.grid.as_slice(),
            alt.grid.as_slice(),
            "assembled grids diverged"
        );
        // The split actually found interior work to hide behind the
        // exchange, and it partitions the owned subdomains exactly.
        for rep in &ovl.reports {
            assert!(rep.interior_subdomains <= rep.owned_subdomains);
        }
        assert!(
            ovl.reports
                .iter()
                .map(|r| r.interior_subdomains)
                .sum::<usize>()
                > 0,
            "no interior subdomains found on a 4x4-atom domain"
        );
        for rep in &alt.reports {
            assert_eq!(
                rep.interior_subdomains, 0,
                "alternating mode must not split"
            );
        }
    }

    #[test]
    fn overlapped_schedule_survives_delay_injection() {
        // Receiver-side delays reorder message arrival against the
        // interior pass; the blocking wait still delivers every halo,
        // so the result must stay bitwise equal to the fault-free run.
        let d = DomainSpec::new(spec(), 3, 3);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let bc = harmonic_bc(&d);
        let run = |plan: FaultPlan| {
            run_distributed(
                &oracle,
                &d,
                &bc,
                4,
                &DistMfpConfig {
                    max_iters: 40,
                    tol: 1e-6,
                    plan,
                    ..Default::default()
                },
            )
        };
        let clean = run(FaultPlan::none());
        let delayed = run(FaultPlan {
            seed: 7,
            delay_rate: 0.5,
            delay_max_us: 2_000,
            ..FaultPlan::none()
        });
        assert_eq!(clean.iterations, delayed.iterations);
        assert_eq!(clean.deltas, delayed.deltas);
        assert_eq!(clean.grid.as_slice(), delayed.grid.as_slice());
    }

    #[test]
    fn pooled_pack_buffers_do_not_allocate_when_warm() {
        // Direct check of the pooling contract: the first pack sizes
        // the buffer, every later pack of the same band reuses it (the
        // end-to-end `overlap.warm_allocs = 0` gate lives in the
        // repro_overlap bench, where the process is quiet).
        let d = DomainSpec::new(spec(), 3, 3);
        let p = Partition::new(&d, 4, RankOrder::RowMajor);
        let g = Tensor::zeros(d.ny(), d.nx());
        for (dir, _) in p.grid.neighbors(0) {
            let band = p.band(0, dir);
            let mut buf = Vec::new();
            p.pack_into(&g, &band, &mut buf);
            let (cap, len) = (buf.capacity(), buf.len());
            for _ in 0..5 {
                p.pack_into(&g, &band, &mut buf);
                assert_eq!(buf.capacity(), cap, "warm pack grew the buffer");
                assert_eq!(buf.len(), len);
            }
        }
    }
}

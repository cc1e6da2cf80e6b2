//! Distributed Mosaic Flow predictor — Algorithm 2 of the paper — as the
//! one iteration loop (`Mfp::iterate`) run on every rank with that rank's
//! [`Peers`].
//!
//! The global domain is partitioned over a 2-D processor grid, ranks
//! placed in row-major order. Each rank owns a half-open block of grid points
//! and the overlapping subdomains whose centers fall inside it. With its
//! peers, one iteration sweeps the rank's interior subdomains while the
//! previous iteration's halo exchange is still in flight, completes the
//! exchange, sweeps the boundary subdomains, reduces the stop-test sums —
//! and with them the Gram sums of the Anderson mixing and the coarse
//! residual of the coarse-grid correction, so every rank mixes and
//! corrects its owned lattice with the same values — in **one** allreduce
//! of logarithmically many rounds, and posts the next exchange of owned
//! lattice values in a
//! band of half-a-subdomain width with up to eight neighbors — **once**
//! per iteration, on every iteration (the relaxed synchronization of
//! §4.2). A final dense pass fills the owned atomic subdomains and an
//! allgather assembles the global solution. The ranks solve the Laplace
//! problem; the shifted operator runs locally ([`Mfp::run_shifted`]).
//!
//! The alternating schedule this one reorders (sweep everything →
//! allreduce → blocking exchange) lives on as the test oracle: the same
//! loop on the same state, with every exchange completed as soon as it is
//! posted, which the shipping schedule must match bit for bit.

use crate::domain::{DomainSpec, Subdomain};
use crate::engine::{sweep_lists_in, MaeTarget, Region, StopRule, SweepEngine, SweepList};
use crate::seq::Mfp;
use crate::solver::SubdomainSolver;
use mf_dist::thread_cpu_time;
use mf_dist::{
    CartesianGrid, Cluster, ClusterError, CommStats, Communicator, Direction, FaultPlan,
    OverlapSample, OverlapTracker, PerfModel, RecvHandle,
};
use mf_observe::StallDetector;
use mf_telemetry::{counter, histogram, Buckets, Counter, Histogram};
use mf_tensor::Tensor;

/// Controls for [`run_distributed`].
#[derive(Clone, Debug)]
pub struct DistMfpConfig {
    /// Maximum Schwarz iterations.
    pub max_iters: usize,
    /// Relative-change threshold (0 disables the check — and, on the
    /// one-level iteration, its allreduce).
    pub tol: f64,
    /// Optional reference-based stop (MAE on lattice points).
    pub target: Option<MaeTarget>,
    /// Run the two-level accelerated iteration (see
    /// [`MfpConfig::accelerate`](crate::MfpConfig::accelerate)): each rank
    /// seeds the whole lattice from the same exact coarse solve, locally;
    /// the mixing coefficients and the coarse residual of the correction
    /// come from sums reduced with the convergence check, so every rank
    /// mixes and corrects with the same global values, and solves the same
    /// coarse system redundantly. `false` is Algorithm 2 as printed.
    pub accelerate: bool,
    /// Fault injection for the cluster's links ([`FaultPlan::none`] keeps
    /// the lossless PR-1 semantics).
    pub plan: FaultPlan,
    /// Alpha–beta model used by the per-rank overlap accounting
    /// (`dist.overlap_ratio` and friends).
    pub perf_model: PerfModel,
}

impl Default for DistMfpConfig {
    fn default() -> Self {
        Self {
            max_iters: 1000,
            tol: 1e-4,
            target: None,
            accelerate: true,
            plan: FaultPlan::none(),
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
    /// Subdomains swept in the interior pass, while the halo exchange is
    /// in flight.
    pub interior_subdomains: usize,
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
    /// Whether a stop criterion fired (a run whose residual turned
    /// non-finite ends early on every rank *without* having converged).
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

impl<'a> Partition<'a> {
    /// `domain` over the squarest `ranks`-rank grid, ranks in row-major
    /// order.
    fn new(domain: &'a DomainSpec, ranks: usize) -> Self {
        Self {
            domain,
            grid: CartesianGrid::square_for(ranks),
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

    /// All grid values of a region, row-major (final gather).
    fn pack_dense(&self, grid: &Tensor, region: &Region) -> Vec<f64> {
        let mut out = Vec::with_capacity(region.0.len() * region.1.len());
        for j in region.0.clone() {
            out.extend_from_slice(&grid.row(j)[region.1.clone()]);
        }
        out
    }

    fn unpack_dense(&self, grid: &mut Tensor, region: &Region, data: &[f64]) {
        let width = region.1.len().max(1);
        for (j, row) in region.0.clone().zip(data.chunks_exact(width)) {
            grid.row_mut(j)[region.1.clone()].copy_from_slice(row);
        }
    }
}

/// Lattice values at flat grid indices `cells`, written into a reused
/// buffer. The buffer is cleared but never shrunk, so after the first
/// exchange sized a direction's buffer, warm iterations pack with zero
/// heap allocations (gated as `overlap.warm_allocs`).
fn pack_cells(grid: &Tensor, cells: &[usize], out: &mut Vec<f64>) {
    let g = grid.as_slice();
    out.clear();
    out.extend(cells.iter().map(|&p| g[p]));
}

/// Inverse of [`pack_cells`].
fn unpack_cells(grid: &mut Tensor, cells: &[usize], data: &[f64]) {
    assert_eq!(cells.len(), data.len(), "halo unpack: size mismatch");
    let g = grid.as_mut_slice();
    for (&p, &v) in cells.iter().zip(data) {
        g[p] = v;
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
    groups: &[SweepList; 4],
    halo_regions: &[Region],
) -> ([SweepList; 4], [SweepList; 4]) {
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
    let groups = groups.each_ref();
    let subs: [&Vec<Subdomain>; 4] = groups.map(|g| &g.subs);
    let mut tainted: [Vec<bool>; 4] = std::array::from_fn(|g| {
        subs[g]
            .iter()
            .map(|sd| halo_regions.iter().any(|h| regions_overlap(h, &window(sd))))
            .collect()
    });
    // Propagate in one pass, in group order: a boundary subdomain in one
    // group conflicts-taints subdomains of *later* groups (their interior
    // copies would otherwise run before its post-unpack sweep, i.e.
    // before it in the reordered schedule while after it in the
    // alternating one). Earlier groups need no taint: the interior
    // phase preserves group order, so an earlier-group interior sweep
    // still runs before a later-group boundary sweep. Taint only flows
    // forward, so every earlier group's status is final when a group is
    // reached.
    for gj in 1..4 {
        for (ci, c) in subs[gj].iter().enumerate() {
            let hit = (0..gj).any(|gi| {
                subs[gi]
                    .iter()
                    .zip(&tainted[gi])
                    .any(|(a, &t)| t && conflicts(a, c))
            });
            tainted[gj][ci] |= hit;
        }
    }
    let mut interior: [SweepList; 4] = Default::default();
    let mut boundary: [SweepList; 4] = Default::default();
    for g in 0..4 {
        [interior[g], boundary[g]] = groups[g].partition(|i| tainted[g][i]);
    }
    (interior, boundary)
}

/// One sweep group's subdomains, each with the ascending indices into
/// [`DomainSpec::center_cross_offsets`] of the points its sweep writes.
pub type LiveGroup = Vec<(Subdomain, Vec<usize>)>;

/// The center-cross points each rank of a `ranks`-rank
/// [`run_distributed`] writes per iteration: per rank, its
/// four sweep groups in the order it sweeps them, each subdomain with its
/// live points — those no later group of the rank overwrites unread. At
/// one rank this is the sweep of [`Mfp`].
pub fn live_cross_points(domain: &DomainSpec, ranks: usize) -> Vec<[LiveGroup; 4]> {
    let part = Partition::new(domain, ranks);
    (0..ranks)
        .map(|rank| {
            sweep_lists_in(domain, &part.owned(rank))
                .map(|list| list.subs.into_iter().zip(list.live).collect())
        })
        .collect()
}

/// Thread CPU seconds `f` takes.
fn cpu_seconds(f: impl FnOnce()) -> f64 {
    let t0 = thread_cpu_time();
    f();
    thread_cpu_time() - t0
}

/// What one rank has that a local solve does not: the communicator and
/// the partition, the halo plumbing, the interior/boundary split of its
/// sweep groups, and its accounting and watchdog. Every rank of
/// [`run_distributed`] hands its own to the one iteration loop, which
/// reduces over it, sweeps through it and posts its halo; a local solve
/// has none, so it registers none of the counters below. Every halo
/// receive blocks until the neighbor's values arrive: a sweep never reads
/// an interface older than the exchange it completes.
pub(crate) struct Peers<'a> {
    comm: &'a mut Communicator,
    part: &'a Partition<'a>,
    /// The rank's block of the global grid: the region its engine owns.
    pub(crate) owned: Region,
    /// Geometric interior/boundary split of the owned sweep groups.
    interior_groups: [SweepList; 4],
    boundary_groups: [SweepList; 4],

    /// Per-direction halo geometry, fixed for the whole run: the lattice
    /// cells (flat grid indices) of the bands we send and of the
    /// neighbor-owned bands the unpack writes.
    send_cells: Vec<Vec<usize>>,
    halo_cells: Vec<Vec<usize>>,
    /// Pooled per-direction pack buffers: sized by the first exchange,
    /// then reused — warm iterations pack at 0 heap allocations
    /// (`overlap.warm_allocs` counts the misses).
    outgoing: Vec<(usize, Vec<f64>)>,
    /// Receive handles of the exchange posted by the previous iteration,
    /// completed mid-iteration between the passes.
    inflight: Vec<RecvHandle>,
    /// The test oracle's schedule: every exchange completes as soon as it
    /// is posted, so nothing is ever in flight and every sweep is the
    /// full-group pass — the alternating schedule (sweep everything →
    /// allreduce → blocking exchange) the shipping one reorders.
    alternating: bool,

    compute_seconds: f64,
    pack_seconds: f64,
    /// Communication counters when the iteration loop ended.
    halo: CommStats,
    /// Comm/compute overlap accounting (§4.3): measured busy/wait
    /// intervals folded through the alpha-beta model into the
    /// dist.overlap_ratio / dist.comm_wait_us / dist.compute_us metrics,
    /// once per iteration. Reads counters only — never sends.
    overlap: OverlapTracker,
    busy_mark: f64,
    /// Convergence watchdog: trips after 5 residual checks without a
    /// ≥ 1% improvement.
    stall: StallDetector,
    stalls_counter: Counter,
    pool_miss: Counter,
    h_halo: Histogram,
}

impl<'a> Peers<'a> {
    fn new(
        comm: &'a mut Communicator,
        part: &'a Partition<'a>,
        cfg: &DistMfpConfig,
        alternating: bool,
    ) -> Self {
        let domain = part.domain;
        let rank = comm.rank();
        let owned = part.owned(rank);
        let neighbors = part.grid.neighbors(rank);
        let cells = |(rows, cols): Region| domain.lattice_indices(rows, cols);
        let send_cells = neighbors
            .iter()
            .map(|&(dir, _)| cells(part.band(rank, dir)))
            .collect();
        let halo_regions: Vec<Region> = neighbors
            .iter()
            .map(|&(dir, nbr)| part.band(nbr, dir.opposite()))
            .collect();
        let (interior_groups, boundary_groups) =
            split_sweep_groups(domain, &sweep_lists_in(domain, &owned), &halo_regions);
        Self {
            owned,
            interior_groups,
            boundary_groups,
            send_cells,
            halo_cells: halo_regions.into_iter().map(cells).collect(),
            outgoing: neighbors
                .iter()
                .map(|&(_, nbr)| (nbr, Vec::new()))
                .collect(),
            inflight: Vec::new(),
            alternating,
            compute_seconds: 0.0,
            pack_seconds: 0.0,
            halo: CommStats::default(),
            overlap: OverlapTracker::new(cfg.perf_model, comm),
            busy_mark: 0.0,
            stall: StallDetector::new(5),
            stalls_counter: counter("mfp.stalls"),
            pool_miss: counter("overlap.warm_allocs"),
            h_halo: histogram("mfp.halo_bytes", Buckets::bytes()),
            comm,
            part,
        }
    }

    /// Stamp iteration `it` on the rank's telemetry.
    pub(crate) fn begin_iteration(&mut self, it: usize) {
        mf_telemetry::set_step_context(0, it as u64);
    }

    /// Local sweeps with immediate updates, in group order. With an
    /// exchange in flight, the interior pass hides it, the exchange
    /// completes and the boundary pass follows: a dependency-preserving
    /// reorder of the full-group pass, so the iterates are bitwise
    /// identical (see DESIGN.md "Overlapped halo exchange"). With nothing
    /// in flight (the first iteration, or every iteration of the
    /// alternating schedule), the full-group pass.
    pub(crate) fn sweep<S: SubdomainSolver>(
        &mut self,
        engine: &SweepEngine<'_, S>,
        u: &mut Tensor,
    ) {
        let pass = |groups: &[SweepList], u: &mut Tensor| {
            cpu_seconds(|| {
                for group in groups {
                    engine.sweep_grid(group, u);
                }
            })
        };
        if self.inflight.is_empty() {
            mf_profile::zone!("sweep");
            self.compute_seconds += pass(&engine.groups, u);
        } else {
            {
                mf_profile::zone!("sweep_interior");
                self.compute_seconds += pass(&self.interior_groups, u);
            }
            self.complete_halo_exchange(u);
            mf_profile::zone!("sweep_boundary");
            self.compute_seconds += pass(&self.boundary_groups, u);
        }
    }

    /// Sum `sums` over the ranks; every rank gets the same bits. In
    /// logarithmically many rounds at any length: the accelerated
    /// iteration's coarse residual makes the buffer grow with the domain
    /// (247 doubles at 8×8 atoms, about 4 000 at 32×32 with `m = 5`), and
    /// the ring's 2(P − 1) rounds would put the iteration's critical path
    /// at the mercy of the rank count.
    pub(crate) fn allreduce(&mut self, sums: &mut [f64]) {
        self.comm.allreduce_sum_log(sums);
    }

    /// Relaxed synchronization: post the halo exchange of the iterate the
    /// next sweep starts from, once per iteration — the next iteration's
    /// interior pass runs while it is in flight. A run that just stopped
    /// posts it too: the final dense pass reads halo cells, so they must
    /// hold this sweep's values. Then close the iteration's busy/wait
    /// interval.
    pub(crate) fn end_iteration(&mut self, u: &mut Tensor, it: usize) {
        self.pack_halos(u);
        self.inflight = self.comm.exchange_start(&self.outgoing, it as u64);
        if self.alternating {
            self.complete_halo_exchange(u);
        }
        self.close_interval();
    }

    /// Pack the owned bands every neighbor needs into the pooled buffers.
    fn pack_halos(&mut self, u: &Tensor) {
        let t0 = thread_cpu_time();
        {
            mf_profile::zone!("halo_pack");
            for ((_, buf), cells) in self.outgoing.iter_mut().zip(&self.send_cells) {
                let cap = buf.capacity();
                pack_cells(u, cells, buf);
                if buf.capacity() != cap {
                    self.pool_miss.incr();
                }
            }
        }
        self.pack_seconds += thread_cpu_time() - t0;
        self.h_halo.record(
            self.outgoing
                .iter()
                .map(|(_, p)| p.len() * 8)
                .sum::<usize>() as f64,
        );
    }

    /// Complete the in-flight halo exchange: block on each receive handle
    /// and unpack into `u` (handle order matches `halo_cells`; both
    /// follow the neighbor list).
    fn complete_halo_exchange(&mut self, u: &mut Tensor) {
        let t0 = thread_cpu_time();
        mf_profile::zone!("halo_wait");
        for (h, cells) in self.inflight.drain(..).zip(&self.halo_cells) {
            let data = self.comm.wait(&h);
            unpack_cells(u, cells, &data);
        }
        self.pack_seconds += thread_cpu_time() - t0;
    }

    /// Feed the newest of `deltas` to the stall watchdog; a stall counts
    /// and records the iteration it was taken at.
    pub(crate) fn watch_stall(&mut self, at_iter: usize, deltas: &[f64]) {
        let delta = *deltas.last().expect("a delta was just recorded");
        if self.stall.observe(delta) {
            self.stalls_counter.incr();
            mf_observe::record("mfp.stall", at_iter as u64, delta);
        }
    }

    fn close_interval(&mut self) {
        let busy = self.compute_seconds + self.pack_seconds;
        self.overlap
            .observe_iteration(self.comm, busy - self.busy_mark);
        self.busy_mark = busy;
    }

    /// The rank's end of the run: complete the exchange still in flight
    /// (the dense fill reads halo cells), fill the owned atomic subdomains
    /// densely, and replace `u` by the global grid, assembled from every
    /// rank's owned block by one allgather.
    pub(crate) fn finish<S: SubdomainSolver>(
        &mut self,
        engine: &SweepEngine<'_, S>,
        u: &mut Tensor,
        bc: &Tensor,
    ) {
        if !self.inflight.is_empty() {
            self.complete_halo_exchange(u);
            // Its wait belongs to the run's accounting too.
            self.close_interval();
            mf_telemetry::publish_thread();
        }
        self.halo = self.comm.stats();
        self.compute_seconds += cpu_seconds(|| engine.fill(std::slice::from_mut(u), &[0]));

        let t1 = thread_cpu_time();
        let local = self.part.pack_dense(u, &self.owned);
        self.pack_seconds += thread_cpu_time() - t1;
        let gathered = self.comm.allgather(&local);
        let t2 = thread_cpu_time();
        *u = self.part.domain.initial_grid(bc);
        for (r, data) in gathered.iter().enumerate() {
            self.part.unpack_dense(u, &self.part.owned(r), data);
        }
        self.pack_seconds += thread_cpu_time() - t2;
    }

    /// This rank's measurements of the run.
    fn report(&self) -> RankReport {
        let count = |groups: &[SweepList]| groups.iter().map(|g| g.subs.len()).sum::<usize>();
        let interior_subdomains = count(&self.interior_groups);
        RankReport {
            rank: self.comm.rank(),
            compute_seconds: self.compute_seconds,
            pack_seconds: self.pack_seconds,
            comm: self.comm.stats(),
            halo: self.halo,
            owned_subdomains: interior_subdomains + count(&self.boundary_groups),
            interior_subdomains,
            overlap: self.overlap.final_sample(),
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
    try_run_distributed(solver, domain, bc, ranks, cfg)
        .unwrap_or_else(|e| panic!("cluster failed: {e}"))
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
    run_ranks(solver, domain, bc, ranks, cfg, false)
}

/// Validate the inputs, run the one iteration loop with one request and
/// the rank's [`Peers`] on every rank of a fresh cluster, and assemble
/// rank 0's result with every rank's report. `alternating` runs the test
/// oracle's schedule (see [`Peers`]).
fn run_ranks<S: SubdomainSolver>(
    solver: &S,
    domain: &DomainSpec,
    bc: &Tensor,
    ranks: usize,
    cfg: &DistMfpConfig,
    alternating: bool,
) -> Result<DistMfpResult, ClusterError> {
    let mfp = Mfp::new(solver, *domain);
    mfp.check_problem(std::slice::from_ref(bc), None);
    let stop = StopRule::new(cfg.tol, cfg.max_iters, cfg.target.as_ref());
    let part = Partition::new(domain, ranks);

    let mut per_rank = Cluster::try_run(ranks, cfg.plan.clone(), |comm| {
        // A rank is a device: one of `ranks` threads computing at once.
        let _lane = mf_tensor::par::compute_lanes(ranks);
        let mut peers = Peers::new(comm, &part, cfg, alternating);
        let bcs = std::slice::from_ref(bc);
        let mut results = mfp.iterate(bcs, 0.0, None, &stop, cfg.accelerate, Some(&mut peers));
        let result = results.pop().expect("one request in, one result out");
        (result, peers.report())
    })?;

    let reports = per_rank.iter().map(|(_, report)| *report).collect();
    let (rank0, _) = per_rank.swap_remove(0);
    Ok(DistMfpResult {
        grid: rank0.grid,
        iterations: rank0.iterations,
        converged: rank0.converged,
        deltas: rank0.deltas,
        mae_history: rank0.mae_history,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::MfpConfig;
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
    fn one_rank_is_bitwise_the_sequential_mfp() {
        // One rank owns the whole grid: same sweep order, same sums in
        // the same order, an allreduce that is the identity — so also the
        // same mixing coefficients.
        let d = DomainSpec::new(spec(), 3, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        for (accelerate, max_iters, tol) in [(true, 20, 0.0), (true, 200, 1e-7), (false, 20, 0.0)] {
            let seq = Mfp::new(&oracle, d).run(
                &bc,
                &MfpConfig {
                    max_iters,
                    tol,
                    accelerate,
                    ..Default::default()
                },
            );
            let dist = run_distributed(
                &oracle,
                &d,
                &bc,
                1,
                &DistMfpConfig {
                    max_iters,
                    tol,
                    accelerate,
                    ..Default::default()
                },
            );
            assert_eq!(dist.iterations, seq.iterations);
            assert_eq!(dist.converged, seq.converged);
            assert_eq!(dist.converged, tol > 0.0);
            assert_eq!(
                dist.grid.as_slice(),
                seq.grid.as_slice(),
                "P=1 distributed deviates from sequential (accelerate = {accelerate})"
            );
        }
    }

    #[test]
    fn accelerated_ranks_converge_to_the_one_level_distributed_grid() {
        // Global mixing coefficients leave the fixed point of the relaxed
        // iteration where it was, at any rank count.
        let d = DomainSpec::new(spec(), 4, 4);
        let oracle = OracleSolver::new(spec(), 1e-11);
        let bc = harmonic_bc(&d);
        for ranks in [2, 4] {
            let run = |accelerate: bool| {
                let res = run_distributed(
                    &oracle,
                    &d,
                    &bc,
                    ranks,
                    &DistMfpConfig {
                        max_iters: 2000,
                        tol: 1e-9,
                        accelerate,
                        ..Default::default()
                    },
                );
                assert!(res.converged, "P={ranks}, accelerate = {accelerate}");
                res
            };
            let (one_level, two_level) = (run(false), run(true));
            let gap = one_level.grid.max_abs_diff(&two_level.grid);
            assert!(gap < 1e-7, "P={ranks}: fixed points {gap} apart");
            assert!(
                3 * two_level.iterations <= one_level.iterations,
                "P={ranks}: {} accelerated vs {} one-level iterations",
                two_level.iterations,
                one_level.iterations
            );
        }
    }

    #[test]
    fn a_non_finite_boundary_ends_the_run_on_every_rank_at_once() {
        // Every rank sees the same reduced sums, so they all leave after
        // the first sweep — none is left waiting in an exchange.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mut bc = harmonic_bc(&d);
        bc.as_mut_slice()[2] = f64::NAN;
        for accelerate in [true, false] {
            let res = run_distributed(
                &oracle,
                &d,
                &bc,
                2,
                &DistMfpConfig {
                    max_iters: 300,
                    tol: 1e-8,
                    accelerate,
                    ..Default::default()
                },
            );
            assert_eq!((res.iterations, res.converged), (1, false));
        }
    }

    #[test]
    fn compiled_plan_solver_matches_graph_solver_across_ranks() {
        // The distributed MFP must be oblivious to which SDNet execution
        // path backs the subdomain solver: on every rank count, each
        // launch of the compiled-plan run is within its bound of the graph
        // on the same inputs.
        use rand::SeedableRng;
        let d = DomainSpec::new(spec(), 2, 2);
        let mut cfg = mf_nn::SdNetConfig::small(spec().boundary_len());
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![10, 10];
        cfg.coord_fourier = 2;
        let net = mf_nn::SdNet::new(cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(7));
        let plan = crate::PlanSolver::new(net, spec());
        let checked = crate::plan::tests::Checked::new(&plan);
        let bc = harmonic_bc(&d);
        let cfg = DistMfpConfig {
            max_iters: 3,
            tol: 0.0,
            ..Default::default()
        };
        for ranks in [1, 4] {
            let a = run_distributed(&plan, &d, &bc, ranks, &cfg);
            let c = run_distributed(&checked, &d, &bc, ranks, &cfg);
            for (x, y) in a.grid.as_slice().iter().zip(c.grid.as_slice()) {
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
                ..Default::default()
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
        // More ranks ⇒ staler interfaces ⇒ same or more iterations of
        // Algorithm 2 to the same tolerance (Table 4's trend), with the
        // same fixed point — for the accelerated iteration too, whose
        // count the coarse correction and the mixing decide instead.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let run = |p: usize, accelerate: bool| {
            run_distributed(
                &oracle,
                &d,
                &bc,
                p,
                &DistMfpConfig {
                    max_iters: 500,
                    tol: 1e-8,
                    accelerate,
                    ..Default::default()
                },
            )
        };
        let r1 = run(1, false);
        let r4 = run(4, false);
        assert!(r1.converged && r4.converged);
        assert!(
            r4.iterations >= r1.iterations,
            "P=4 ({}) should need at least as many iterations as P=1 ({})",
            r4.iterations,
            r1.iterations
        );
        assert!(r1.grid.mean_abs_diff(&r4.grid) < 1e-5);
        let (a1, a4) = (run(1, true), run(4, true));
        assert!(a1.converged && a4.converged);
        assert!(a1.grid.mean_abs_diff(&a4.grid) < 1e-5);
        assert!(a1.grid.mean_abs_diff(&r1.grid) < 1e-5);
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
                ..Default::default()
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
                ..Default::default()
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

    /// Run the shipping schedule and the alternating oracle — the
    /// schedule Algorithm 2 is written in (sweep all groups → allreduce,
    /// judge and mix → blocking exchange), the same loop on the same state
    /// — on the same problem and require identical iterates, convergence
    /// trajectory and iteration count, not just "close". Returns the
    /// shipping result.
    fn assert_matches_alternating_oracle<S: SubdomainSolver>(
        solver: &S,
        d: &DomainSpec,
        bc: &Tensor,
        ranks: usize,
        cfg: &DistMfpConfig,
    ) -> DistMfpResult {
        let ship = run_distributed(solver, d, bc, ranks, cfg);
        let alt = run_ranks(solver, d, bc, ranks, cfg, true).unwrap();
        assert_eq!(ship.iterations, alt.iterations);
        assert_eq!(ship.converged, alt.converged);
        assert_eq!(ship.deltas, alt.deltas, "delta trajectories diverged");
        assert_eq!(ship.mae_history, alt.mae_history, "MAE histories diverged");
        assert_eq!(
            ship.grid.as_slice(),
            alt.grid.as_slice(),
            "assembled grids diverged"
        );
        ship
    }

    #[test]
    fn overlapped_and_alternating_schedules_are_bitwise_identical() {
        let oracle = OracleSolver::new(spec(), 1e-9);
        let base = DistMfpConfig {
            max_iters: 60,
            tol: 1e-6,
            ..Default::default()
        };
        let d = DomainSpec::new(spec(), 4, 4);
        let bc = harmonic_bc(&d);
        let ovl = assert_matches_alternating_oracle(&oracle, &d, &bc, 4, &base);
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

        // A MaeTarget rides the same one-deep pipeline as the delta.
        let targeted = DistMfpConfig {
            tol: 1e-9,
            target: Some(MaeTarget {
                reference: ovl.grid.clone(),
                mae: 1e-3,
                every: 2,
            }),
            ..base.clone()
        };
        let hit = assert_matches_alternating_oracle(&oracle, &d, &bc, 4, &targeted);
        assert!(hit.converged && !hit.mae_history.is_empty());

        // The benchmark's shape: 8x8 atoms (65x65 grid) on 2 ranks.
        let d = DomainSpec::new(spec(), 8, 8);
        let short = DistMfpConfig {
            max_iters: 12,
            ..base
        };
        assert_matches_alternating_oracle(&oracle, &d, &harmonic_bc(&d), 2, &short);
    }

    mod schedule_proptests {
        use super::*;
        use proptest::prelude::*;
        use rand::SeedableRng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            /// Across random domains, rank counts, and receiver-side delay
            /// injection the shipping schedule stays bitwise on the
            /// alternating oracle. `MF_FAULT_SEED` shifts the delay
            /// streams, like tests/fault.rs.
            #[test]
            fn overlapped_schedule_matches_alternating(
                sx in 2usize..5,
                sy in 2usize..5,
                ranks_pick in 0usize..3,
                seed in 0u64..1_000,
                inject_delays in proptest::bool::ANY,
            ) {
                let ranks = [1, 2, 4][ranks_pick];
                let spec = SubdomainSpec { m: 5, spatial: 0.5 };
                let domain = DomainSpec::new(spec, sx, sy);
                let mut sampler = mf_gp::BoundarySampler::new(
                    domain.boundary_len(), (0.4, 0.8), (0.5, 1.0), true);
                let bc = sampler.sample(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed));
                let oracle = OracleSolver::new(spec, 1e-9);
                let env_seed = std::env::var("MF_FAULT_SEED")
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(42u64);
                let plan = if inject_delays && ranks > 1 {
                    FaultPlan {
                        seed: env_seed ^ seed,
                        delay_rate: 0.5,
                        delay_max_us: 1_500,
                        ..FaultPlan::none()
                    }
                } else {
                    FaultPlan::none()
                };
                let cfg = DistMfpConfig {
                    max_iters: 120,
                    tol: 1e-6,
                    plan,
                    ..Default::default()
                };
                let ship = assert_matches_alternating_oracle(&oracle, &domain, &bc, ranks, &cfg);
                // One rank is `Mfp::run`: the same loop, whose allreduce is
                // the identity.
                if ranks == 1 {
                    let seq = Mfp::new(&oracle, domain).run(&bc, &MfpConfig {
                        max_iters: cfg.max_iters,
                        tol: cfg.tol,
                        ..Default::default()
                    });
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(ship.iterations, seq.iterations);
                    prop_assert_eq!(ship.converged, seq.converged);
                    prop_assert_eq!(bits(&ship.deltas), bits(&seq.deltas));
                    let mae = |h: &[(usize, f64)]| h.iter().map(|&(i, m)| (i, m.to_bits())).collect::<Vec<_>>();
                    prop_assert_eq!(mae(&ship.mae_history), mae(&seq.mae_history));
                    prop_assert_eq!(bits(ship.grid.as_slice()), bits(seq.grid.as_slice()));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "MaeTarget::every must be at least 1")]
    fn zero_mae_target_cadence_is_rejected_at_distributed_entry() {
        let d = DomainSpec::new(spec(), 2, 2);
        let cfg = DistMfpConfig {
            target: Some(MaeTarget {
                reference: Tensor::zeros(d.ny(), d.nx()),
                mae: 0.05,
                every: 0,
            }),
            ..Default::default()
        };
        run_distributed(
            &OracleSolver::new(spec(), 1e-9),
            &d,
            &harmonic_bc(&d),
            2,
            &cfg,
        );
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
        let p = Partition::new(&d, 4);
        let g = Tensor::zeros(d.ny(), d.nx());
        for (dir, _) in p.grid.neighbors(0) {
            let (rows, cols) = p.band(0, dir);
            let band = d.lattice_indices(rows, cols);
            let mut buf = Vec::new();
            pack_cells(&g, &band, &mut buf);
            let (cap, len) = (buf.capacity(), buf.len());
            for _ in 0..5 {
                pack_cells(&g, &band, &mut buf);
                assert_eq!(buf.capacity(), cap, "warm pack grew the buffer");
                assert_eq!(buf.len(), len);
            }
        }
    }
}

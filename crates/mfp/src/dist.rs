//! Distributed Mosaic Flow predictor — Algorithm 2 of the paper — as the
//! per-rank driver over the shared
//! [`SweepEngine`](crate::engine::SweepEngine).
//!
//! The global domain is partitioned over a 2-D processor grid (row-scan or
//! Morton rank placement). Each rank owns a half-open block of grid points
//! and the overlapping subdomains whose centers fall inside it. One
//! iteration sweeps the rank's interior subdomains while the previous
//! iteration's halo exchange is still in flight, completes the exchange,
//! sweeps the boundary subdomains, reduces the stop-test sums — and with
//! them the Gram sums of the Anderson mixing, so every rank mixes its
//! owned lattice with the same coefficients — in **one** small allreduce,
//! and posts the next exchange of owned lattice values in a band of
//! half-a-subdomain width with up to eight neighbors — **once** per
//! iteration (the relaxed synchronization of §4.2). A final dense pass
//! fills the owned atomic subdomains and an allgather assembles the
//! global solution.
//!
//! The alternating schedule this one reorders (sweep everything →
//! allreduce → blocking exchange) lives on as the test oracle
//! `alternating_schedule` below, which the shipping schedule must match
//! bit for bit.

use crate::domain::{DomainSpec, Subdomain};
use crate::engine::{
    Accelerator, MaeTarget, Region, StopRule, SweepEngine, Verdict, GRAM_LEN, SUMS_LEN,
};
use crate::solver::SubdomainSolver;
use mf_dist::thread_cpu_time;
use mf_dist::{
    CartesianGrid, Cluster, ClusterError, CommError, CommStats, Communicator, Direction, FaultPlan,
    OverlapSample, OverlapTracker, PerfModel, RankOrder, RecvHandle,
};
use mf_numerics::boundary::apply_boundary;
use mf_observe::StallDetector;
use mf_telemetry::{counter, histogram, span, Buckets, Counter, Histogram};
use mf_tensor::Tensor;
use std::time::Duration;

/// Controls for [`run_distributed`].
#[derive(Clone, Debug)]
pub struct DistMfpConfig {
    /// Maximum Schwarz iterations.
    pub max_iters: usize,
    /// Relative-change threshold (0 disables the check — and, on the
    /// one-level iteration, its allreduce).
    pub tol: f64,
    /// Evaluate the convergence check every this many iterations (at
    /// least 1).
    pub check_every: usize,
    /// Exchange halos every this many iterations (1 = Algorithm 2;
    /// larger values are the communication-avoiding variant discussed in
    /// §5.3 "Open problems"; at least 1).
    pub comm_every: usize,
    /// Rank placement on the processor grid.
    pub order: RankOrder,
    /// Optional reference-based stop (MAE on lattice points).
    pub target: Option<MaeTarget>,
    /// Run the two-level accelerated iteration (see
    /// [`MfpConfig::accelerate`](crate::MfpConfig::accelerate)): each rank
    /// computes the same cheap coarse solve locally, and the mixing
    /// coefficients come from sums reduced with the convergence check, so
    /// they are global. `false` is Algorithm 2 as printed.
    pub accelerate: bool,
    /// Fault injection for the cluster's links ([`FaultPlan::none`] keeps
    /// the lossless PR-1 semantics).
    pub plan: FaultPlan,
    /// Degraded mode: bound each halo exchange by [`Self::halo_timeout`]
    /// and *reuse the stale halo* from the previous exchange when a
    /// neighbor misses the deadline, instead of blocking the iteration.
    /// The Schwarz fixed point is unchanged — stale interface data only
    /// slows convergence (the same trade as `comm_every > 1`); a sweep
    /// that read one is left out of the mixing history on every rank.
    pub degraded_halos: bool,
    /// Per-exchange deadline in degraded mode.
    pub halo_timeout: Duration,
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
            accelerate: true,
            plan: FaultPlan::none(),
            degraded_halos: false,
            halo_timeout: Duration::from_millis(50),
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

impl Partition<'_> {
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

/// Which of a rank's subdomains one sweep pass covers.
enum Pass {
    /// Every owned subdomain (nothing in flight to hide).
    All,
    /// The subdomains no halo unpack can touch.
    Interior,
    /// The rest: swept once the halo has landed.
    Boundary,
}

/// Everything one rank carries through Algorithm 2: its engine, its local
/// copy of the grid, the halo plumbing, the mixing history and the
/// per-rank measurements.
struct Rank<'a, S: SubdomainSolver> {
    comm: &'a mut Communicator,
    cfg: &'a DistMfpConfig,
    part: &'a Partition<'a>,
    stop: &'a StopRule<'a>,
    engine: SweepEngine<'a, S>,
    /// The second level, when the run accelerates: one request.
    accel: Option<Accelerator>,
    owned: Region,
    owned_subdomains: usize,
    /// Geometric interior/boundary split of `engine.groups`.
    interior_groups: [Vec<Subdomain>; 4],
    boundary_groups: [Vec<Subdomain>; 4],

    /// Local copy of the global grid (only owned ∪ halo is maintained)
    /// and its snapshot from the top of the current iteration.
    u: Tensor,
    prev: Tensor,

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

    iterations: usize,
    converged: bool,
    /// Converged, or diverged: no further sweep.
    stopped: bool,
    deltas: Vec<f64>,
    mae_history: Vec<(usize, f64)>,

    compute_seconds: f64,
    pack_seconds: f64,
    /// Comm/compute overlap accounting (§4.3): measured busy/wait
    /// intervals folded through the alpha-beta model into the
    /// dist.overlap_ratio / dist.comm_wait_us / dist.compute_us metrics,
    /// once per iteration. Reads counters only — never sends.
    overlap: OverlapTracker,
    busy_mark: f64,
    /// Convergence watchdog: trips after 5 residual checks without a
    /// ≥ 1% improvement; in degraded mode the stale-halo delta over the
    /// same window attributes the stall to a late neighbor.
    stall: StallDetector,
    stale_halos: usize,
    /// `stale_halos` when the current iteration began.
    stale_at_sweep: usize,
    stale_at_window: usize,
    stale_counter: Counter,
    stalls_counter: Counter,
    stall_stale_counter: Counter,
    pool_miss: Counter,
    h_halo: Histogram,
}

impl<'a, S: SubdomainSolver> Rank<'a, S> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        comm: &'a mut Communicator,
        solver: &'a S,
        part: &'a Partition<'a>,
        stop: &'a StopRule<'a>,
        cfg: &'a DistMfpConfig,
        bc: &Tensor,
        sigma: f64,
        forcing: Option<&'a Tensor>,
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

        let u = domain.initial_grid(bc);
        let engine = SweepEngine::new(solver, domain, &owned, sigma, forcing);
        let (interior_groups, boundary_groups) =
            split_sweep_groups(domain, &engine.groups, &halo_regions);
        Self {
            owned_subdomains: engine.groups.iter().map(|g| g.len()).sum(),
            interior_groups,
            boundary_groups,
            engine,
            accel: Accelerator::new(cfg.accelerate, domain, &owned, 1),
            owned,
            prev: u.clone(),
            u,
            send_cells,
            halo_cells: halo_regions.into_iter().map(cells).collect(),
            outgoing: neighbors
                .iter()
                .map(|&(_, nbr)| (nbr, Vec::new()))
                .collect(),
            inflight: Vec::new(),
            iterations: 0,
            converged: false,
            stopped: false,
            deltas: Vec::new(),
            mae_history: Vec::new(),
            compute_seconds: 0.0,
            pack_seconds: 0.0,
            overlap: OverlapTracker::new(cfg.perf_model, comm),
            busy_mark: 0.0,
            stall: StallDetector::new(5),
            stale_halos: 0,
            stale_at_sweep: 0,
            stale_at_window: 0,
            stale_counter: counter("mfp.stale_halos"),
            stalls_counter: counter("mfp.stalls"),
            stall_stale_counter: counter("mfp.stall_stale_halos"),
            pool_miss: counter("overlap.warm_allocs"),
            h_halo: histogram("mfp.halo_bytes", Buckets::bytes()),
            comm,
            cfg,
            part,
            stop,
        }
    }

    /// The shipping schedule: interior sweep → complete halo → boundary
    /// sweep → reduce, judge and mix → post halo, with a full-group sweep
    /// whenever nothing is in flight (the first iteration, or a
    /// communication-avoiding gap). A dependency-preserving reorder of
    /// the alternating schedule, so the iterates are bitwise identical
    /// (see DESIGN.md "Overlapped halo exchange").
    fn iterate(&mut self) {
        for it in 0..self.cfg.max_iters {
            mf_telemetry::set_step_context(0, it as u64);
            span!(
                "mfp.iteration",
                it = it as f64,
                depth = self.accel.as_ref().map_or(0, |a| a.depth(&[0])) as f64
            );
            self.begin_iteration(it);

            if self.inflight.is_empty() {
                mf_profile::zone!("sweep");
                self.sweep(Pass::All);
            } else {
                {
                    mf_profile::zone!("sweep_interior");
                    self.sweep(Pass::Interior);
                }
                self.complete_halo_exchange();
                mf_profile::zone!("sweep_boundary");
                self.sweep(Pass::Boundary);
            }
            self.judge_and_mix();

            // Relaxed synchronization: one halo exchange per iteration
            // (or every `comm_every` iterations), only *posted* here — the
            // next iteration's interior pass runs while it is in flight.
            // A run that just stopped posts it too: the final dense pass
            // reads halo cells, so they must hold this sweep's values.
            if self.iterations.is_multiple_of(self.cfg.comm_every) {
                self.pack_halos();
                self.inflight = self.comm.exchange_start(&self.outgoing, it as u64);
            }

            // Close this iteration's busy/wait interval and make the
            // rank's metrics visible to live scrapes.
            self.close_interval();
            if self.stopped {
                break;
            }
        }

        if !self.inflight.is_empty() {
            self.complete_halo_exchange();
            // Its wait belongs to the run's accounting too.
            self.close_interval();
        }
    }

    /// Seed the lattice before the first sweep, snapshot the grid for this
    /// iteration's residual and count the iteration.
    fn begin_iteration(&mut self, it: usize) {
        if let (0, Some(accel)) = (it, &self.accel) {
            accel.seed(self.part.domain, std::slice::from_mut(&mut self.u));
        }
        self.prev.as_mut_slice().copy_from_slice(self.u.as_slice());
        self.iterations = it + 1;
        self.stale_at_sweep = self.stale_halos;
    }

    /// Local sweeps with immediate updates, in group order.
    fn sweep(&mut self, pass: Pass) {
        let t0 = thread_cpu_time();
        let groups = match pass {
            Pass::All => &self.engine.groups,
            Pass::Interior => &self.interior_groups,
            Pass::Boundary => &self.boundary_groups,
        };
        for group in groups {
            self.engine
                .sweep_grid(group, &self.engine.cross, &mut self.u);
        }
        self.compute_seconds += thread_cpu_time() - t0;
    }

    /// Pack the owned bands every neighbor needs into the pooled buffers.
    fn pack_halos(&mut self) {
        let t0 = thread_cpu_time();
        {
            mf_profile::zone!("halo_pack");
            for ((_, buf), cells) in self.outgoing.iter_mut().zip(&self.send_cells) {
                let cap = buf.capacity();
                pack_cells(&self.u, cells, buf);
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
    /// follow the neighbor list). In degraded mode the wait is bounded by
    /// the deadline and a slot whose neighbor missed it keeps its previous
    /// (stale) values — the per-iteration tag keeps late round-N data out
    /// of round N+1.
    fn complete_halo_exchange(&mut self) {
        let t0 = thread_cpu_time();
        mf_profile::zone!("halo_wait");
        for (h, cells) in self.inflight.drain(..).zip(&self.halo_cells) {
            if self.cfg.degraded_halos {
                match self.comm.wait_deadline(&h, self.cfg.halo_timeout) {
                    Ok(data) => unpack_cells(&mut self.u, cells, &data),
                    Err(CommError::Timeout { .. }) => {
                        self.stale_halos += 1;
                        self.stale_counter.incr();
                    }
                    Err(e @ CommError::RankFailed { .. }) => panic!("halo exchange: {e}"),
                }
            } else {
                let data = self.comm.wait(&h);
                unpack_cells(&mut self.u, cells, &data);
            }
        }
        self.pack_seconds += thread_cpu_time() - t0;
    }

    /// The end of a sweep (Algorithm 2, line 5, and the second level):
    /// reduce the stop-test sums and the mixing's Gram sums in one
    /// allreduce, judge the un-mixed sweep, and — when the run goes on —
    /// continue from the mixed iterate, so the halo posted next carries
    /// it. The sums read only owned lattice cells, and every rank sees the
    /// same reduced values, so all ranks stop, restart and mix together.
    ///
    /// Mixing needs the reduction and a sweep whose halo was current, so
    /// it happens on the iterations that check *and* exchange; a sweep
    /// that read a stale halo slot is reported as NaN sums, which makes
    /// every rank forget its history ([`Accelerator::mix`]).
    fn judge_and_mix(&mut self) {
        let n = self.iterations;
        let checks = n.is_multiple_of(self.cfg.check_every);
        // The last sweep allowed is left as it is: the grid returned is
        // always a plain sweep's output.
        let mixes = self.accel.is_some()
            && checks
            && n.is_multiple_of(self.cfg.comm_every)
            && n < self.cfg.max_iters;
        let mut sums = [0.0; SUMS_LEN];
        if checks && (self.cfg.tol > 0.0 || mixes) {
            let residual = self.engine.residual_sums(&self.u, &self.prev);
            sums[..2].copy_from_slice(&residual);
            // The mixer never files a non-finite sweep; the residual sums
            // end such a run on every rank.
            if mixes && residual.iter().all(|v| v.is_finite()) {
                mf_profile::zone!("accelerate");
                let accel = self.accel.as_mut().expect("mixes");
                let gram = if self.stale_halos > self.stale_at_sweep {
                    [f64::NAN; GRAM_LEN]
                } else {
                    accel.observe(0, &self.u, &self.prev)
                };
                sums[2..].copy_from_slice(&gram);
            }
            self.comm
                .allreduce_sum(&mut sums[..if mixes { SUMS_LEN } else { 2 }]);
            let verdict = self
                .stop
                .residual_verdict([sums[0], sums[1]], &mut self.deltas);
            self.converged = verdict == Verdict::Converged;
            self.stopped = verdict != Verdict::Continue;
            self.watch_convergence(n);
        }
        if !self.stopped {
            if let Some(reference) = self.stop.error_check_due(n) {
                let mut sums = self.engine.error_sums(&self.u, reference);
                self.comm.allreduce_sum(&mut sums);
                self.converged = self.stop.error_converged(n, sums, &mut self.mae_history);
                self.stopped = self.converged;
            }
        }
        if mixes && !self.stopped {
            mf_profile::zone!("accelerate");
            let gram: &[f64; GRAM_LEN] = sums[2..].try_into().expect("SUMS_LEN = 2 + GRAM_LEN");
            let delta = *self.deltas.last().expect("pushed by the stop rule");
            let accel = self.accel.as_mut().expect("mixes");
            accel.mix(0, gram, delta, &mut self.u);
        }
    }

    /// Feed the newest delta to the stall watchdog and, in watch mode,
    /// render the residual report for the iteration it was taken at.
    fn watch_convergence(&mut self, at_iter: usize) {
        let delta = *self.deltas.last().expect("a delta was just recorded");
        let stalled = self.stall.observe(delta);
        let stale_in_window = (self.stale_halos - self.stale_at_window) as u64;
        if stalled {
            self.stalls_counter.incr();
            self.stall_stale_counter.add(stale_in_window);
            mf_observe::record("mfp.stall", stale_in_window, delta);
            self.stale_at_window = self.stale_halos;
        }
        if mf_observe::watch_enabled() {
            self.watch_residual_report(at_iter, stalled, stale_in_window);
        }
    }

    /// Watch-mode side channel: gather every rank's per-atomic-subdomain
    /// residual (mean |u − prev| over the window) and render the lattice
    /// heatmap report on rank 0. Watch is opt-in, so its allgather never
    /// runs under the pinned-message-count fixtures.
    fn watch_residual_report(&mut self, iteration: usize, stalled: bool, stale_in_window: u64) {
        let domain = self.part.domain;
        // Encode owned atoms as (lattice index, residual) pairs: the gather
        // is ragged, each rank contributes only what it owns.
        let mut local = Vec::new();
        let step = domain.sub.m - 1;
        for &sd in &self.engine.atoms {
            let a = domain.read_window_field(&self.u, sd);
            let b = domain.read_window_field(&self.prev, sd);
            let n = a.numel().max(1) as f64;
            let resid = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| (x - y).abs())
                .sum::<f64>()
                / n;
            local.push((sd.oy / step * domain.sx + sd.ox / step) as f64);
            local.push(resid);
        }
        let gathered = self.comm.allgather(&local);
        if self.comm.rank() == 0 {
            let mut grid = vec![0.0; domain.sx * domain.sy];
            for pair in gathered.iter().flat_map(|v| v.chunks_exact(2)) {
                grid[pair[0] as usize] = pair[1];
            }
            eprint!(
                "{}",
                mf_observe::mfp_watch_report(
                    iteration,
                    &self.deltas,
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

    fn close_interval(&mut self) {
        let busy = self.compute_seconds + self.pack_seconds;
        self.overlap
            .observe_iteration(self.comm, busy - self.busy_mark);
        self.busy_mark = busy;
        mf_telemetry::publish_thread();
    }

    /// Final phase: dense prediction of the owned atomic subdomains, then
    /// an allgather of the owned dense blocks assembles the global grid.
    fn finish(mut self, bc: &Tensor) -> DistMfpResult {
        let halo_stats = self.comm.stats();
        let domain = self.part.domain;

        let t0 = thread_cpu_time();
        self.engine
            .sweep_grid(&self.engine.atoms, &self.engine.interior, &mut self.u);
        self.compute_seconds += thread_cpu_time() - t0;

        let t1 = thread_cpu_time();
        let local = self.part.pack_dense(&self.u, &self.owned);
        self.pack_seconds += thread_cpu_time() - t1;
        let gathered = self.comm.allgather(&local);
        let t2 = thread_cpu_time();
        let mut global = Tensor::zeros(domain.ny(), domain.nx());
        apply_boundary(&mut global, bc);
        for (r, data) in gathered.iter().enumerate() {
            let region = self.part.owned(r);
            self.part.unpack_dense(&mut global, &region, data);
        }
        self.pack_seconds += thread_cpu_time() - t2;

        let report = RankReport {
            rank: self.comm.rank(),
            compute_seconds: self.compute_seconds,
            pack_seconds: self.pack_seconds,
            comm: self.comm.stats(),
            halo: halo_stats,
            owned_subdomains: self.owned_subdomains,
            interior_subdomains: self.interior_groups.iter().map(|g| g.len()).sum(),
            stale_halos: self.stale_halos,
            overlap: self.overlap.final_sample(),
        };
        if mf_telemetry::metrics_report_enabled() {
            mf_dist::print_merged_report(self.comm);
        }
        DistMfpResult {
            grid: global,
            iterations: self.iterations,
            converged: self.converged,
            deltas: self.deltas,
            mae_history: self.mae_history,
            reports: vec![report],
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
    run_ranks(solver, domain, bc, sigma, forcing, ranks, cfg, |rank| {
        rank.iterate()
    })
}

/// Validate the inputs, run `schedule` on every rank of a fresh cluster
/// and assemble rank 0's solution with every rank's report. The schedule
/// is a parameter so the test oracle can drive the same per-rank state
/// through the alternating loop.
#[allow(clippy::too_many_arguments)]
fn run_ranks<S: SubdomainSolver>(
    solver: &S,
    domain: &DomainSpec,
    bc: &Tensor,
    sigma: f64,
    forcing: Option<&Tensor>,
    ranks: usize,
    cfg: &DistMfpConfig,
    schedule: impl Fn(&mut Rank<'_, S>) + Sync,
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
    let stop = StopRule::new(
        cfg.tol,
        cfg.target.as_ref(),
        &[
            ("DistMfpConfig::check_every", cfg.check_every),
            ("DistMfpConfig::comm_every", cfg.comm_every),
        ],
    );
    let part = Partition {
        domain,
        grid: CartesianGrid::square_for(ranks, cfg.order),
    };

    let mut per_rank = Cluster::try_run(ranks, cfg.plan.clone(), |comm| {
        // A rank is a device: one of `ranks` threads computing at once.
        let _lane = mf_tensor::par::compute_lanes(ranks);
        // Align per-rank clocks before iterating so the merged trace rows
        // share a time base (barrier-only: no link messages, so the
        // fault RNG streams and pinned message counts are untouched).
        comm.align_clocks();
        let mut rank = Rank::new(comm, solver, &part, &stop, cfg, bc, sigma, forcing);
        schedule(&mut rank);
        rank.finish(bc)
    })?;

    let reports = per_rank.iter().map(|r| r.reports[0]).collect();
    let mut result = per_rank.swap_remove(0);
    result.reports = reports;
    Ok(result)
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
    fn communication_avoiding_acceleration_lands_near_the_tight_tolerance_grid() {
        // With `comm_every = k` only every k-th sweep is followed by an
        // exchange, and only those sweeps are mixed. The stop test still
        // runs after every sweep, so it can fire between exchanges, on a
        // sweep that read a halo up to k − 1 iterations old: what is
        // pinned here is how far from the converged grid that leaves the
        // answer: some ten `tol` relative to the solution's size (1.1e-4
        // and 8.9e-5 at `tol = 1e-5`), where the one-level iteration's
        // own stop leaves it (6.8e-5, 1.1e-4) after 52 and 57 iterations
        // instead of 12 and 21.
        let d = DomainSpec::new(spec(), 4, 4);
        let oracle = OracleSolver::new(spec(), 1e-11);
        let bc = harmonic_bc(&d);
        let run = |comm_every: usize, tol: f64| {
            let res = run_distributed(
                &oracle,
                &d,
                &bc,
                2,
                &DistMfpConfig {
                    max_iters: 3000,
                    tol,
                    comm_every,
                    ..Default::default()
                },
            );
            assert!(res.converged, "comm_every = {comm_every}, tol = {tol}");
            res
        };
        let tight = run(1, 1e-9);
        let scale = tight
            .grid
            .as_slice()
            .iter()
            .fold(0.0_f64, |m, v| m.max(v.abs()));
        for comm_every in [2, 3] {
            let loose = run(comm_every, 1e-5);
            let gap = loose.grid.max_abs_diff(&tight.grid) / scale;
            assert!(
                gap < 3e-4,
                "comm_every = {comm_every}: {gap} from the converged grid"
            );
            let one_level = run_distributed(
                &oracle,
                &d,
                &bc,
                2,
                &DistMfpConfig {
                    max_iters: 3000,
                    tol: 1e-5,
                    comm_every,
                    accelerate: false,
                    ..Default::default()
                },
            );
            assert!(
                loose.iterations < one_level.iterations,
                "comm_every = {comm_every}: {} accelerated vs {} one-level iterations",
                loose.iterations,
                one_level.iterations
            );
        }
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

    /// The schedule Algorithm 2 is written in, kept as the oracle of the
    /// shipping one: sweep all groups → allreduce, judge and mix →
    /// blocking exchange, on the same per-rank state and primitives.
    fn alternating_schedule<S: SubdomainSolver>(rank: &mut Rank<'_, S>) {
        for it in 0..rank.cfg.max_iters {
            rank.begin_iteration(it);
            rank.sweep(Pass::All);
            rank.judge_and_mix();
            if rank.iterations.is_multiple_of(rank.cfg.comm_every) {
                rank.pack_halos();
                let incoming = rank.comm.exchange(&rank.outgoing, it as u64);
                for (cells, (_, data)) in rank.halo_cells.iter().zip(incoming) {
                    unpack_cells(&mut rank.u, cells, &data);
                }
            }
            if rank.stopped {
                break;
            }
        }
    }

    /// Run the shipping driver and the alternating oracle on the same
    /// problem and require identical iterates, convergence trajectory and
    /// iteration count — not just "close". Returns the shipping result.
    fn assert_matches_alternating_oracle<S: SubdomainSolver>(
        solver: &S,
        d: &DomainSpec,
        bc: &Tensor,
        ranks: usize,
        cfg: &DistMfpConfig,
    ) -> DistMfpResult {
        let ship = run_distributed(solver, d, bc, ranks, cfg);
        let alt = run_ranks(solver, d, bc, 0.0, None, ranks, cfg, alternating_schedule).unwrap();
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

        // Communication-avoiding gaps: two of three iterations have
        // nothing in flight and take the full-group sweep.
        let sparse = DistMfpConfig {
            comm_every: 3,
            ..base.clone()
        };
        assert_matches_alternating_oracle(&oracle, &d, &bc, 4, &sparse);

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
                assert_matches_alternating_oracle(&oracle, &domain, &bc, ranks, &cfg);
            }
        }
    }

    #[test]
    #[should_panic(expected = "DistMfpConfig::check_every must be at least 1")]
    fn zero_check_cadence_is_rejected_at_entry() {
        let d = DomainSpec::new(spec(), 2, 2);
        let cfg = DistMfpConfig {
            check_every: 0,
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
    #[should_panic(expected = "DistMfpConfig::comm_every must be at least 1")]
    fn zero_comm_cadence_is_rejected_at_entry() {
        let d = DomainSpec::new(spec(), 2, 2);
        let cfg = DistMfpConfig {
            comm_every: 0,
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
        let p = Partition {
            domain: &d,
            grid: CartesianGrid::square_for(4, RankOrder::RowMajor),
        };
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

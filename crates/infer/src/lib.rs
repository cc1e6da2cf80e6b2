#![warn(missing_docs)]

//! Graph-free compiled inference for SDNet — the MFP hot path.
//!
//! Every Schwarz iteration of the Mosaic Flow Predictor evaluates the same
//! network on the same query points with only the boundary values changing.
//! The autodiff `Graph` pays taping overhead for a forward pass that needs
//! no gradients, and recomputes the query-point half of the input-split
//! layer (eq. 8 of the paper) on every call even though the points are
//! fixed for the lifetime of a solve.
//!
//! [`InferencePlan::compile`] lowers the conv-embed → input-split → MLP
//! pipeline into a flat list of fused layer steps over pooled, reusable
//! workspaces:
//!
//! * **No graph nodes.** The plan is a straight-line register program; the
//!   interpreter is a `for` loop over lowered steps with no tape, no
//!   `Var`s, and no backward metadata.
//! * **No heap allocations on warm calls.** Every intermediate lives in a
//!   buffer checked out of the workspace's
//!   [`BufferPool`] and returned as soon as its
//!   single consumer has read it; after the first (cold) execution every
//!   acquire is a pool hit.
//! * **One kernel call per layer.** `matmul → + bias → activation` is one
//!   [`Backend::layer`](mf_tensor::Backend::layer) call that *overwrites*
//!   its destination (no zero-fill) and finishes each 64-row band — bias,
//!   activation — while it is in L1. Weights are transposed and packed into
//!   the microkernel's panel order ([`PackedB`]) at compile time, so a
//!   launch packs nothing. The input-split combine, its bias and its
//!   activation are one step as well.
//! * **One fan-out per launch.** A launch with enough work is cut into
//!   blocks of whole boundaries and the whole step program runs per block,
//!   each lane of the compute pool ([`mf_tensor::par`]) on its own buffers:
//!   one fork-join per launch, with bias, split-add and activation as
//!   parallel as the GEMMs. Plan rows are independent, so every partition
//!   and pool width produces the same bits.
//! * **Cached invariants.** The normalized/Fourier-encoded query
//!   coordinates and the coordinate half `W_x · X` of the input-split
//!   layer are computed once at compile time and reused by every
//!   execution — each call only pays the boundary-dependent half.
//!
//! Results are **bitwise identical** to the graph path: every element
//! goes through the arithmetic `Graph::eval` would apply to it, in the
//! same order — a fused layer is defined as its unfused composition (the
//! reference body of `Backend::layer`), and the only reordering is the
//! commutative operand swap in the split-layer add, which IEEE-754
//! addition preserves bit-for-bit.
//!
//! Plans are snapshots of the network weights. [`Params`](mf_nn::Params)
//! carries a mutation counter; [`InferencePlan::is_stale`] compares it so
//! callers (e.g. `mf-mfp`'s `PlanSolver`, or the training loop's periodic
//! evaluation) recompile after an optimizer step instead of serving stale
//! weights.

use mf_nn::{EmbeddingKind, SdNet};
use mf_tensor::par::{self, prelude::*};
use mf_tensor::{
    backend, gemm, unfold1d_circular_into, Act, BufferPool, Layout, PackedB, PoolStats, Tensor,
};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

mod cache;

pub use cache::{PlanCache, PointsKey, WorkspacePool};

/// One lowered instruction of a compiled plan. Registers are indices into
/// the per-execution slot table; `weight` indexes the plan's packed weight
/// matrices, `bias` and `cached` its constant tensors.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Copy the caller's `[B, L]` boundary batch into a register.
    Load { dst: usize },
    /// Circular im2col: `[B, L·ic] → [B·L, k·ic]`.
    Unfold {
        src: usize,
        dst: usize,
        channels: usize,
        kernel: usize,
    },
    /// One dense layer, `dst = act(src · weights[weight] + consts[bias])`,
    /// as one [`Backend::layer`](mf_tensor::Backend::layer) call. `dst`
    /// holds the `[rows, n]` result under whatever shape the next step
    /// reads it in (the conv embedding's `[B·len, oc] → [B, len·oc]` is the
    /// same memory).
    Layer {
        src: usize,
        weight: usize,
        bias: Option<usize>,
        act: Act,
        dst: usize,
    },
    /// The input-split layer's combine, bias and activation:
    /// `dst[b·q + r] = act((consts[cached][r] + src[b]) + consts[bias])` —
    /// the cached `W_x · X` rows plus the per-boundary projection,
    /// replacing the graph's `repeat_rows` + `add` + bias + activation.
    Split {
        src: usize,
        cached: usize,
        bias: usize,
        act: Act,
        dst: usize,
    },
    /// Copy the final register into the caller's output buffer.
    Store { src: usize },
}

/// Shape of a register: `rows_per_b * B` rows × `cols` columns, so one
/// plan serves any batch size.
#[derive(Clone, Copy, Debug)]
struct RegShape {
    rows_per_b: usize,
    cols: usize,
}

/// Blocks a fanned-out launch is cut into per lane. Measured on the
/// reference host (2 cores, 3×48 trunk, B = 64, p25 of 300 launches on two
/// lanes, in a period when both cores were the process's own), with the
/// fused-multiply-add kernels: 1 / 2 / 4 / 8 / 16 blocks per lane run a
/// cross launch in 184 / 187 / 194 / 207 / 233 µs and a dense one in 681 /
/// 683 / 686 / 693 / 759 µs. A block costs its zone timers and buffer
/// checkouts, which the faster kernels made a larger share: finer blocks now
/// lose 4 % / 11 % / 25 % on the cross launch (1–2 % per doubling before)
/// and win nothing. Two cost 1 % against one and bound what a lane that
/// joins late or is descheduled can hold up to a quarter of the launch.
const BLOCKS_PER_LANE: usize = 2;

/// GEMM multiply-adds below which a block is not worth handing to another
/// lane. Measured on the reference host with the fused-multiply-add
/// kernels, a cross launch split in two against the same launch whole, at
/// 202 k / 269 k / 404 k / 538 k / 673 k / 808 k / 1 077 k / 1 346 k
/// multiply-adds in total: ×1.06 / ×0.98 / ×1.48 / ×1.77 / ×1.67 / ×1.23 /
/// ×1.74 / ×1.82 when the worker is still polling (back-to-back launches),
/// ×0.60 / ×0.64 / ×0.72 / ×0.79 / ×0.93 / ×0.99 / ×1.16 / ×1.21 when it has
/// parked (300 µs of caller-only work in between). Waking it still costs the
/// caller about 35 µs on this VM, but at the fused kernels' 12 multiply-adds
/// per ns on one lane that is now 420 k of them, so the parked case breaks
/// even at two blocks of 400 k, no longer of 250 k. The value stays where a
/// polling worker starts to win clearly: launches come from MFP solves,
/// whose sweeps follow one another within the worker's polling window
/// (`mfp.iter_ms` is its four launches to 1–6 %), so a solve meets the
/// parked case on its first launch only — where two blocks of this size
/// cost it 12 µs (58.8 against 46.3) — and the polling case, ×1.77 here,
/// on every launch after that.
const MIN_BLOCK_MACS: usize = 250_000;

/// One lane's execution scratch: the buffers and register table of the
/// blocks that lane runs.
#[derive(Debug)]
struct Lane {
    pool: BufferPool,
    /// Register table of the block being run; all `None` between blocks.
    slots: Vec<Option<Tensor>>,
    warmed: bool,
    warm_allocs: u64,
}

/// Reusable execution scratch: one buffer pool per lane of the compute
/// pool, plus warm-allocation accounting. One workspace serves one
/// launch at a time; executions after a lane's first block reuse all of
/// that lane's buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Indexed by [`par::lane`]. A lane is only ever locked by the one
    /// thread running that lane's blocks, so the locks never contend.
    lanes: Vec<Mutex<Lane>>,
    /// Warm misses already added to the `infer.warm_allocs` counter.
    reported: u64,
}

impl Workspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_lanes(&mut self, lanes: usize) {
        while self.lanes.len() < lanes {
            self.lanes.push(Mutex::new(Lane {
                pool: BufferPool::new(),
                slots: Vec::new(),
                warmed: false,
                warm_allocs: 0,
            }));
        }
    }

    fn lanes(&self) -> impl Iterator<Item = std::sync::MutexGuard<'_, Lane>> {
        self.lanes
            .iter()
            .map(|l| l.lock().expect("a plan block panicked on this lane"))
    }

    /// Pool misses observed on *warm* blocks (anything after a lane's
    /// first). Zero means the plan is running allocation-free.
    pub fn warm_allocs(&self) -> u64 {
        self.lanes().map(|l| l.warm_allocs).sum()
    }

    /// Buffer-pool statistics, summed over the lanes.
    pub fn pool_stats(&self) -> PoolStats {
        self.lanes().fold(PoolStats::default(), |acc, l| {
            let s = l.pool.stats();
            PoolStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                miss_bytes: acc.miss_bytes + s.miss_bytes,
                released: acc.released + s.released,
            }
        })
    }
}

/// A forward-only compiled execution plan for one [`SdNet`] and one fixed
/// set of query points. See the crate docs for the contract.
#[derive(Clone, Debug)]
pub struct InferencePlan {
    steps: Vec<Step>,
    regs: Vec<RegShape>,
    consts: Vec<Tensor>,
    /// Weight matrices, transposed to `k×n` and packed once.
    weights: Vec<PackedB>,
    boundary_len: usize,
    q: usize,
    /// GEMM multiply-adds one boundary costs.
    macs_per_boundary: usize,
    params_version: u64,
}

impl InferencePlan {
    /// Whether a network can be lowered: the plan implements the paper's
    /// input-split embedding (the `Concat` baseline stays on the graph
    /// path).
    pub fn supports(net: &SdNet) -> bool {
        net.config().embedding == EmbeddingKind::Split
    }

    /// Lower `net` for the fixed query points `points` (`[q, 2]` local
    /// physical coordinates, shared by every boundary in a batch).
    ///
    /// Compilation pre-transposes every weight matrix, normalizes and
    /// Fourier-encodes the coordinates, and computes the `W_x · X` half of
    /// the input-split layer — all the work that does not depend on
    /// boundary values. Compile-time allocation is unrestricted; the
    /// resulting plan executes without heap allocation on a warm
    /// [`Workspace`].
    ///
    /// # Panics
    /// If the network uses the `Concat` embedding (check
    /// [`InferencePlan::supports`] first) or `points` is not `[q, 2]`.
    pub fn compile(net: &SdNet, points: &Tensor) -> Self {
        let cfg = net.config();
        assert!(
            Self::supports(net),
            "InferencePlan: only the input-split embedding is supported"
        );
        assert_eq!(points.cols(), 2, "InferencePlan: points must be [q, 2]");
        let q = points.rows();
        let l = cfg.boundary_len;

        let mut consts: Vec<Tensor> = Vec::new();
        let mut weights: Vec<PackedB> = Vec::new();
        let mut regs: Vec<RegShape> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let push_const = |consts: &mut Vec<Tensor>, t: &Tensor| {
            consts.push(t.clone());
            consts.len() - 1
        };
        // Parameters store `[out, in]`; the kernels multiply by `[in, out]`.
        let push_weight = |weights: &mut Vec<PackedB>, w: &Tensor| {
            weights.push(PackedB::new(&w.transpose()));
            weights.len() - 1
        };
        let push_reg = |regs: &mut Vec<RegShape>, rows_per_b: usize, cols: usize| {
            regs.push(RegShape { rows_per_b, cols });
            regs.len() - 1
        };
        let act = cfg.activation.kernel();

        // Cached invariant #1: normalized + Fourier-encoded coordinates.
        let base = points
            .add_scalar(-0.5 * cfg.coord_extent)
            .scale(2.0 / cfg.coord_extent);
        let mut feats = base.clone();
        for j in 0..cfg.coord_fourier {
            let freq = std::f64::consts::PI * (1 << j) as f64;
            let scaled = base.scale(freq);
            let s = scaled.map(f64::sin);
            let c = scaled.map(f64::cos);
            feats = feats.concat_cols(&s);
            feats = feats.concat_cols(&c);
        }
        // Cached invariant #2: the coordinate half of the split layer.
        let (wg_id, wx_id, b0_id) = net.split_params();
        let hx = gemm(
            &feats,
            Layout::Normal,
            net.params.get(wx_id),
            Layout::Transposed,
        );
        let hx_c = push_const(&mut consts, &hx);

        // Boundary load + conv embedding.
        let mut cur = push_reg(&mut regs, 1, l);
        steps.push(Step::Load { dst: cur });
        let n_convs = net.convs().len();
        for (i, conv) in net.convs().iter().enumerate() {
            let (ic, oc, k) = (conv.in_channels(), conv.out_channels(), conv.kernel());
            let len = regs[cur].cols / ic;
            let u = push_reg(&mut regs, len, k * ic);
            steps.push(Step::Unfold {
                src: cur,
                dst: u,
                channels: ic,
                kernel: k,
            });
            // The `[B·len, oc]` product is read as `[B, len·oc]` from here
            // on. Nonlinearity between conv layers only (the final
            // embedding stays linear so the split == concat algebra holds).
            let y = push_reg(&mut regs, 1, len * oc);
            steps.push(Step::Layer {
                src: u,
                weight: push_weight(&mut weights, net.params.get(conv.weight())),
                bias: conv
                    .bias()
                    .map(|b| push_const(&mut consts, net.params.get(b))),
                act: if i + 1 < n_convs { act } else { Act::Identity },
                dst: y,
            });
            cur = y;
        }

        // Input-split layer: per-boundary projection + cached W_x·X.
        let d0 = cfg.hidden[0];
        let hg = push_reg(&mut regs, 1, d0);
        steps.push(Step::Layer {
            src: cur,
            weight: push_weight(&mut weights, net.params.get(wg_id)),
            bias: None,
            act: Act::Identity,
            dst: hg,
        });
        let h = push_reg(&mut regs, q, d0);
        steps.push(Step::Split {
            src: hg,
            cached: hx_c,
            bias: push_const(&mut consts, net.params.get(b0_id)),
            act,
            dst: h,
        });
        cur = h;

        // Dense trunk (activated) + scalar head (not).
        let head = std::iter::once((net.head(), Act::Identity));
        for (lin, act) in net.trunk().iter().map(|lin| (lin, act)).chain(head) {
            let y = push_reg(&mut regs, q, lin.out_dim());
            steps.push(Step::Layer {
                src: cur,
                weight: push_weight(&mut weights, net.params.get(lin.weight())),
                bias: lin
                    .bias()
                    .map(|b| push_const(&mut consts, net.params.get(b))),
                act,
                dst: y,
            });
            cur = y;
        }
        steps.push(Step::Store { src: cur });

        let macs_per_boundary = steps
            .iter()
            .map(|step| match *step {
                Step::Layer { src, weight, .. } => {
                    regs[src].rows_per_b * weights[weight].k() * weights[weight].n()
                }
                _ => 0,
            })
            .sum();
        Self {
            steps,
            regs,
            consts,
            weights,
            boundary_len: l,
            q,
            macs_per_boundary,
            params_version: net.params.version(),
        }
    }

    /// Points per boundary this plan was compiled for.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Boundary walk length this plan expects.
    pub fn boundary_len(&self) -> usize {
        self.boundary_len
    }

    /// Number of lowered instructions (for introspection and tests).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// The [`Params`](mf_nn::Params) mutation-counter value the plan was
    /// compiled against.
    pub fn params_version(&self) -> u64 {
        self.params_version
    }

    /// True when the network's parameters have (possibly) changed since
    /// compilation and the plan must be rebuilt before its results can be
    /// trusted.
    pub fn is_stale(&self, net: &SdNet) -> bool {
        net.params.version() != self.params_version
    }

    /// Execute the plan on a `[B, L]` boundary batch, writing the
    /// `[B·q, 1]` predictions into `out`. Allocation-free once `ws` is
    /// warm.
    ///
    /// A launch with enough work is cut into blocks of whole boundaries —
    /// two per lane the calling thread may use — and the
    /// *entire* step program runs per block: one fan-out on the compute
    /// pool per launch, every step parallel and not only the GEMMs, each
    /// lane on its own buffers. On a thread whose kernels stay inline (a
    /// rank of a cluster) the launch is one block. Rows of a plan are
    /// independent, so the output is bitwise the same for every block
    /// partition and every pool width.
    ///
    /// # Panics
    /// On boundary/output shape mismatch.
    pub fn execute_into(&self, ws: &mut Workspace, boundaries: &Tensor, out: &mut Tensor) {
        let b = boundaries.rows();
        assert_eq!(
            boundaries.cols(),
            self.boundary_len,
            "InferencePlan: boundary length mismatch (expected {}, got {})",
            self.boundary_len,
            boundaries.cols()
        );
        assert_eq!(
            out.shape(),
            (b * self.q, 1),
            "InferencePlan: output must be [B·q, 1]"
        );
        if out.numel() == 0 {
            return;
        }
        // Whole-launch attribution; the per-kernel zones nest inside on
        // the lane that runs the block.
        mf_profile::zone!("plan_launch");
        let t0 = Instant::now();
        let blocks = self.launch_blocks(b);
        self.execute_blocks(ws, boundaries, out.as_mut_slice(), b.div_ceil(blocks));

        // Registry lookups lock a process-wide mutex; resolve the handles
        // once instead of on every launch.
        static WARM_ALLOCS: OnceLock<mf_telemetry::Counter> = OnceLock::new();
        static PTS_PER_S: OnceLock<mf_telemetry::Gauge> = OnceLock::new();
        // Lanes count their own misses; the counter is this thread's.
        let warm = ws.warm_allocs();
        if warm > ws.reported {
            WARM_ALLOCS
                .get_or_init(|| mf_telemetry::counter("infer.warm_allocs"))
                .add(warm - ws.reported);
            ws.reported = warm;
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt > 0.0 {
            PTS_PER_S
                .get_or_init(|| mf_telemetry::gauge("infer.pts_per_s"))
                .set((b * self.q) as f64 / dt);
        }
    }

    /// Blocks [`InferencePlan::execute_into`] cuts a launch of `b ≥ 1`
    /// boundaries into when called from this thread: 1 unless the thread
    /// may fan out and the launch has the work for it (for introspection
    /// and tests, like [`InferencePlan::num_steps`]).
    pub fn launch_blocks(&self, b: usize) -> usize {
        // Blocks only count when there is a second lane to give them to.
        let lanes = par::lanes();
        if lanes > 1 {
            (lanes * BLOCKS_PER_LANE)
                .min(b * self.macs_per_boundary / MIN_BLOCK_MACS)
                .clamp(1, b)
        } else {
            1
        }
    }

    /// Convenience wrapper around [`InferencePlan::execute_into`] that
    /// allocates the `[B·q, 1]` output.
    pub fn execute(&self, ws: &mut Workspace, boundaries: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(boundaries.rows() * self.q, 1);
        self.execute_into(ws, boundaries, &mut out);
        out
    }

    /// Run the launch in blocks of `block` boundaries (the last may be
    /// shorter); several blocks are one fan-out.
    fn execute_blocks(
        &self,
        ws: &mut Workspace,
        boundaries: &Tensor,
        out: &mut [f64],
        block: usize,
    ) {
        if boundaries.rows() <= block {
            ws.ensure_lanes(1);
            let lane = ws.lanes[0]
                .get_mut()
                .expect("a plan block panicked on this lane");
            return self.run_block(lane, block, boundaries.as_slice(), out);
        }
        // Lanes that can take part: the caller's (0) and the workers its
        // budget lets join (`par::lane() < par::lanes()` inside the call).
        ws.ensure_lanes(par::lanes());
        let lanes = &ws.lanes;
        let l = self.boundary_len;
        out.par_chunks_mut(block * self.q)
            .enumerate()
            .for_each(|(bi, out_block)| {
                let nb = out_block.len() / self.q;
                let rows = &boundaries.as_slice()[bi * block * l..][..nb * l];
                let mut lane = lanes[par::lane()]
                    .lock()
                    .expect("a plan block panicked on this lane");
                self.run_block(&mut lane, block, rows, out_block);
                // A worker lane has no loop of its own to publish its
                // kernel zones from: it does so before the block counts as
                // done, so they are visible when the launch returns.
                if par::lane() > 0 {
                    mf_telemetry::publish_lane(par::lane());
                }
            });
        par::publish_thread_spawns();
    }

    /// The step program over one block: `boundaries` is `[nb, L]` packed,
    /// `out` its `[nb·q]` predictions, `nb ≤ block`. Buffers come from the
    /// size class of a full block, so a lane that has run one block of
    /// this plan runs every later one — full or short — without a miss.
    fn run_block(&self, lane: &mut Lane, block: usize, boundaries: &[f64], out: &mut [f64]) {
        let nb = boundaries.len() / self.boundary_len;
        let miss0 = lane.pool.stats().misses;
        let Lane { pool, slots, .. } = lane;
        slots.resize_with(self.regs.len(), || None);
        // Register buffer with unspecified contents, for steps that
        // overwrite every element.
        let acquire = |pool: &mut BufferPool, reg: usize| {
            let RegShape { rows_per_b, cols } = self.regs[reg];
            pool.acquire_dirty_with_capacity(rows_per_b * nb, cols, rows_per_b * block * cols)
        };
        for step in &self.steps {
            match *step {
                Step::Load { dst } => {
                    let mut t = acquire(pool, dst);
                    t.as_mut_slice().copy_from_slice(boundaries);
                    slots[dst] = Some(t);
                }
                Step::Unfold {
                    src,
                    dst,
                    channels,
                    kernel,
                } => {
                    mf_profile::zone!("unfold");
                    let s = slots[src].take().expect("register consumed twice");
                    let mut d = acquire(pool, dst);
                    unfold1d_circular_into(&s, channels, kernel, &mut d);
                    pool.release(s);
                    slots[dst] = Some(d);
                }
                Step::Layer {
                    src,
                    weight,
                    bias,
                    act,
                    dst,
                } => {
                    mf_profile::zone!("layer");
                    let s = slots[src].take().expect("register consumed twice");
                    let mut d = acquire(pool, dst);
                    // Backend-dispatched, and on either backend equal to
                    // the kernel sequence the graph's eval_live runs, so
                    // plan-vs-graph stays bitwise.
                    backend().layer(
                        s.as_slice(),
                        &self.weights[weight],
                        bias.map(|b| self.consts[b].as_slice()),
                        act,
                        d.as_mut_slice(),
                    );
                    pool.release(s);
                    slots[dst] = Some(d);
                }
                Step::Split {
                    src,
                    cached,
                    bias,
                    act,
                    dst,
                } => {
                    mf_profile::zone!("split_add");
                    let s = slots[src].take().expect("register consumed twice");
                    let mut d = acquire(pool, dst);
                    let hx = &self.consts[cached];
                    let bias = self.consts[bias].as_slice();
                    let d0 = hx.cols();
                    let be = backend();
                    // One boundary's q rows at a time: summed, biased and
                    // activated while they are in L1.
                    for (g, o) in s
                        .as_slice()
                        .chunks_exact(d0)
                        .zip(d.as_mut_slice().chunks_exact_mut(hx.numel()))
                    {
                        for (orow, xrow) in
                            o.chunks_exact_mut(d0).zip(hx.as_slice().chunks_exact(d0))
                        {
                            for (((ov, &x), &gg), &b) in orow.iter_mut().zip(xrow).zip(g).zip(bias)
                            {
                                *ov = (x + gg) + b;
                            }
                        }
                        be.activate(act, o);
                    }
                    pool.release(s);
                    slots[dst] = Some(d);
                }
                Step::Store { src } => {
                    let s = slots[src].take().expect("register consumed twice");
                    out.copy_from_slice(s.as_slice());
                    pool.release(s);
                }
            }
        }
        debug_assert!(slots.iter().all(Option::is_none), "leaked plan register");

        let misses = lane.pool.stats().misses - miss0;
        if lane.warmed {
            lane.warm_allocs += misses;
        } else {
            lane.warmed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_nn::{Activation, SdNetConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn tiled(points: &Tensor, b: usize) -> Tensor {
        let mut v = Vec::with_capacity(b * points.numel());
        for _ in 0..b {
            v.extend_from_slice(points.as_slice());
        }
        Tensor::from_vec(b * points.rows(), 2, v)
    }

    fn random_case(cfg: SdNetConfig, seed: u64, b: usize, q: usize) -> (SdNet, Tensor, Tensor) {
        let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut rng = ChaCha8Rng::seed_from_u64(seed + 1);
        let l = net.config().boundary_len;
        let bounds = Tensor::from_fn(b, l, |_, _| rng.gen_range(-1.0..1.0));
        let extent = net.config().coord_extent;
        let pts = Tensor::from_fn(q, 2, |_, _| rng.gen_range(0.0..extent));
        (net, bounds, pts)
    }

    fn assert_bitwise(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "row {i}: plan {y} vs graph {x} differ in bits"
            );
        }
    }

    #[test]
    fn matches_graph_path_bitwise_across_architectures() {
        let mut base = SdNetConfig::small(16);
        base.conv_channels = vec![2];
        base.hidden = vec![12, 12];
        let mut fourier = base.clone();
        fourier.coord_fourier = 4;
        let mut no_conv = base.clone();
        no_conv.conv_channels = vec![];
        let mut tanh = base.clone();
        tanh.activation = Activation::Tanh;
        let mut identity = base.clone();
        identity.activation = Activation::Identity;
        let mut deep = base.clone();
        deep.conv_channels = vec![3, 2];
        deep.hidden = vec![10, 8, 6];
        let mut single = base.clone();
        single.hidden = vec![9];

        for (i, cfg) in [base, fourier, no_conv, tanh, identity, deep, single]
            .into_iter()
            .enumerate()
        {
            let (net, bounds, pts) = random_case(cfg, 100 + i as u64, 3, 7);
            let plan = InferencePlan::compile(&net, &pts);
            let mut ws = Workspace::new();
            let got = plan.execute(&mut ws, &bounds);
            let want = net.predict(&bounds, &tiled(&pts, 3), 7);
            assert_bitwise(&want, &got);
        }
    }

    /// The benchmark network lowers to one step per layer: nothing is left
    /// of the unfused `Gemm → AddBias → [Reshape] → Activation` chains.
    #[test]
    fn every_layer_lowers_to_one_fused_step() {
        let mut cfg = SdNetConfig::small(32);
        cfg.conv_channels = vec![4];
        cfg.hidden = vec![48, 48, 48];
        let (net, _, pts) = random_case(cfg, 9, 1, 13);
        let plan = InferencePlan::compile(&net, &pts);
        let kinds: Vec<&str> = plan
            .steps
            .iter()
            .map(|s| match s {
                Step::Load { .. } => "load",
                Step::Unfold { .. } => "unfold",
                Step::Layer { .. } => "layer",
                Step::Split { .. } => "split",
                Step::Store { .. } => "store",
            })
            .collect();
        assert_eq!(
            kinds,
            ["load", "unfold", "layer", "layer", "split", "layer", "layer", "layer", "store"]
        );
        // conv [32,5]×[5,4], projection [1,128]×[128,48], two trunk layers
        // and the head over the 13 cross points.
        assert_eq!(
            plan.macs_per_boundary,
            32 * 5 * 4 + 128 * 48 + 2 * 13 * 48 * 48 + 13 * 48
        );
        // Only the trunk (and the split combine) carries the nonlinearity.
        let acts: Vec<Act> = plan
            .steps
            .iter()
            .filter_map(|s| match *s {
                Step::Layer { act, .. } | Step::Split { act, .. } => Some(act),
                _ => None,
            })
            .collect();
        assert_eq!(
            acts,
            [
                Act::Identity,
                Act::Identity,
                Act::Gelu,
                Act::Gelu,
                Act::Gelu,
                Act::Identity
            ]
        );
    }

    #[test]
    fn warm_calls_hit_the_pool_only() {
        let mut cfg = SdNetConfig::small(16);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![12, 12];
        cfg.coord_fourier = 4;
        let (net, bounds, pts) = random_case(cfg, 7, 4, 9);
        let plan = InferencePlan::compile(&net, &pts);
        let mut ws = Workspace::new();
        let mut out = Tensor::zeros(4 * 9, 1);
        plan.execute_into(&mut ws, &bounds, &mut out); // cold
        for _ in 0..10 {
            plan.execute_into(&mut ws, &bounds, &mut out);
        }
        assert_eq!(ws.warm_allocs(), 0, "warm executions must not allocate");
        assert!(ws.pool_stats().hits > 0);
    }

    /// A fat launch on a private pool of `width` lanes, repeated so that
    /// every lane gets blocks: output and the workspace's warm misses.
    fn fat_launch_at_width(width: usize) -> (Tensor, u64) {
        let mut cfg = SdNetConfig::small(16);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![48, 48];
        let (net, bounds, pts) = random_case(cfg, 21, 64, 13);
        let plan = InferencePlan::compile(&net, &pts);
        assert!(
            64 * plan.macs_per_boundary >= 8 * MIN_BLOCK_MACS,
            "wide enough to fan out"
        );
        par::with_pool_width(width, || {
            let mut ws = Workspace::new();
            let mut out = Tensor::zeros(64 * 13, 1);
            for _ in 0..20 {
                plan.execute_into(&mut ws, &bounds, &mut out);
            }
            (out, ws.warm_allocs())
        })
    }

    #[test]
    fn fat_launch_is_bitwise_equal_and_warm_at_every_pool_width() {
        let (want, warm) = fat_launch_at_width(1);
        assert_eq!(warm, 0);
        for width in [2, 4] {
            let (got, warm) = fat_launch_at_width(width);
            assert_bitwise(&want, &got);
            assert_eq!(warm, 0, "width {width}: a warm lane allocated");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// Rows of a plan are independent: every partition of a launch
        /// into blocks of whole boundaries gives the same bits, fanned
        /// out or not, and matches the graph path.
        #[test]
        fn every_block_partition_gives_the_same_bits(
            b in 1usize..24,
            block in 1usize..24,
            width in 1usize..4,
            seed in 0u64..1000,
        ) {
            let mut cfg = SdNetConfig::small(16);
            cfg.conv_channels = vec![2];
            cfg.hidden = vec![12, 12];
            let (net, bounds, pts) = random_case(cfg, seed, b, 7);
            let plan = InferencePlan::compile(&net, &pts);
            let want = net.predict(&bounds, &tiled(&pts, b), 7);
            let mut got = Tensor::zeros(b * 7, 1);
            par::with_pool_width(width, || {
                let mut ws = Workspace::new();
                plan.execute_blocks(&mut ws, &bounds, got.as_mut_slice(), block);
            });
            assert_bitwise(&want, &got);
        }
    }

    #[test]
    fn one_plan_serves_multiple_batch_sizes() {
        let mut cfg = SdNetConfig::small(12);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![8, 8];
        let (net, _, pts) = random_case(cfg, 11, 1, 5);
        let plan = InferencePlan::compile(&net, &pts);
        let mut ws = Workspace::new();
        for b in [1usize, 3, 8] {
            let mut rng = ChaCha8Rng::seed_from_u64(b as u64);
            let bounds = Tensor::from_fn(b, 12, |_, _| rng.gen_range(-1.0..1.0));
            let got = plan.execute(&mut ws, &bounds);
            let want = net.predict(&bounds, &tiled(&pts, b), 5);
            assert_bitwise(&want, &got);
        }
    }

    #[test]
    fn staleness_tracks_parameter_mutations() {
        let mut cfg = SdNetConfig::small(12);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![8];
        let (mut net, bounds, pts) = random_case(cfg, 3, 2, 4);
        let plan = InferencePlan::compile(&net, &pts);
        assert!(!plan.is_stale(&net));
        // Mutate a weight the way an optimizer step would.
        for t in net.params.tensors_mut() {
            t.as_mut_slice().iter_mut().for_each(|v| *v *= 0.5);
        }
        assert!(plan.is_stale(&net));
        // A recompiled plan agrees with the new weights.
        let plan2 = InferencePlan::compile(&net, &pts);
        assert!(!plan2.is_stale(&net));
        let mut ws = Workspace::new();
        let got = plan2.execute(&mut ws, &bounds);
        let want = net.predict(&bounds, &tiled(&pts, 2), 4);
        assert_bitwise(&want, &got);
    }

    #[test]
    fn rejects_concat_embedding() {
        let mut cfg = SdNetConfig::small(12);
        cfg.embedding = EmbeddingKind::Concat;
        let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
        assert!(!InferencePlan::supports(&net));
    }

    #[test]
    #[should_panic(expected = "boundary length mismatch")]
    fn rejects_wrong_boundary_width() {
        let mut cfg = SdNetConfig::small(12);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![8];
        let (net, _, pts) = random_case(cfg, 5, 2, 4);
        let plan = InferencePlan::compile(&net, &pts);
        let mut ws = Workspace::new();
        let _ = plan.execute(&mut ws, &Tensor::zeros(2, 10));
    }
}

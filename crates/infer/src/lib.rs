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
//! pipeline into a flat list of fused layer steps over reusable
//! workspaces, evaluating per launch only the points each boundary takes
//! ([`InferencePlan::execute_subset_into`]):
//!
//! * **No graph nodes.** The plan is a straight-line register program; the
//!   interpreter is a `for` loop over lowered steps with no tape, no
//!   `Var`s, and no backward metadata.
//! * **No heap allocations on warm calls.** Each step reads the register
//!   the step before it wrote, so a lane holds two `f32` registers and the
//!   steps write them in turn, each cut to its step's exact length. The
//!   plan knows its widest register per boundary, so a lane whose
//!   registers have held a block of `N` boundaries runs every block of at
//!   most `N` without growing them. [`Workspace::reserve`] sizes every
//!   lane's registers for the largest launch a caller expects before the
//!   first one arrives, and runs nothing.
//! * **One kernel call per layer.** `matmul → + bias → activation` is one
//!   [`Backend::layer`](mf_tensor::Backend::layer) call that *overwrites*
//!   its destination (no zero-fill) and finishes each 64-row band — bias,
//!   activation — while it is in L1. Weights are transposed and packed into
//!   the microkernel's panel order ([`PackedB`]) at compile time, so a
//!   launch packs nothing. The input-split combine, its bias and its
//!   activation are one step as well, and the embedding's linear tail —
//!   the last conv and the split projection — is one layer, folded at
//!   compile time.
//! * **`f32` registers.** Weights, cached constants and every register are
//!   `f32`: the `Load` step rounds the caller's `f64` boundaries, the
//!   `Store` step widens the predictions back, and everything between runs
//!   at twice the lanes per vector instruction and half the bytes. The
//!   caller's side — the MFP lattice, its stop test and mixing — stays
//!   `f64`.
//! * **One fan-out per launch.** A launch with enough work is cut into
//!   blocks of whole boundaries and the whole step program runs per block,
//!   each lane of the compute pool ([`mf_tensor::par`]) on its own buffers:
//!   one fork-join per launch, with bias, split-add and activation as
//!   parallel as the GEMMs. Plan rows are independent, so every partition
//!   and pool width produces the same bits.
//! * **Cached invariants.** The normalized/Fourier-encoded query
//!   coordinates and the coordinate half `W_x · X` of the input-split
//!   layer are computed once at compile time (in `f64`, then rounded) and
//!   reused by every execution — each call only pays the
//!   boundary-dependent half.
//!
//! Two contracts hold the plan. Against **itself** it is bitwise: every
//! row is the same chain of `f32` kernels whatever block, batch, pool
//! width or rank it runs in, and whatever subset of its points a boundary
//! takes ([`Subset`]), so batched serving equals solving alone, `run_many`
//! equals `run` and a sweep of live points equals one of full crosses.
//! Against the **`f64` graph** (`SdNet::predict`, which training and
//! validation run) it is within
//! [`InferencePlan::graph_error_bound`] on every output of a launch: a
//! first-order running error bound of the `f32` chain, replayed element by
//! element in `f64`. What that costs a whole MFP
//! solve — iterations, fixed point, accuracy against multigrid — is pinned
//! per boundary on the benchmark network by `tests/precision.rs`.
//!
//! Plans are snapshots of the network weights: Mosaic Flow solves by
//! inference with one pre-trained SDNet, and every caller (e.g. `mf-mfp`'s
//! `PlanSolver`) owns its network immutably, so a plan never goes stale.

use mf_nn::SdNet;
use mf_tensor::par::{self, prelude::*};
use mf_tensor::{backend, gemm, unfold1d_windows, Act, Layout, PackedB, PoolStats, Tensor};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

mod cache;

pub use cache::{PlanCache, PointsKey, WorkspacePool};

/// Which of a plan's `q` shared points each boundary of a launch takes.
///
/// A launch's output keeps the `[B·q, 1]` shape either way: boundary `b`'s
/// points fill the head of its `q`-row block, in the order listed, and the
/// rows after them are left as they were.
#[derive(Clone, Copy, Debug, Default)]
pub enum Subset<'a> {
    /// Every boundary takes all `q` points, in order.
    #[default]
    All,
    /// Boundary `b` takes the ascending point indices
    /// `sets[b % sets.len()]`, so a launch that stacks the same windows
    /// for several requests names each window's points once.
    Cycle(&'a [Vec<usize>]),
}

impl<'a> Subset<'a> {
    /// The points boundary `b` takes; `None` for all of them.
    pub fn of(&self, b: usize) -> Option<&'a [usize]> {
        match self {
            Subset::All => None,
            Subset::Cycle(sets) => Some(&sets[b % sets.len()]),
        }
    }

    /// How many of its `q` points boundary `b` takes.
    pub fn count(&self, b: usize, q: usize) -> usize {
        self.of(b).map_or(q, <[usize]>::len)
    }

    /// Points a launch of boundaries `range` takes in all.
    pub fn total(&self, range: std::ops::Range<usize>, q: usize) -> usize {
        range.map(|b| self.count(b, q)).sum()
    }

    /// Turn `out`, all `q` points of each boundary, into the subset's
    /// layout: each boundary's taken points moved, in order, to the head
    /// of its block. What a solver that computes every point does.
    pub fn compact(&self, out: &mut [f64], q: usize) {
        if let Subset::Cycle(_) = self {
            for (b, block) in out.chunks_exact_mut(q).enumerate() {
                for (i, &p) in self.of(b).into_iter().flatten().enumerate() {
                    // Ascending indices: `p ≥ i` is still unmoved.
                    debug_assert!(p >= i && p < q, "subset indices must ascend below q");
                    block[i] = block[p];
                }
            }
        }
    }
}

/// One lowered instruction of a compiled plan. Each step reads `src`, the
/// register the step before it wrote, and writes `dst`; `weight` indexes
/// the plan's packed weight matrices, `bias` and `cached` its constant
/// vectors.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Round the caller's `[B, L]` boundary batch to `f32`.
    Load,
    /// Circular im2col: `[B, L·ic] → [B·L, k·ic]`.
    Unfold { channels: usize, kernel: usize },
    /// One dense layer, `dst = act(src · weights[weight] + consts[bias])`,
    /// as one [`Backend::layer`](mf_tensor::Backend::layer) call. `dst`
    /// holds the `[rows, n]` result under whatever shape the next step
    /// reads it in (the conv embedding's `[B·len, oc] → [B, len·oc]` is the
    /// same memory).
    Layer {
        weight: usize,
        bias: Option<usize>,
        act: Act,
    },
    /// The input-split layer's combine, bias and activation:
    /// `dst[b·q + r] = act((consts[cached][r] + src[b]) + consts[bias])` —
    /// the cached `W_x · X` rows plus the per-boundary projection,
    /// replacing the graph's `repeat_rows` + `add` + bias + activation.
    Split {
        cached: usize,
        bias: usize,
        act: Act,
    },
    /// Widen the last register into the caller's `f64` output buffer.
    Store,
}

/// Shape of a register: `rows_per_b * B` rows × `cols` columns, so one
/// plan serves any batch size. A register from the split on holds one row
/// per point a boundary takes: `rows_per_b` is `q` there, its most.
#[derive(Clone, Copy, Debug)]
struct RegShape {
    rows_per_b: usize,
    per_point: bool,
    cols: usize,
}

impl RegShape {
    /// Rows in a block of `nb` boundaries that take `np` points in all.
    fn rows(&self, nb: usize, np: usize) -> usize {
        if self.per_point {
            np
        } else {
            self.rows_per_b * nb
        }
    }
}

/// Blocks a fanned-out launch is cut into per lane. Measured on the
/// reference host (2 cores, 3×48 trunk, B = 64, `f32` kernels, two lanes),
/// interleaving the settings within each of 40 rounds, four runs: 2 blocks
/// per lane cost the cross launch 0.5–2.5 % of its median against 1, and
/// 4 / 8 / 16 cost 3–8 / 7–16 / 19–38 %, back to back; after 300 µs of
/// caller-only work (the worker parked) 2 read −3 … +4 %. On the dense
/// launch 2 cost nothing in the median and trimmed its p90 by 2–9 % (901 →
/// 881, 950 → 861 µs back to back): with two blocks a lane that joins late
/// or is descheduled holds up a quarter of the launch, not half. The
/// per-block zone timers (and, when this was measured, per-step buffer
/// checkouts) are why finer blocks lose.
const BLOCKS_PER_LANE: usize = 2;

/// GEMM multiply-adds below which a block is not worth handing to another
/// lane. Measured on the reference host with the `f32` kernels, a cross
/// launch split in two against the same launch whole, interleaved over 40
/// rounds, median of four runs, at 201 k / 269 k / 403 k / 538 k / 673 k /
/// 807 k / 1 076 k / 1 346 k multiply-adds in total: ×1.22 / ×1.00 / ×1.22
/// / ×1.21 / ×1.21 / ×1.26 / ×1.30 / ×1.35 when the worker is still polling
/// (back-to-back launches), ×0.80 / ×0.75 / ×0.83 / ×0.90 / ×0.96 / ×0.90 /
/// ×1.16 / ×1.18 when it has parked (300 µs of caller-only work in
/// between). Waking it costs the caller about 35 µs, which the `f32`
/// kernels fill with about twice the multiply-adds the `f64` ones did, so
/// the parked case now breaks even near 1 M (400 k in `f64`). The value
/// stays where a polling worker wins clearly, about ×1.2 from 200 k on (in
/// `f64`, from 250 k): launches come from MFP solves and served batches,
/// whose sweeps follow one another within the worker's polling window, so
/// a solve meets the parked case on its first launch only — where two
/// blocks of this size cost it about 5 µs — and the polling case on every
/// launch after that.
const MIN_BLOCK_MACS: usize = 250_000;

/// One lane's execution scratch: the two registers the steps of the blocks
/// that lane runs write in turn.
#[derive(Debug, Default)]
struct Lane {
    /// Their capacity only grows, so once they have held a block of `N`
    /// boundaries of a plan, every block of up to `N` fits. Their length
    /// is the longest prefix a block has used: growing the capacity
    /// touches no memory, and the first block to use a prefix zero-fills
    /// it once.
    regs: [Vec<f32>; 2],
    warmed: bool,
    /// A miss per register grown, a hit per register found large enough.
    stats: PoolStats,
    warm_allocs: u64,
}

impl Lane {
    /// Grow both registers' capacity to at least `len` elements; returns
    /// the misses.
    fn fit(&mut self, len: usize) -> u64 {
        let mut misses = 0;
        for reg in &mut self.regs {
            if reg.capacity() < len {
                // Nothing in a register outlives its block.
                *reg = Vec::with_capacity(len);
                misses += 1;
                self.stats.miss_bytes += (len * std::mem::size_of::<f32>()) as u64;
            } else {
                self.stats.hits += 1;
            }
        }
        self.stats.misses += misses;
        misses
    }
}

/// Reusable execution scratch: two registers per lane of the compute
/// pool, plus warm-allocation accounting. One workspace serves one
/// launch at a time; a block that fits the registers of a lane that has
/// already run reuses them.
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
            self.lanes.push(Mutex::default());
        }
    }

    fn lanes(&self) -> impl Iterator<Item = std::sync::MutexGuard<'_, Lane>> {
        self.lanes
            .iter()
            .map(|l| l.lock().expect("a plan block panicked on this lane"))
    }

    /// Registers grown on *warm* blocks (anything after a lane's first or
    /// its reservation). Zero means the plan is running allocation-free.
    pub fn warm_allocs(&self) -> u64 {
        self.lanes().map(|l| l.warm_allocs).sum()
    }

    /// Register statistics, summed over the lanes: a miss per register a
    /// block or a reservation grew, a hit per register it found large
    /// enough.
    pub fn pool_stats(&self) -> PoolStats {
        self.lanes().map(|l| l.stats).sum()
    }

    /// Bytes of register storage held, summed over the lanes.
    pub fn held_bytes(&self) -> usize {
        let elems: usize = (self.lanes())
            .map(|l| l.regs.iter().map(Vec::capacity).sum::<usize>())
            .sum();
        elems * std::mem::size_of::<f32>()
    }

    /// Make every launch of up to `b` boundaries of each listed plan, made
    /// from the calling thread, run on this workspace without growing a
    /// register. Per plan, the largest block
    /// [`InferencePlan::launch_blocks`] cuts such a launch into sets the
    /// register length, `widest register × block`; every lane that could
    /// run such a block gets two registers of the largest of those
    /// lengths. Nothing runs: the cost is the allocation. Growth here
    /// counts as a lane's cold block: it is not a warm allocation.
    pub fn reserve(&mut self, launches: &[(&InferencePlan, usize)]) {
        let (mut len, mut lanes) = (0, 0);
        for &(plan, b) in launches {
            let Some(block) = (1..=b).map(|n| n.div_ceil(plan.launch_blocks(n))).max() else {
                continue;
            };
            len = len.max(plan.widest * block);
            // The block count never falls as a launch grows, so the
            // largest launch fans out if any does.
            lanes = lanes.max(if plan.launch_blocks(b) > 1 {
                par::lanes()
            } else {
                1
            });
        }
        self.ensure_lanes(lanes);
        for lane in &mut self.lanes[..lanes] {
            let lane = lane.get_mut().expect("a plan block panicked on this lane");
            lane.fit(len);
            lane.warmed = true;
        }
    }
}

/// The boundary embedding's linear tail — the last conv, which is always
/// linear (the split == concat algebra needs it), and the split layer's
/// projection `W_g` — composed into one affine map in `f64`: `(M, c)` with
/// `M` the `[len·ic, d0]` matrix (the kernels' `[in, out]` layout) and `c`
/// the conv's bias carried through `W_g`. Without convs it is `W_gᵀ`.
fn fold_embedding(net: &SdNet) -> (Tensor, Option<Tensor>) {
    // Rows `p·oc + o`: what conv output channel `o` at position `p` adds
    // to each of the `d0` projections.
    let wg = net.params.get(net.split_params().0).transpose();
    let Some(conv) = net.convs().last() else {
        return (wg, None);
    };
    let (ic, oc, k) = (conv.in_channels(), conv.out_channels(), conv.kernel());
    let len = wg.rows() / oc;
    let filters = net.params.get(conv.weight());
    let mut folded = Tensor::zeros(len * ic, wg.cols());
    for p in 0..len {
        // Tap `t` of position `p` reads input position `p − half + t`,
        // circularly (as `unfold1d_windows` lays the window out).
        for t in 0..k {
            let s = (p + k * len - (k - 1) / 2 + t) % len;
            for c in 0..ic {
                let row = folded.row_mut(s * ic + c);
                for o in 0..oc {
                    let w = filters.get(o, t * ic + c);
                    for (m, &g) in row.iter_mut().zip(wg.row(p * oc + o)) {
                        *m += w * g;
                    }
                }
            }
        }
    }
    let bias = conv.bias().map(|b| {
        let b = net.params.get(b);
        let mut carried = Tensor::zeros(1, wg.cols());
        for p in 0..len {
            for o in 0..oc {
                for (v, &g) in carried.row_mut(0).iter_mut().zip(wg.row(p * oc + o)) {
                    *v += b.get(0, o) * g;
                }
            }
        }
        carried
    });
    (folded, bias)
}

/// A forward-only compiled execution plan for one [`SdNet`] and one fixed
/// set of query points. See the crate docs for the contract.
#[derive(Clone, Debug)]
pub struct InferencePlan {
    steps: Vec<Step>,
    /// `regs[i]` is the register `steps[i]` writes; the final `Store`
    /// writes none.
    regs: Vec<RegShape>,
    /// Elements per boundary of the widest register.
    widest: usize,
    /// Biases and the cached `W_x · X` rows, rounded to `f32`.
    consts: Vec<Vec<f32>>,
    /// Weight matrices, transposed to `k×n`, rounded and packed once.
    weights: Vec<PackedB>,
    boundary_len: usize,
    q: usize,
    /// `0..q`: the points [`Subset::All`] takes.
    all_points: Vec<usize>,
    /// GEMM multiply-adds one boundary costs.
    macs_per_boundary: usize,
}

impl InferencePlan {
    /// Lower `net` for the fixed query points `points` (`[q, 2]` local
    /// physical coordinates, shared by every boundary in a batch).
    ///
    /// Compilation pre-transposes every weight matrix, folds the last
    /// conv and the split projection `W_g` into one layer, normalizes and
    /// Fourier-encodes the coordinates, and computes the `W_x · X` half of
    /// the input-split layer — all the work that does not depend on
    /// boundary values — in `f64`, then rounds weights and constants to
    /// `f32`. Compile-time allocation is unrestricted; the resulting plan
    /// executes without heap allocation on a warm [`Workspace`].
    ///
    /// Both embeddings lower to the same steps: a `Concat` network holds
    /// the same `W_g`, `W_x` and `b` as a `Split` one, and its first layer
    /// is the same affine map, only computed through a concat.
    ///
    /// # Panics
    /// If `points` is not `[q, 2]`.
    pub fn compile(net: &SdNet, points: &Tensor) -> Self {
        let cfg = net.config();
        assert_eq!(points.cols(), 2, "InferencePlan: points must be [q, 2]");
        let q = points.rows();
        let l = cfg.boundary_len;

        let mut consts: Vec<Vec<f32>> = Vec::new();
        let mut weights: Vec<PackedB> = Vec::new();
        let mut regs: Vec<RegShape> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let push_const = |consts: &mut Vec<Vec<f32>>, t: &Tensor| {
            consts.push(t.as_slice().iter().map(|&v| v as f32).collect());
            consts.len() - 1
        };
        // Parameters store `[out, in]`; the kernels multiply by `[in, out]`.
        let push_weight = |weights: &mut Vec<PackedB>, w: &Tensor| {
            weights.push(PackedB::new(&w.transpose()));
            weights.len() - 1
        };
        let push =
            |steps: &mut Vec<Step>, regs: &mut Vec<RegShape>, step: Step, rows_per_b, cols| {
                steps.push(step);
                let per_point = matches!(step, Step::Split { .. })
                    || regs.last().is_some_and(|r: &RegShape| r.per_point);
                regs.push(RegShape {
                    rows_per_b,
                    per_point,
                    cols,
                });
            };
        // The trunk's nonlinearity: the f32 kernel of the graph's `gelu`.
        let act = Act::Gelu;

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
        let (_, wx_id, b0_id) = net.split_params();
        let hx = gemm(
            &feats,
            Layout::Normal,
            net.params.get(wx_id),
            Layout::Transposed,
        );
        let hx_c = push_const(&mut consts, &hx);

        // Boundary load + the activated convs of the embedding.
        push(&mut steps, &mut regs, Step::Load, 1, l);
        let convs = net.convs();
        for conv in &convs[..convs.len().saturating_sub(1)] {
            let (ic, oc, k) = (conv.in_channels(), conv.out_channels(), conv.kernel());
            let len = regs[regs.len() - 1].cols / ic;
            let unfold = Step::Unfold {
                channels: ic,
                kernel: k,
            };
            push(&mut steps, &mut regs, unfold, len, k * ic);
            // The `[B·len, oc]` product is read as `[B, len·oc]` from here
            // on.
            let layer = Step::Layer {
                weight: push_weight(&mut weights, net.params.get(conv.weight())),
                bias: conv
                    .bias()
                    .map(|b| push_const(&mut consts, net.params.get(b))),
                act,
            };
            push(&mut steps, &mut regs, layer, 1, len * oc);
        }

        // Input-split layer: the embedding's linear tail and the
        // per-boundary projection as one layer, then + cached W_x·X.
        let d0 = cfg.hidden[0];
        let (folded, folded_bias) = fold_embedding(net);
        weights.push(PackedB::new(&folded));
        let projection = Step::Layer {
            weight: weights.len() - 1,
            bias: folded_bias.map(|c| push_const(&mut consts, &c)),
            act: Act::Identity,
        };
        push(&mut steps, &mut regs, projection, 1, d0);
        let split = Step::Split {
            cached: hx_c,
            bias: push_const(&mut consts, net.params.get(b0_id)),
            act,
        };
        push(&mut steps, &mut regs, split, q, d0);

        // Dense trunk (activated) + scalar head (not).
        let head = std::iter::once((net.head(), Act::Identity));
        for (lin, act) in net.trunk().iter().map(|lin| (lin, act)).chain(head) {
            let layer = Step::Layer {
                weight: push_weight(&mut weights, net.params.get(lin.weight())),
                bias: lin
                    .bias()
                    .map(|b| push_const(&mut consts, net.params.get(b))),
                act,
            };
            push(&mut steps, &mut regs, layer, q, lin.out_dim());
        }
        steps.push(Step::Store);

        // Every step but the first reads the register before its own.
        let macs_per_boundary = (steps[1..].iter().zip(&regs))
            .map(|(step, src)| match *step {
                Step::Layer { weight, .. } => {
                    src.rows_per_b * weights[weight].k() * weights[weight].n()
                }
                _ => 0,
            })
            .sum();
        let widest = regs
            .iter()
            .map(|r| r.rows_per_b * r.cols)
            .max()
            .unwrap_or(0);
        Self {
            steps,
            regs,
            widest,
            consts,
            weights,
            boundary_len: l,
            q,
            all_points: (0..q).collect(),
            macs_per_boundary,
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

    /// How far each output of a launch on `boundaries` may sit from the
    /// `f64` graph's (`SdNet::predict` on the same points): a first-order
    /// running error bound of the plan's `f32` chain, `[B·q, 1]` like the
    /// launch's output. Its largest element is the launch's bound.
    ///
    /// The step program is replayed in `f64` on the plan's own weights,
    /// carrying each register's values `x` and error bounds `e` element by
    /// element, with `u = 2⁻²⁴`: `Load` rounds (`e = u·|x|`); a layer over
    /// a `k`-deep product adds to the propagated `|W|·e` the `f32`
    /// multiply-add chain and the weights' rounding, `(γ_k + u)·|x|·|W|`,
    /// the bias's rounding `u·|b|` and its add's `u·|z|`; the split
    /// combine adds its cached rows' rounding and two adds. The GELU
    /// multiplies `e` by its Lipschitz constant, 1.13, and adds its `f32`
    /// kernel's error, `64u·|z|` (the reference cancels in `1 + tanh` for
    /// negative `z`). The graph's own `f64` rounding, 2²⁹ times finer, is
    /// inside that slack.
    pub fn graph_error_bound(&self, boundaries: &Tensor) -> Tensor {
        const U: f64 = f32::EPSILON as f64 / 2.0;
        let b = boundaries.rows();
        let widen = |v: &[f32]| v.iter().map(|&x| x as f64).collect::<Vec<f64>>();
        let activate = |act: Act, z: &mut [f64], e: &mut [f64]| {
            for (z, e) in z.iter_mut().zip(e) {
                match act {
                    Act::Identity => {}
                    Act::Gelu => {
                        *e = 1.13 * *e + 64.0 * U * z.abs();
                        *z = mf_tensor::gelu_scalar(*z);
                    }
                }
            }
        };
        // Values and error bounds of the register the last step wrote.
        let mut cur: (Vec<f64>, Vec<f64>) = Default::default();
        for (i, step) in self.steps.iter().enumerate() {
            // The shape of the register this step reads.
            let src = || self.regs[i - 1];
            cur = match *step {
                Step::Load => {
                    let x = boundaries.as_slice().to_vec();
                    let e = x.iter().map(|v| U * v.abs()).collect();
                    (x, e)
                }
                Step::Unfold { channels, kernel } => {
                    let RegShape {
                        rows_per_b, cols, ..
                    } = src();
                    let unfold = |v: &[f64]| {
                        let mut out = vec![0.0; v.len() * kernel];
                        unfold1d_windows(
                            v,
                            rows_per_b * b,
                            cols / channels,
                            channels,
                            kernel,
                            &mut out,
                        );
                        out
                    };
                    (unfold(&cur.0), unfold(&cur.1))
                }
                Step::Layer { weight, bias, act } => {
                    let w = &self.weights[weight];
                    let (k, n, m) = (w.k(), w.n(), src().rows_per_b * b);
                    let wv = widen(w.rows());
                    let bias = bias.map_or_else(|| vec![0.0; n], |b| widen(&self.consts[b]));
                    let (x, ex) = &cur;
                    let (mut z, mut ez, mut mag) =
                        (vec![0.0; m * n], vec![0.0; m * n], vec![0.0; m * n]);
                    for r in 0..m {
                        for p in 0..k {
                            let (xv, ev) = (x[r * k + p], ex[r * k + p]);
                            for (j, &w) in wv[p * n..][..n].iter().enumerate() {
                                z[r * n + j] += xv * w;
                                mag[r * n + j] += (xv * w).abs();
                                ez[r * n + j] += ev * w.abs();
                            }
                        }
                    }
                    let t = k as f64 * U;
                    for (i, ((z, e), mag)) in z.iter_mut().zip(&mut ez).zip(&mag).enumerate() {
                        *z += bias[i % n];
                        *e += (t / (1.0 - t) + U) * mag + U * bias[i % n].abs() + U * z.abs();
                    }
                    activate(act, &mut z, &mut ez);
                    (z, ez)
                }
                Step::Split { cached, bias, act } => {
                    let (hx, bias) = (widen(&self.consts[cached]), widen(&self.consts[bias]));
                    let d0 = bias.len();
                    let (g, eg) = &cur;
                    let (mut z, mut ez) = (Vec::new(), Vec::new());
                    for (gr, er) in g.chunks_exact(d0).zip(eg.chunks_exact(d0)) {
                        for xrow in hx.chunks_exact(d0) {
                            for (((&x, &gv), &ev), &bv) in xrow.iter().zip(gr).zip(er).zip(&bias) {
                                let mag = x.abs() + gv.abs() + bv.abs();
                                z.push((x + gv) + bv);
                                ez.push(ev + U * x.abs() + U * bv.abs() + 2.0 * U * mag);
                            }
                        }
                    }
                    activate(act, &mut z, &mut ez);
                    (z, ez)
                }
                Step::Store => return Tensor::from_vec(b * self.q, 1, cur.1),
            };
        }
        unreachable!("a plan ends in Store")
    }

    /// Execute the plan on a `[B, L]` boundary batch, writing the
    /// `[B·q, 1]` predictions into `out`: the boundaries are rounded to
    /// `f32` on the way in and the predictions widened on the way out.
    /// Allocation-free once `ws` is warm. The [`Subset::All`] case of
    /// [`InferencePlan::execute_subset_into`].
    ///
    /// # Panics
    /// On boundary/output shape mismatch.
    pub fn execute_into(&self, ws: &mut Workspace, boundaries: &Tensor, out: &mut Tensor) {
        self.execute_subset_into(ws, boundaries, Subset::All, out);
    }

    /// Execute the plan on a `[B, L]` boundary batch for only the points
    /// `subset` gives each boundary, into the subset's layout of the
    /// `[B·q, 1]` `out`. Only the taken points are evaluated: the split
    /// expands each boundary to its taken rows, every later step runs on
    /// those, and the store writes them to the head of their boundary's
    /// block. A row's value is the same whatever subset it is taken in.
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
    /// On boundary/output shape mismatch, or a point index not below `q`.
    pub fn execute_subset_into(
        &self,
        ws: &mut Workspace,
        boundaries: &Tensor,
        subset: Subset<'_>,
        out: &mut Tensor,
    ) {
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
        self.execute_blocks(
            ws,
            boundaries,
            subset,
            out.as_mut_slice(),
            b.div_ceil(blocks),
        );

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
                .set(subset.total(0..b, self.q) as f64 / dt);
        }
    }

    /// The point indices boundary `b` of a launch takes.
    fn points_of<'s>(&'s self, subset: Subset<'s>, b: usize) -> &'s [usize] {
        subset.of(b).unwrap_or(&self.all_points)
    }

    /// Blocks [`InferencePlan::execute_into`] cuts a launch of `b ≥ 1`
    /// boundaries into when called from this thread: 1 unless the thread
    /// may fan out and the launch has the work for it (for introspection
    /// and tests).
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
        subset: Subset<'_>,
        out: &mut [f64],
        block: usize,
    ) {
        if boundaries.rows() <= block {
            ws.ensure_lanes(1);
            let lane = ws.lanes[0]
                .get_mut()
                .expect("a plan block panicked on this lane");
            return self.run_block(lane, block, (boundaries.as_slice(), 0), subset, out);
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
                self.run_block(&mut lane, block, (rows, bi * block), subset, out_block);
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
    /// launch boundaries `b0..b0 + nb` (`nb ≤ block`), and `out` their
    /// `[nb·q]` block of the launch's output. The lane's registers grow to
    /// fit a whole block of `block` boundaries taking every point, not
    /// only this one, so a lane that runs the short last block of a launch
    /// fits every full block of it as well. Each step writes the register
    /// the step before it did not, cut to the step's exact length.
    fn run_block(
        &self,
        lane: &mut Lane,
        block: usize,
        (boundaries, b0): (&[f64], usize),
        subset: Subset<'_>,
        out: &mut [f64],
    ) {
        let nb = boundaries.len() / self.boundary_len;
        let np = subset.total(b0..b0 + nb, self.q);
        let misses = lane.fit(self.widest * block);
        if lane.warmed {
            lane.warm_allocs += misses;
        } else {
            lane.warmed = true;
        }
        for reg in &mut lane.regs {
            if reg.len() < self.widest * nb {
                // Within the capacity `fit` gave it: no allocation.
                reg.resize(self.widest * nb, 0.0);
            }
        }
        let [a, b] = &mut lane.regs;
        let (mut src, mut dst) = (a.as_mut_slice(), b.as_mut_slice());
        // Length of what the previous step wrote into `src`.
        let mut len = 0;
        for (i, step) in self.steps.iter().enumerate() {
            let dst_len = self.regs.get(i).map_or(0, |r| r.rows(nb, np) * r.cols);
            let (s, d) = (&src[..len], &mut dst[..dst_len]);
            match *step {
                Step::Load => {
                    for (r, &v) in d.iter_mut().zip(boundaries) {
                        *r = v as f32;
                    }
                }
                Step::Unfold { channels, kernel } => {
                    mf_profile::zone!("unfold");
                    let src = self.regs[i - 1];
                    let (rows, cols) = (src.rows(nb, np), src.cols);
                    unfold1d_windows(s, rows, cols / channels, channels, kernel, d);
                }
                Step::Layer { weight, bias, act } => {
                    mf_profile::zone!("layer");
                    backend::simd().layer(
                        s,
                        &self.weights[weight],
                        bias.map(|b| self.consts[b].as_slice()),
                        act,
                        d,
                    );
                }
                Step::Split { cached, bias, act } => {
                    mf_profile::zone!("split_add");
                    let hx = &self.consts[cached];
                    let bias = &self.consts[bias];
                    let d0 = bias.len();
                    let be = backend::simd();
                    // One boundary's taken rows at a time: summed, biased
                    // and activated while they are in L1.
                    let mut rest = d;
                    for (bi, g) in s.chunks_exact(d0).enumerate() {
                        let points = self.points_of(subset, b0 + bi);
                        let (o, tail) = rest.split_at_mut(points.len() * d0);
                        for (orow, &p) in o.chunks_exact_mut(d0).zip(points) {
                            let xrow = &hx[p * d0..][..d0];
                            for (((ov, &x), &gg), &b) in orow.iter_mut().zip(xrow).zip(g).zip(bias)
                            {
                                *ov = (x + gg) + b;
                            }
                        }
                        be.activate_f32(act, o);
                        rest = tail;
                    }
                }
                Step::Store => {
                    // Packed rows out, each boundary's to the head of its
                    // `q`-row block.
                    let mut rows = s.iter();
                    for (bi, o) in out.chunks_exact_mut(self.q).enumerate() {
                        let n = subset.count(b0 + bi, self.q);
                        for (o, &v) in o[..n].iter_mut().zip(&mut rows) {
                            *o = v as f64;
                        }
                    }
                }
            }
            std::mem::swap(&mut src, &mut dst);
            len = dst_len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_nn::{EmbeddingKind, SdNetConfig};
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
                "row {i}: {x} vs {y} differ in bits"
            );
        }
    }

    /// Every output of the launch `got` of `plan` on `bounds` within the
    /// plan's bound of the graph's `want`.
    fn assert_within_bound(plan: &InferencePlan, bounds: &Tensor, want: &Tensor, got: &Tensor) {
        assert_eq!(want.shape(), got.shape());
        let bound = plan.graph_error_bound(bounds);
        for (i, ((w, g), e)) in (want.as_slice().iter().zip(got.as_slice()))
            .zip(bound.as_slice())
            .enumerate()
        {
            assert!(
                (w - g).abs() <= *e,
                "output {i}: plan {g:e}, graph {w:e}, bound {e:e}"
            );
        }
    }

    #[test]
    fn matches_graph_path_within_the_launch_bound_across_architectures() {
        let mut base = SdNetConfig::small(16);
        base.conv_channels = vec![2];
        base.hidden = vec![12, 12];
        let mut fourier = base.clone();
        fourier.coord_fourier = 4;
        let mut no_conv = base.clone();
        no_conv.conv_channels = vec![];
        let mut deep = base.clone();
        deep.conv_channels = vec![3, 2];
        deep.hidden = vec![10, 8, 6];
        let mut single = base.clone();
        single.hidden = vec![9];
        let mut concat = fourier.clone();
        concat.embedding = EmbeddingKind::Concat;

        for (i, cfg) in [base, fourier, no_conv, deep, single, concat]
            .into_iter()
            .enumerate()
        {
            let (net, bounds, pts) = random_case(cfg, 100 + i as u64, 3, 7);
            let plan = InferencePlan::compile(&net, &pts);
            let mut ws = Workspace::new();
            let got = plan.execute(&mut ws, &bounds);
            let want = net.predict(&bounds, &tiled(&pts, 3), 7);
            assert_within_bound(&plan, &bounds, &want, &got);
            // A bound on rounding, not on wiring: worst-case chains of
            // absolute values keep it about 1e3 times the gap seen here,
            // still a small fraction of the outputs.
            let bound = plan.graph_error_bound(&bounds).norm_linf();
            assert!(bound < 1e-2 * (1.0 + want.norm_linf()), "bound {bound:e}");
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
                Step::Load => "load",
                Step::Unfold { .. } => "unfold",
                Step::Layer { .. } => "layer",
                Step::Split { .. } => "split",
                Step::Store => "store",
            })
            .collect();
        assert_eq!(
            kinds,
            ["load", "layer", "split", "layer", "layer", "layer", "store"]
        );
        // The conv and the projection folded into one [32,48] layer, two
        // trunk layers and the head over the 13 cross points.
        assert_eq!(plan.macs_per_boundary, 32 * 48 + 2 * 13 * 48 * 48 + 13 * 48);
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
                Act::Gelu,
                Act::Gelu,
                Act::Gelu,
                Act::Identity
            ]
        );
    }

    /// The folded embedding tail is the last conv and the projection
    /// composed: in `f64`, `x·M + c` equals unfold → conv → projection of
    /// the same `x` (the input of the last conv), for every depth of conv
    /// stack and both embeddings.
    #[test]
    fn the_folded_step_is_unfold_conv_and_projection_composed() {
        let mut base = SdNetConfig::small(16);
        base.hidden = vec![12, 12];
        let configs = [0, 1, 2].map(|convs| {
            let mut cfg = base.clone();
            cfg.conv_channels = [3, 2][..convs].to_vec();
            cfg
        });
        let mut concat = configs[2].clone();
        concat.embedding = EmbeddingKind::Concat;
        for (i, cfg) in configs.into_iter().chain([concat]).enumerate() {
            let (mut net, _, _) = random_case(cfg, 40 + i as u64, 1, 1);
            // Non-zero conv biases, so the carried bias is exercised.
            let bias_ids: Vec<_> = net.convs().iter().filter_map(|c| c.bias()).collect();
            for id in bias_ids {
                let b = net.params.get_mut(id);
                *b = Tensor::from_fn(1, b.cols(), |_, j| 0.3 - 0.2 * j as f64);
            }
            let wg = net.params.get(net.split_params().0);
            let (m, c) = fold_embedding(&net);
            let mut rng = ChaCha8Rng::seed_from_u64(i as u64);
            let x = Tensor::from_fn(5, m.rows(), |_, _| rng.gen_range(-1.0..1.0));
            let mut got = gemm(&x, Layout::Normal, &m, Layout::Normal);
            let want = match net.convs().last() {
                None => gemm(&x, Layout::Normal, wg, Layout::Transposed),
                Some(conv) => {
                    let (ic, oc, k) = (conv.in_channels(), conv.out_channels(), conv.kernel());
                    let len = x.cols() / ic;
                    let mut windows = Tensor::zeros(5 * len, k * ic);
                    unfold1d_windows(x.as_slice(), 5, len, ic, k, windows.as_mut_slice());
                    let w = net.params.get(conv.weight());
                    let mut y = gemm(&windows, Layout::Normal, w, Layout::Transposed);
                    let b = net.params.get(conv.bias().expect("convs carry a bias"));
                    for row in y.as_mut_slice().chunks_exact_mut(oc) {
                        for (v, &bv) in row.iter_mut().zip(b.as_slice()) {
                            *v += bv;
                        }
                    }
                    let y = Tensor::from_vec(5, len * oc, y.into_vec());
                    gemm(&y, Layout::Normal, wg, Layout::Transposed)
                }
            };
            if let Some(c) = c {
                for row in got.as_mut_slice().chunks_exact_mut(c.cols()) {
                    for (v, &cv) in row.iter_mut().zip(c.as_slice()) {
                        *v += cv;
                    }
                }
            }
            assert_eq!(got.shape(), want.shape());
            let err = (got.as_slice().iter().zip(want.as_slice()))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err <= 1e-12, "config {i}: fold off by {err:e}");
            // The plan multiplies by it: a `[len·ic, d0]` layer.
            let plan = InferencePlan::compile(&net, &Tensor::zeros(1, 2));
            let fold_k = plan.weights.iter().map(PackedB::k).find(|&k| k == m.rows());
            assert_eq!(fold_k, Some(m.rows()), "config {i}");
        }
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

    /// One reservation covers every launch up to its size, of every plan it
    /// names, on every lane — listed smallest envelope first on purpose.
    #[test]
    fn a_reserved_workspace_runs_every_smaller_launch_without_a_miss() {
        let mut cfg = SdNetConfig::small(16);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![48, 48];
        let (net, bounds, cross) = random_case(cfg.clone(), 31, 40, 13);
        let (_, _, interior) = random_case(cfg, 32, 1, 29);
        let a = InferencePlan::compile(&net, &cross);
        let b = InferencePlan::compile(&net, &interior);
        for width in [1, 2, 4] {
            par::with_pool_width(width, || {
                let mut ws = Workspace::new();
                ws.reserve(&[(&b, 12), (&a, 40)]);
                let misses = ws.pool_stats().misses;
                for n in 1..=40 {
                    let rows = bounds.slice_rows(0, n);
                    a.execute(&mut ws, &rows);
                    if n <= 12 {
                        b.execute(&mut ws, &rows);
                    }
                }
                assert_eq!(ws.pool_stats().misses, misses, "width {width}");
                assert_eq!(ws.warm_allocs(), 0, "width {width}");
            });
        }
    }

    /// A reservation leaves each lane that can run a reserved launch
    /// exactly two registers of the widest register times the largest
    /// block such a launch is cut into (its envelope), and every launch it
    /// covers runs on them without growing either.
    #[test]
    fn a_reservation_holds_two_registers_per_lane_that_no_covered_launch_grows() {
        let mut cfg = SdNetConfig::small(16);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![48, 48];
        let (net, bounds, cross) = random_case(cfg.clone(), 31, 40, 13);
        let (_, _, interior) = random_case(cfg, 32, 1, 29);
        let cross = InferencePlan::compile(&net, &cross);
        let interior = InferencePlan::compile(&net, &interior);
        // The trunk's `[q, 48]` registers are the widest.
        assert_eq!((cross.widest, interior.widest), (13 * 48, 29 * 48));
        let launches = [(&cross, 40), (&interior, 12)];
        for width in [1, 2, 4] {
            par::with_pool_width(width, || {
                let mut ws = Workspace::new();
                ws.reserve(&launches);
                let envelope = |plan: &InferencePlan, b: usize| {
                    (1..=b).map(|n| n.div_ceil(plan.launch_blocks(n))).max()
                };
                let len = (launches.iter())
                    .map(|&(plan, b)| plan.widest * envelope(plan, b).unwrap())
                    .max()
                    .unwrap();
                if width == 1 {
                    assert_eq!(len, 13 * 48 * 40);
                }
                let lanes = if cross.launch_blocks(40) > 1 {
                    width
                } else {
                    1
                };
                let held = lanes * 2 * len * std::mem::size_of::<f32>();
                assert_eq!(ws.lanes.len(), lanes, "width {width}");
                assert_eq!(ws.held_bytes(), held, "width {width}");
                let misses = ws.pool_stats().misses;
                assert_eq!(misses, 2 * lanes as u64, "width {width}");
                for n in 1..=40 {
                    let rows = bounds.slice_rows(0, n);
                    cross.execute(&mut ws, &rows);
                    if n <= 12 {
                        interior.execute(&mut ws, &rows);
                    }
                }
                assert_eq!(ws.held_bytes(), held, "width {width}");
                assert_eq!(ws.pool_stats().misses, misses, "width {width}");
                assert_eq!(ws.warm_allocs(), 0, "width {width}");
            });
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// Rows of a plan are independent: every partition of a launch
        /// into blocks of whole boundaries gives the same bits, fanned
        /// out or not, and stays within the bound of the graph path.
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
            let whole = par::with_pool_width(1, || plan.execute(&mut Workspace::new(), &bounds));
            let mut got = Tensor::zeros(b * 7, 1);
            par::with_pool_width(width, || {
                let mut ws = Workspace::new();
                plan.execute_blocks(&mut ws, &bounds, Subset::All, got.as_mut_slice(), block);
            });
            assert_bitwise(&whole, &got);
            let want = net.predict(&bounds, &tiled(&pts, b), 7);
            assert_within_bound(&plan, &bounds, &want, &got);
        }

        /// A boundary's row for a point is the same bits whichever subset
        /// of the points it takes and whichever block it runs in: a
        /// subset launch is the full launch, compacted.
        #[test]
        fn a_subset_launch_is_the_full_launch_compacted(
            b in 1usize..24,
            block in 1usize..24,
            width in 1usize..4,
            sets in 1usize..5,
            seed in 0u64..1000,
        ) {
            let mut cfg = SdNetConfig::small(16);
            cfg.conv_channels = vec![2];
            cfg.hidden = vec![12, 12];
            let (net, bounds, pts) = random_case(cfg, seed, b, 7);
            let plan = InferencePlan::compile(&net, &pts);
            // Random ascending point sets, the empty and the full one
            // among the candidates.
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 2);
            let sets: Vec<Vec<usize>> = (0..sets)
                .map(|_| (0..7).filter(|_| rng.gen_bool(0.6)).collect())
                .collect();
            let subset = Subset::Cycle(&sets);
            let mut want = par::with_pool_width(1, || plan.execute(&mut Workspace::new(), &bounds));
            subset.compact(want.as_mut_slice(), 7);
            let mut got = Tensor::zeros(b * 7, 1);
            par::with_pool_width(width, || {
                let mut ws = Workspace::new();
                plan.execute_blocks(&mut ws, &bounds, subset, got.as_mut_slice(), block);
            });
            for (bi, (w, g)) in want.as_slice().chunks_exact(7).zip(got.as_slice().chunks_exact(7)).enumerate() {
                let n = subset.count(bi, 7);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&w[..n]), bits(&g[..n]), "boundary {}", bi);
                // The rows no point was taken for are left as they were.
                proptest::prop_assert!(g[n..].iter().all(|&x| x == 0.0));
            }
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
            assert_within_bound(&plan, &bounds, &want, &got);
        }
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

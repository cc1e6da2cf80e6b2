//! The arena graph: node storage, primitive definitions, eager evaluation.
//!
//! # Memory model
//!
//! The graph owns a [`BufferPool`]: every node value is acquired from the
//! pool and every buffer is returned to it on [`Graph::clear`], so a
//! steady-state training step (same shapes every step) performs no heap
//! allocation after the first warm-up step.
//!
//! [`Graph::grad`] *retains* the tape: every value and every adjoint stays
//! live until [`Graph::clear`], because a later `grad` may differentiate
//! through them. [`Graph::backward`] is the tape's last reverse pass and
//! *consumes* it: each value is released as soon as the walk has passed
//! every node that reads it, so the next VJP writes into a buffer the pool
//! just got back (its freelists are LIFO) — one that is still in cache.
//!
//! The graph has one byte meter, [`Graph::bytes_allocated`]: what the
//! tape holds now. Until a consuming [`Graph::backward`] releases values it
//! is everything the tape recorded — the footprint of a tape that keeps
//! every node, as PyTorch's does (Table 3). [`Graph::peak_bytes`] is its
//! high-water mark.

use mf_tensor::Layout;
use mf_tensor::{BufferPool, PoolStats, Tensor};

/// Handle to a node in a [`Graph`].
///
/// `Var`s are plain indices; they are only meaningful together with the
/// graph that created them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// A primitive operation recorded on the graph.
///
/// Every operand is a [`Var`] pointing at an *earlier* node, so node index
/// order is a topological order — the backward pass exploits this.
#[derive(Clone, Debug)]
pub enum Op {
    /// Differentiable input (parameter, coordinates, …).
    Leaf,
    /// Non-differentiable constant (targets, masks, literals).
    Const,
    /// Elementwise `a + b`.
    Add(Var, Var),
    /// Elementwise `a - b`.
    Sub(Var, Var),
    /// Elementwise (Hadamard) `a * b`.
    Mul(Var, Var),
    /// Elementwise `-a`.
    Neg(Var),
    /// `a * s` for a compile-time scalar.
    Scale(Var, f64),
    /// `a + s` for a compile-time scalar.
    AddScalar(Var, f64),
    /// `op_a(a) · op_b(b)` dense matrix product.
    MatMul(Var, Layout, Var, Layout),
    /// Matrix transpose.
    Transpose(Var),
    /// Sum of all elements → `1×1`.
    SumAll(Var),
    /// Mean of all elements → `1×1`.
    MeanAll(Var),
    /// Sum over rows: `[q,d] → [1,d]`.
    SumAxis0(Var),
    /// Broadcast a row: `[1,d] → [q,d]`.
    BroadcastRows(Var, usize),
    /// Broadcast a scalar: `[1,1] → [r,c]`.
    BroadcastScalar(Var, usize, usize),
    /// Repeat each row `q` times: `[B,d] → [B·q,d]` (input-split broadcast).
    RepeatRows(Var, usize),
    /// Sum consecutive groups of `q` rows: `[B·q,d] → [B,d]`.
    SumGroups(Var, usize),
    /// Metadata reshape.
    Reshape(Var, usize, usize),
    /// Columns `[start, start+len)`.
    SliceCols(Var, usize, usize),
    /// Embed as columns `[start, …)` of a width-`total` zero matrix.
    PadCols(Var, usize, usize),
    /// Rows `[start, start+len)`.
    SliceRows(Var, usize, usize),
    /// Embed as rows `[start, …)` of a height-`total` zero matrix.
    PadRows(Var, usize, usize),
    /// `[a | b]` horizontal concatenation.
    ConcatCols(Var, Var),
    /// `[a; b]` vertical concatenation.
    ConcatRows(Var, Var),
    /// Circular 1-D unfold (im2col): `(channels, kernel)`.
    Unfold1d(Var, usize, usize),
    /// Adjoint of unfold: `(batch, channels, kernel)`.
    Fold1d(Var, usize, usize, usize),
    /// Elementwise hyperbolic tangent.
    Tanh(Var),
    /// Elementwise exponential.
    Exp(Var),
    /// Elementwise sine.
    Sin(Var),
    /// Elementwise cosine.
    Cos(Var),
    /// Fused GELU (tanh approximation). One node instead of the ~9 a
    /// composed implementation needs, which matters because activation
    /// tensors dominate the autograd graph's memory (Table 3).
    Gelu(Var),
    /// N-ary gradient accumulator: elementwise sum of all inputs.
    ///
    /// Emitted by the backward pass instead of a chain of binary
    /// `Add` nodes: when a node's adjoint receives its `k`-th contribution
    /// the accumulator's buffer is extended in place (axpy-style) and
    /// re-pushed with the longer input list, so `k` contributions cost one
    /// buffer instead of `k − 1` intermediates. The VJP distributes the
    /// incoming gradient to every input in order, reproducing the
    /// nested-`Add` adjoints bit for bit.
    AddAcc(Vec<Var>),
    /// Fused bias broadcast-add `x ⊕ b`: `[q,d] + [1,d] → [q,d]`,
    /// replacing the `BroadcastRows` + `Add` pair in layer forwards.
    AddBias(Var, Var),
    /// Fused tanh backward `g · (1 − y²)` for `y = tanh(x)`; inputs `(g, y)`.
    TanhVjp(Var, Var),
    /// Elementwise `1 − y²` (the sech² factor of the tanh derivative).
    OneMinusSq(Var),
    /// Fused GELU pre-activation `√(2/π)·(x + c·x³)`; inputs `(x, x³)`.
    GeluInner(Var, Var),
    /// Fused GELU inner derivative `√(2/π)·(1 + 3c·x²)`; input `x²`.
    GeluDu(Var),
    /// Elementwise `(t + 1) / 2`.
    HalfOnePlus(Var),
    /// The `k`-th derivative `σ⁽ᵏ⁾(x)` of the GELU, `k` = 1, 2 or 3, as one
    /// node: `σ'` and `σ''` of the forward Laplacian and `σ'` of the
    /// consuming backward's GELU VJP, bit for bit the elementwise chains
    /// they replace. Its VJP is `g·σ⁽ᵏ⁺¹⁾(x)`; `k = 3` has none.
    GeluDeriv(Var, u8),
}

pub(crate) struct Node {
    pub op: Op,
    /// `None` when the value was released by a consuming
    /// [`Graph::backward`], or the node is a hollowed-out accumulator
    /// superseded by a longer one.
    pub value: Option<Tensor>,
    /// Output shape, kept as metadata so shape queries (and therefore the
    /// whole backward pass structure) never need the possibly-released
    /// value.
    pub rows: usize,
    pub cols: usize,
    pub requires_grad: bool,
}

/// An eager tape of tensor operations supporting repeated, differentiable
/// backward passes.
///
/// Typical lifecycle: build leaves for parameters and inputs, run a forward
/// computation, call [`Graph::grad`] one or more times (each emits adjoint
/// nodes into the same graph), finish with [`Graph::grad`] or the consuming
/// [`Graph::backward`], read gradients with [`Graph::value`], then
/// [`Graph::clear`] the graph (recycling every buffer into the pool) before
/// the next training step.
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pool: BufferPool,
    /// Capacity bytes of all live node values.
    live_bytes: usize,
    /// High-water mark of `live_bytes` since the last [`Graph::clear`].
    peak_bytes: usize,
    /// External buffers adopted by [`Graph::leaf`] / [`Graph::constant`]:
    /// heap allocations beside the pool's misses.
    adopted: u64,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Empty graph with an empty buffer pool.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            pool: BufferPool::new(),
            live_bytes: 0,
            peak_bytes: 0,
            adopted: 0,
        }
    }

    /// Drop all nodes and recycle their buffers into the pool, starting a
    /// fresh tape. Pool contents survive, so the next identically-shaped
    /// step is served entirely from recycled memory.
    pub fn clear(&mut self) {
        for node in self.nodes.drain(..) {
            if let Some(v) = node.value {
                self.pool.release(v);
            }
        }
        self.live_bytes = 0;
        self.peak_bytes = 0;
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Capacity bytes held by all live node value buffers — what the heap
    /// allocator actually sees, including gradient (adjoint) nodes, which
    /// are ordinary nodes on this tape.
    pub fn bytes_allocated(&self) -> usize {
        self.live_bytes
    }

    /// High-water mark of [`Graph::bytes_allocated`] since the last
    /// [`Graph::clear`].
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Cumulative counters of the owned buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Buffers this graph obtained from the heap rather than the pool
    /// (pool misses and adopted external buffers).
    pub fn heap_allocs(&self) -> u64 {
        self.pool.stats().misses + self.adopted
    }

    /// The computed value of a variable.
    ///
    /// Panics if the value was released by [`Graph::backward`].
    pub fn value(&self, v: Var) -> &Tensor {
        self.nodes[v.0].value.as_ref().unwrap_or_else(|| {
            panic!(
                "value of node {} was released by backward(): read it before the \
                 backward, or use grad()",
                v.0
            )
        })
    }

    /// Output shape of a variable, from metadata (works even when the
    /// value was released).
    pub fn shape_of(&self, v: Var) -> (usize, usize) {
        let n = &self.nodes[v.0];
        (n.rows, n.cols)
    }

    /// Whether gradients flow through this variable.
    pub fn requires_grad(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The operation that produced this variable.
    pub fn op(&self, v: Var) -> &Op {
        &self.nodes[v.0].op
    }

    /// Record a differentiable leaf (parameter or input), adopting an
    /// externally-allocated buffer.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.adopted += 1;
        self.push(Op::Leaf, value, true)
    }

    /// Record a non-differentiable constant, adopting an
    /// externally-allocated buffer.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.adopted += 1;
        self.push(Op::Const, value, false)
    }

    /// Record a differentiable leaf by copying `t` into a pooled buffer
    /// (the allocation-lean alternative to `leaf(t.clone())`).
    pub fn leaf_from(&mut self, t: &Tensor) -> Var {
        let v = self.pooled_copy(t);
        self.push(Op::Leaf, v, true)
    }

    /// Record a constant by copying `t` into a pooled buffer
    /// (the allocation-lean alternative to `constant(t.clone())`).
    pub fn constant_from(&mut self, t: &Tensor) -> Var {
        let v = self.pooled_copy(t);
        self.push(Op::Const, v, false)
    }

    /// Convenience: a `1×1` constant (pool-backed).
    pub fn constant_scalar(&mut self, v: f64) -> Var {
        let mut t = self.alloc(1, 1);
        t.set(0, 0, v);
        self.push(Op::Const, t, false)
    }

    fn pooled_copy(&mut self, t: &Tensor) -> Tensor {
        let (r, c) = t.shape();
        let mut out = self.alloc(r, c);
        t.copy_into(&mut out);
        out
    }

    /// A zero-filled, pool-recycled `rows×cols` tensor.
    pub(crate) fn alloc(&mut self, rows: usize, cols: usize) -> Tensor {
        self.pool.acquire(rows, cols)
    }

    /// Like [`Graph::alloc`] but the contents are **unspecified**
    /// (recycled data from a previous node). Only for evaluation
    /// arms whose kernel overwrites every element — accumulating kernels
    /// (`gemm_into`, `fold1d`, axis sums, pads) must use [`Graph::alloc`].
    /// Skipping the zero-fill removes a full write pass over every buffer
    /// a step acquires. Under [`Graph::grad`] that pass streams through
    /// the retained tape's whole working set; under [`Graph::backward`]
    /// the buffer is usually one the walk just released and is still in
    /// cache, so the saving is smaller but the pass is still wasted work.
    pub(crate) fn alloc_dirty(&mut self, rows: usize, cols: usize) -> Tensor {
        self.pool.acquire_dirty(rows, cols)
    }

    pub(crate) fn push(&mut self, op: Op, value: Tensor, requires_grad: bool) -> Var {
        let (rows, cols) = value.shape();
        self.live_bytes += value.capacity_bytes();
        if self.live_bytes > self.peak_bytes {
            self.peak_bytes = self.live_bytes;
        }
        self.nodes.push(Node {
            op,
            value: Some(value),
            rows,
            cols,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    pub(crate) fn push_op(&mut self, op: Op, value: Tensor) -> Var {
        let mut rg = false;
        for_each_input(&op, |v| rg |= self.nodes[v.0].requires_grad);
        self.push(op, value, rg)
    }

    /// Remove and return a node's value (used when extending an `AddAcc`
    /// accumulator in place: the hollowed node stays on the tape but is
    /// referenced by nothing, and the buffer is recorded again under the
    /// longer accumulator).
    pub(crate) fn take_value(&mut self, v: Var) -> Tensor {
        let t = self.nodes[v.0]
            .value
            .take()
            .expect("take_value: node already hollow");
        self.live_bytes -= t.capacity_bytes();
        t
    }

    /// Return `v`'s value to the pool, for a consuming [`Graph::backward`];
    /// a no-op on a node whose value is already gone.
    pub(crate) fn release(&mut self, v: Var) {
        if let Some(val) = self.nodes[v.0].value.take() {
            self.live_bytes -= val.capacity_bytes();
            self.pool.release(val);
        }
    }
}

/// Call `f` on each input variable of an operation, in order, without
/// allocating.
pub(crate) fn for_each_input(op: &Op, mut f: impl FnMut(Var)) {
    use Op::*;
    match op {
        Leaf | Const => {}
        AddAcc(inputs) => inputs.iter().copied().for_each(f),
        Add(a, b)
        | Sub(a, b)
        | Mul(a, b)
        | MatMul(a, _, b, _)
        | ConcatCols(a, b)
        | ConcatRows(a, b)
        | AddBias(a, b)
        | TanhVjp(a, b)
        | GeluInner(a, b) => {
            f(*a);
            f(*b);
        }
        Neg(a)
        | Scale(a, _)
        | AddScalar(a, _)
        | Transpose(a)
        | SumAll(a)
        | MeanAll(a)
        | SumAxis0(a)
        | BroadcastRows(a, _)
        | BroadcastScalar(a, _, _)
        | RepeatRows(a, _)
        | SumGroups(a, _)
        | Reshape(a, _, _)
        | SliceCols(a, _, _)
        | PadCols(a, _, _)
        | SliceRows(a, _, _)
        | PadRows(a, _, _)
        | Unfold1d(a, _, _)
        | Fold1d(a, _, _, _)
        | Tanh(a)
        | Exp(a)
        | Gelu(a)
        | Sin(a)
        | Cos(a)
        | OneMinusSq(a)
        | GeluDu(a)
        | HalfOnePlus(a)
        | GeluDeriv(a, _) => f(*a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_and_constants() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::ones(2, 2));
        let c = g.constant(Tensor::zeros(2, 2));
        assert!(g.requires_grad(a));
        assert!(!g.requires_grad(c));
        assert_eq!(g.len(), 2);
        assert_eq!(g.bytes_allocated(), 2 * 4 * 8);
    }

    #[test]
    fn requires_grad_propagates() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::ones(2, 2));
        let c = g.constant(Tensor::ones(2, 2));
        let s1 = g.add(c, c);
        let s2 = g.add(a, c);
        assert!(!g.requires_grad(s1));
        assert!(g.requires_grad(s2));
    }

    #[test]
    fn clear_resets() {
        let mut g = Graph::new();
        let _ = g.leaf(Tensor::ones(4, 4));
        assert!(!g.is_empty());
        g.clear();
        assert!(g.is_empty());
        assert_eq!((g.len(), g.bytes_allocated()), (0, 0));
    }

    #[test]
    fn len_and_bytes_track_the_tape() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::ones(8, 8));
        let _ = g.mul(a, a);
        assert_eq!(g.len(), 2);
        assert_eq!(g.bytes_allocated(), 2 * 64 * 8);
    }

    #[test]
    fn clear_recycles_buffers_into_pool() {
        let mut g = Graph::new();
        let a = g.leaf_from(&Tensor::ones(8, 8));
        let _ = g.mul(a, a);
        let misses_first = g.pool_stats().misses;
        assert!(misses_first >= 2);
        g.clear();
        assert!(g.pool.held_bytes() >= 2 * 64 * 8);
        // The identical second build is served entirely from the pool.
        let a = g.leaf_from(&Tensor::ones(8, 8));
        let _ = g.mul(a, a);
        assert_eq!(g.pool_stats().misses, misses_first);
        assert_eq!(g.pool_stats().hits, 2);
    }

    #[test]
    fn peak_bytes_is_high_water_mark() {
        let mut g = Graph::new();
        let a = g.leaf_from(&Tensor::ones(8, 8));
        let m = g.mul(a, a);
        let _ = g.sum(m);
        let peak = g.peak_bytes();
        assert!(peak >= g.bytes_allocated());
        assert!(peak >= 2 * 64 * 8);
        g.clear();
        assert_eq!(g.peak_bytes(), 0);
    }

    #[test]
    fn bytes_fall_only_through_backward() {
        let tape = |g: &mut Graph| {
            let x = g.leaf(Tensor::from_fn(4, 3, |r, c| (r as f64 - c as f64) * 0.3));
            let s = g.scale(x, 1.5);
            let t = g.add_scalar(s, 0.5);
            let y = g.mul(t, t);
            let f = g.sum(y);
            let dx = g.grad(f, &[x])[0];
            let z = g.sum(dx);
            (x, g.add(z, f))
        };
        // A retaining tape never releases: its live bytes are its peak.
        let mut kept = Graph::new();
        let (x, loss) = tape(&mut kept);
        let recorded = kept.bytes_allocated();
        let _ = kept.grad(loss, &[x]);
        assert!(kept.bytes_allocated() > recorded);
        assert_eq!(kept.peak_bytes(), kept.bytes_allocated());

        // The consuming backward releases what it walks.
        let mut g = Graph::new();
        let (x, loss) = tape(&mut g);
        assert_eq!(g.bytes_allocated(), recorded);
        let _ = g.backward(loss, &[x]);
        assert!(g.bytes_allocated() < recorded);
        g.clear();
        assert_eq!((g.bytes_allocated(), g.peak_bytes()), (0, 0));
    }

    #[test]
    fn heap_allocs_stop_after_warmup() {
        let mut g = Graph::new();
        for step in 0..3 {
            let x = g.leaf_from(&Tensor::ones(4, 4));
            let y = g.mul(x, x);
            let _ = g.sum(y);
            if step == 0 {
                assert!(g.heap_allocs() > 0);
            }
            let after_warmup = g.heap_allocs();
            g.clear();
            if step > 0 {
                assert_eq!(g.heap_allocs(), after_warmup);
            }
        }
        let before = g.heap_allocs();
        let x = g.leaf_from(&Tensor::ones(4, 4));
        let y = g.mul(x, x);
        let _ = g.sum(y);
        assert_eq!(
            g.heap_allocs(),
            before,
            "steady-state step must not allocate"
        );
    }
}

//! The differentiable backward pass.
//!
//! [`Graph::grad`] walks the tape in reverse topological order (node indices
//! are already topologically sorted because operands always precede their
//! consumers) and **emits new graph nodes** for every adjoint. The returned
//! gradients are ordinary [`Var`]s: summing one and calling `grad` again
//! yields second derivatives, which is exactly how the physics-informed loss
//! obtains `∂²u/∂x²` and then backpropagates it to the weights.
//!
//! The adjoint bookkeeping is allocation-frugal: multiple contributions to
//! one adjoint accumulate in place into a single `AddAcc` buffer (instead
//! of an allocate-add-replace chain of binary `Add` nodes), and the
//! elementwise VJP chains of `Tanh`/`Gelu` are emitted as fused kernels.
//! Both are value-preserving bit for bit: each fused kernel performs the
//! same floating-point operations in the same per-element order as the
//! primitive chain it replaces, and duplicated contributions are still
//! delivered as separate accumulate calls so the accumulation order is
//! unchanged. The unfused chains survive as the oracle of these claims in
//! the tests (`unfused_tests.rs`), built from public primitives.
//!
//! [`Graph::backward`] is the same walk over the same `propagate`, made
//! the tape's last: it releases every value the rest of the walk cannot
//! read, so the pass runs in the cache-sized set of buffers it is using
//! instead of streaming through the whole retained tape. Because nothing
//! differentiates what it emits, its GELU VJP is two nodes,
//! `mul(g, GeluDeriv(x, 1))`, where the retaining walk emits the 12-node
//! chain — the same bits, since `GeluDeriv(x, 1)` rounds every step of
//! that chain in order. `grad` keeps the chain because its output may be
//! differentiated again: the chain's second-order adjoints are what
//! `fused_vjps_match_unfused_bitwise_to_second_order` holds bitwise to the
//! unfused 18-node chain, which `GeluDeriv`'s analytic VJP (`g·σ''`) would
//! only approximate. `GeluDeriv(x, k)` itself — the forward
//! Laplacian's `σ'` and `σ''` — has the VJP `g·GeluDeriv(x, k + 1)` in
//! every walk, and `k = 3` none: a gradient through it panics.

use crate::graph::{for_each_input, Graph, Op, Var};
use mf_tensor::Layout;

/// Adjoint slot: the accumulated gradient `Var`, plus whether this graph
/// owns it as an in-place-extensible `AddAcc` accumulator.
type Slot = Option<(Var, bool)>;

/// The adjoint slots of one reverse walk.
///
/// A consuming walk also counts how many slots hold each node the walk
/// created: `Add`, `AddBias` and `AddScalar` hand one adjoint to several
/// inputs, so a node is dead only once the last slot lets go of it.
struct Adjoints {
    slots: Vec<Slot>,
    consume: bool,
    /// The first node the walk created: `holds[j - base]` counts node `j`.
    base: usize,
    holds: Vec<u32>,
    /// Nodes whose last slot let go of them, not yet released.
    unheld: Vec<Var>,
}

impl Adjoints {
    fn new(n: usize, base: usize, consume: bool) -> Self {
        Self {
            slots: vec![None; n],
            consume,
            base,
            holds: Vec::new(),
            unheld: Vec::new(),
        }
    }

    fn get(&self, v: Var) -> Slot {
        self.slots.get(v.0).copied().flatten()
    }

    /// Point `target`'s slot at `slot`, letting go of what it held.
    fn set(&mut self, target: Var, slot: (Var, bool)) {
        if self.consume {
            let k = slot.0 .0 - self.base;
            if k >= self.holds.len() {
                self.holds.resize(k + 1, 0);
            }
            self.holds[k] += 1;
        }
        if let Some((old, _)) = self.slots[target.0].replace(slot) {
            self.let_go(old);
        }
    }

    /// Empty `target`'s slot: its adjoint has been propagated.
    fn clear(&mut self, target: Var) {
        if let Some((old, _)) = self.slots[target.0].take() {
            self.let_go(old);
        }
    }

    fn let_go(&mut self, v: Var) {
        if self.consume {
            let h = &mut self.holds[v.0 - self.base];
            *h -= 1;
            if *h == 0 {
                self.unheld.push(v);
            }
        }
    }

    fn held(&self, v: Var) -> bool {
        self.holds.get(v.0 - self.base).is_some_and(|&h| h > 0)
    }
}

impl Graph {
    /// Reverse-mode gradients of a scalar `output` with respect to `wrt`.
    ///
    /// Returns one `Var` per entry of `wrt`, in order. Variables that the
    /// output does not depend on receive a zero constant of matching shape.
    /// The tape is retained, so the returned gradients can be
    /// differentiated again (`create_graph=True` in PyTorch's terms).
    ///
    /// Panics if `output` is not `1×1`.
    pub fn grad(&mut self, output: Var, wrt: &[Var]) -> Vec<Var> {
        self.reverse(output, wrt, false)
    }

    /// The tape's last reverse pass, like PyTorch's `loss.backward()`:
    /// the same gradients as [`Graph::grad`], bit for bit, from the same
    /// walk, but the walk *consumes* the tape as it goes.
    ///
    /// Once node `i` has been propagated its value is dead, because its
    /// consumers have larger indices and were walked first; so is every
    /// adjoint or VJP temporary that no adjoint slot still holds. Dead
    /// buffers go straight back to the pool, so the next VJP writes into
    /// one that is still in cache. Leaves, constants, the `wrt` variables
    /// and the returned gradients stay readable; reading any other walked
    /// node panics, and so does differentiating the returned gradients
    /// again — use `grad` for every pass but the last.
    ///
    /// Panics if `output` is not `1×1`.
    pub fn backward(&mut self, output: Var, wrt: &[Var]) -> Vec<Var> {
        self.reverse(output, wrt, true)
    }

    /// The reverse walk behind [`Graph::grad`] and, with `consume`,
    /// [`Graph::backward`].
    fn reverse(&mut self, output: Var, wrt: &[Var], consume: bool) -> Vec<Var> {
        assert_eq!(
            self.shape_of(output),
            (1, 1),
            "backward pass: output must be a scalar (got {:?}); reduce with sum()/mean() first",
            self.shape_of(output)
        );
        let n = output.0 + 1;

        // Mark ancestors of `output` that participate in differentiation.
        let mut needed = vec![false; n];
        if self.requires_grad(output) {
            let mut stack = vec![output.0];
            needed[output.0] = true;
            while let Some(i) = stack.pop() {
                for_each_input(self.op(Var(i)), |v| {
                    if self.requires_grad(v) && !needed[v.0] {
                        needed[v.0] = true;
                        stack.push(v.0);
                    }
                });
            }
        }

        let mut adjoint = Adjoints::new(n, self.len(), consume);
        if needed[output.0] {
            let mut one = self.alloc(1, 1);
            one.set(0, 0, 1.0);
            let seed = self.push(Op::Const, one, false);
            adjoint.set(output, (seed, false));
        }

        for i in (0..n).rev() {
            if !needed[i] {
                continue;
            }
            let Some((g, _)) = adjoint.get(Var(i)) else {
                continue;
            };
            let fresh = self.len();
            self.propagate(Var(i), g, &needed, &mut adjoint);
            if consume {
                self.release_spent(Var(i), wrt.contains(&Var(i)), fresh, &mut adjoint);
            }
        }

        wrt.iter()
            .map(|&w| match adjoint.get(w) {
                Some((v, _)) => v,
                None => {
                    let (r, c) = self.shape_of(w);
                    let zero = self.alloc(r, c);
                    self.push(Op::Const, zero, false)
                }
            })
            .collect()
    }

    /// After a consuming walk has propagated `node`: release its value and
    /// its adjoint (unless `node` is one of the walk's `wrt`), and every
    /// node the walk created that no slot holds any more. Nothing reads
    /// them again: the walk goes on to smaller indices only, and a node's
    /// VJP reads its inputs, itself and its own slot.
    fn release_spent(&mut self, node: Var, returned: bool, fresh: usize, adjoint: &mut Adjoints) {
        if !returned {
            adjoint.clear(node);
            if !matches!(self.op(node), Op::Leaf | Op::Const) {
                self.release(node);
            }
        }
        for j in fresh..self.len() {
            if !adjoint.held(Var(j)) {
                self.release(Var(j));
            }
        }
        for v in adjoint.unheld.drain(..) {
            self.release(v);
        }
    }

    /// Emit VJP nodes for one graph node and accumulate them on its inputs.
    fn propagate(&mut self, node: Var, g: Var, needed: &[bool], adjoint: &mut Adjoints) {
        let op = self.op(node).clone();
        match op {
            Op::Leaf | Op::Const => {}
            Op::Add(a, b) => {
                self.accumulate(a, g, needed, adjoint);
                self.accumulate(b, g, needed, adjoint);
            }
            Op::AddAcc(inputs) => {
                // Distribute in input order; duplicated inputs receive
                // separate contributions, preserving accumulation order.
                for a in inputs {
                    self.accumulate(a, g, needed, adjoint);
                }
            }
            Op::Sub(a, b) => {
                self.accumulate(a, g, needed, adjoint);
                if self.wants(b, needed) {
                    let nb = self.neg(g);
                    self.accumulate(b, nb, needed, adjoint);
                }
            }
            Op::Mul(a, b) => {
                if self.wants(a, needed) {
                    let ga = self.mul(g, b);
                    self.accumulate(a, ga, needed, adjoint);
                }
                if self.wants(b, needed) {
                    let gb = self.mul(g, a);
                    self.accumulate(b, gb, needed, adjoint);
                }
            }
            Op::Neg(a) => {
                if self.wants(a, needed) {
                    let ga = self.neg(g);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::Scale(a, s) => {
                if self.wants(a, needed) {
                    let ga = self.scale(g, s);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::AddScalar(a, _) => self.accumulate(a, g, needed, adjoint),
            Op::MatMul(a, la, b, lb) => {
                use Layout::{Normal as N, Transposed as T};
                if self.wants(a, needed) {
                    let ga = match (la, lb) {
                        (N, N) => self.matmul_layout(g, N, b, T),
                        (T, N) => self.matmul_layout(b, N, g, T),
                        (N, T) => self.matmul_layout(g, N, b, N),
                        (T, T) => self.matmul_layout(b, T, g, T),
                    };
                    self.accumulate(a, ga, needed, adjoint);
                }
                if self.wants(b, needed) {
                    let gb = match (la, lb) {
                        (N, N) => self.matmul_layout(a, T, g, N),
                        (T, N) => self.matmul_layout(a, N, g, N),
                        (N, T) => self.matmul_layout(g, T, a, N),
                        (T, T) => self.matmul_layout(g, T, a, T),
                    };
                    self.accumulate(b, gb, needed, adjoint);
                }
            }
            Op::Transpose(a) => {
                if self.wants(a, needed) {
                    let ga = self.transpose(g);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::SumAll(a) => {
                if self.wants(a, needed) {
                    let (r, c) = self.shape_of(a);
                    let ga = self.broadcast_scalar(g, r, c);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::MeanAll(a) => {
                if self.wants(a, needed) {
                    let (r, c) = self.shape_of(a);
                    let bs = self.broadcast_scalar(g, r, c);
                    let ga = self.scale(bs, 1.0 / (r * c) as f64);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::SumAxis0(a) => {
                if self.wants(a, needed) {
                    let q = self.shape_of(a).0;
                    let ga = self.broadcast_rows(g, q);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::BroadcastRows(a, _) => {
                if self.wants(a, needed) {
                    let ga = self.sum_axis0(g);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::BroadcastScalar(a, _, _) => {
                if self.wants(a, needed) {
                    let ga = self.sum(g);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::RepeatRows(a, q) => {
                if self.wants(a, needed) {
                    let ga = self.sum_groups(g, q);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::SumGroups(a, q) => {
                if self.wants(a, needed) {
                    let ga = self.repeat_rows(g, q);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::Reshape(a, _, _) => {
                if self.wants(a, needed) {
                    let (r, c) = self.shape_of(a);
                    let ga = self.reshape(g, r, c);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::SliceCols(a, start, _len) => {
                if self.wants(a, needed) {
                    let total = self.shape_of(a).1;
                    let ga = self.pad_cols(g, start, total);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::PadCols(a, start, _total) => {
                if self.wants(a, needed) {
                    let len = self.shape_of(a).1;
                    let ga = self.slice_cols(g, start, len);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::SliceRows(a, start, _len) => {
                if self.wants(a, needed) {
                    let total = self.shape_of(a).0;
                    let ga = self.pad_rows(g, start, total);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::PadRows(a, start, _total) => {
                if self.wants(a, needed) {
                    let len = self.shape_of(a).0;
                    let ga = self.slice_rows(g, start, len);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::ConcatCols(a, b) => {
                let ca = self.shape_of(a).1;
                let cb = self.shape_of(b).1;
                if self.wants(a, needed) {
                    let ga = self.slice_cols(g, 0, ca);
                    self.accumulate(a, ga, needed, adjoint);
                }
                if self.wants(b, needed) {
                    let gb = self.slice_cols(g, ca, cb);
                    self.accumulate(b, gb, needed, adjoint);
                }
            }
            Op::ConcatRows(a, b) => {
                let ra = self.shape_of(a).0;
                let rb = self.shape_of(b).0;
                if self.wants(a, needed) {
                    let ga = self.slice_rows(g, 0, ra);
                    self.accumulate(a, ga, needed, adjoint);
                }
                if self.wants(b, needed) {
                    let gb = self.slice_rows(g, ra, rb);
                    self.accumulate(b, gb, needed, adjoint);
                }
            }
            Op::Unfold1d(a, ch, k) => {
                if self.wants(a, needed) {
                    let batch = self.shape_of(a).0;
                    let ga = self.fold1d(g, batch, ch, k);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::Fold1d(a, _b, ch, k) => {
                if self.wants(a, needed) {
                    let ga = self.unfold1d(g, ch, k);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::AddBias(a, b) => {
                self.accumulate(a, g, needed, adjoint);
                if self.wants(b, needed) {
                    let gb = self.sum_axis0(g);
                    self.accumulate(b, gb, needed, adjoint);
                }
            }
            Op::Tanh(a) => {
                if self.wants(a, needed) {
                    // Fused g·(1 − tanh²): one node instead of four, same
                    // per-element arithmetic.
                    let ga = self.tanh_vjp(g, node);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::TanhVjp(gin, y) => {
                // f(g, y) = g·(1 − y²): ∂f/∂g = 1 − y², ∂f/∂y = −2gy.
                // Emitted exactly like the VJPs of the unfused chain
                // mul(g, add_scalar(neg(mul(y, y)), 1)).
                if self.wants(gin, needed) {
                    let omv = self.one_minus_sq(y);
                    let gg = self.mul(g, omv);
                    self.accumulate(gin, gg, needed, adjoint);
                }
                if self.wants(y, needed) {
                    let hm = self.mul(g, gin);
                    let nhm = self.neg(hm);
                    let c = self.mul(nhm, y);
                    self.accumulate(y, c, needed, adjoint);
                    self.accumulate(y, c, needed, adjoint);
                }
            }
            Op::OneMinusSq(y) => {
                if self.wants(y, needed) {
                    // d(1 − y²) = −2y, delivered as the two mul(−g, y)
                    // contributions the unfused y·y chain would produce.
                    let nh = self.neg(g);
                    let c = self.mul(nh, y);
                    self.accumulate(y, c, needed, adjoint);
                    self.accumulate(y, c, needed, adjoint);
                }
            }
            Op::GeluInner(x, x3) => {
                // u = √(2/π)(x + c·x³): ∂u/∂x = √(2/π), ∂u/∂x³ = √(2/π)·c.
                if self.wants(x, needed) || self.wants(x3, needed) {
                    use crate::ops::{GELU_C, GELU_SQRT_2_OVER_PI};
                    let hs = self.scale(g, GELU_SQRT_2_OVER_PI);
                    self.accumulate(x, hs, needed, adjoint);
                    if self.wants(x3, needed) {
                        let hc = self.scale(hs, GELU_C);
                        self.accumulate(x3, hc, needed, adjoint);
                    }
                }
            }
            Op::GeluDu(x2) => {
                if self.wants(x2, needed) {
                    use crate::ops::{GELU_C, GELU_SQRT_2_OVER_PI};
                    let s1 = self.scale(g, GELU_SQRT_2_OVER_PI);
                    let s2 = self.scale(s1, 3.0 * GELU_C);
                    self.accumulate(x2, s2, needed, adjoint);
                }
            }
            Op::HalfOnePlus(t) => {
                if self.wants(t, needed) {
                    let c = self.scale(g, 0.5);
                    self.accumulate(t, c, needed, adjoint);
                }
            }
            Op::GeluDeriv(x, k) => {
                if self.wants(x, needed) {
                    assert!(
                        k < 3,
                        "GeluDeriv(x, 3) has no VJP: a fourth GELU derivative is never \
                         needed (the forward Laplacian's σ'' reaches σ''' in the weight \
                         gradient, which nothing differentiates again)"
                    );
                    let d = self.gelu_deriv(x, k + 1);
                    let gx = self.mul(g, d);
                    self.accumulate(x, gx, needed, adjoint);
                }
            }
            Op::Exp(a) => {
                if self.wants(a, needed) {
                    let ga = self.mul(g, node);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::Sin(a) => {
                if self.wants(a, needed) {
                    let ca = self.cos(a);
                    let ga = self.mul(g, ca);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::Cos(a) => {
                if self.wants(a, needed) {
                    let sa = self.sin(a);
                    let nsa = self.neg(sa);
                    let ga = self.mul(g, nsa);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
            Op::Gelu(a) => {
                if self.wants(a, needed) {
                    let deriv = if adjoint.consume {
                        // The tape's last pass: nothing differentiates this
                        // VJP again, so gelu'(x) is one node with the bits
                        // of the chain below.
                        self.gelu_deriv(a, 1)
                    } else {
                        // gelu'(x) = ½(1 + t) + ½x (1 − t²)·u'(x),
                        // t = tanh(u), u = √(2/π)(x + c x³),
                        // u' = √(2/π)(1 + 3c x²), with the scalar-chain
                        // segments fused: 12 nodes instead of 18, same
                        // per-element arithmetic and accumulation order.
                        let x2 = self.mul(a, a);
                        let x3 = self.mul(x2, a);
                        let u = self.gelu_inner(a, x3);
                        let t = self.tanh(u);
                        let term1 = self.half_one_plus(t);
                        let omv = self.one_minus_sq(t);
                        let du = self.gelu_du(x2);
                        let half_x = self.scale(a, 0.5);
                        let hs = self.mul(half_x, omv);
                        let term2 = self.mul(hs, du);
                        self.add(term1, term2)
                    };
                    let ga = self.mul(g, deriv);
                    self.accumulate(a, ga, needed, adjoint);
                }
            }
        }
    }

    #[inline]
    fn wants(&self, v: Var, needed: &[bool]) -> bool {
        v.0 < needed.len() && needed[v.0]
    }

    /// Fold `contribution` into `target`'s adjoint slot.
    ///
    /// One `AddAcc` accumulator grows per slot: the second contribution
    /// allocates the accumulator buffer, every further one adds in place
    /// and re-pushes the node with the extended input list (the superseded
    /// accumulator is hollowed out, never mutated — in-place op mutation
    /// would put higher-index inputs on a lower-index node and break the
    /// reverse sweep of later backward passes). The accumulated value is
    /// `((c₁+c₂)+c₃)+…` in arrival order, bitwise a chain of binary `Add`s.
    fn accumulate(
        &mut self,
        target: Var,
        contribution: Var,
        needed: &[bool],
        adjoint: &mut Adjoints,
    ) {
        if !self.wants(target, needed) {
            return;
        }
        let slot = match adjoint.get(target) {
            None => (contribution, false),
            Some((prev, false)) => {
                let (r, c) = self.shape_of(prev);
                let mut val = self.alloc(r, c);
                self.value(prev)
                    .add_into(self.value(contribution), &mut val);
                let acc = self.push_op(Op::AddAcc(vec![prev, contribution]), val);
                (acc, true)
            }
            Some((acc, true)) => {
                let mut inputs = match self.op(acc) {
                    Op::AddAcc(inputs) => inputs.clone(),
                    _ => unreachable!("owned adjoint slot must be an AddAcc node"),
                };
                let mut val = self.take_value(acc);
                val.add_assign(self.value(contribution));
                inputs.push(contribution);
                let next = self.push_op(Op::AddAcc(inputs), val);
                (next, true)
            }
        };
        adjoint.set(target, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unfused_tests as unfused;
    use crate::Graph;
    use mf_tensor::Tensor;

    #[test]
    fn grad_of_linear_combination() {
        // f = 3a + 2b ⇒ df/da = 3, df/db = 2
        let mut g = Graph::new();
        let a = g.leaf(Tensor::scalar(5.0));
        let b = g.leaf(Tensor::scalar(7.0));
        let ta = g.scale(a, 3.0);
        let tb = g.scale(b, 2.0);
        let f = g.add(ta, tb);
        let grads = g.grad(f, &[a, b]);
        assert_eq!(g.value(grads[0]).item(), 3.0);
        assert_eq!(g.value(grads[1]).item(), 2.0);
    }

    #[test]
    fn grad_of_matmul_is_correct() {
        // f = sum(A·B): dA = 1·Bᵀ, dB = Aᵀ·1.
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.leaf(Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b);
        let f = g.sum(c);
        let grads = g.grad(f, &[a, b]);
        // dA[i,j] = sum_k B[j,k]
        assert_eq!(g.value(grads[0]).as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        // dB[i,j] = sum_k A[k,i]
        assert_eq!(g.value(grads[1]).as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn unused_variable_gets_zero_grad() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::scalar(1.0));
        let b = g.leaf(Tensor::ones(2, 3));
        let f = g.mul(a, a);
        let s = g.sum(f);
        let grads = g.grad(s, &[a, b]);
        assert_eq!(g.value(grads[0]).item(), 2.0);
        assert_eq!(g.value(grads[1]).shape(), (2, 3));
        assert_eq!(g.value(grads[1]).norm_linf(), 0.0);
    }

    #[test]
    fn second_derivative_of_cubic() {
        // f = x³ summed; f' = 3x², f'' = 6x, f''' = 6.
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, 2.0, -1.5]));
        let x2 = g.mul(x, x);
        let x3 = g.mul(x2, x);
        let f = g.sum(x3);
        let d1 = g.grad(f, &[x])[0];
        assert!(g
            .value(d1)
            .allclose(&Tensor::row_vector(&[3.0, 12.0, 6.75]), 1e-12));
        let s1 = g.sum(d1);
        let d2 = g.grad(s1, &[x])[0];
        assert!(g
            .value(d2)
            .allclose(&Tensor::row_vector(&[6.0, 12.0, -9.0]), 1e-12));
        let s2 = g.sum(d2);
        let d3 = g.grad(s2, &[x])[0];
        assert!(g.value(d3).allclose(&Tensor::full(1, 3, 6.0), 1e-12));
    }

    #[test]
    fn tanh_derivatives() {
        // d tanh = 1 - tanh², d² tanh = -2 tanh (1 - tanh²).
        let mut g = Graph::new();
        let x0 = 0.37;
        let x = g.leaf(Tensor::scalar(x0));
        let y = g.tanh(x);
        let d1 = g.grad(y, &[x])[0];
        let t = x0.tanh();
        assert!((g.value(d1).item() - (1.0 - t * t)).abs() < 1e-12);
        let d2 = g.grad(d1, &[x])[0];
        assert!((g.value(d2).item() - (-2.0 * t * (1.0 - t * t))).abs() < 1e-12);
    }

    #[test]
    fn exp_is_its_own_derivative() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(0.8));
        let y = g.exp(x);
        let d1 = g.grad(y, &[x])[0];
        let d2 = g.grad(d1, &[x])[0];
        let e = (0.8f64).exp();
        assert!((g.value(d1).item() - e).abs() < 1e-12);
        assert!((g.value(d2).item() - e).abs() < 1e-12);
    }

    #[test]
    fn grad_through_shared_subexpression_accumulates() {
        // f = x·y + x ⇒ df/dx = y + 1.
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        let y = g.leaf(Tensor::scalar(5.0));
        let xy = g.mul(x, y);
        let f = g.add(xy, x);
        let d = g.grad(f, &[x])[0];
        assert_eq!(g.value(d).item(), 6.0);
    }

    #[test]
    fn many_contributions_accumulate_in_one_buffer() {
        // f = x + x + x + x (four contributions to x's adjoint).
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, -2.0]));
        let s1 = g.add(x, x);
        let s2 = g.add(s1, x);
        let s3 = g.add(s2, x);
        let f = g.sum(s3);
        let d = g.grad(f, &[x])[0];
        assert_eq!(g.value(d).as_slice(), &[4.0, 4.0]);
        // The adjoint is a single AddAcc node with four inputs.
        assert!(matches!(g.op(d), Op::AddAcc(inputs) if inputs.len() == 4));
    }

    #[test]
    fn grad_through_repeat_and_sum_groups() {
        // f = sum(repeat_rows(x, q) * c): df/dx[i] = sum of the q copies' weights.
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(2, 1, vec![1.0, 2.0]));
        let c = g.constant(Tensor::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]));
        let r = g.repeat_rows(x, 2);
        let p = g.mul(r, c);
        let f = g.sum(p);
        let d = g.grad(f, &[x])[0];
        assert_eq!(g.value(d).as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn grad_through_unfold() {
        // f = sum(unfold(x)) counts every position k times (circular).
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, 2.0, 3.0, 4.0, 5.0]));
        let u = g.unfold1d(x, 1, 3);
        let f = g.sum(u);
        let d = g.grad(f, &[x])[0];
        assert!(g.value(d).allclose(&Tensor::full(1, 5, 3.0), 1e-12));
    }

    #[test]
    fn grad_through_slices_and_concat() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, 2.0, 3.0, 4.0]));
        let left = g.slice_cols(x, 0, 2);
        let right = g.slice_cols(x, 2, 2);
        let two_right = g.scale(right, 2.0);
        let cat = g.concat_cols(left, two_right);
        let f = g.sum(cat);
        let d = g.grad(f, &[x])[0];
        assert_eq!(g.value(d).as_slice(), &[1.0, 1.0, 2.0, 2.0]);
    }

    /// Every element's bits.
    fn bits(t: &Tensor) -> Vec<u64> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn grad_through_add_bias_matches_broadcast_chain() {
        let x_t = Tensor::from_fn(4, 3, |r, c| ((r * 3 + c) as f64 * 0.21).sin());
        let b_t = Tensor::row_vector(&[0.3, -0.2, 0.15]);
        let run = |fused: bool| {
            let mut g = Graph::new();
            let x = g.leaf(x_t.clone());
            let b = g.leaf(b_t.clone());
            let y = if fused {
                g.add_bias(x, b)
            } else {
                unfused::add_bias(&mut g, x, b)
            };
            let t = g.tanh(y);
            let f = g.mean(t);
            let d = g.grad(f, &[x, b]);
            (bits(g.value(d[0])), bits(g.value(d[1])))
        };
        assert_eq!(run(true), run(false));
    }

    /// A tape with every sharing pattern the slot counts must get right:
    /// `Add` of a node with itself, `AddBias` (or `BroadcastRows` + `Add`)
    /// and `AddScalar` handing one adjoint to several inputs, and an inner
    /// gradient the final pass differentiates through: `grad`'s fused
    /// VJPs, or with `!fused` the unfused chains built by hand in the
    /// order the walk emits its own.
    fn shared_tape(g: &mut Graph, fused: bool) -> (Var, Var, Var) {
        let x = g.leaf(Tensor::from_fn(3, 2, |r, c| {
            ((r * 2 + c) as f64 * 0.7).sin()
        }));
        let b = g.leaf(Tensor::row_vector(&[0.3, -0.8]));
        let h = if fused {
            g.add_bias(x, b)
        } else {
            unfused::add_bias(g, x, b)
        };
        let t = g.tanh(h);
        let tt = g.add(t, t);
        let e = g.gelu(tt);
        let p = g.mul(e, x);
        let s = g.add_scalar(p, 1.5);
        let f = g.sum(s);
        let dx = if fused {
            g.grad(f, &[x])[0]
        } else {
            let seed = g.constant_scalar(1.0);
            let (r, c) = g.shape_of(s);
            let gs = g.broadcast_scalar(seed, r, c);
            let ge = g.mul(gs, x);
            let gx = g.mul(gs, e);
            let gtt = unfused::gelu_vjp(g, ge, tt);
            let gt = g.add(gtt, gtt);
            let gh = unfused::tanh_vjp(g, gt, t);
            g.add(gx, gh)
        };
        let q = g.mul(dx, dx);
        let sq = g.sum(q);
        let loss = g.add(sq, f);
        (loss, x, b)
    }

    #[test]
    fn backward_equals_grad_bitwise_on_fused_and_unfused_tapes() {
        let run = |fused: bool, consume: bool| {
            let mut g = Graph::new();
            let (loss, x, b) = shared_tape(&mut g, fused);
            let grads = if consume {
                g.backward(loss, &[x, b])
            } else {
                g.grad(loss, &[x, b])
            };
            let vals: Vec<Vec<u64>> = grads.iter().map(|&v| bits(g.value(v))).collect();
            (vals, g.peak_bytes(), g.bytes_allocated())
        };
        for fused in [true, false] {
            let (kept, kept_peak, kept_bytes) = run(fused, false);
            let (consumed, consumed_peak, consumed_bytes) = run(fused, true);
            assert_eq!(consumed, kept, "fused = {fused}");
            assert!(consumed_peak < kept_peak, "fused = {fused}");
            assert!(consumed_bytes < kept_bytes, "fused = {fused}");
        }
        // Through the inner gradient is second order: the fused VJPs give
        // the unfused chains' bits.
        assert_eq!(run(true, false).0, run(false, false).0);
    }

    #[test]
    fn backward_consumes_intermediates_but_keeps_leaves_and_gradients() {
        let mut g = Graph::new();
        let x_t = Tensor::row_vector(&[0.5, -1.0, 2.0]);
        let x = g.leaf(x_t.clone());
        let c = g.constant(Tensor::row_vector(&[1.0, 2.0, 3.0]));
        let t = g.tanh(x);
        let y = g.mul(t, c);
        let f = g.sum(y);
        let dx = g.backward(f, &[x])[0];
        let expect = Tensor::from_fn(1, 3, |_, i| {
            (i + 1) as f64 * (1.0 - x_t.get(0, i).tanh().powi(2))
        });
        assert!(g.value(dx).allclose(&expect, 1e-12));
        assert_eq!(g.value(x), &x_t);
        assert_eq!(g.value(c).as_slice(), &[1.0, 2.0, 3.0]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = g.value(t);
        }))
        .expect_err("a consumed intermediate must not be readable");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("released by backward"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "must be a scalar")]
    fn grad_rejects_non_scalar_output() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(2, 2));
        let y = g.mul(x, x);
        let _ = g.grad(y, &[x]);
    }

    #[test]
    fn grad_wrt_constant_output_is_zero() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(3.0));
        let c = g.constant(Tensor::scalar(4.0));
        let f = g.mul(c, c);
        let s = g.sum(f);
        let d = g.grad(s, &[x])[0];
        assert_eq!(g.value(d).item(), 0.0);
    }

    #[test]
    fn gelu_first_derivative_matches_finite_difference() {
        let h = 1e-6;
        for &x0 in &[-1.5, -0.3, 0.0, 0.7, 2.1] {
            let mut g = Graph::new();
            let x = g.leaf(Tensor::scalar(x0));
            let y = g.gelu(x);
            let d = g.grad(y, &[x])[0];
            let analytic = g.value(d).item();

            let eval = |v: f64| {
                let mut gg = Graph::new();
                let xx = gg.leaf(Tensor::scalar(v));
                let yy = gg.gelu(xx);
                gg.value(yy).item()
            };
            let numeric = (eval(x0 + h) - eval(x0 - h)) / (2.0 * h);
            assert!(
                (analytic - numeric).abs() < 1e-6,
                "gelu'({x0}): analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    /// The design claim of the fused backward: fused kernels and AddAcc
    /// accumulation reproduce the unfused chains bitwise through two
    /// orders of differentiation. At third order the values may differ by
    /// a few ulps: the unfused Tanh/Gelu VJP chains *reuse* their
    /// first-backward intermediate nodes (e.g. `1 − t²`), so third-order
    /// adjoints sum the same terms in a different association order than
    /// the fused ops, which emit fresh nodes. That is far inside the 1e-9
    /// golden-fixture tolerance.
    #[test]
    fn fused_derivatives_match_unfused_chains_to_third_order() {
        let x_t = Tensor::row_vector(&[-1.3, -0.4, 0.0, 0.31, 0.9, 1.7]);
        let run = |fused: bool| {
            let mut g = Graph::new();
            let x = g.leaf(x_t.clone());
            let d1 = unfused::tanh_gelu_grad(&mut g, x, fused);
            let s1 = g.sum(d1);
            let d2 = g.grad(s1, &[x])[0];
            let s2 = g.sum(d2);
            let d3 = g.grad(s2, &[x])[0];
            (
                g.value(d1).clone(),
                g.value(d2).clone(),
                g.value(d3).clone(),
            )
        };
        let fused = run(true);
        let chains = run(false);
        for (x, y) in fused.0.as_slice().iter().zip(chains.0.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "order-1 drifted: {x:e} vs {y:e}");
        }
        for (x, y) in fused.1.as_slice().iter().zip(chains.1.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "order-2 drifted: {x:e} vs {y:e}");
        }
        for (x, y) in fused.2.as_slice().iter().zip(chains.2.as_slice()) {
            assert!(
                (x - y).abs() <= 1e-12 * y.abs().max(1.0),
                "order-3 drifted beyond 1e-12: {x:e} vs {y:e}"
            );
        }
    }
}

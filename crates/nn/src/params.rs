//! Parameter storage that persists across training iterations.
//!
//! The autodiff [`Graph`](mf_autodiff::Graph) is rebuilt every step (it is
//! a tape); parameters must outlive it. [`Params`] owns the tensors,
//! [`Params::bind`] registers them as differentiable leaves on a fresh
//! graph, and the optimizer updates them in place through
//! [`Params::tensors_mut`] or the flat-vector view used by the distributed
//! allreduce.

use mf_autodiff::{Graph, Var};
use mf_tensor::Tensor;

/// Index of a parameter within a [`Params`] store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Named, ordered collection of parameter tensors.
#[derive(Clone, Debug, Default)]
pub struct Params {
    entries: Vec<(String, Tensor)>,
}

/// Graph leaves for one binding of a [`Params`] store.
#[derive(Clone, Debug)]
pub struct Bound {
    vars: Vec<Var>,
}

impl Params {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter; the returned id is stable for the lifetime of
    /// the store.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.entries.push((name.into(), value));
        ParamId(self.entries.len() - 1)
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.numel()).sum()
    }

    /// Access a parameter tensor.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].1
    }

    /// Mutable access to a parameter tensor.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].1
    }

    /// Parameter name (for debugging / serialization).
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].0
    }

    /// Iterate over `(name, tensor)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Mutable iterator over tensors in registration order (optimizer use).
    pub fn tensors_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        self.entries.iter_mut().map(|(_, t)| t)
    }

    /// Register all parameters as leaves on `g`, in order.
    pub fn bind(&self, g: &mut Graph) -> Bound {
        Bound {
            vars: self.entries.iter().map(|(_, t)| g.leaf_from(t)).collect(),
        }
    }

    /// Concatenate all parameters into one flat vector (allreduce wire
    /// format).
    pub fn flatten(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.numel());
        for (_, t) in &self.entries {
            out.extend_from_slice(t.as_slice());
        }
        out
    }

    /// Overwrite all parameters from a flat vector produced by a store with
    /// the same structure.
    pub fn unflatten(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.numel(), "unflatten: length mismatch");
        let mut off = 0;
        for (_, t) in &mut self.entries {
            let n = t.numel();
            t.as_mut_slice().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }
}

impl Bound {
    /// The graph leaf for a parameter.
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }

    /// All leaves, in registration order — pass to
    /// [`Graph::grad`](mf_autodiff::Graph::grad) to get every gradient.
    pub fn all_vars(&self) -> &[Var] {
        &self.vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_roundtrip() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::ones(2, 3));
        assert_eq!(p.len(), 1);
        assert_eq!(p.numel(), 6);
        assert_eq!(p.name(id), "w");
        assert_eq!(p.get(id).shape(), (2, 3));
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let mut p = Params::new();
        p.add("a", Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        p.add("b", Tensor::from_vec(2, 1, vec![4.0, 5.0]));
        let flat = p.flatten();
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut q = p.clone();
        q.unflatten(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(q.flatten(), vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        // Structure preserved.
        assert_eq!(q.get(ParamId(1)).shape(), (2, 1));
    }

    #[test]
    fn bind_creates_leaves_with_current_values() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::full(2, 2, 3.0));
        let mut g = Graph::new();
        let bound = p.bind(&mut g);
        assert!(g.requires_grad(bound.var(id)));
        assert_eq!(g.value(bound.var(id)).get(1, 1), 3.0);
        assert_eq!(bound.all_vars().len(), 1);
    }

    #[test]
    fn gradients_flow_to_bound_parameters() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::from_vec(1, 2, vec![2.0, 5.0]));
        let mut g = Graph::new();
        let b = p.bind(&mut g);
        let w = b.var(id);
        let sq = g.mul(w, w);
        let loss = g.sum(sq);
        let grads = g.grad(loss, b.all_vars());
        assert_eq!(g.value(grads[0]).as_slice(), &[4.0, 10.0]);
    }
}

#![warn(missing_docs)]

//! Tensor-valued reverse-mode automatic differentiation with
//! **differentiable vector-Jacobian products**.
//!
//! The paper's physics-informed loss takes the Laplacian `∂²u/∂x² + ∂²u/∂y²`
//! of the network output with respect to its *inputs* inside a loss that is
//! then differentiated with respect to the *weights* — three chained
//! backward passes (§5.2 of the paper). PyTorch supports this via
//! `autograd.grad(..., create_graph=True)`; this crate reproduces the same
//! semantics from scratch. Training itself now pushes the Laplacian forward
//! through the network (`mf-nn`'s `SdNet::forward_laplacian`) and needs one
//! backward; the triple backward is what Table 3 meters and what the tests
//! hold the forward Laplacian to:
//!
//! * computation is recorded on an arena [`Graph`] of tensor-valued nodes,
//! * [`Graph::grad`] walks the graph in reverse and **emits new graph
//!   nodes** for every adjoint, so gradients are themselves differentiable
//!   to arbitrary order,
//! * every primitive's VJP is expressed in terms of the same primitive set,
//!   which makes the rule set closed under differentiation.
//!
//! Two entry points run that one reverse walk:
//!
//! * [`Graph::grad`] is `torch.autograd.grad(..., create_graph=True)`: it
//!   *retains* the tape, so its gradients can be differentiated again;
//! * [`Graph::backward`] is `loss.backward()`: the tape's last pass, with
//!   the same gradients bit for bit, *consuming* the tape as it walks —
//!   each value goes back to the buffer pool as soon as nothing later in
//!   the walk reads it, so the pass runs in cache instead of streaming
//!   through everything the forward and the inner passes recorded.
//!
//! A tape holds every value it records until a consuming backward frees
//! it. The arena meters the bytes its node values hold
//! ([`Graph::bytes_allocated`], with its high-water mark
//! [`Graph::peak_bytes`]); read before the last backward, that is the
//! footprint of a tape that keeps every node, which is how the repository
//! reproduces the autograd-memory measurements of Table 3.
//!
//! # Example
//!
//! ```
//! use mf_autodiff::Graph;
//! use mf_tensor::Tensor;
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(3, 1, vec![0.5, 1.0, 2.0]));
//! let y = g.mul(x, x); // y = x²  (per element)
//! let s = g.sum(y);
//! let dx = g.grad(s, &[x])[0]; // dy/dx = 2x
//! assert!(g.value(dx).allclose(&Tensor::from_vec(3, 1, vec![1.0, 2.0, 4.0]), 1e-12));
//! // Second derivative: differentiate the gradient again.
//! let s2 = g.sum(dx);
//! let dxx = g.grad(s2, &[x])[0]; // d²y/dx² = 2
//! assert!(g.value(dxx).allclose(&Tensor::full(3, 1, 2.0), 1e-12));
//! // The last pass may consume the tape: same bits, freed as it walks.
//! let s3 = g.sum(dxx);
//! let s3 = g.add(s3, s);
//! let d = g.backward(s3, &[x])[0]; // d/dx (Σ 2 + Σ x²) = 2x
//! assert!(g.value(d).allclose(&Tensor::from_vec(3, 1, vec![1.0, 2.0, 4.0]), 1e-12));
//! ```

mod backward;
mod graph;
mod ops;

pub use graph::{Graph, Op, Var};

#[cfg(test)]
mod adjoint_tests;
#[cfg(test)]
mod finite_diff_tests;
#[cfg(test)]
mod unfused_tests;

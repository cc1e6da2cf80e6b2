#![warn(missing_docs)]

//! Neural-network layers and the SDNet architecture (§3 of the paper).
//!
//! SDNet maps a discretized boundary condition `ĝ` and query coordinates
//! `x` to the BVP solution `u(x)`. Its architecture (Fig. 3):
//!
//! 1. a stack of **circular 1-D convolutions** embeds the boundary curve
//!    (closed around the subdomain, hence circular padding),
//! 2. the **input-split first layer** (§3.2) computes
//!    `φ(ĝW₁ᵀ ⊕ XW₂ᵀ)`, sharing the boundary embedding across all query
//!    points of that boundary instead of replicating it,
//! 3. a GELU MLP trunk and a scalar head. GELU (tanh approximation, §3.1)
//!    is the network's one nonlinearity: it also sits between the conv
//!    layers, and no setting selects another.
//!
//! The *input-concat baseline* (replicating `ĝ` for every query point, as
//! in eq. 5/6) is also implemented; Fig. 5 compares the two.
//!
//! Parameters live in a [`Params`] store that persists across training
//! steps; each step binds them as graph leaves ([`Params::bind`]).

mod conv;
mod io;
mod linear;
mod params;
mod sdnet;

pub use conv::CircularConv1d;
pub use io::wire;
pub use linear::Linear;
pub use params::{Bound, ParamId, Params};
pub use sdnet::{EmbeddingKind, SdNet, SdNetConfig};

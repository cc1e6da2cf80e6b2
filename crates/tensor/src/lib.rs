#![warn(missing_docs)]

//! Dense row-major `f64` tensors for the Mosaic Flow stack.
//!
//! This crate is the numerical substrate shared by the autodiff engine
//! (`mf-autodiff`), the finite-difference solvers (`mf-numerics`) and the
//! neural-network layers (`mf-nn`). It deliberately implements only what
//! physics-informed neural PDE solvers need:
//!
//! * a 2-D row-major [`Tensor`] (vectors are `1×n` or `n×1`),
//! * a blocked GEMM with optional transposes, row-parallel on the
//!   process-wide compute pool ([`par`]: one pool, one thread budget),
//! * runtime-dispatched kernel [`mod@backend`]s (`MF_BACKEND=scalar|simd`):
//!   a scalar reference and a vectorized implementation with a packed
//!   GEMM microkernel, a fused dense-layer kernel over pre-packed weights
//!   ([`Backend::layer`], [`PackedB`]) and vector `tanh`/`gelu`,
//! * the axis/broadcast operations required by the *input-split* layer of
//!   SDNet (grouped row repetition and grouped row summation),
//! * reductions and norms used by losses and convergence tests.
//!
//! All operations validate shapes and panic with a descriptive message on
//! mismatch; shape errors in a PDE solver are programming errors, not
//! recoverable conditions.

pub mod backend;
mod gemm;
mod inplace;
mod ops;
pub mod par;
mod pool;
#[cfg(test)]
mod proptests;
mod simd;
mod tensor;

pub use backend::{
    backend, backend_kind, check_gemm_contract, gelu_scalar, same_bits, set_backend, ulp_distance,
    with_backend, Act, Backend, BackendKind, PackedB, GELU_C, GELU_SQRT_2_OVER_PI,
};
pub use gemm::{gemm, gemm_into, Layout};
pub use inplace::{fold1d_circular_into, unfold1d_circular_into};
pub use ops::{fold1d_circular, unfold1d_circular};
pub use pool::{BufferPool, PoolStats};
pub use simd::{fmadd, FUSED};
pub use tensor::Tensor;

/// Relative/absolute tolerance comparison for floating-point test code.
///
/// Returns `true` when `|a - b| <= atol + rtol * |b|`.
#[inline]
pub fn close(a: f64, b: f64, rtol: f64, atol: f64) -> bool {
    (a - b).abs() <= atol + rtol * b.abs()
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn close_is_tolerant() {
        assert!(close(1.0, 1.0 + 1e-12, 1e-9, 1e-9));
        assert!(!close(1.0, 1.1, 1e-9, 1e-9));
    }
}

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
//! * one production kernel set, the vectorized [`backend::simd`] — a
//!   packed GEMM microkernel, the compiled plan's fused `f32` dense-layer
//!   kernel over pre-packed weights ([`Backend::layer`], [`PackedB`]) and
//!   vector `tanh`/`gelu` in `f64` and `f32` — with the scalar reference
//!   [`backend::scalar`] beside it as the test oracle
//!   ([`check_gemm_contract`], [`check_layer_contract`], ulp budgets),
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
    backend_kind, check_gemm_contract, check_layer_contract, gelu_scalar, gelu_scalar_f32,
    same_bits, ulp_distance, ulp_distance_f32, Act, Backend, BackendKind, PackedB, GELU_C,
    GELU_SQRT_2_OVER_PI,
};
pub use gemm::{gemm, gemm_into, gemm_overwrite, Layout};
pub use inplace::{fold1d_circular_into, unfold1d_circular_into, unfold1d_windows};
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

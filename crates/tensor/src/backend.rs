//! The kernel sets: the production simd kernels and the scalar reference.
//!
//! The [`Backend`] trait holds only the kernels whose two implementations
//! compute different things: GEMM row bands, the compiled inference plan's
//! fused `f32` layer and its activations, and `tanh` / `gelu`. Two
//! implementations exist:
//!
//! * **simd** ([`simd`]) — the kernels production runs: a packed,
//!   cache-blocked GEMM microkernel and vector `exp`/`tanh`/`gelu` (the
//!   private `simd` module). [`crate::gemm_into`], `tanh_into`,
//!   `gelu_into` and the compiled plan call it directly; there is no
//!   runtime choice. GEMM and the fused [`Backend::layer`] keep the scalar
//!   accumulation order but fuse each multiply-add when the build target
//!   has the instruction ([`crate::FUSED`]): bitwise identical to scalar
//!   on a build without it, within `2γ_k·(|A|·|B|)ᵢⱼ` of it
//!   ([`check_gemm_contract`], [`check_layer_contract`] with `f32`'s `γ`)
//!   on a build with it, and bitwise *itself* — across plans, partitions,
//!   pool widths and ranks — on either. (Where the target has `avx512f`,
//!   the `f32` layer for `n % 16 == 0` and the `f32` GELU run a 512-bit
//!   body chosen at compile time, bitwise the portable one.) `tanh` and `gelu`, in `f64` and in
//!   `f32`, use a different approximation and carry explicit ulp budgets
//!   (`tests/backend.rs` documents and enforces all of these).
//! * **scalar** ([`scalar`]) — the reference loops, the test oracle the
//!   differential tests hold the simd kernels to, kernel by kernel. No
//!   production path calls it.
//!
//! Every other kernel — the elementwise family and its fused VJPs,
//! axpy/add-acc, the circular unfold/fold pair behind SDNet's convolution —
//! has one body, in [`crate::Tensor`]'s methods and `inplace.rs`: a second
//! body doing the same arithmetic per element in a different loop shape
//! computes nothing new, and the compiler vectorizes the plain loop
//! without hand-chunking.
//!
//! Everything is `f64` except the compiled plan's kernels:
//! [`Backend::layer`] over a [`PackedB`] and [`Backend::activate_f32`] run
//! in `f32`, twice the lanes per vector, for inference only.
//!
//! The trait's default method bodies *are* the scalar reference
//! implementation; [`ScalarBackend`] adopts them unchanged so the
//! reference semantics live in exactly one place.

/// Constant `√(2/π)` of the GELU tanh approximation (shared by every
/// layer of the stack so graph, plan and backend kernels agree bitwise).
pub const GELU_SQRT_2_OVER_PI: f64 = 0.797_884_560_802_865_4;
/// Cubic coefficient of the GELU tanh approximation.
pub const GELU_C: f64 = 0.044715;

/// Scalar GELU (tanh approximation) — the reference formula.
#[inline]
pub fn gelu_scalar(x: f64) -> f64 {
    0.5 * x * (1.0 + (GELU_SQRT_2_OVER_PI * (x + GELU_C * x * x * x)).tanh())
}

/// [`gelu_scalar`] in `f32` arithmetic, on the constants rounded to `f32`:
/// the reference of [`Backend::activate_f32`].
#[inline]
pub fn gelu_scalar_f32(x: f32) -> f32 {
    const S: f32 = GELU_SQRT_2_OVER_PI as f32;
    const C: f32 = GELU_C as f32;
    0.5 * x * (1.0 + (S * (x + C * x * x * x)).tanh())
}

/// Cache block size along the `k` dimension of the GEMM kernels.
pub(crate) const KC: usize = 256;

/// Rows of the output per band: the unit [`crate::gemm_into`] shares out
/// over the compute pool, and the unit [`Backend::layer`] finishes (bias,
/// activation) while it is still in L1. Bands are handed whole to the
/// backend so its microkernel can tile rows; 64 rows keeps ≥30 tasks for
/// the training-shape GEMMs while amortizing per-band panel packing.
pub(crate) const BAND: usize = 64;

/// The pointwise nonlinearity a fused kernel ([`Backend::layer`],
/// [`Backend::activate_f32`]) ends with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Act {
    /// No-op.
    Identity,
    /// GELU, tanh approximation ([`Backend::gelu`]).
    Gelu,
}

/// A `k×n` right-hand operand of [`Backend::layer`] prepared once for many
/// products — a weight matrix of a compiled plan, rounded to `f32`. Holds
/// the matrix row-major (what the reference kernel reads) and cut into the
/// column panels the simd microkernel streams, so [`Backend::layer`] packs
/// nothing per call and either backend can run it.
#[derive(Clone, Debug)]
pub struct PackedB {
    k: usize,
    n: usize,
    rows: Vec<f32>,
    panels: Vec<f32>,
}

impl PackedB {
    /// Round the `k×n` matrix `b` to `f32` and pack it.
    pub fn new(b: &crate::Tensor) -> Self {
        let (k, n) = b.shape();
        let rows: Vec<f32> = b.as_slice().iter().map(|&v| v as f32).collect();
        Self {
            k,
            n,
            panels: crate::simd::pack_panels(&rows, k, n),
            rows,
        }
    }

    /// Inner dimension (rows of the matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width (columns of the matrix).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The matrix, row-major.
    pub fn rows(&self) -> &[f32] {
        &self.rows
    }

    /// The matrix in the simd backend's panel order.
    pub(crate) fn panels(&self) -> &[f32] {
        &self.panels
    }
}

/// Identifies a kernel implementation set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Reference loops, the test oracle.
    Scalar,
    /// Chunked/vectorized kernels with a packed GEMM microkernel.
    Simd,
}

impl BackendKind {
    /// Stable lowercase name (`"scalar"` / `"simd"`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }
}

/// The kernels whose scalar and simd implementations differ.
///
/// All methods operate on packed row-major slices so implementations stay
/// independent of [`crate::Tensor`] internals; the tensor layer validates
/// shapes before dispatching. Default bodies are the scalar reference
/// semantics.
pub trait Backend: Send + Sync {
    /// Which implementation set this is.
    fn kind(&self) -> BackendKind;

    /// `c += a · b` for one row band: `a` is `m×k`, `b` is `k×n`, `c` is
    /// `m×n`, all packed row-major with `m = c.len() / n`. Runs on the
    /// calling thread; [`crate::gemm_into`] parallelizes by invoking this
    /// once per band of output rows. Implementations must accumulate each
    /// output element as one ascending-`p` chain, whatever band or tile it
    /// falls in, so a backend agrees with itself bitwise under any row
    /// partition and with the other backend within the chain's rounding
    /// (see [`check_gemm_contract`]).
    fn gemm_band(&self, a: &[f64], b: &[f64], c: &mut [f64], k: usize, n: usize) {
        if n == 0 || k == 0 {
            return;
        }
        for (i, row) in c.chunks_mut(n).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            for p0 in (0..k).step_by(KC) {
                let p1 = (p0 + KC).min(k);
                for p in p0..p1 {
                    let aval = a_row[p];
                    if aval == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    for (r, &bv) in row.iter_mut().zip(b_row) {
                        *r += aval * bv;
                    }
                }
            }
        }
    }

    /// One dense layer of a compiled plan, in `f32`: `out = act(a · w +
    /// bias)`, **overwriting** `out` (`m×n`, `m = a.len() / k`). Every
    /// element is the ascending-`p` chain of multiply-adds started from
    /// `+0.0`, then the bias, then [`Backend::activate_f32`] — this default
    /// body is that reference, with a separate multiply and add per step.
    /// Implementations keep the chain, so they agree with themselves bitwise
    /// under any row partition and with this body within the chain's
    /// rounding ([`check_layer_contract`]).
    fn layer(&self, a: &[f32], w: &PackedB, bias: Option<&[f32]>, act: Act, out: &mut [f32]) {
        let (k, n) = (w.k(), w.n());
        if n == 0 {
            return;
        }
        out.fill(0.0);
        if k > 0 {
            for (a_row, row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                for (&x, w_row) in a_row.iter().zip(w.rows().chunks_exact(n)) {
                    for (o, &wv) in row.iter_mut().zip(w_row) {
                        *o += x * wv;
                    }
                }
            }
        }
        if let Some(bias) = bias {
            add_row(out, bias);
        }
        self.activate_f32(act, out);
    }

    /// `buf[i] = act(buf[i])` in place, in `f32`: the plan's activations,
    /// with the approximation of [`Backend::gelu`]. The reference is
    /// [`gelu_scalar_f32`].
    fn activate_f32(&self, act: Act, buf: &mut [f32]) {
        match act {
            Act::Identity => {}
            Act::Gelu => buf.iter_mut().for_each(|v| *v = gelu_scalar_f32(*v)),
        }
    }

    /// `out[i] = tanh(a[i])`.
    fn tanh(&self, a: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = x.tanh();
        }
    }

    /// `out[i] = gelu(a[i])` (tanh approximation, [`gelu_scalar`]).
    fn gelu(&self, a: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = gelu_scalar(x);
        }
    }
}

/// `rows[r][c] += row[c]` for every `row.len()`-wide row of `rows` (the
/// bias add of [`Backend::layer`]; `a + b` per element like the graph's
/// broadcast add).
pub(crate) fn add_row<T: Copy + std::ops::AddAssign>(rows: &mut [T], row: &[T]) {
    for r in rows.chunks_exact_mut(row.len()) {
        for (o, &b) in r.iter_mut().zip(row) {
            *o += b;
        }
    }
}

/// The reference backend: adopts every [`Backend`] default body
/// unchanged.
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }
}

static SCALAR: ScalarBackend = ScalarBackend;

/// The scalar reference backend instance: the oracle differential tests
/// hold [`simd`] to.
pub fn scalar() -> &'static dyn Backend {
    &SCALAR
}

/// The vectorized backend instance (the private `simd` module): the
/// kernels every production path calls.
#[inline]
pub fn simd() -> &'static dyn Backend {
    crate::simd::instance()
}

/// The kind of the production kernel set, [`simd`]'s: always
/// [`BackendKind::Simd`].
pub fn backend_kind() -> BackendKind {
    simd().kind()
}

/// Distance in units-in-the-last-place between two doubles, via the
/// order-preserving mapping of IEEE-754 bit patterns onto the integer
/// line. `±0` compare equal; NaNs are infinitely far from non-NaNs.
/// This is the metric the differential harness's per-kernel budgets are
/// expressed in.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0; // covers +0 vs -0
    }
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() {
            0
        } else {
            u64::MAX
        };
    }
    fn key(x: f64) -> u64 {
        let b = x.to_bits();
        if b >> 63 == 0 {
            b | 0x8000_0000_0000_0000
        } else {
            !b
        }
    }
    key(a).abs_diff(key(b))
}

/// Check the cross-backend GEMM contract, for the differential harness:
/// `scalar` and `simd` are the two backends' `c0 + a·b` (`a` is `m×k`, `b`
/// is `k×n`, `c0` the `m×n` start of the chains). A `t`-term ascending
/// multiply-add chain — fused or not — is within `γ_t·Σ|aₚ|·|bₚ|` of the
/// exact sum, `γ_t = tε / (1 − tε)`, `ε = 2⁻⁵³`, so where the simd chain is
/// fused ([`crate::FUSED`]) the two must be within
/// `2γ_{k+1}·(|c0| + |a|·|b|)ᵢⱼ` of each other elementwise (`c0` is the
/// chain's extra term); where it is not, the chains are the same and every
/// pair must be `same` — bits, or values for inputs with zeros, which only
/// the scalar kernel skips. `Err` names the first element that is not.
pub fn check_gemm_contract(
    (a, b, c0): (&[f64], &[f64], &[f64]),
    (k, n): (usize, usize),
    (scalar, simd): (&[f64], &[f64]),
    same: fn(f64, f64) -> bool,
) -> Result<(), String> {
    if scalar.len() != c0.len() || simd.len() != c0.len() {
        return Err("length mismatch".into());
    }
    let abs = |v: &[f64]| v.iter().map(|x| x.abs()).collect::<Vec<_>>();
    let mut magnitude = abs(c0);
    SCALAR.gemm_band(&abs(a), &abs(b), &mut magnitude, k, n);
    let terms_eps = (k + 1) as f64 * (f64::EPSILON / 2.0);
    let bound = 2.0 * terms_eps / (1.0 - terms_eps);
    for (i, ((&x, &y), &mag)) in scalar.iter().zip(simd).zip(&magnitude).enumerate() {
        let ok = if crate::FUSED {
            (x - y).abs() <= bound * mag
        } else {
            same(x, y)
        };
        if !ok {
            return Err(format!(
                "elem {i}: {x:e} vs {y:e} (|c0| + |a|·|b| = {mag:e})"
            ));
        }
    }
    Ok(())
}

/// [`check_gemm_contract`] for [`Backend::layer`]: `scalar` and `simd` are
/// the two backends' `a · w` (no bias, identity activation). The chains
/// run in `f32`, so `ε = 2⁻²⁴` and, started from `+0.0`, they have `k`
/// terms: within `2γ_k·(|a|·|w|)ᵢⱼ` of each other where the simd chain is
/// fused ([`crate::FUSED`]), the same bits where it is not (the reference
/// skips no zero, so there is no ±0 exception).
pub fn check_layer_contract(
    (a, w): (&[f32], &PackedB),
    (scalar, simd): (&[f32], &[f32]),
) -> Result<(), String> {
    let (k, n) = (w.k(), w.n());
    // Rows of the product; none to compare when it has no columns.
    let m = scalar.len().checked_div(n).unwrap_or(0);
    if scalar.len() != m * n || simd.len() != m * n || (n > 0 && a.len() != m * k) {
        return Err("length mismatch".into());
    }
    let terms_eps = k as f64 * (f32::EPSILON as f64 / 2.0);
    let bound = 2.0 * terms_eps / (1.0 - terms_eps);
    for (i, (&x, &y)) in scalar.iter().zip(simd).enumerate() {
        let (r, j) = (i / n, i % n);
        let mag: f64 = (0..k)
            .map(|p| (a[r * k + p] as f64 * w.rows()[p * n + j] as f64).abs())
            .sum();
        let ok = if crate::FUSED {
            (x as f64 - y as f64).abs() <= bound * mag
        } else {
            x.to_bits() == y.to_bits()
        };
        if !ok {
            return Err(format!("elem {i}: {x:e} vs {y:e} (|a|·|w| = {mag:e})"));
        }
    }
    Ok(())
}

/// [`ulp_distance`] between two `f32`s.
pub fn ulp_distance_f32(a: f32, b: f32) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() {
            0
        } else {
            u64::MAX
        };
    }
    fn key(x: f32) -> u32 {
        let b = x.to_bits();
        if b >> 31 == 0 {
            b | 0x8000_0000
        } else {
            !b
        }
    }
    key(a).abs_diff(key(b)) as u64
}

/// Bitwise equality of two doubles (`+0.0` and `−0.0` differ, a NaN equals
/// itself): the `same` of [`check_gemm_contract`] for zero-free inputs.
pub fn same_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        assert_eq!(BackendKind::Scalar.name(), "scalar");
        assert_eq!(BackendKind::Simd.name(), "simd");
        assert_eq!(scalar().kind(), BackendKind::Scalar);
        assert_eq!(simd().kind(), BackendKind::Simd);
        assert_eq!(backend_kind(), BackendKind::Simd);
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 7)), 7);
        // Crossing zero: smallest positive vs smallest negative subnormal
        // are three steps apart (+min → +0 → -0 → -min); ±0 themselves
        // compare equal via the `a == b` shortcut.
        assert_eq!(ulp_distance(f64::from_bits(1), -f64::from_bits(1)), 3);
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_distance(f64::NAN, f64::NAN), 0);
    }

    #[test]
    fn scalar_backend_matches_reference_formulas() {
        let xs: Vec<f64> = (-20..=20).map(|i| i as f64 * 0.3).collect();
        let mut got = vec![0.0; xs.len()];
        scalar().tanh(&xs, &mut got);
        for (&x, &g) in xs.iter().zip(&got) {
            assert_eq!(g.to_bits(), x.tanh().to_bits());
        }
        scalar().gelu(&xs, &mut got);
        for (&x, &g) in xs.iter().zip(&got) {
            assert_eq!(g.to_bits(), gelu_scalar(x).to_bits());
        }
    }
}

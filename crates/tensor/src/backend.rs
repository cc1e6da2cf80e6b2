//! Runtime-dispatched kernel backends.
//!
//! Every dense kernel the Mosaic Flow stack spends time in — GEMM row
//! bands, the elementwise/activation family and their VJPs, the circular
//! unfold/fold pair behind SDNet's convolution, and the compiled inference
//! plan's fused `f32` layer — is routed through the [`Backend`] trait. Two
//! implementations exist:
//!
//! * **scalar** — the original reference loops, kept bit-for-bit
//!   identical to the pre-backend code. Golden fixtures are recorded
//!   against this backend (see `tests/regression.rs`).
//! * **simd** — hand-vectorized chunked kernels with a packed,
//!   cache-blocked GEMM microkernel (the private `simd` module). The
//!   elementwise kernels do the scalar arithmetic per element and are
//!   bitwise identical. GEMM and the fused [`Backend::layer`] keep the
//!   scalar accumulation order but fuse each multiply-add when the build
//!   target has the instruction ([`crate::FUSED`]): bitwise identical to
//!   scalar on a build without it, within `2γ_k·(|A|·|B|)ᵢⱼ` of it
//!   ([`check_gemm_contract`], [`check_layer_contract`] with `f32`'s `γ`)
//!   on a build with it, and bitwise *itself* — across plans, partitions,
//!   pool widths and ranks — on either. `tanh` and `gelu`, in `f64` and in
//!   `f32`, use a different approximation and carry explicit ulp budgets
//!   (`tests/backend.rs` documents and enforces all of these).
//!
//! Everything is `f64` except the compiled plan's kernels:
//! [`Backend::layer`] over a [`PackedB`] and [`Backend::activate_f32`] run
//! in `f32`, twice the lanes per vector, for inference only.
//!
//! The live backend is chosen once from `MF_BACKEND`
//! (`scalar`/`simd`/`auto`, default `auto` = simd) and can be overridden
//! programmatically with [`set_backend`] or, scoped and race-free for
//! tests, [`with_backend`]. The choice is published on the
//! `backend.dispatch` telemetry gauge (1 = scalar, 2 = simd).
//!
//! The trait's default method bodies *are* the scalar reference
//! implementation; [`ScalarBackend`] adopts them unchanged so the
//! reference semantics live in exactly one place.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

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
/// [`Backend::activate`]) ends with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Act {
    /// No-op.
    Identity,
    /// Hyperbolic tangent ([`Backend::tanh`]).
    Tanh,
    /// GELU, tanh approximation ([`Backend::gelu`]).
    Gelu,
}

/// A `k×n` right-hand operand of [`Backend::layer`] prepared once for many
/// products — a weight matrix of a compiled plan, rounded to `f32`. Holds
/// the matrix row-major (what the reference kernel reads) and cut into the
/// column panels the simd microkernel streams, so [`Backend::layer`] packs
/// nothing per call and either backend can run a plan whichever one was
/// live when it was compiled.
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
    /// Reference loops; golden fixtures are recorded against these.
    Scalar,
    /// Chunked/vectorized kernels with a packed GEMM microkernel.
    Simd,
}

impl BackendKind {
    /// Stable lowercase name (`"scalar"` / `"simd"`), as accepted by the
    /// `MF_BACKEND` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    fn code(self) -> u8 {
        match self {
            BackendKind::Scalar => 1,
            BackendKind::Simd => 2,
        }
    }
}

/// The kernel surface both backends implement.
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

    /// `buf[i] = act(buf[i])` in place, with the arithmetic of
    /// [`Backend::tanh`] / [`Backend::gelu`].
    fn activate(&self, act: Act, buf: &mut [f64]) {
        match act {
            Act::Identity => {}
            Act::Tanh => buf.iter_mut().for_each(|v| *v = v.tanh()),
            Act::Gelu => buf.iter_mut().for_each(|v| *v = gelu_scalar(*v)),
        }
    }

    /// [`Backend::activate`] in `f32`: the plan's activations. The
    /// reference is `f32::tanh` and [`gelu_scalar_f32`].
    fn activate_f32(&self, act: Act, buf: &mut [f32]) {
        match act {
            Act::Identity => {}
            Act::Tanh => buf.iter_mut().for_each(|v| *v = v.tanh()),
            Act::Gelu => buf.iter_mut().for_each(|v| *v = gelu_scalar_f32(*v)),
        }
    }

    /// `out[i] = a[i] + b[i]`.
    fn add(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x + y;
        }
    }

    /// `out[i] = a[i] - b[i]`.
    fn sub(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x - y;
        }
    }

    /// `out[i] = a[i] * b[i]`.
    fn mul(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x * y;
        }
    }

    /// `out[i] = a[i] * s`.
    fn scale(&self, a: &[f64], s: f64, out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = x * s;
        }
    }

    /// `out[i] = a[i] + s`.
    fn add_scalar(&self, a: &[f64], s: f64, out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = x + s;
        }
    }

    /// `y[i] += alpha * x[i]` (axpy).
    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        for (o, &v) in y.iter_mut().zip(x) {
            *o += alpha * v;
        }
    }

    /// `y[i] += x[i]` (the add-acc kernel behind gradient accumulation).
    fn add_assign(&self, y: &mut [f64], x: &[f64]) {
        for (o, &v) in y.iter_mut().zip(x) {
            *o += v;
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

    /// Fused tanh backward: `out[i] = g[i] * (1 - t[i]²)` where
    /// `t = tanh(x)`.
    fn tanh_vjp(&self, g: &[f64], t: &[f64], out: &mut [f64]) {
        for ((o, &gv), &tv) in out.iter_mut().zip(g).zip(t) {
            *o = gv * (1.0 - tv * tv);
        }
    }

    /// `out[i] = 1 - t[i]²` (the sech² factor of `d tanh`).
    fn one_minus_sq(&self, t: &[f64], out: &mut [f64]) {
        for (o, &tv) in out.iter_mut().zip(t) {
            *o = 1.0 - tv * tv;
        }
    }

    /// Fused GELU pre-activation `√(2/π) (x + c·x³)` from `x` and `x³`.
    fn gelu_inner(&self, x: &[f64], x3: &[f64], out: &mut [f64]) {
        for ((o, &a), &c) in out.iter_mut().zip(x).zip(x3) {
            *o = (a + c * GELU_C) * GELU_SQRT_2_OVER_PI;
        }
    }

    /// Fused GELU inner derivative `√(2/π) (1 + 3c·x²)` from `x²`.
    fn gelu_du(&self, x2: &[f64], out: &mut [f64]) {
        for (o, &a) in out.iter_mut().zip(x2) {
            *o = (a * (3.0 * GELU_C) + 1.0) * GELU_SQRT_2_OVER_PI;
        }
    }

    /// `out[i] = (t[i] + 1) / 2`, fused.
    fn half_one_plus(&self, t: &[f64], out: &mut [f64]) {
        for (o, &a) in out.iter_mut().zip(t) {
            *o = (a + 1.0) * 0.5;
        }
    }

    /// Circular 1-D unfold (im2col): `input` is `bsz` rows of
    /// `len·channels` (positions × interleaved channels); `out` is
    /// `bsz·len` rows of `kw·channels`. Shapes are validated by
    /// [`crate::unfold1d_circular_into`] before dispatch.
    fn unfold1d(
        &self,
        input: &[f64],
        bsz: usize,
        len: usize,
        channels: usize,
        kw: usize,
        out: &mut [f64],
    ) {
        unfold_reference(input, bsz, len, channels, kw, out);
    }

    /// Adjoint of [`Backend::unfold1d`]: scatter-add windows back onto the
    /// signal. `grad` is `bsz·len` rows of `kw·channels`; `out` is `bsz`
    /// rows of `len·channels` and must be pre-zeroed (or hold an existing
    /// accumulation).
    fn fold1d(
        &self,
        grad: &[f64],
        bsz: usize,
        len: usize,
        channels: usize,
        kw: usize,
        out: &mut [f64],
    ) {
        let width = len * channels;
        let wk = kw * channels;
        let half = (kw - 1) / 2;
        for bi in 0..bsz {
            let dst = &mut out[bi * width..(bi + 1) * width];
            for p in 0..len {
                let src = &grad[(bi * len + p) * wk..(bi * len + p + 1) * wk];
                for w in 0..kw {
                    let pos = (p + w + kw * len - half) % len;
                    for c in 0..channels {
                        dst[pos * channels + c] += src[w * channels + c];
                    }
                }
            }
        }
    }
}

/// The reference body of [`Backend::unfold1d`], for any element type (an
/// unfold only copies).
pub(crate) fn unfold_reference<T: Copy>(
    input: &[T],
    bsz: usize,
    len: usize,
    channels: usize,
    kw: usize,
    out: &mut [T],
) {
    let width = len * channels;
    let wk = kw * channels;
    let half = (kw - 1) / 2;
    for bi in 0..bsz {
        let src = &input[bi * width..(bi + 1) * width];
        for p in 0..len {
            let row = bi * len + p;
            let dst = &mut out[row * wk..(row + 1) * wk];
            for w in 0..kw {
                // `+ kw·len` (a multiple of the modulus) keeps the
                // index positive even when the kernel is wider than
                // the signal (`half > p + len`).
                let pos = (p + w + kw * len - half) % len;
                dst[w * channels..(w + 1) * channels]
                    .copy_from_slice(&src[pos * channels..(pos + 1) * channels]);
            }
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
/// unchanged, preserving the exact pre-backend kernel semantics.
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }
}

static SCALAR: ScalarBackend = ScalarBackend;

/// 0 = uninitialized (resolve from `MF_BACKEND` on first use).
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The scalar reference backend instance. Differential tests call kernel
/// methods on this directly, without touching the global dispatch.
pub fn scalar() -> &'static dyn Backend {
    &SCALAR
}

/// The vectorized backend instance (the private `simd` module).
pub fn simd() -> &'static dyn Backend {
    crate::simd::instance()
}

fn by_kind(kind: BackendKind) -> &'static dyn Backend {
    match kind {
        BackendKind::Scalar => scalar(),
        BackendKind::Simd => simd(),
    }
}

/// Force the process-global backend. Publishes the choice on the
/// `backend.dispatch` gauge. Prefer [`with_backend`] in tests — a bare
/// `set_backend` in one test races with concurrently running tests.
pub fn set_backend(kind: BackendKind) {
    ACTIVE.store(kind.code(), Ordering::Relaxed);
    mf_telemetry::gauge("backend.dispatch").set(kind.code() as f64);
}

fn init_from_env() -> BackendKind {
    let kind = match std::env::var("MF_BACKEND").as_deref() {
        Ok("scalar") => BackendKind::Scalar,
        Ok("simd") | Ok("auto") | Err(_) => BackendKind::Simd,
        Ok(other) => panic!("MF_BACKEND must be one of scalar|simd|auto, got {other:?}"),
    };
    set_backend(kind);
    kind
}

/// The live backend kind, resolving `MF_BACKEND` on first call
/// (`scalar` | `simd` | `auto`; unset and `auto` select simd).
pub fn backend_kind() -> BackendKind {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => BackendKind::Scalar,
        2 => BackendKind::Simd,
        _ => init_from_env(),
    }
}

/// The live backend every tensor kernel dispatches through.
#[inline]
pub fn backend() -> &'static dyn Backend {
    by_kind(backend_kind())
}

/// Run `f` with the global backend forced to `kind`, restoring the
/// previous choice afterwards (also on panic). Serialized by a
/// process-wide mutex so parallel tests overriding the backend don't
/// observe each other's choice. Reentrant on the same thread: a nested
/// `with_backend` inside `f` switches (and restores) without re-locking,
/// so differential helpers can be composed freely.
pub fn with_backend<R>(kind: BackendKind, f: impl FnOnce() -> R) -> R {
    static LOCK: Mutex<()> = Mutex::new(());
    thread_local! {
        static DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }
    // Drop order is reverse declaration order: `_restore` (backend +
    // depth) unwinds before `_guard` releases the lock.
    let _guard = if DEPTH.with(|d| d.get()) == 0 {
        Some(LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    } else {
        None
    };
    struct Restore(BackendKind);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_backend(self.0);
            DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    DEPTH.with(|d| d.set(d.get() + 1));
    let _restore = Restore(backend_kind());
    set_backend(kind);
    f()
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
    }

    // The global backend may only be read under `with_backend`'s lock: a
    // sibling test's override is otherwise observed as "before". The outer
    // scope of each test below takes the lock; the scopes inside re-enter.

    #[test]
    fn with_backend_restores_previous_choice() {
        with_backend(BackendKind::Simd, || {
            let before = backend_kind();
            let seen = with_backend(BackendKind::Scalar, backend_kind);
            assert_eq!(seen, BackendKind::Scalar);
            assert_eq!(backend_kind(), before);
        });
    }

    #[test]
    fn with_backend_restores_on_panic() {
        with_backend(BackendKind::Simd, || {
            let r =
                std::panic::catch_unwind(|| with_backend(BackendKind::Scalar, || panic!("boom")));
            assert!(r.is_err());
            assert_eq!(backend_kind(), BackendKind::Simd);
        });
    }

    #[test]
    fn with_backend_is_reentrant_on_the_same_thread() {
        with_backend(BackendKind::Scalar, || {
            with_backend(BackendKind::Simd, || {
                assert_eq!(backend_kind(), BackendKind::Simd);
                let inner = with_backend(BackendKind::Scalar, backend_kind);
                assert_eq!(inner, BackendKind::Scalar);
                // The nested scope restored the outer override...
                assert_eq!(backend_kind(), BackendKind::Simd);
            });
            // ...and the outer scope restored the choice before it.
            assert_eq!(backend_kind(), BackendKind::Scalar);
        });
    }

    #[test]
    fn set_backend_publishes_the_dispatch_gauge() {
        with_backend(BackendKind::Scalar, || {
            assert_eq!(mf_telemetry::snapshot().gauge("backend.dispatch"), 1.0);
            with_backend(BackendKind::Simd, || {
                assert_eq!(mf_telemetry::snapshot().gauge("backend.dispatch"), 2.0);
            });
            // The restore path republishes the gauge too.
            assert_eq!(mf_telemetry::snapshot().gauge("backend.dispatch"), 1.0);
        });
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

//! The vectorized kernel backend.
//!
//! Portable hand-vectorization: every kernel processes fixed-width lane
//! blocks (`[f64; 4]`, two AVX2 registers' worth) written so LLVM lowers
//! them to packed vector instructions on any target — no intrinsics, no
//! `unsafe`, no nightly `std::simd`. Three families:
//!
//! * **GEMM** ([`Backend::gemm_band`], [`Backend::layer`]) — a packed,
//!   cache-blocked microkernel: `MR×NR = 4×16` register tiles over
//!   `KC`-deep, `NR`-wide panels of `B` stored contiguously.
//!   `gemm_band` accumulates into `C` and packs each panel into a
//!   per-thread scratch buffer as it goes; `layer` reads panels a
//!   [`PackedB`] packed once, starts its accumulators at `+0.0` (it
//!   overwrites `C`: no zero-fill, no re-load) and finishes each 64-row
//!   band — bias, activation — while the band is in L1. The inner loop
//!   carries no bounds checks: the tile's four row slices are cut once per
//!   tile and zipped with `chunks_exact` over the panel. The last columns
//!   (`n % NR`) run as one 4×8 half tile if there are eight, and what is
//!   left — in particular every `n < 8` product such as a scalar head —
//!   goes to a row-parallel kernel instead: `RB = 8` rows' serial chains
//!   side by side. Every element is one chain of [`fmadd`] over its
//!   `k`-products in ascending order, whichever path computes it: **fused**
//!   (one rounding per step) when the build target has the instruction
//!   ([`FUSED`]: `target_feature = "fma"`, which `target-cpu=native` turns
//!   on wherever the host has it, or aarch64), multiply then add
//!   otherwise. So every *within-backend* equivalence is bitwise on any
//!   build — fused layer ≡ unfused composition, plan ≡ graph, any row
//!   partition, any pool width — while against the scalar reference the
//!   contract depends on the build: without FMA the chains are the scalar
//!   kernel's, bit for bit (for the zero-free inputs the differential
//!   harness checks — the scalar kernel's `a == 0` skip can flip the sign
//!   of a zero in degenerate ±0 cases; see DESIGN.md); with it each side
//!   is within `γ_k·(|A|·|B|)ᵢⱼ` of the exact product, so the two are
//!   within `2γ_k·(|A|·|B|)ᵢⱼ` of each other
//!   ([`crate::check_gemm_contract`]).
//! * **Elementwise / VJP kernels** — the same per-element arithmetic as
//!   the scalar reference in 4-lane chunks, never fused: bitwise identical.
//! * **`tanh` / `gelu`** — evaluated on 16-wide blocks, so independent
//!   Horner chains hide the multiply-add latency, around a lane-wise `exp`
//!   with magic-number rounding; every Horner step and the `ln 2`
//!   reduction is an [`fmadd`]. `tanh` is an odd polynomial below 0.1 and
//!   the `expm1`-style `t/(t+2)` form above it. `gelu` does not go through
//!   `tanh`: since `½(1 + tanh u) = 1/(1 + e^(−2u))`, it is
//!   `x / (1 + exp(−2u))` with `u = √(2/π)(x + c·x³)` — one `exp`, one
//!   divide, and one select for `u < −20`, where the reference's
//!   `1 + tanh u` has cancelled to exactly 0 and the result is `−0.0`. So
//!   its divergence from scalar is no longer "the vector tanh": it is the
//!   reference's own cancellation error in `1 + tanh u` for negative `u`
//!   (absolute, below 2e-15) plus a couple of ulp of `exp`. These two
//!   kernels differ from scalar on every build, within the budgets
//!   enforced by `tests/backend.rs` (tanh ≤ 16 ulp, gelu ≤ 32 ulp or
//!   1e-14 absolute).

use crate::backend::{
    add_row, Act, Backend, BackendKind, PackedB, BAND, GELU_C, GELU_SQRT_2_OVER_PI, KC,
};
use std::cell::RefCell;

/// Lane width of the chunked loops (one 256-bit vector of `f64`).
const LANES: usize = 4;
/// Microkernel register tile: rows of C per tile.
const MR: usize = 4;
/// Microkernel register tile: columns of C per tile (four lane blocks).
/// With fused multiply-add the 4×8 tile is bound by its loads and
/// broadcasts, not its arithmetic; twice the width halves those per
/// multiply-add (the sweep is in EXPERIMENTS.md).
const NR: usize = 16;
/// Half tile: what the microkernel runs on a last column block of
/// `NR / 2..NR` columns, so only fewer than this go to the narrow kernel.
const NH: usize = NR / 2;
/// Rows the narrow-output kernel runs side by side (one serial chain per
/// output element, `RB` of them in flight per column).
const RB: usize = 8;
/// Block width of the transcendental kernels (`exp`/`tanh`/`gelu`):
/// several vectors' worth of independent per-element Horner chains, so
/// the serially-dependent polynomial latency is hidden by interleaving.
const BLOCK: usize = 16;

/// The vectorized backend (unit struct; all state is per-call).
pub struct SimdBackend;

static SIMD: SimdBackend = SimdBackend;

/// The process-wide [`SimdBackend`] instance.
pub(crate) fn instance() -> &'static dyn Backend {
    &SIMD
}

thread_local! {
    /// Per-thread scratch for packed B panels. Grows to the high-water
    /// panel size (`KC×NR` doubles) once per thread and is reused by
    /// every subsequent GEMM, preserving the zero-warm-alloc contract.
    static PANEL: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Whether [`fmadd`] rounds once: the build target has a fused
/// multiply-add instruction. Decided at compile time from the target
/// features, so a build without it never reaches libm's software `fma`.
pub const FUSED: bool = cfg!(any(target_feature = "fma", target_arch = "aarch64"));

/// `a·b + c` — the multiply-add of every ascending-`p` GEMM chain and
/// every Horner step of this backend: fused (one rounding) when [`FUSED`],
/// multiply then add (two roundings, the scalar backend's arithmetic)
/// otherwise.
#[inline(always)]
pub fn fmadd(a: f64, b: f64, c: f64) -> f64 {
    if FUSED {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Column blocks `(j0, nb)` of an `n`-wide right-hand operand: `NR`-wide
/// tiles while they fit, then one `NH`-wide half tile if that fits, then
/// the `< NH` columns left for the narrow kernel.
fn column_blocks(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j0 = 0;
    std::iter::from_fn(move || {
        let nb = match n - j0 {
            left if left >= NR => NR,
            left if left >= NH => NH,
            left => left,
        };
        let block = (j0, nb);
        j0 += nb;
        (nb > 0).then_some(block)
    })
}

/// The panel grid of a `k×n` right-hand operand: `(p0, kb, j0, nb)` for
/// each `KC`-deep block of rows (`kb < KC` only in the last), then each of
/// its [`column_blocks`].
fn panel_blocks(k: usize, n: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    (0..k)
        .step_by(KC)
        .flat_map(move |p0| column_blocks(n).map(move |(j0, nb)| (p0, KC.min(k - p0), j0, nb)))
}

/// Append panel `(p0, kb, j0, nb)` of `b` (`k×n` row-major) to `out`: the
/// `kb×nb` sub-matrix contiguous, row stride `nb`.
fn pack_panel(
    b: &[f64],
    n: usize,
    (p0, kb, j0, nb): (usize, usize, usize, usize),
    out: &mut Vec<f64>,
) {
    for row in b[p0 * n..(p0 + kb) * n].chunks_exact(n) {
        out.extend_from_slice(&row[j0..j0 + nb]);
    }
}

/// `b` (`k×n` row-major) in panel order: every panel of [`panel_blocks`],
/// one after the other. The panel of block `(p0, j0)` starts at
/// `p0·n + kb·j0`.
pub(crate) fn pack_panels(b: &[f64], k: usize, n: usize) -> Vec<f64> {
    let mut panels = Vec::with_capacity(k * n);
    for block in panel_blocks(k, n) {
        pack_panel(b, n, block, &mut panels);
    }
    panels
}

/// One `MR×W` register tile over a `kb×W` panel (`W` is `NR` or `NH`):
/// `c_tile = a_rows · panel`, on top of the old `c_tile` when `load` and
/// of `+0.0` otherwise.
///
/// `a` holds the tile's `MR` rows (stride `k`, k-offset `p0`), `c` the
/// same rows of the output (stride `n`, column offset `j0`). Products are
/// applied in ascending `p`, one [`fmadd`] each — the chain every simd GEMM
/// path runs per element. The four row slices and the panel are zipped, so
/// the loop has no index to check.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro<const W: usize>(
    a: &[f64],
    k: usize,
    p0: usize,
    panel: &[f64],
    c: &mut [f64],
    n: usize,
    j0: usize,
    load: bool,
) {
    let kb = panel.len() / W;
    let (a0, a) = a.split_at(k);
    let (a1, a) = a.split_at(k);
    let (a2, a3) = a.split_at(k);
    let (c0, c) = c.split_at_mut(n);
    let (c1, c) = c.split_at_mut(n);
    let (c2, c3) = c.split_at_mut(n);
    fn tile<const W: usize>(row: &mut [f64], j0: usize) -> &mut [f64; W] {
        (&mut row[j0..j0 + W]).try_into().expect("W-wide slice")
    }
    let (c0, c1, c2, c3) = (
        tile::<W>(c0, j0),
        tile::<W>(c1, j0),
        tile::<W>(c2, j0),
        tile::<W>(c3, j0),
    );
    let zero = [0.0f64; W];
    let (mut s0, mut s1, mut s2, mut s3) = if load {
        (*c0, *c1, *c2, *c3)
    } else {
        (zero, zero, zero, zero)
    };
    // One accumulator array per row: kept apart they stay in registers as
    // `W / LANES` vectors each; as one `[[f64; W]; MR]` the SLP vectorizer
    // regroups them across rows and shuffles in the loop.
    for ((((bv, &x0), &x1), &x2), &x3) in panel
        .chunks_exact(W)
        .zip(&a0[p0..p0 + kb])
        .zip(&a1[p0..p0 + kb])
        .zip(&a2[p0..p0 + kb])
        .zip(&a3[p0..p0 + kb])
    {
        for (s, &b) in s0.iter_mut().zip(bv) {
            *s = fmadd(x0, b, *s);
        }
        for (s, &b) in s1.iter_mut().zip(bv) {
            *s = fmadd(x1, b, *s);
        }
        for (s, &b) in s2.iter_mut().zip(bv) {
            *s = fmadd(x2, b, *s);
        }
        for (s, &b) in s3.iter_mut().zip(bv) {
            *s = fmadd(x3, b, *s);
        }
    }
    (*c0, *c1, *c2, *c3) = (s0, s1, s2, s3);
}

/// `R` rows of an `NB`-wide output block over a `kb×NB` panel: every
/// element is one serial ascending-`p` [`fmadd`] chain, `R·NB` of them side
/// by side so the multiply-add latency is hidden. With `R = RB` this is the
/// whole kernel of a narrow output (`n < NH`: a scalar head, a 4-channel
/// convolution), where a register tile would be mostly padding; with
/// `R = 1` it finishes the rows no full tile covers.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn chains<const R: usize, const NB: usize>(
    a: &[f64],
    k: usize,
    p0: usize,
    panel: &[f64],
    c: &mut [f64],
    n: usize,
    j0: usize,
    load: bool,
) {
    let kb = panel.len() / NB;
    let rows: [&[f64]; R] = std::array::from_fn(|r| &a[r * k + p0..r * k + p0 + kb]);
    let mut acc = [[0.0f64; NB]; R];
    if load {
        for (r, accr) in acc.iter_mut().enumerate() {
            accr.copy_from_slice(&c[r * n + j0..r * n + j0 + NB]);
        }
    }
    for (pp, bv) in panel.chunks_exact(NB).enumerate() {
        for (accr, row) in acc.iter_mut().zip(&rows) {
            let x = row[pp];
            for (s, &b) in accr.iter_mut().zip(bv) {
                *s = fmadd(x, b, *s);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        c[r * n + j0..r * n + j0 + NB].copy_from_slice(accr);
    }
}

/// Every row of an `NB`-wide output block (`NB < NH`): `RB` rows at a
/// time, then one by one.
#[allow(clippy::too_many_arguments)]
fn narrow_rows<const NB: usize>(
    a: &[f64],
    k: usize,
    p0: usize,
    panel: &[f64],
    c: &mut [f64],
    n: usize,
    j0: usize,
    load: bool,
) {
    let mut ar = a.chunks_exact(RB * k);
    let mut cr = c.chunks_exact_mut(RB * n);
    for (ab, cb) in (&mut ar).zip(&mut cr) {
        chains::<RB, NB>(ab, k, p0, panel, cb, n, j0, load);
    }
    let tail = ar.remainder().chunks_exact(k);
    for (a1, c1) in tail.zip(cr.into_remainder().chunks_exact_mut(n)) {
        chains::<1, NB>(a1, k, p0, panel, c1, n, j0, load);
    }
}

/// Every row of a `W`-wide output block (`W` is `NR` or `NH`): `MR`-row
/// register tiles, then the rows no tile covers one by one.
#[allow(clippy::too_many_arguments)]
fn tiled_rows<const W: usize>(
    a: &[f64],
    k: usize,
    p0: usize,
    panel: &[f64],
    c: &mut [f64],
    n: usize,
    j0: usize,
    load: bool,
) {
    let mut ar = a.chunks_exact(MR * k);
    let mut cr = c.chunks_exact_mut(MR * n);
    for (at, ct) in (&mut ar).zip(&mut cr) {
        micro::<W>(at, k, p0, panel, ct, n, j0, load);
    }
    let tail = ar.remainder().chunks_exact(k);
    for (a1, c1) in tail.zip(cr.into_remainder().chunks_exact_mut(n)) {
        chains::<1, W>(a1, k, p0, panel, c1, n, j0, load);
    }
}

/// Columns `j0..j0 + nb` of `c` (`m×n`) from `a[:, p0..p0 + kb]` (`m×k`)
/// times one `kb×nb` panel — added to `c` when `load`, replacing it
/// otherwise.
#[allow(clippy::too_many_arguments)]
fn panel_product(
    a: &[f64],
    k: usize,
    p0: usize,
    panel: &[f64],
    c: &mut [f64],
    n: usize,
    j0: usize,
    nb: usize,
    load: bool,
) {
    match nb {
        NR => tiled_rows::<NR>(a, k, p0, panel, c, n, j0, load),
        NH => tiled_rows::<NH>(a, k, p0, panel, c, n, j0, load),
        1 => narrow_rows::<1>(a, k, p0, panel, c, n, j0, load),
        2 => narrow_rows::<2>(a, k, p0, panel, c, n, j0, load),
        3 => narrow_rows::<3>(a, k, p0, panel, c, n, j0, load),
        4 => narrow_rows::<4>(a, k, p0, panel, c, n, j0, load),
        5 => narrow_rows::<5>(a, k, p0, panel, c, n, j0, load),
        6 => narrow_rows::<6>(a, k, p0, panel, c, n, j0, load),
        7 => narrow_rows::<7>(a, k, p0, panel, c, n, j0, load),
        _ => unreachable!("a panel is NR, NH or fewer than NH columns wide"),
    }
}

impl Backend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn gemm_band(&self, a: &[f64], b: &[f64], c: &mut [f64], k: usize, n: usize) {
        if n == 0 || k == 0 || c.is_empty() {
            return;
        }
        PANEL.with(|cell| {
            let mut panel = cell.borrow_mut();
            for block @ (p0, _, j0, nb) in panel_blocks(k, n) {
                panel.clear();
                pack_panel(b, n, block, &mut panel);
                panel_product(a, k, p0, &panel, c, n, j0, nb, true);
            }
        });
    }

    fn layer(&self, a: &[f64], w: &PackedB, bias: Option<&[f64]>, act: Act, out: &mut [f64]) {
        let (k, n) = (w.k(), w.n());
        if n == 0 {
            return;
        }
        let finish = |band: &mut [f64]| {
            if let Some(bias) = bias {
                add_row(band, bias);
            }
            self.activate(act, band);
        };
        if k == 0 {
            out.fill(0.0);
            return finish(out);
        }
        // Band by band: the band's rows of `a`, every panel of `w` and the
        // band of `out` fit in L1 together, and bias and activation run
        // over the band before the next one evicts it.
        for (a_band, c_band) in a.chunks(BAND * k).zip(out.chunks_mut(BAND * n)) {
            for (p0, kb, j0, nb) in panel_blocks(k, n) {
                let panel = &w.panels()[p0 * n + kb * j0..][..kb * nb];
                panel_product(a_band, k, p0, panel, c_band, n, j0, nb, p0 > 0);
            }
            finish(c_band);
        }
    }

    fn activate(&self, act: Act, buf: &mut [f64]) {
        match act {
            Act::Identity => {}
            Act::Tanh => blocks_apply_in_place(buf, tanh_lanes::<BLOCK>),
            Act::Gelu => blocks_apply_in_place(buf, gelu_lanes::<BLOCK>),
        }
    }

    fn add(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        zip_lanes(a, b, out, |x, y| x + y);
    }

    fn sub(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        zip_lanes(a, b, out, |x, y| x - y);
    }

    fn mul(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        zip_lanes(a, b, out, |x, y| x * y);
    }

    fn scale(&self, a: &[f64], s: f64, out: &mut [f64]) {
        map_lanes(a, out, |x| x * s);
    }

    fn add_scalar(&self, a: &[f64], s: f64, out: &mut [f64]) {
        map_lanes(a, out, |x| x + s);
    }

    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        let mut ys = y.chunks_exact_mut(LANES);
        let mut xs = x.chunks_exact(LANES);
        for (yc, xc) in (&mut ys).zip(&mut xs) {
            for (o, &v) in yc.iter_mut().zip(xc) {
                *o += alpha * v;
            }
        }
        for (o, &v) in ys.into_remainder().iter_mut().zip(xs.remainder()) {
            *o += alpha * v;
        }
    }

    fn add_assign(&self, y: &mut [f64], x: &[f64]) {
        let mut ys = y.chunks_exact_mut(LANES);
        let mut xs = x.chunks_exact(LANES);
        for (yc, xc) in (&mut ys).zip(&mut xs) {
            for (o, &v) in yc.iter_mut().zip(xc) {
                *o += v;
            }
        }
        for (o, &v) in ys.into_remainder().iter_mut().zip(xs.remainder()) {
            *o += v;
        }
    }

    fn tanh(&self, a: &[f64], out: &mut [f64]) {
        blocks_apply(a, out, tanh_lanes::<BLOCK>);
    }

    fn gelu(&self, a: &[f64], out: &mut [f64]) {
        blocks_apply(a, out, gelu_lanes::<BLOCK>);
    }

    fn tanh_vjp(&self, g: &[f64], t: &[f64], out: &mut [f64]) {
        zip_lanes(g, t, out, |gv, tv| gv * (1.0 - tv * tv));
    }

    fn one_minus_sq(&self, t: &[f64], out: &mut [f64]) {
        map_lanes(t, out, |tv| 1.0 - tv * tv);
    }

    fn gelu_inner(&self, x: &[f64], x3: &[f64], out: &mut [f64]) {
        zip_lanes(x, x3, out, |a, c| (a + c * GELU_C) * GELU_SQRT_2_OVER_PI);
    }

    fn gelu_du(&self, x2: &[f64], out: &mut [f64]) {
        map_lanes(x2, out, |a| {
            (a * (3.0 * GELU_C) + 1.0) * GELU_SQRT_2_OVER_PI
        });
    }

    fn half_one_plus(&self, t: &[f64], out: &mut [f64]) {
        map_lanes(t, out, |a| (a + 1.0) * 0.5);
    }

    fn unfold1d(
        &self,
        input: &[f64],
        bsz: usize,
        len: usize,
        channels: usize,
        kw: usize,
        out: &mut [f64],
    ) {
        if channels != 1 {
            // Multi-channel windows interleave; use the reference loops.
            return crate::backend::scalar().unfold1d(input, bsz, len, channels, kw, out);
        }
        let half = (kw - 1) / 2;
        // Interior rows read a contiguous kw-window; only the first `half`
        // and last `kw-1-half` positions of each signal wrap.
        let lo = half.min(len);
        let hi = len.saturating_sub(kw - 1 - half).max(lo);
        for bi in 0..bsz {
            let src = &input[bi * len..(bi + 1) * len];
            for p in 0..lo {
                let dst = &mut out[(bi * len + p) * kw..(bi * len + p + 1) * kw];
                for (w, d) in dst.iter_mut().enumerate() {
                    *d = src[(p + w + kw * len - half) % len];
                }
            }
            for p in lo..hi {
                let dst = &mut out[(bi * len + p) * kw..(bi * len + p + 1) * kw];
                dst.copy_from_slice(&src[p - half..p - half + kw]);
            }
            for p in hi..len {
                let dst = &mut out[(bi * len + p) * kw..(bi * len + p + 1) * kw];
                for (w, d) in dst.iter_mut().enumerate() {
                    *d = src[(p + w + kw * len - half) % len];
                }
            }
        }
    }

    fn fold1d(
        &self,
        grad: &[f64],
        bsz: usize,
        len: usize,
        channels: usize,
        kw: usize,
        out: &mut [f64],
    ) {
        if channels != 1 {
            return crate::backend::scalar().fold1d(grad, bsz, len, channels, kw, out);
        }
        let half = (kw - 1) / 2;
        let lo = half.min(len);
        let hi = len.saturating_sub(kw - 1 - half).max(lo);
        // Same p-major, w-ascending accumulation order as the reference;
        // the interior specialization only removes the position modulo.
        for bi in 0..bsz {
            let dst = &mut out[bi * len..(bi + 1) * len];
            for p in 0..lo {
                let src = &grad[(bi * len + p) * kw..(bi * len + p + 1) * kw];
                for (w, &s) in src.iter().enumerate() {
                    dst[(p + w + kw * len - half) % len] += s;
                }
            }
            for p in lo..hi {
                let src = &grad[(bi * len + p) * kw..(bi * len + p + 1) * kw];
                for (d, &s) in dst[p - half..p - half + kw].iter_mut().zip(src) {
                    *d += s;
                }
            }
            for p in hi..len {
                let src = &grad[(bi * len + p) * kw..(bi * len + p + 1) * kw];
                for (w, &s) in src.iter().enumerate() {
                    dst[(p + w + kw * len - half) % len] += s;
                }
            }
        }
    }
}

/// Unary elementwise kernel in `LANES`-wide chunks. The per-element
/// arithmetic is whatever `f` does, so chunking never changes rounding.
#[inline]
fn map_lanes(a: &[f64], out: &mut [f64], f: impl Fn(f64) -> f64) {
    let mut os = out.chunks_exact_mut(LANES);
    let mut xs = a.chunks_exact(LANES);
    for (oc, xc) in (&mut os).zip(&mut xs) {
        for (o, &x) in oc.iter_mut().zip(xc) {
            *o = f(x);
        }
    }
    for (o, &x) in os.into_remainder().iter_mut().zip(xs.remainder()) {
        *o = f(x);
    }
}

/// Binary elementwise kernel in `LANES`-wide chunks.
#[inline]
fn zip_lanes(a: &[f64], b: &[f64], out: &mut [f64], f: impl Fn(f64, f64) -> f64) {
    let mut os = out.chunks_exact_mut(LANES);
    let mut xs = a.chunks_exact(LANES);
    let mut ys = b.chunks_exact(LANES);
    for ((oc, xc), yc) in (&mut os).zip(&mut xs).zip(&mut ys) {
        for ((o, &x), &y) in oc.iter_mut().zip(xc).zip(yc) {
            *o = f(x, y);
        }
    }
    for ((o, &x), &y) in os
        .into_remainder()
        .iter_mut()
        .zip(xs.remainder())
        .zip(ys.remainder())
    {
        *o = f(x, y);
    }
}

/// Apply a `[f64; BLOCK] -> [f64; BLOCK]` function over a slice, padding
/// the tail block with zeros so tail elements go through *exactly* the
/// same lane arithmetic as full blocks (determinism across shapes).
///
/// The transcendental kernels use a 16-wide block — wider than a vector
/// register on purpose: the Horner chains inside `exp`/`tanh` are
/// serially dependent per element, so a block this size gives the
/// vectorizer several *independent* chains to interleave, hiding the
/// multiply/add latency that would otherwise leave the kernel at libm
/// speed.
#[inline]
fn blocks_apply(a: &[f64], out: &mut [f64], f: impl Fn([f64; BLOCK]) -> [f64; BLOCK]) {
    let mut os = out.chunks_exact_mut(BLOCK);
    let mut xs = a.chunks_exact(BLOCK);
    for (oc, xc) in (&mut os).zip(&mut xs) {
        let mut block = [0.0; BLOCK];
        block.copy_from_slice(xc);
        oc.copy_from_slice(&f(block));
    }
    let rem = xs.remainder();
    if !rem.is_empty() {
        let mut block = [0.0; BLOCK];
        block[..rem.len()].copy_from_slice(rem);
        let r = f(block);
        os.into_remainder().copy_from_slice(&r[..rem.len()]);
    }
}

/// [`blocks_apply`] over one buffer, in place.
#[inline]
fn blocks_apply_in_place(buf: &mut [f64], f: impl Fn([f64; BLOCK]) -> [f64; BLOCK]) {
    let mut bs = buf.chunks_exact_mut(BLOCK);
    for bc in &mut bs {
        let mut block = [0.0; BLOCK];
        block.copy_from_slice(bc);
        bc.copy_from_slice(&f(block));
    }
    let rem = bs.into_remainder();
    if !rem.is_empty() {
        let mut block = [0.0; BLOCK];
        block[..rem.len()].copy_from_slice(rem);
        let r = f(block);
        rem.copy_from_slice(&r[..rem.len()]);
    }
}

// ---------------------------------------------------------------------------
// Vector math: exp / tanh / gelu on lane blocks.
// ---------------------------------------------------------------------------

/// `log2(e)`, the reduction multiplier of [`exp_lanes`].
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// High part of `ln 2` (top bits exact so `n·LN2_HI` is exact).
#[allow(clippy::excessive_precision)] // rounds to the intended split constant
const LN2_HI: f64 = 0.693_147_180_369_123_816_490e0;
/// Low part of `ln 2` (`ln 2 - LN2_HI`).
#[allow(clippy::excessive_precision)]
const LN2_LO: f64 = 1.908_214_929_270_587_700_2e-10;
/// `1.5 · 2^52`: adding it pushes the integer part of a small double into
/// the low mantissa bits, rounding to nearest — a vectorizable round().
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Taylor coefficients `1/k!` for `exp` on the reduced range
/// `|r| ≤ ln2/2`; degree 13 keeps truncation below 2^-57 relative.
#[allow(clippy::excessive_precision)] // literals written to full decimal length of 1/k!
const EXP_COEFFS: [f64; 12] = [
    1.605_904_383_682_161_3e-10, // 1/13!
    2.087_675_698_786_810_0e-9,  // 1/12!
    2.505_210_838_544_172_0e-8,  // 1/11!
    2.755_731_922_398_589_0e-7,  // 1/10!
    2.755_731_922_398_589_3e-6,  // 1/9!
    2.480_158_730_158_730_2e-5,  // 1/8!
    1.984_126_984_126_984_0e-4,  // 1/7!
    1.388_888_888_888_889_0e-3,  // 1/6!
    8.333_333_333_333_333_0e-3,  // 1/5!
    4.166_666_666_666_666_4e-2,  // 1/4!
    1.666_666_666_666_666_6e-1,  // 1/3!
    5.0e-1,                      // 1/2!
];

/// Lane-wise `exp(u)` for `|u| ≤ 600` (callers clamp), accurate to a
/// couple of ulp: magic-number round-to-nearest gives `n = round(u/ln2)`,
/// a two-part `ln 2` reduction gives `r = u - n·ln2` with `|r| ≤ ln2/2`,
/// a degree-13 Taylor polynomial evaluates `e^r`, and `2^n` is built
/// directly from exponent bits.
#[inline]
fn exp_lanes<const W: usize>(u: [f64; W]) -> [f64; W] {
    let mut out = [0.0; W];
    for (o, &ul) in out.iter_mut().zip(&u) {
        let x = ul.clamp(-600.0, 600.0);
        let zf = fmadd(x, LOG2E, ROUND_MAGIC);
        // Low 32 mantissa bits of (n + 1.5·2^52) hold n in two's complement.
        let ni = zf.to_bits() as u32 as i32;
        let nf = zf - ROUND_MAGIC;
        let r = fmadd(-nf, LN2_LO, fmadd(-nf, LN2_HI, x));
        let mut p = EXP_COEFFS[0];
        for &c in &EXP_COEFFS[1..] {
            p = fmadd(p, r, c);
        }
        // ... + r + 1 (the 1/1! and 1/0! terms).
        p = fmadd(p, r, 1.0);
        p = fmadd(p, r, 1.0);
        let scale = f64::from_bits(((1023 + ni) as u64) << 52);
        *o = p * scale;
    }
    out
}

/// Odd Taylor coefficients of `tanh` (on `x²`), through `x¹³`, exact
/// rationals: used for `|x| ≤ 0.1` where truncation is below 2^-56.
const TANH_COEFFS: [f64; 6] = [
    21844.0 / 6081075.0, //  x¹³
    -1382.0 / 155925.0,  //  x¹¹
    62.0 / 2835.0,       //  x⁹
    -17.0 / 315.0,       //  x⁷
    2.0 / 15.0,          //  x⁵
    -1.0 / 3.0,          //  x³
];

/// Crossover from the odd polynomial to the exp-based form.
const TANH_SMALL: f64 = 0.1;
/// Above this, `tanh` rounds to ±1 in f64.
const TANH_SAT: f64 = 19.5;

/// Lane-wise `tanh`. Three ranges: `|x| ≤ 0.1` odd Taylor polynomial;
/// `0.1 < |x| < 19.5` the cancellation-free `t/(t+2)` with
/// `t = e^{2|x|} - 1`; beyond that ±1. Every range kernel runs for every
/// lane and the results are combined with per-lane selects, so the whole
/// block is branch-free and vectorizes cleanly. Agrees with libm `tanh`
/// within 16 ulp (enforced by the harness).
#[inline]
fn tanh_lanes<const W: usize>(xs: [f64; W]) -> [f64; W] {
    let mut e2 = [0.0; W];
    for (e, &x) in e2.iter_mut().zip(&xs) {
        // Clamp before exp so saturated lanes can't overflow downstream.
        *e = (2.0 * x.abs()).min(2.0 * TANH_SAT + 1.0);
    }
    let ex = exp_lanes(e2);
    let mut out = [0.0; W];
    for ((o, &x), &e) in out.iter_mut().zip(&xs).zip(&ex) {
        let a = x.abs();
        // Small range: x·(1 + p·w) rather than x + x·p·w preserves the
        // sign of ±0. (For saturated/NaN lanes this computes garbage
        // that the selects below discard.)
        let w = x * x;
        let mut p = TANH_COEFFS[0];
        for &c in &TANH_COEFFS[1..] {
            p = fmadd(p, w, c);
        }
        let small = x * fmadd(p, w, 1.0);
        // Mid range; t ≥ 0 so copysign matches the scalar ±r select.
        let t = e - 1.0;
        let mid = (t / (t + 2.0)).copysign(x);
        let big = if a < TANH_SAT {
            mid
        } else {
            1.0f64.copysign(x)
        };
        let big = if a.is_nan() { x } else { big };
        *o = if a <= TANH_SMALL { small } else { big };
    }
    out
}

/// Below this value of `u = √(2/π)(x + c·x³)`, `tanh u` is exactly `−1`
/// in f64 (that happens from about `−19.06` on), so the reference formula
/// `0.5·x·(1 + tanh u)` has cancelled to `−0.0`.
const GELU_NEG_SAT: f64 = -20.0;

/// Lane-wise GELU in sigmoid form: `½(1 + tanh u) = 1/(1 + e^(−2u))`, so
/// `gelu(x) = x / (1 + exp(−2u))` with `u` associated exactly as in
/// [`crate::backend::gelu_scalar`] — one `exp` and one divide per element,
/// no range selects. The one select returns the reference's `−0.0` for
/// `u < −20`; without it `exp`'s input clamp would let a huge negative `x`
/// through as `x / e^600`. For `u` in `[−20, −19.06]` the quotient is below
/// 1e-15 in magnitude, inside the absolute budget. NaN propagates through
/// `exp` and the divide (every comparison with it is false).
#[inline]
fn gelu_lanes<const W: usize>(xs: [f64; W]) -> [f64; W] {
    let mut m2u = [0.0; W];
    for (m, &x) in m2u.iter_mut().zip(&xs) {
        *m = -2.0 * (GELU_SQRT_2_OVER_PI * fmadd(GELU_C * x * x, x, x));
    }
    let e = exp_lanes(m2u);
    let mut out = [0.0; W];
    for (((o, &x), &ev), &m) in out.iter_mut().zip(&xs).zip(&e).zip(&m2u) {
        let y = x / (1.0 + ev);
        *o = if m > -2.0 * GELU_NEG_SAT { -0.0 } else { y };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{check_gemm_contract, same_bits, scalar, ulp_distance, Backend};

    #[test]
    fn exp_matches_libm_to_a_few_ulp() {
        let mut worst = 0;
        for i in -4000..=4000 {
            let x = i as f64 * 0.01; // [-40, 40]
            let got = exp_lanes([x, 0.0, 0.0, 0.0])[0];
            worst = worst.max(ulp_distance(got, x.exp()));
        }
        assert!(worst <= 4, "exp drifted {worst} ulp from libm");
    }

    #[test]
    fn tanh_matches_libm_within_budget() {
        let mut worst = 0;
        let mut worst_x = 0.0;
        for i in -30000..=30000 {
            let x = i as f64 * 1e-3; // [-30, 30] crosses all three ranges
            let got = tanh_lanes([x, 0.0, 0.0, 0.0])[0];
            let d = ulp_distance(got, x.tanh());
            if d > worst {
                worst = d;
                worst_x = x;
            }
        }
        assert!(worst <= 16, "tanh drifted {worst} ulp at x={worst_x}");
    }

    #[test]
    fn tanh_edge_values() {
        let r = tanh_lanes([0.0, -0.0, f64::NAN, 25.0]);
        assert_eq!(r[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(r[1].to_bits(), (-0.0f64).to_bits());
        assert!(r[2].is_nan());
        assert_eq!(r[3], 1.0);
        assert_eq!(tanh_lanes([-25.0, 0.0, 0.0, 0.0])[0], -1.0);
        // Exactly at the range boundaries.
        for &x in &[TANH_SMALL, -TANH_SMALL, TANH_SAT, -TANH_SAT] {
            let got = tanh_lanes([x, 0.0, 0.0, 0.0])[0];
            assert!(ulp_distance(got, x.tanh()) <= 16, "boundary x={x}");
        }
    }

    #[test]
    fn gelu_close_to_scalar_reference() {
        let mut worst_abs: f64 = 0.0;
        for i in -40_000..=40_000 {
            let x = i as f64 * 1e-3;
            let got = gelu_lanes([x, 0.0, 0.0, 0.0])[0];
            let want = crate::backend::gelu_scalar(x);
            let ok = ulp_distance(got, want) <= 32 || (got - want).abs() <= 1e-14;
            assert!(ok, "gelu at x={x}: got {got:e}, want {want:e}");
            worst_abs = worst_abs.max((got - want).abs());
        }
        // The whole divergence is the reference's `1 + tanh` cancellation:
        // an order of magnitude inside the absolute budget.
        assert!(worst_abs <= 4e-15, "gelu drifted {worst_abs:e} absolute");
    }

    #[test]
    fn gelu_saturates_negative_inputs_to_negative_zero() {
        // u = GELU_NEG_SAT is reached near x = -7.33; below it the select
        // takes over from the quotient, also where `exp` would clamp.
        for x in [-7.4, -10.0, -1e10, -1e154, -1e308, f64::NEG_INFINITY] {
            let got = gelu_lanes([x, 0.0, 0.0, 0.0])[0];
            assert_eq!(got.to_bits(), (-0.0f64).to_bits(), "gelu({x:e}) = {got:e}");
        }
        let r = gelu_lanes([0.0, -0.0, f64::NAN, 1e308]);
        assert_eq!(r[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(r[1].to_bits(), (-0.0f64).to_bits());
        assert!(r[2].is_nan());
        assert_eq!(r[3], 1e308);
    }

    fn zero_free(len: usize, step: f64, offset: f64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64) * step).sin() + offset)
            .collect()
    }

    fn assert_bits(want: &[f64], got: &[f64], what: &str) {
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "{what} elem {i}: {w:e} vs {g:e}");
        }
    }

    /// Shapes straddling every MR / NR / NH / RB / KC boundary, zero-free
    /// inputs; the last three are degenerate.
    const TAIL_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (5, 9, 9),
        (7, 255, 17),
        (8, 256, 8),
        (9, 257, 9),
        (16, 64, 16),
        (6, 40, 15),
        (9, 257, 25),
        (5, 33, 48),
        (8, 48, 1),
        (9, 257, 1),
        (17, 5, 4),
        (23, 300, 7),
        (2, 3, 0),
        (0, 3, 4),
        (3, 0, 4),
    ];

    #[test]
    fn simd_gemm_band_matches_scalar_on_tile_tails() {
        for &(m, k, n) in TAIL_SHAPES {
            let a = zero_free(m * k, 0.37, 1.5);
            let b = zero_free(k * n, 0.23, -1.5);
            let seed: Vec<f64> = (0..m * n).map(|i| (i as f64) * 0.01 + 0.5).collect();
            let mut c_ref = seed.clone();
            let mut c_simd = seed.clone();
            scalar().gemm_band(&a, &b, &mut c_ref, k, n);
            SIMD.gemm_band(&a, &b, &mut c_simd, k, n);
            check_gemm_contract((&a, &b, &seed), (k, n), (&c_ref, &c_simd), same_bits)
                .unwrap_or_else(|e| panic!("gemm {m}x{k}x{n} {e}"));
        }
    }

    #[test]
    fn simd_layer_overwrites_with_the_scalar_pre_activation() {
        for &(m, k, n) in TAIL_SHAPES {
            let a = zero_free(m * k, 0.37, 1.5);
            let w = crate::Tensor::from_vec(k, n, zero_free(k * n, 0.23, -1.5));
            let bias = zero_free(n, 0.11, 2.0);
            let packed = PackedB::new(&w);
            // No bias and identity, so the comparison is the GEMM contract
            // across backends; the destinations start as garbage that must
            // not survive.
            let mut want = vec![7.0; m * n];
            let mut got = vec![f64::NAN; m * n];
            scalar().layer(&a, &packed, None, Act::Identity, &mut want);
            SIMD.layer(&a, &packed, None, Act::Identity, &mut got);
            let zeros = vec![0.0; m * n];
            check_gemm_contract((&a, w.as_slice(), &zeros), (k, n), (&want, &got), same_bits)
                .unwrap_or_else(|e| panic!("layer {m}x{k}x{n} {e}"));
            // With a bias, bit for bit the simd backend's own unfused steps.
            let mut unfused = vec![0.0; m * n];
            SIMD.gemm_band(&a, w.as_slice(), &mut unfused, k, n);
            if n > 0 {
                add_row(&mut unfused, &bias);
            }
            SIMD.layer(&a, &packed, Some(&bias), Act::Identity, &mut got);
            assert_bits(&unfused, &got, &format!("layer {m}x{k}x{n} vs unfused"));
        }
    }

    #[test]
    fn column_blocks_are_tiles_then_a_half_tile_then_the_narrow_rest() {
        let blocks = |n| column_blocks(n).collect::<Vec<_>>();
        assert_eq!(blocks(0), []);
        assert_eq!(blocks(5), [(0, 5)]);
        assert_eq!(blocks(NH), [(0, NH)]);
        assert_eq!(blocks(NR), [(0, NR)]);
        assert_eq!(blocks(48), [(0, NR), (16, NR), (32, NR)]);
        assert_eq!(blocks(25), [(0, NR), (16, NH), (24, 1)]);
        assert_eq!(blocks(NR + 3), [(0, NR), (16, 3)]);
    }

    #[test]
    fn panels_are_kc_deep_column_blocks_in_row_order() {
        // 300×25: two k-blocks (256 + 44), three column blocks (16 + 8 + 1).
        let (k, n) = (300, 25);
        let b: Vec<f64> = (0..k * n).map(|i| i as f64).collect();
        let panels = pack_panels(&b, k, n);
        assert_eq!(panels.len(), k * n);
        let at = |p0: usize, kb: usize, j0: usize| p0 * n + kb * j0;
        // First wide panel: rows 0.., columns 0..16.
        assert_eq!(&panels[..NR], &b[..NR]);
        assert_eq!(&panels[NR..2 * NR], &b[n..n + NR]);
        // The half-tile panel of the first k-block: columns 16..24.
        let half = at(0, KC, NR);
        assert_eq!(&panels[half..half + NH], &b[NR..NR + NH]);
        assert_eq!(&panels[half + NH..half + 2 * NH], &b[n + NR..n + NR + NH]);
        // Its 1-wide panel: column 24 of rows 0..256.
        let narrow = at(0, KC, NR + NH);
        assert_eq!(panels[narrow], b[24]);
        assert_eq!(panels[narrow + 1], b[n + 24]);
        // Second k-block starts at row 256.
        let second = at(KC, k - KC, 0);
        assert_eq!(&panels[second..second + NR], &b[KC * n..KC * n + NR]);
        assert_eq!(panels[at(KC, k - KC, NR + NH)], b[KC * n + 24]);
    }

    #[test]
    fn unfold_fold_fast_paths_match_scalar_bitwise() {
        for &(bsz, len, kw) in &[(1, 4, 3), (2, 8, 5), (3, 5, 1), (1, 3, 3), (2, 7, 7)] {
            let input: Vec<f64> = (0..bsz * len)
                .map(|i| ((i * 7) as f64 * 0.31).sin())
                .collect();
            let mut u_ref = vec![0.0; bsz * len * kw];
            let mut u_simd = vec![0.0; bsz * len * kw];
            scalar().unfold1d(&input, bsz, len, 1, kw, &mut u_ref);
            SIMD.unfold1d(&input, bsz, len, 1, kw, &mut u_simd);
            assert_eq!(u_ref, u_simd, "unfold b={bsz} len={len} k={kw}");
            let mut f_ref = vec![0.0; bsz * len];
            let mut f_simd = vec![0.0; bsz * len];
            scalar().fold1d(&u_ref, bsz, len, 1, kw, &mut f_ref);
            SIMD.fold1d(&u_ref, bsz, len, 1, kw, &mut f_simd);
            for (r, s) in f_ref.iter().zip(&f_simd) {
                assert_eq!(r.to_bits(), s.to_bits(), "fold b={bsz} len={len} k={kw}");
            }
        }
    }

    /// Regression: a kernel wider than the signal used to underflow the
    /// circular index (`p + len + w - half` with `half > p + len`); the
    /// window must instead wrap around the signal multiple times.
    #[test]
    fn unfold_fold_kernel_wider_than_signal() {
        for &(bsz, len, channels, kw) in &[
            (1usize, 1usize, 1usize, 5usize),
            (2, 2, 1, 7),
            (1, 3, 2, 9),
            (1, 1, 3, 3),
        ] {
            let input: Vec<f64> = (0..bsz * len * channels).map(|i| 1.0 + i as f64).collect();
            let mut u_ref = vec![0.0; bsz * len * kw * channels];
            let mut u_simd = u_ref.clone();
            scalar().unfold1d(&input, bsz, len, channels, kw, &mut u_ref);
            SIMD.unfold1d(&input, bsz, len, channels, kw, &mut u_simd);
            assert_eq!(
                u_ref, u_simd,
                "unfold b={bsz} len={len} c={channels} k={kw}"
            );
            // Every window position is some wrap of the signal, never 0.
            assert!(u_ref.iter().all(|&v| v >= 1.0));
            let mut f_ref = vec![0.0; bsz * len * channels];
            let mut f_simd = f_ref.clone();
            scalar().fold1d(&u_ref, bsz, len, channels, kw, &mut f_ref);
            SIMD.fold1d(&u_ref, bsz, len, channels, kw, &mut f_simd);
            for (r, s) in f_ref.iter().zip(&f_simd) {
                assert_eq!(r.to_bits(), s.to_bits());
            }
        }
    }
}

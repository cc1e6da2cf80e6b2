//! The vectorized kernel backend: the kernels production runs.
//!
//! Portable hand-vectorization: every kernel processes fixed-width register
//! tiles or lane blocks written so LLVM lowers them to packed vector
//! instructions on any target — no intrinsics, no `unsafe`, no nightly
//! `std::simd` — with one exception. LLVM's tuning for Intel server cores
//! prefers 256-bit vectors, so these loops never reach the 512-bit units;
//! where the build target has `avx512f` (decided at compile time like
//! [`FUSED`]: no runtime dispatch), the plan's `f32` layer for `n % 16 ==
//! 0` and its `f32` GELU run a `std::arch` body instead (the `avx512`
//! child module: 8-row × 48-column tiles, bias and GELU applied before a
//! value reaches `out`), bitwise this module's portable body, which stays
//! for every other target and shape and is its oracle in the tests. It
//! overrides only what it computes differently from the scalar reference;
//! the elementwise kernels, their VJPs and unfold/fold have one body,
//! outside the trait. Two families:
//!
//! * **GEMM** ([`Backend::gemm_band`] in `f64`, [`Backend::layer`] in
//!   `f32`) — one packed, cache-blocked microkernel, generic over the
//!   element type: `MR×NR = 4×16` register tiles over `KC`-deep, `NR`-wide
//!   panels of `B` stored contiguously. `gemm_band` accumulates into `C`
//!   and packs each panel into a per-thread scratch buffer as it goes (the
//!   band product behind it, which the GEMM entry points call, can also
//!   overwrite `C`, starting at `+0.0` as `layer` does);
//!   `layer` reads panels a [`PackedB`] packed once, starts its
//!   accumulators at `+0.0` (it overwrites `C`: no zero-fill, no re-load)
//!   and finishes each 64-row band — bias, activation — while the band is
//!   in L1 (the portable body; the AVX-512 one finishes each tile). An
//!   `f32` tile is half the registers of an `f64` one, so the plan's
//!   layers issue twice the multiply-adds per vector instruction.
//!   The inner loop carries no bounds checks: the tile's four row slices
//!   are cut once per tile and zipped with `chunks_exact` over the panel.
//!   The last columns (`n % NR`) run as one 4×8 half tile if there are
//!   eight, and what is left — every `n < 8` product such as a 4-channel
//!   convolution — goes to a row-parallel kernel instead: `RB = 8` rows'
//!   serial chains side by side. Every element is one chain of [`fmadd`]
//!   over its `k`-products in ascending order, whichever path computes it
//!   (but one: a fused build's one-column `layer`, the network's scalar
//!   head, is a `k`-vectorized dot, `DOT` partial chains over `p mod DOT`
//!   added pairwise — the same order for every row, within the same
//!   bound):
//!   **fused** (one rounding per step) when the build target has the
//!   instruction ([`FUSED`]: `target_feature = "fma"`, which
//!   `target-cpu=native` turns on wherever the host has it, or aarch64),
//!   multiply then add otherwise. So every *within-backend* equivalence is
//!   bitwise on any build — fused layer ≡ unfused steps, any row partition,
//!   any pool width — while against the scalar reference the contract
//!   depends on the build: without FMA the chains are the scalar kernel's,
//!   bit for bit (for `f64`, on the zero-free inputs the differential
//!   harness checks — the scalar GEMM's `a == 0` skip can flip the sign of
//!   a zero in degenerate ±0 cases; see DESIGN.md); with it each side is
//!   within `γ_k·(|A|·|B|)ᵢⱼ` of the exact product, so the two are within
//!   `2γ_k·(|A|·|B|)ᵢⱼ` of each other ([`crate::check_gemm_contract`],
//!   [`crate::check_layer_contract`]).
//! * **`tanh` / `gelu`** — evaluated on blocks of independent Horner chains
//!   (16 `f64` or 32 `f32` lanes, four vectors either way), so the chains
//!   hide the multiply-add latency, around a lane-wise `exp` with
//!   magic-number rounding; every Horner step and the `ln 2` reduction is
//!   a fused multiply-add where the target has one. `tanh` is an odd
//!   polynomial below 0.1 and the `expm1`-style `t/(t+2)` form above it.
//!   `gelu` does not go through `tanh`: since `½(1 + tanh u) = 1/(1 +
//!   e^(−2u))`, it is `x / (1 + exp(−2u))` with `u = √(2/π)(x + c·x³)` —
//!   one `exp`, one divide, and one select for `u < −20`, where the
//!   reference's `1 + tanh u` has cancelled to exactly 0 and the result is
//!   `−0.0`. So its divergence from scalar is no longer "the vector tanh":
//!   it is the reference's own cancellation error in `1 + tanh u` for
//!   negative `u` plus a couple of ulp of `exp`. These kernels differ from
//!   scalar on every build, within the budgets enforced by
//!   `tests/backend.rs` (`f64`: tanh ≤ 16 ulp, gelu ≤ 32 ulp or 1e-14
//!   absolute; `f32`, the plan's only activation: gelu ≤ 8 ulp or
//!   `4ε·|x|` absolute).

use crate::backend::{
    add_row, Act, Backend, BackendKind, PackedB, BAND, GELU_C, GELU_SQRT_2_OVER_PI, KC,
};
use std::cell::RefCell;

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512;

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
/// [`BLOCK`] for the `f32` kernels: the same four vectors, twice the lanes.
const BLOCK_F32: usize = 32;
/// Partial sums of the one-column `f32` dot ([`dot_rows`]): two vectors'
/// worth, so a 48-deep head row is three multiply-adds deep.
const DOT: usize = 16;

/// The vectorized backend (unit struct; all state is per-call).
pub struct SimdBackend;

static SIMD: SimdBackend = SimdBackend;

/// The process-wide [`SimdBackend`] instance.
#[inline]
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

/// An element type the GEMM microkernel runs in: `f64` for
/// [`Backend::gemm_band`], `f32` for [`Backend::layer`].
pub(crate) trait Elem: Copy + Default {
    /// `a·b + c` as [`fmadd`] does it: fused exactly when [`FUSED`].
    fn fmadd(a: Self, b: Self, c: Self) -> Self;
}

impl Elem for f64 {
    #[inline(always)]
    fn fmadd(a: f64, b: f64, c: f64) -> f64 {
        fmadd(a, b, c)
    }
}

impl Elem for f32 {
    #[inline(always)]
    fn fmadd(a: f32, b: f32, c: f32) -> f32 {
        if FUSED {
            a.mul_add(b, c)
        } else {
            a * b + c
        }
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
fn pack_panel<T: Copy>(
    b: &[T],
    n: usize,
    (p0, kb, j0, nb): (usize, usize, usize, usize),
    out: &mut Vec<T>,
) {
    for row in b[p0 * n..(p0 + kb) * n].chunks_exact(n) {
        out.extend_from_slice(&row[j0..j0 + nb]);
    }
}

/// `b` (`k×n` row-major) in panel order: every panel of [`panel_blocks`],
/// one after the other. The panel of block `(p0, j0)` starts at
/// `p0·n + kb·j0`.
pub(crate) fn pack_panels<T: Copy>(b: &[T], k: usize, n: usize) -> Vec<T> {
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
fn micro<T: Elem, const W: usize>(
    a: &[T],
    k: usize,
    p0: usize,
    panel: &[T],
    c: &mut [T],
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
    fn tile<T, const W: usize>(row: &mut [T], j0: usize) -> &mut [T; W] {
        (&mut row[j0..j0 + W]).try_into().expect("W-wide slice")
    }
    let (c0, c1, c2, c3) = (
        tile::<T, W>(c0, j0),
        tile::<T, W>(c1, j0),
        tile::<T, W>(c2, j0),
        tile::<T, W>(c3, j0),
    );
    let zero = [T::default(); W];
    let (mut s0, mut s1, mut s2, mut s3) = if load {
        (*c0, *c1, *c2, *c3)
    } else {
        (zero, zero, zero, zero)
    };
    // One accumulator array per row: kept apart they stay in registers as
    // a few vectors each; as one `[[T; W]; MR]` the SLP vectorizer
    // regroups them across rows and shuffles in the loop.
    for ((((bv, &x0), &x1), &x2), &x3) in panel
        .chunks_exact(W)
        .zip(&a0[p0..p0 + kb])
        .zip(&a1[p0..p0 + kb])
        .zip(&a2[p0..p0 + kb])
        .zip(&a3[p0..p0 + kb])
    {
        for (s, &b) in s0.iter_mut().zip(bv) {
            *s = T::fmadd(x0, b, *s);
        }
        for (s, &b) in s1.iter_mut().zip(bv) {
            *s = T::fmadd(x1, b, *s);
        }
        for (s, &b) in s2.iter_mut().zip(bv) {
            *s = T::fmadd(x2, b, *s);
        }
        for (s, &b) in s3.iter_mut().zip(bv) {
            *s = T::fmadd(x3, b, *s);
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
fn chains<T: Elem, const R: usize, const NB: usize>(
    a: &[T],
    k: usize,
    p0: usize,
    panel: &[T],
    c: &mut [T],
    n: usize,
    j0: usize,
    load: bool,
) {
    let kb = panel.len() / NB;
    let rows: [&[T]; R] = std::array::from_fn(|r| &a[r * k + p0..r * k + p0 + kb]);
    let mut acc = [[T::default(); NB]; R];
    if load {
        for (r, accr) in acc.iter_mut().enumerate() {
            accr.copy_from_slice(&c[r * n + j0..r * n + j0 + NB]);
        }
    }
    for (pp, bv) in panel.chunks_exact(NB).enumerate() {
        for (accr, row) in acc.iter_mut().zip(&rows) {
            let x = row[pp];
            for (s, &b) in accr.iter_mut().zip(bv) {
                *s = T::fmadd(x, b, *s);
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
fn narrow_rows<T: Elem, const NB: usize>(
    a: &[T],
    k: usize,
    p0: usize,
    panel: &[T],
    c: &mut [T],
    n: usize,
    j0: usize,
    load: bool,
) {
    let mut ar = a.chunks_exact(RB * k);
    let mut cr = c.chunks_exact_mut(RB * n);
    for (ab, cb) in (&mut ar).zip(&mut cr) {
        chains::<T, RB, NB>(ab, k, p0, panel, cb, n, j0, load);
    }
    let tail = ar.remainder().chunks_exact(k);
    for (a1, c1) in tail.zip(cr.into_remainder().chunks_exact_mut(n)) {
        chains::<T, 1, NB>(a1, k, p0, panel, c1, n, j0, load);
    }
}

/// Every row of a one-column product `c = a · w` (`w` the `k` weights):
/// each row's dot as [`DOT`] partial chains, chain `l` the [`fmadd`]s of
/// the products `p ≡ l (mod DOT)` in ascending `p` from `+0.0`, then the
/// chains added pairwise (`l + DOT/2` into `l`, halving). A row's order
/// does not depend on where it sits, and the error stays within the
/// serial chain's `γ_k·(|a|·|w|)`: no product passes through more than
/// `k/DOT + log₂ DOT ≤ k` roundings.
fn dot_rows(a: &[f32], w: &[f32], c: &mut [f32]) {
    let k = w.len();
    for (row, out) in a.chunks_exact(k).zip(c) {
        let mut acc = [0.0f32; DOT];
        let (rows, cols) = (row.chunks_exact(DOT), w.chunks_exact(DOT));
        let (row_rest, w_rest) = (rows.remainder(), cols.remainder());
        for (x, y) in rows.zip(cols) {
            // Fixed-size lanes: the loop below is a few vector FMAs.
            let x: &[f32; DOT] = x.try_into().expect("DOT-wide chunk");
            let y: &[f32; DOT] = y.try_into().expect("DOT-wide chunk");
            for l in 0..DOT {
                acc[l] = f32::fmadd(x[l], y[l], acc[l]);
            }
        }
        for ((s, &x), &y) in acc.iter_mut().zip(row_rest).zip(w_rest) {
            *s = f32::fmadd(x, y, *s);
        }
        let mut width = DOT;
        while width > 1 {
            width /= 2;
            for l in 0..width {
                acc[l] += acc[l + width];
            }
        }
        *out = acc[0];
    }
}

/// Every row of a `W`-wide output block (`W` is `NR` or `NH`): `MR`-row
/// register tiles, then the rows no tile covers one by one.
#[allow(clippy::too_many_arguments)]
fn tiled_rows<T: Elem, const W: usize>(
    a: &[T],
    k: usize,
    p0: usize,
    panel: &[T],
    c: &mut [T],
    n: usize,
    j0: usize,
    load: bool,
) {
    let mut ar = a.chunks_exact(MR * k);
    let mut cr = c.chunks_exact_mut(MR * n);
    for (at, ct) in (&mut ar).zip(&mut cr) {
        micro::<T, W>(at, k, p0, panel, ct, n, j0, load);
    }
    let tail = ar.remainder().chunks_exact(k);
    for (a1, c1) in tail.zip(cr.into_remainder().chunks_exact_mut(n)) {
        chains::<T, 1, W>(a1, k, p0, panel, c1, n, j0, load);
    }
}

/// Columns `j0..j0 + nb` of `c` (`m×n`) from `a[:, p0..p0 + kb]` (`m×k`)
/// times one `kb×nb` panel — added to `c` when `load`, replacing it
/// otherwise.
#[allow(clippy::too_many_arguments)]
fn panel_product<T: Elem>(
    a: &[T],
    k: usize,
    p0: usize,
    panel: &[T],
    c: &mut [T],
    n: usize,
    j0: usize,
    nb: usize,
    load: bool,
) {
    match nb {
        NR => tiled_rows::<T, NR>(a, k, p0, panel, c, n, j0, load),
        NH => tiled_rows::<T, NH>(a, k, p0, panel, c, n, j0, load),
        1 => narrow_rows::<T, 1>(a, k, p0, panel, c, n, j0, load),
        2 => narrow_rows::<T, 2>(a, k, p0, panel, c, n, j0, load),
        3 => narrow_rows::<T, 3>(a, k, p0, panel, c, n, j0, load),
        4 => narrow_rows::<T, 4>(a, k, p0, panel, c, n, j0, load),
        5 => narrow_rows::<T, 5>(a, k, p0, panel, c, n, j0, load),
        6 => narrow_rows::<T, 6>(a, k, p0, panel, c, n, j0, load),
        7 => narrow_rows::<T, 7>(a, k, p0, panel, c, n, j0, load),
        _ => unreachable!("a panel is NR, NH or fewer than NH columns wide"),
    }
}

/// One row band of `c = a · b` (`a` is `m×k`, `b` is `k×n`, `c` is `m×n`,
/// all row-major): added to `c` when `accumulate`, otherwise written over
/// whatever `c` held, the first `KC` block's chains starting at `+0.0` as
/// [`Backend::layer`]'s do — the bits of accumulating into a zeroed `c`.
/// Each panel of `b` is packed into the per-thread [`PANEL`] as it goes.
pub(crate) fn band_product(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if n == 0 || c.is_empty() {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    PANEL.with(|cell| {
        let mut panel = cell.borrow_mut();
        for block @ (p0, _, j0, nb) in panel_blocks(k, n) {
            panel.clear();
            pack_panel(b, n, block, &mut panel);
            panel_product(a, k, p0, &panel, c, n, j0, nb, accumulate || p0 > 0);
        }
    });
}

impl Backend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn gemm_band(&self, a: &[f64], b: &[f64], c: &mut [f64], k: usize, n: usize) {
        band_product(a, b, c, k, n, true);
    }

    fn layer(&self, a: &[f32], w: &PackedB, bias: Option<&[f32]>, act: Act, out: &mut [f32]) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        if w.k() > 0 && w.n() > 0 && w.n().is_multiple_of(avx512::LANES) {
            return avx512::layer(a, w, bias, act, out);
        }
        portable_layer(a, w, bias, act, out);
    }

    fn activate_f32(&self, act: Act, buf: &mut [f32]) {
        activate_f32(act, buf);
    }

    fn tanh(&self, a: &[f64], out: &mut [f64]) {
        blocks_apply(a, out, tanh_lanes::<BLOCK>);
    }

    fn gelu(&self, a: &[f64], out: &mut [f64]) {
        blocks_apply(a, out, gelu_lanes::<BLOCK>);
    }
}

/// The portable [`Backend::layer`]: every layer where the target lacks
/// `avx512f`; where it has it, the layers with `k = 0` or an `n` that is
/// not a multiple of 16.
fn portable_layer(a: &[f32], w: &PackedB, bias: Option<&[f32]>, act: Act, out: &mut [f32]) {
    let (k, n) = (w.k(), w.n());
    if n == 0 {
        return;
    }
    let finish = |band: &mut [f32]| {
        if let Some(bias) = bias {
            add_row(band, bias);
        }
        activate_f32(act, band);
    };
    if k == 0 {
        out.fill(0.0);
        return finish(out);
    }
    // Band by band: the band's rows of `a`, every panel of `w` and the
    // band of `out` fit in L1 together, and bias and activation run
    // over the band before the next one evicts it.
    for (a_band, c_band) in a.chunks(BAND * k).zip(out.chunks_mut(BAND * n)) {
        if FUSED && n == 1 {
            // One column's panels, in order, are the column.
            dot_rows(a_band, w.panels(), c_band);
        } else {
            for (p0, kb, j0, nb) in panel_blocks(k, n) {
                let panel = &w.panels()[p0 * n + kb * j0..][..kb * nb];
                panel_product(a_band, k, p0, panel, c_band, n, j0, nb, p0 > 0);
            }
        }
        finish(c_band);
    }
}

/// [`Backend::activate_f32`]: GELU in 512-bit vectors where the target has
/// `avx512f`, bitwise [`gelu_portable`] either way.
fn activate_f32(act: Act, buf: &mut [f32]) {
    match act {
        Act::Identity => {}
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        Act::Gelu => avx512::gelu_in_place(buf),
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
        Act::Gelu => gelu_portable(buf),
    }
}

/// The portable `f32` GELU over `buf`, in place.
fn gelu_portable(buf: &mut [f32]) {
    blocks_apply_in_place(buf, gelu_lanes_f32::<BLOCK_F32>);
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

/// [`blocks_apply`] over one buffer, in place, for either element type
/// and block width.
#[inline]
fn blocks_apply_in_place<T: Copy + Default, const B: usize>(
    buf: &mut [T],
    f: impl Fn([T; B]) -> [T; B],
) {
    let mut bs = buf.chunks_exact_mut(B);
    for bc in &mut bs {
        let mut block = [T::default(); B];
        block.copy_from_slice(bc);
        bc.copy_from_slice(&f(block));
    }
    let rem = bs.into_remainder();
    if !rem.is_empty() {
        let mut block = [T::default(); B];
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

/// `3c·√(2/π)`: `½x·u''(x)` over `x²`, the last term of `σ''`.
const GELU_K2: f64 = 3.0 * GELU_C * GELU_SQRT_2_OVER_PI;

/// `out = σ⁽ᵏ⁾(a)` elementwise for the GELU `σ`, `k` = 1, 2 or 3, in one
/// pass. With `u = √(2/π)(x + c·x³)`, `t = tanh u` from [`tanh_lanes`],
/// `s = 1 − t²` and `u' = √(2/π)(1 + 3c·x²)`:
///
/// * `σ'  = ½(1 + t) + (½x·s)·u'`,
/// * `σ'' = s·w` with `w = (u' − (x·t)·u'²) + x²·3c√(2/π)`,
/// * `σ''' = s·(w' − 2t·u'·w)` with
///   `w' = 12c√(2/π)·x − t·u'² − x·s·u'³ − 12c√(2/π)·x²·t·u'`.
///
/// `k` = 1 and 2 round every step as the graph's elementwise chains for
/// them do (`mul`, `gelu_inner`, `tanh`, `one_minus_sq`, `gelu_du`,
/// `half_one_plus`, `add`, `sub`, `scale`, in the same order), so their
/// values are those chains' bits.
pub(crate) fn gelu_deriv(k: u8, a: &[f64], out: &mut [f64]) {
    match k {
        1 => blocks_apply(a, out, gelu_deriv_lanes::<1, BLOCK>),
        2 => blocks_apply(a, out, gelu_deriv_lanes::<2, BLOCK>),
        3 => blocks_apply(a, out, gelu_deriv_lanes::<3, BLOCK>),
        _ => panic!("gelu_deriv: order {k} is not 1, 2 or 3"),
    }
}

/// Lane-wise [`gelu_deriv`] of order `K`.
#[inline]
fn gelu_deriv_lanes<const K: u8, const W: usize>(xs: [f64; W]) -> [f64; W] {
    let mut u = [0.0; W];
    for (u, &x) in u.iter_mut().zip(&xs) {
        let x3 = x * x * x;
        *u = (x + x3 * GELU_C) * GELU_SQRT_2_OVER_PI;
    }
    let ts = tanh_lanes(u);
    let mut out = [0.0; W];
    for ((o, &x), &t) in out.iter_mut().zip(&xs).zip(&ts) {
        let x2 = x * x;
        let s = 1.0 - t * t;
        let du = (x2 * (3.0 * GELU_C) + 1.0) * GELU_SQRT_2_OVER_PI;
        let w = (du - x * t * (du * du)) + x2 * GELU_K2;
        *o = match K {
            1 => (t + 1.0) * 0.5 + x * 0.5 * s * du,
            2 => s * w,
            _ => {
                let dw = 4.0 * GELU_K2 * x
                    - t * (du * du)
                    - x * s * (du * du * du)
                    - 4.0 * GELU_K2 * x2 * t * du;
                s * (dw - 2.0 * t * du * w)
            }
        };
    }
    out
}

/// [`LOG2E`] for [`exp_lanes_f32`].
const LOG2E_F32: f32 = std::f32::consts::LOG2_E;
/// High part of `ln 2` in `f32`: `355/512`, nine bits, so `n·LN2_HI_F32`
/// is exact.
const LN2_HI_F32: f32 = 0.693_359_4;
/// Low part of `ln 2` (`ln 2 - LN2_HI_F32`).
const LN2_LO_F32: f32 = -2.121_944_4e-4;
/// `1.5 · 2^23`: [`ROUND_MAGIC`] for `f32`.
const ROUND_MAGIC_F32: f32 = 12_582_912.0;

/// Taylor coefficients `1/k!` for `f32` `exp` on `|r| ≤ ln2/2`: degree 7
/// keeps truncation below a tenth of an `f32` ulp.
const EXP_COEFFS_F32: [f32; 6] = [
    1.0 / 5040.0, // 1/7!
    1.0 / 720.0,  // 1/6!
    1.0 / 120.0,  // 1/5!
    1.0 / 24.0,   // 1/4!
    1.0 / 6.0,    // 1/3!
    0.5,          // 1/2!
];

/// [`exp_lanes`] in `f32`, for `|u| ≤ 87` (callers clamp; so `2^n` stays
/// a normal number): the same reduction, a degree-7 polynomial and the
/// exponent bits of `2^n` taken as the difference of the rounded value's
/// bits from the magic number's.
#[inline]
fn exp_lanes_f32<const W: usize>(u: [f32; W]) -> [f32; W] {
    let mut out = [0.0; W];
    for (o, &ul) in out.iter_mut().zip(&u) {
        let x = ul.clamp(-87.0, 87.0);
        let zf = f32::fmadd(x, LOG2E_F32, ROUND_MAGIC_F32);
        let n = (zf.to_bits() as i32).wrapping_sub(ROUND_MAGIC_F32.to_bits() as i32);
        let nf = zf - ROUND_MAGIC_F32;
        let r = f32::fmadd(-nf, LN2_LO_F32, f32::fmadd(-nf, LN2_HI_F32, x));
        let mut p = EXP_COEFFS_F32[0];
        for &c in &EXP_COEFFS_F32[1..] {
            p = f32::fmadd(p, r, c);
        }
        p = f32::fmadd(p, r, 1.0);
        p = f32::fmadd(p, r, 1.0);
        let scale = f32::from_bits((n.wrapping_add(127) as u32) << 23);
        *o = p * scale;
    }
    out
}

/// [`gelu_lanes`] in `f32`: `x / (1 + exp(−2u))`, `−0.0` below
/// `u = −20`, on the constants of [`crate::backend::gelu_scalar_f32`].
#[inline]
fn gelu_lanes_f32<const W: usize>(xs: [f32; W]) -> [f32; W] {
    const S: f32 = GELU_SQRT_2_OVER_PI as f32;
    const C: f32 = GELU_C as f32;
    let mut m2u = [0.0; W];
    for (m, &x) in m2u.iter_mut().zip(&xs) {
        *m = -2.0 * (S * f32::fmadd(C * x * x, x, x));
    }
    let e = exp_lanes_f32(m2u);
    let mut out = [0.0; W];
    for (((o, &x), &ev), &m) in out.iter_mut().zip(&xs).zip(&e).zip(&m2u) {
        let y = x / (1.0 + ev);
        *o = if m > -2.0 * GELU_NEG_SAT as f32 {
            -0.0
        } else {
            y
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        check_gemm_contract, check_layer_contract, same_bits, scalar, ulp_distance,
        ulp_distance_f32, Backend,
    };

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
            let a: Vec<f32> = zero_free(m * k, 0.37, 1.5)
                .iter()
                .map(|&v| v as f32)
                .collect();
            let w = crate::Tensor::from_vec(k, n, zero_free(k * n, 0.23, -1.5));
            let bias: Vec<f32> = zero_free(n, 0.11, 2.0).iter().map(|&v| v as f32).collect();
            let packed = PackedB::new(&w);
            // No bias and identity, so the comparison is the layer contract
            // across backends; the destinations start as garbage that must
            // not survive.
            let mut want = vec![7.0; m * n];
            let mut got = vec![f32::NAN; m * n];
            scalar().layer(&a, &packed, None, Act::Identity, &mut want);
            SIMD.layer(&a, &packed, None, Act::Identity, &mut got);
            check_layer_contract((&a, &packed), (&want, &got))
                .unwrap_or_else(|e| panic!("layer {m}x{k}x{n} {e}"));
            // With a bias and an activation, bit for bit the simd backend's
            // own unfused steps.
            for act in [Act::Identity, Act::Gelu] {
                let mut unfused = got.clone();
                if n > 0 {
                    add_row(&mut unfused, &bias);
                }
                SIMD.activate_f32(act, &mut unfused);
                let mut fused = vec![f32::NAN; m * n];
                SIMD.layer(&a, &packed, Some(&bias), act, &mut fused);
                for (i, (u, f)) in unfused.iter().zip(&fused).enumerate() {
                    assert_eq!(
                        u.to_bits(),
                        f.to_bits(),
                        "layer {m}x{k}x{n} {act:?} elem {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_one_column_row_is_the_same_bits_alone_or_in_a_band() {
        // The scalar head's dot: every row the same order wherever it
        // sits, for depths below, at and past the partial sums and `KC`.
        for k in [1, 5, 16, 48, 257] {
            let m = 70;
            let a: Vec<f32> = (zero_free(m * k, 0.37, 0.1).iter())
                .map(|&v| v as f32)
                .collect();
            let packed = PackedB::new(&crate::Tensor::from_vec(k, 1, zero_free(k, 0.23, -0.4)));
            let mut band = vec![f32::NAN; m];
            SIMD.layer(&a, &packed, None, Act::Identity, &mut band);
            for (r, &want) in band.iter().enumerate() {
                let mut alone = [f32::NAN];
                SIMD.layer(&a[r * k..][..k], &packed, None, Act::Identity, &mut alone);
                assert_eq!(alone[0].to_bits(), want.to_bits(), "k {k} row {r}");
            }
        }
    }

    #[test]
    fn f32_exp_matches_libm_to_a_few_ulp() {
        let mut worst = 0;
        for i in -8700..=8700 {
            let x = i as f32 * 0.01; // [-87, 87]
            let e = exp_lanes_f32([x, 0.0, 0.0, 0.0])[0];
            worst = worst.max(ulp_distance_f32(e, x.exp()));
        }
        assert!(worst <= 2, "f32 exp drifted {worst} ulp from libm");
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
}

//! The AVX-512 body of the plan's `f32` layer and GELU.
//!
//! Compiled in exactly when the build target has `avx512f` (the `cfg` on
//! this module), a compile-time fact like [`super::FUSED`]: no runtime
//! dispatch, no setting. LLVM's tuning for Intel server cores prefers
//! 256-bit vectors, so the portable kernels around this module never issue
//! a `zmm` instruction; on a 2-vCPU Emerald Rapids host the 512-bit fused
//! chain runs 150–163 GFLOP/s per lane against 77–86 for the 256-bit one.
//! Turning the preference off (`-C target-feature=-prefer-256-bit`, an
//! unstable flag rustc warns about) bought only ~15 % on a whole solve:
//! the portable 4×16 tile is four accumulators at that width.
//!
//! [`layer`] runs `n % 16 == 0` layers in register tiles of [`ROWS`] rows ×
//! up to [`VECS`] vectors (48 columns: 24 accumulators of the 32 `zmm`
//! registers), wider layers in 48-column blocks, and the rows no tile
//! covers one by one. A tile's products leave the FMA loop once, and each
//! vector takes its bias add and GELU on its way to `out`: no pass over
//! `out` follows.
//!
//! **Bitwise the portable body.** Every element is the ascending-`p` chain
//! of fused multiply-adds from `+0.0` the portable microkernel computes
//! (the `KC` blocks are walked in order with the chain in registers, where
//! the portable body stores and reloads it: an exact round trip), then
//! `+ bias`, then [`gelu`]: `gelu_lanes_f32`'s IEEE operations in its
//! order (two of its steps as one instruction each with the same result).
//! So outputs are the portable body's bits, and the portable body is the
//! oracle of the tests below.

use super::{
    gelu_portable, EXP_COEFFS_F32, GELU_NEG_SAT, LN2_HI_F32, LN2_LO_F32, LOG2E_F32, ROUND_MAGIC_F32,
};
use crate::backend::{Act, PackedB, GELU_C, GELU_SQRT_2_OVER_PI, KC};
use std::arch::x86_64::*;

// The portable chains this body reproduces are fused (`avx512f` implies
// FMA), and a `16·j`-wide column block of a `PackedB` is whole panels.
const _: () = assert!(super::FUSED && LANES == super::NR);

/// `f32` lanes of a `zmm` vector, and the width of a packed panel.
pub(super) const LANES: usize = 16;
/// Rows of a register tile.
const ROWS: usize = 8;
/// Vectors per tile row.
const VECS: usize = 3;

/// The vector of a 16-float slice.
#[target_feature(enable = "avx512f")]
fn load(s: &[f32]) -> __m512 {
    let s: &[f32; LANES] = s.try_into().expect("a vector's worth");
    // SAFETY: reads the 16 floats of `s`.
    unsafe { _mm512_loadu_ps(s.as_ptr()) }
}

/// `v` into a 16-float slice.
#[target_feature(enable = "avx512f")]
fn store(s: &mut [f32], v: __m512) {
    let s: &mut [f32; LANES] = s.try_into().expect("a vector's worth");
    // SAFETY: writes the 16 floats of `s`.
    unsafe { _mm512_storeu_ps(s.as_mut_ptr(), v) }
}

/// [`crate::Backend::layer`] for `k > 0` and `n` a positive multiple of
/// [`LANES`]: bitwise the portable body.
pub(super) fn layer(a: &[f32], w: &PackedB, bias: Option<&[f32]>, act: Act, out: &mut [f32]) {
    let (k, n) = (w.k(), w.n());
    debug_assert!(k > 0 && n > 0 && n.is_multiple_of(LANES));
    let gelu = act == Act::Gelu;
    let mut ar = a.chunks_exact(ROWS * k);
    let mut or = out.chunks_exact_mut(ROWS * n);
    // SAFETY (both calls): this module is compiled only for a target
    // with `avx512f`.
    for (at, ot) in (&mut ar).zip(&mut or) {
        unsafe { columns::<ROWS>(at, w, bias, gelu, ot) };
    }
    let tail = ar.remainder().chunks_exact(k);
    for (a1, o1) in tail.zip(or.into_remainder().chunks_exact_mut(n)) {
        unsafe { columns::<1>(a1, w, bias, gelu, o1) };
    }
}

/// `R` rows of the layer, tile by tile across its columns.
#[target_feature(enable = "avx512f")]
fn columns<const R: usize>(
    a: &[f32],
    w: &PackedB,
    bias: Option<&[f32]>,
    gelu: bool,
    out: &mut [f32],
) {
    for j in (0..w.n()).step_by(VECS * LANES) {
        match (w.n() - j) / LANES {
            1 => tile::<R, 1>(a, w, j, bias, gelu, out),
            2 => tile::<R, 2>(a, w, j, bias, gelu, out),
            _ => tile::<R, VECS>(a, w, j, bias, gelu, out),
        }
    }
}

/// Columns `j..j + 16V` of the `R` rows of `out` (`n` wide) from the same
/// rows of `a` (`k` wide): the tile's [`products`], then bias and GELU on
/// each vector on its way to `out`.
#[target_feature(enable = "avx512f")]
#[inline]
fn tile<const R: usize, const V: usize>(
    a: &[f32],
    w: &PackedB,
    j: usize,
    bias: Option<&[f32]>,
    gelu: bool,
    out: &mut [f32],
) {
    let acc = products::<R, V>(a, w, j);
    for (accr, orow) in acc.iter().zip(out.chunks_exact_mut(w.n())) {
        for (v, &s) in accr.iter().enumerate() {
            let col = j + v * LANES;
            let mut y = s;
            if let Some(bias) = bias {
                y = _mm512_add_ps(y, load(&bias[col..col + LANES]));
            }
            if gelu {
                y = self::gelu(y);
            }
            store(&mut orow[col..col + LANES], y);
        }
    }
}

/// The `R×V` accumulators of a tile: `a`'s `R` rows (`k` wide) times
/// columns `j..j + 16V` of `w`, each element one ascending-`p` chain from
/// `+0.0` over the panels.
///
/// Not inlined: the finish loops over the accumulators by index, and an
/// array indexed in a loop lives in memory, so inlined here its vectors
/// would be stored and reloaded in every step of the chains too. As a call
/// they stay in registers for the whole loop and are written out once.
#[target_feature(enable = "avx512f")]
#[inline(never)]
fn products<const R: usize, const V: usize>(a: &[f32], w: &PackedB, j: usize) -> [[__m512; V]; R] {
    let (k, n) = (w.k(), w.n());
    assert!(a.len() == R * k && j + V * LANES <= n);
    let mut acc = [[_mm512_setzero_ps(); V]; R];
    for p0 in (0..k).step_by(KC) {
        let kb = KC.min(k - p0);
        // This `KC` block of each row, and of column block `j + 16v` its
        // panel: `kb` rows of 16, contiguous (`pack_panels`).
        let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k + p0..][..kb]);
        let panels: [&[f32]; V] =
            std::array::from_fn(|v| &w.panels()[p0 * n + kb * (j + v * LANES)..][..kb * LANES]);
        for pp in 0..kb {
            let b: [__m512; V] = std::array::from_fn(|v| load(&panels[v][pp * LANES..][..LANES]));
            for (row, accr) in rows.iter().zip(&mut acc) {
                let x = _mm512_set1_ps(row[pp]);
                for (s, &bv) in accr.iter_mut().zip(&b) {
                    *s = _mm512_fmadd_ps(x, bv, *s);
                }
            }
        }
    }
    acc
}

/// GELU over `buf` in place: 16 lanes at a time, the remainder through the
/// portable kernel. Bitwise the portable kernel either way.
pub(super) fn gelu_in_place(buf: &mut [f32]) {
    // SAFETY: this module is compiled only for a target with `avx512f`.
    unsafe { gelu_vectors(buf) }
}

/// [`gelu_in_place`]'s body.
#[target_feature(enable = "avx512f")]
fn gelu_vectors(buf: &mut [f32]) {
    let mut chunks = buf.chunks_exact_mut(LANES);
    for c in &mut chunks {
        store(c, gelu(load(c)));
    }
    gelu_portable(chunks.into_remainder());
}

/// `gelu_lanes_f32` on one vector: `x / (1 + exp(−2u))`, `−0.0` where
/// `−2u > 40`. Its IEEE operations on the same operands in the same order,
/// but for two steps written with one instruction each that gives the same
/// bits: the multiply by `2ⁿ` built from exponent bits is `scalef`, and
/// the select after the divide is a masked divide.
#[target_feature(enable = "avx512f")]
#[inline]
fn gelu(x: __m512) -> __m512 {
    const S: f32 = GELU_SQRT_2_OVER_PI as f32;
    const C: f32 = GELU_C as f32;
    let cx3 = _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(C), x), x);
    let m2u = _mm512_mul_ps(
        _mm512_set1_ps(-2.0),
        _mm512_mul_ps(_mm512_set1_ps(S), _mm512_fmadd_ps(cx3, x, x)),
    );
    // `exp_lanes_f32`. Its clamp keeps a NaN: `max`/`min` return their
    // second operand when either is NaN.
    let u = _mm512_min_ps(
        _mm512_set1_ps(87.0),
        _mm512_max_ps(_mm512_set1_ps(-87.0), m2u),
    );
    let zf = _mm512_fmadd_ps(
        u,
        _mm512_set1_ps(LOG2E_F32),
        _mm512_set1_ps(ROUND_MAGIC_F32),
    );
    let nf = _mm512_sub_ps(zf, _mm512_set1_ps(ROUND_MAGIC_F32));
    // `fnmadd(a, b, c)` rounds `−(a·b) + c` once: the portable `fmadd(−a, b, c)`.
    let r = _mm512_fnmadd_ps(
        nf,
        _mm512_set1_ps(LN2_LO_F32),
        _mm512_fnmadd_ps(nf, _mm512_set1_ps(LN2_HI_F32), u),
    );
    let mut p = _mm512_set1_ps(EXP_COEFFS_F32[0]);
    for &c in &EXP_COEFFS_F32[1..] {
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(c));
    }
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0));
    // `p · 2ⁿ` for the integer `n = nf`, `|n| ≤ 126`: one rounding of the
    // same exact product as the portable multiply by the bits of `2ⁿ`.
    let e = _mm512_scalef_ps(p, nf);
    // The quotient where `−2u ≤ 40` (or NaN), `−0.0` in the other lanes.
    let live = _mm512_cmp_ps_mask::<_CMP_NGT_UQ>(m2u, _mm512_set1_ps(-2.0 * GELU_NEG_SAT as f32));
    let one_plus_e = _mm512_add_ps(_mm512_set1_ps(1.0), e);
    _mm512_mask_div_ps(_mm512_set1_ps(-0.0), live, x, one_plus_e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// A value in `[-1, 1)` from an index, without a generator.
    fn hashed(i: usize) -> f64 {
        let h = (i as u64 ^ 0x9e37_79b9).wrapping_mul(0x2545_f491_4f6c_dd1d);
        (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn same(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    #[test]
    fn layer_is_bitwise_the_portable_body() {
        for k in [1, 32, 48, 129, 300] {
            for n in [16, 32, 48, 64, 96] {
                // Column 2 mod 5 all negative: on a zero row of `a` its
                // products are all `−0.0`, so only a chain started at
                // `+0.0` ends at `+0.0`.
                let w = Tensor::from_fn(k, n, |p, j| {
                    let v = hashed(p * n + j);
                    if j % 5 == 2 {
                        -v.abs() - 0.1
                    } else {
                        v
                    }
                });
                let w = PackedB::new(&w);
                let bias: Vec<f32> = (0..n).map(|j| hashed(7 * j + 3) as f32).collect();
                for m in (1..=17).chain([64, 65, 832]) {
                    let a: Vec<f32> = (0..m * k)
                        .map(|i| match (i / k) % 4 {
                            3 => 0.0,
                            _ => 4.0 * hashed(i + 99) as f32,
                        })
                        .collect();
                    for bias in [None, Some(&bias[..])] {
                        for act in [Act::Identity, Act::Gelu] {
                            let mut want = vec![f32::NAN; m * n];
                            super::super::portable_layer(&a, &w, bias, Act::Identity, &mut want);
                            if act == Act::Gelu {
                                gelu_portable(&mut want);
                            }
                            let mut got = vec![f32::NAN; m * n];
                            layer(&a, &w, bias, act, &mut got);
                            for (i, (&x, &y)) in want.iter().zip(&got).enumerate() {
                                assert!(
                                    same(x, y),
                                    "{m}x{k}x{n} bias {} {act:?} elem {i}: {x:e} vs {y:e}",
                                    bias.is_some()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// `−2u` of `gelu_lanes_f32` at `x`.
    fn m2u(x: f32) -> f32 {
        const S: f32 = GELU_SQRT_2_OVER_PI as f32;
        const C: f32 = GELU_C as f32;
        -2.0 * (S * (C * x * x).mul_add(x, x))
    }

    /// The `f32` where `m2u` crosses `target`, by bisection on `[lo, hi]`
    /// (`m2u` falls across it).
    fn crossing(target: f32, mut lo: f32, mut hi: f32) -> f32 {
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if m2u(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    #[test]
    fn gelu_is_bitwise_the_portable_kernel() {
        let tiny = f32::from_bits(1);
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            tiny,
            -tiny,
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x0040_0000),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1e-20,
            -1e-30,
        ];
        // Around the `u = −20` select and the ±87 clamp of `exp`,
        // every `f32` within 300 ulp.
        for (target, lo, hi) in [(40.0, -8.0, -7.0), (87.0, -12.0, -8.0), (-87.0, 8.0, 12.0)] {
            let x = crossing(target, lo, hi);
            assert!(m2u(x) > target && m2u(x.next_up()) <= target, "{target}");
            let bits = x.to_bits();
            xs.extend((bits - 300..bits + 300).map(f32::from_bits));
        }
        xs.extend((-24_000..=24_000).map(|i| i as f32 * 5e-4));
        for len in 1..=40 {
            for start in [0, 7] {
                let mut want: Vec<f32> = xs.iter().cycle().skip(start).take(len).copied().collect();
                let mut got = want.clone();
                gelu_portable(&mut want);
                gelu_in_place(&mut got);
                for (i, (&x, &y)) in want.iter().zip(&got).enumerate() {
                    assert!(
                        same(x, y),
                        "len {len} start {start} elem {i}: {x:e} vs {y:e}"
                    );
                }
            }
        }
        let mut want = xs.clone();
        let mut got = xs.clone();
        gelu_portable(&mut want);
        gelu_in_place(&mut got);
        for ((&x, &w), &g) in xs.iter().zip(&want).zip(&got) {
            assert!(same(w, g), "gelu({x:e}): {w:e} vs {g:e}");
        }
    }
}

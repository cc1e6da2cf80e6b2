//! Differential correctness harness: the production kernels against the
//! scalar reference.
//!
//! Production runs one kernel set, `backend::simd()`; the scalar reference
//! `backend::scalar()` is the oracle here and nowhere else. Every kernel the
//! two compute differently is run on the same inputs through both, and the
//! outputs are compared:
//!
//! * **error-bounded** for GEMM and the `f32` layer. Both run each output
//!   element as one ascending-`p` multiply-add chain, but the simd chain is
//!   fused (one rounding per step) when the build target has the
//!   instruction (`tensor::FUSED`; see `.cargo/config.toml`). Each chain is
//!   within `γ_k·(|A|·|B|)ᵢⱼ` of the exact sum, so the two are within
//!   `2γ_k·(|A|·|B|)ᵢⱼ` of each other, `γ_k = kε/(1 − kε)` with the element
//!   type's `ε`: asserted elementwise (`tensor::check_gemm_contract`,
//!   `tensor::check_layer_contract`, the magnitude computed from `|a|` and
//!   `|b|`), and on a build without the instruction the same tests assert
//!   bits, because there the chains are the same. GEMM is driven through
//!   the production `gemm_into`, the reference through `gemm_band` on the
//!   operands as used (transposes materialized). *Within* each kernel set,
//!   the fused `f32` dense layer is bitwise its own unfused steps.
//! * **ulp-budgeted** for `tanh` and `gelu`, whose vectorized versions
//!   use a branch-free polynomial/rational approximation instead of
//!   libm. In `f64`, `tanh` must stay within 16 ulp, `gelu` (evaluated as
//!   `x / (1 + e^(−2u))`, without a `tanh`) within 32 ulp or `1e-14`
//!   absolute (where the reference's `1 + tanh u` cancels, its own
//!   rounding makes relative error meaningless). In `f32` — the compiled
//!   plan's one activation — `gelu` within 8 ulp or `4ε·|x|` absolute, the
//!   same cancellation scaled to `f32`.
//!
//! A guard holds the production paths — `Tensor` GEMM, `tanh`, `gelu` and
//! a compiled plan's layers — to the bits of `backend::simd()`, and the
//! plan-vs-graph launch bound is asserted end to end. The golden fixtures
//! (`tests/regression.rs`) hold the same production kernels to the
//! reference-recorded numbers.

use mosaic_flow::prelude::*;
use mosaic_flow::tensor::{
    backend, check_gemm_contract, check_layer_contract, gelu_scalar_f32, gemm, gemm_into,
    same_bits, ulp_distance, ulp_distance_f32, Act, Layout, PackedB,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seeded tensor with entries bounded away from zero. GEMM's scalar loop
/// skips `a == 0.0` multiplicands, so exact zeros in `a` are exercised by
/// the dedicated zero-handling test (value equality) rather than the
/// bitwise ones.
fn rand_tensor(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |_, _| {
        let mag = rng.gen_range(0.1f64..2.0);
        if rng.gen_bool(0.5) {
            mag
        } else {
            -mag
        }
    })
}

/// The cross-backend GEMM contract on `c0 + a·b` (`a` is `m×k`, `b` is
/// `k×n`, `c0` the `m×n` start of the chains, zero if `None`): on a build
/// whose simd chain is fused, `scalar` and `simd` differ elementwise by at
/// most `2γ·(|c0| + |a|·|b|)ᵢⱼ`; on one where it is not they are the same
/// chain, and must be `same` (bits, or values where zeros are skipped on
/// one side). `simd` is the production result; the reference is computed
/// here.
fn assert_gemm_contract(
    (a, b, c0): (&Tensor, &Tensor, Option<&Tensor>),
    simd: &[f64],
    same: fn(f64, f64) -> bool,
    what: &str,
) {
    let zeros = Tensor::zeros(a.rows(), b.cols());
    let operands = (a.as_slice(), b.as_slice(), c0.unwrap_or(&zeros).as_slice());
    let mut scalar = operands.2.to_vec();
    backend::scalar().gemm_band(operands.0, operands.1, &mut scalar, a.cols(), b.cols());
    check_gemm_contract(operands, b.shape(), (&scalar, simd), same)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

/// `t` as the product reads it under layout `l`, row-major.
fn as_used(t: &Tensor, l: Layout) -> Tensor {
    match l {
        Layout::Normal => t.clone(),
        Layout::Transposed => t.transpose(),
    }
}

// ---------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------

/// Shapes chosen to hit every microkernel edge: single element, odd
/// sizes off the 4×16 tile and its 8-wide half, exact tile multiples,
/// tall/wide panels, and k spanning the KC=256 cache-block boundary.
const GEMM_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 7, 1),
    (3, 5, 7),
    (4, 8, 8),
    (5, 9, 17),
    (8, 16, 24),
    (13, 300, 9),
    (2, 257, 31),
    (16, 64, 16),
];

#[test]
fn gemm_bitwise_across_backends_all_layouts() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for &(m, k, n) in GEMM_SHAPES {
        for (la, lb) in [
            (Layout::Normal, Layout::Normal),
            (Layout::Normal, Layout::Transposed),
            (Layout::Transposed, Layout::Normal),
            (Layout::Transposed, Layout::Transposed),
        ] {
            let a = match la {
                Layout::Normal => rand_tensor(&mut rng, m, k),
                Layout::Transposed => rand_tensor(&mut rng, k, m),
            };
            let b = match lb {
                Layout::Normal => rand_tensor(&mut rng, k, n),
                Layout::Transposed => rand_tensor(&mut rng, n, k),
            };
            let mut v = Tensor::zeros(m, n);
            gemm_into(&a, la, &b, lb, &mut v);
            assert_gemm_contract(
                (&as_used(&a, la), &as_used(&b, lb), None),
                v.as_slice(),
                same_bits,
                &format!("gemm {m}x{k}x{n} {la:?}/{lb:?}"),
            );
        }
    }
}

#[test]
fn gemm_accumulates_into_nonzero_c_bitwise() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for &(m, k, n) in GEMM_SHAPES {
        let a = rand_tensor(&mut rng, m, k);
        let b = rand_tensor(&mut rng, k, n);
        let c0 = rand_tensor(&mut rng, m, n);
        let mut v = c0.clone();
        gemm_into(&a, Layout::Normal, &b, Layout::Normal, &mut v);
        assert_gemm_contract(
            (&a, &b, Some(&c0)),
            v.as_slice(),
            same_bits,
            &format!("gemm+acc {m}x{k}x{n}"),
        );
    }
}

/// The scalar loop skips `a[p] == 0.0` terms; the packed microkernel
/// multiplies through. For finite `b` a skipped term and a multiplied-
/// through one add the same *value* — the only representable difference is
/// the sign of a zero sum — so where the chains are otherwise the same
/// (no fused multiply-add) this test asserts `==` (which treats ±0 as
/// equal), not bits; the error bound holds either way.
#[test]
fn gemm_with_zero_entries_matches_by_value() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for &(m, k, n) in GEMM_SHAPES {
        let mut a = rand_tensor(&mut rng, m, k);
        for x in a.as_mut_slice().iter_mut() {
            if rng.gen_bool(0.4) {
                *x = 0.0;
            }
        }
        let b = rand_tensor(&mut rng, k, n);
        let mut v = Tensor::zeros(m, n);
        gemm_into(&a, Layout::Normal, &b, Layout::Normal, &mut v);
        assert_gemm_contract(
            (&a, &b, None),
            v.as_slice(),
            |x, y| x == y,
            &format!("gemm-with-zeros {m}x{k}x{n}"),
        );
    }
}

// ---------------------------------------------------------------------
// The fused f32 dense layer and the kernels under it
// ---------------------------------------------------------------------

/// Shapes straddling every boundary of the simd GEMM: rows around the
/// 4-row tile, the 8-row narrow-output block and the 64-row band; depths
/// around the 256-deep cache block; widths below, at and above the 8-wide
/// half tile and a multiple of the 16-wide tile — the benchmark network's
/// own shapes (`[832,48]×[48,48]`, `[832,48]×[48,1]`, `k = 5`, `n = 4`)
/// among them.
const LAYER_M: &[usize] = &[1, 3, 8, 63, 64, 65, 832];
const LAYER_K: &[usize] = &[1, 5, 48, 128, 257];
const LAYER_N: &[usize] = &[1, 4, 7, 8, 9, 48];

fn to_f32(t: &Tensor) -> Vec<f32> {
    t.as_slice().iter().map(|&v| v as f32).collect()
}

/// `Backend::layer` overwrites its destination with exactly what its own
/// unfused steps leave there: the bare product (no bias, identity), a
/// row-broadcast bias add, then `activate_f32`. Checked on both backends,
/// from a destination full of garbage. The bare product is compared
/// across backends under the `f32` layer contract, and the `f64`
/// `gemm_band` on the same grid under the GEMM contract.
#[test]
fn fused_layer_is_bitwise_the_unfused_composition_on_both_backends() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for &k in LAYER_K {
        for &n in LAYER_N {
            let w = rand_tensor(&mut rng, k, n);
            let packed = PackedB::new(&w);
            let bias = to_f32(&rand_tensor(&mut rng, 1, n));
            for &m in LAYER_M {
                let a = rand_tensor(&mut rng, m, k);
                let a32 = to_f32(&a);
                let mut products = Vec::new();
                for be in [backend::scalar(), backend::simd()] {
                    let name = be.kind().name();
                    let mut product = vec![f32::NAN; m * n];
                    be.layer(&a32, &packed, None, Act::Identity, &mut product);
                    for with_bias in [false, true] {
                        let mut pre = product.clone();
                        if with_bias {
                            for row in pre.chunks_exact_mut(n) {
                                for (o, &b) in row.iter_mut().zip(&bias) {
                                    *o += b;
                                }
                            }
                        }
                        for act in [Act::Identity, Act::Gelu] {
                            let mut want = pre.clone();
                            be.activate_f32(act, &mut want);
                            let mut got = vec![f32::NAN; m * n];
                            be.layer(
                                &a32,
                                &packed,
                                with_bias.then_some(bias.as_slice()),
                                act,
                                &mut got,
                            );
                            let what = format!("{name} layer {m}x{k}x{n} bias={with_bias} {act:?}");
                            for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                                assert_eq!(x.to_bits(), y.to_bits(), "{what}: elem {i}");
                            }
                        }
                    }
                    products.push(product);
                }
                check_layer_contract((&a32, &packed), (&products[0], &products[1]))
                    .unwrap_or_else(|e| panic!("layer {m}x{k}x{n} scalar vs simd: {e}"));
                let mut sum = vec![0.0; m * n];
                backend::simd().gemm_band(a.as_slice(), w.as_slice(), &mut sum, k, n);
                assert_gemm_contract(
                    (&a, &w, None),
                    &sum,
                    same_bits,
                    &format!("gemm_band {m}x{k}x{n} scalar vs simd"),
                );
            }
        }
    }
}

/// The `f32` reference skips no zero term, so exact zeros in the inputs
/// (and the `−0.0` they can produce) stay inside the layer contract: bits
/// on a build without FMA, the `2γ_k` bound on one with it.
#[test]
fn f32_layer_with_zero_entries_holds_the_contract() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    for &(m, k, n) in GEMM_SHAPES {
        let mut a = to_f32(&rand_tensor(&mut rng, m, k));
        for x in a.iter_mut() {
            if rng.gen_bool(0.4) {
                *x = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
            }
        }
        let packed = PackedB::new(&rand_tensor(&mut rng, k, n));
        let (mut s, mut v) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
        backend::scalar().layer(&a, &packed, None, Act::Identity, &mut s);
        backend::simd().layer(&a, &packed, None, Act::Identity, &mut v);
        check_layer_contract((&a, &packed), (&s, &v))
            .unwrap_or_else(|e| panic!("layer-with-zeros {m}x{k}x{n}: {e}"));
    }
}

// ---------------------------------------------------------------------
// tanh / gelu: ulp budgets
// ---------------------------------------------------------------------

/// Inputs that stress every range split of the vectorized tanh: tiny
/// (poly path), mid (rational path), saturation boundary, huge, and the
/// IEEE specials.
fn transcendental_inputs() -> Vec<f64> {
    let mut xs: Vec<f64> = (-4000..=4000).map(|i| i as f64 * 0.005).collect();
    xs.extend((-60..=60).map(|i| i as f64 * 0.5));
    xs.extend([
        0.0,
        -0.0,
        1e-300,
        -1e-300,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1), // smallest subnormal
        1e308,
        -1e308,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]);
    xs
}

#[test]
fn tanh_within_16_ulp_of_scalar_reference() {
    let xs = transcendental_inputs();
    let input = Tensor::from_vec(1, xs.len(), xs.clone());
    let mut reference = Tensor::zeros(1, xs.len());
    let mut got = Tensor::zeros(1, xs.len());
    backend::scalar().tanh(input.as_slice(), reference.as_mut_slice());
    backend::simd().tanh(input.as_slice(), got.as_mut_slice());
    for ((&x, &r), &g) in xs.iter().zip(reference.as_slice()).zip(got.as_slice()) {
        let d = ulp_distance(r, g);
        assert!(
            d <= 16,
            "tanh({x:e}): {r:e} vs {g:e} is {d} ulp (budget 16)"
        );
    }
}

#[test]
fn gelu_within_32_ulp_or_1e14_abs_of_scalar_reference() {
    // Step 1e-3 over [-40, 40] — through the whole transition, the
    // negative tail where the reference's `1 + tanh` cancels, and both
    // saturations — plus the specials.
    let mut xs: Vec<f64> = (-40_000..=40_000).map(|i| i as f64 * 1e-3).collect();
    // GELU overflows x·tanh(inner) for non-finite specials identically on
    // both paths; keep the sweep finite and check specials separately.
    xs.extend(
        transcendental_inputs()
            .into_iter()
            .filter(|x| x.is_finite()),
    );
    let mut reference = vec![0.0; xs.len()];
    let mut got = vec![0.0; xs.len()];
    backend::scalar().gelu(&xs, &mut reference);
    backend::simd().gelu(&xs, &mut got);
    for ((&x, &r), &g) in xs.iter().zip(&reference).zip(&got) {
        let d = ulp_distance(r, g);
        assert!(
            d <= 32 || (r - g).abs() <= 1e-14,
            "gelu({x:e}): {r:e} vs {g:e} is {d} ulp (budget 32 / 1e-14 abs)"
        );
    }
}

#[test]
fn gelu_specials_zero_saturation_and_nan() {
    let gelu = |x: f64| {
        let mut out = [0.0];
        backend::simd().gelu(&[x], &mut out);
        out[0]
    };
    assert_eq!(gelu(0.0).to_bits(), 0.0f64.to_bits(), "gelu(+0) is +0");
    assert_eq!(gelu(-0.0).to_bits(), (-0.0f64).to_bits(), "gelu(-0) is -0");
    assert!(gelu(f64::NAN).is_nan(), "NaN propagates");
    assert_eq!(gelu(f64::INFINITY), f64::INFINITY);
    // Positive saturation is the identity, to the last bit.
    for x in [9.0, 40.0, 1e100, 1e308] {
        assert_eq!(gelu(x).to_bits(), x.to_bits(), "gelu({x:e})");
    }
    // Towards −∞ (from x ≈ −7.3, where `tanh` reaches −1) the reference
    // is −0.0: `1 + tanh` has cancelled. The sigmoid form may keep a
    // vanishing negative value instead.
    for x in [-7.3, -7.5, -8.0, -40.0, -1e100, -1e308, f64::NEG_INFINITY] {
        let g = gelu(x);
        assert!(
            g.to_bits() == (-0.0f64).to_bits() || (g < 0.0 && g.abs() <= 1e-14),
            "gelu({x:e}) = {g:e}"
        );
    }
    // Subnormals neither trap nor leave the budget.
    for x in [f64::from_bits(1), -f64::from_bits(1), f64::MIN_POSITIVE] {
        assert!((gelu(x) - 0.5 * x).abs() <= 1e-14);
    }
}

#[test]
fn tanh_preserves_signed_zero_and_saturation() {
    let xs = [0.0f64, -0.0, 30.0, -30.0, 1e308, -1e308];
    let input = Tensor::from_vec(1, xs.len(), xs.to_vec());
    let mut got = Tensor::zeros(1, xs.len());
    backend::simd().tanh(input.as_slice(), got.as_mut_slice());
    let g = got.as_slice();
    assert_eq!(g[0].to_bits(), 0.0f64.to_bits(), "tanh(+0) must be +0");
    assert_eq!(g[1].to_bits(), (-0.0f64).to_bits(), "tanh(-0) must be -0");
    assert_eq!(g[2], 1.0);
    assert_eq!(g[3], -1.0);
    assert_eq!(g[4], 1.0);
    assert_eq!(g[5], -1.0);
}

/// `f32` inputs for the plan's activation: a fine sweep over [−24, 24]
/// (both saturations, the GELU select at `u = −20` near `x = −7.33`, the
/// `f32` tanh saturation near 9), the edges at ±20, and the specials:
/// ±0, the smallest subnormals and normal, the largest finite, ±inf, NaN.
fn f32_inputs() -> Vec<f32> {
    let mut xs: Vec<f32> = (-240_000..=240_000).map(|i| i as f32 * 1e-4).collect();
    for edge in [20.0f32, -20.0, 7.33, -7.33, 9.0, -9.0] {
        let mut x = edge;
        for _ in 0..64 {
            xs.extend([x, -x]);
            x = f32::from_bits(x.to_bits() + 1);
        }
    }
    xs.extend([
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ]);
    xs
}

#[test]
fn f32_gelu_within_8_ulp_or_4eps_x_of_scalar_reference() {
    let xs = f32_inputs();
    let mut reference = xs.clone();
    let mut got = xs.clone();
    backend::scalar().activate_f32(Act::Gelu, &mut reference);
    backend::simd().activate_f32(Act::Gelu, &mut got);
    for ((&x, &r), &g) in xs.iter().zip(&reference).zip(&got) {
        assert_eq!(r.to_bits(), gelu_scalar_f32(x).to_bits());
        if x.is_nan() {
            assert!(r.is_nan() && g.is_nan(), "NaN propagates");
        }
        // The reference's `x·(1 + tanh)` is `−∞·0` at `−∞`; the specials
        // are checked on their own below.
        if !x.is_finite() {
            continue;
        }
        let d = ulp_distance_f32(r, g);
        let abs = (r - g).abs();
        assert!(
            d <= 8 || abs <= 4.0 * f32::EPSILON * x.abs(),
            "gelu({x:e}): {r:e} vs {g:e} is {d} ulp, {abs:e} absolute"
        );
    }
    // Signed zeros, the identity above and −0.0 far below, infinities.
    let gelu = |x: f32| {
        let mut v = [x];
        backend::simd().activate_f32(Act::Gelu, &mut v);
        v[0]
    };
    assert_eq!(gelu(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(gelu(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(gelu(f32::INFINITY), f32::INFINITY);
    for x in [20.0f32, 1e20, f32::MAX] {
        assert_eq!(gelu(x).to_bits(), x.to_bits(), "gelu({x:e})");
    }
    for x in [-20.0f32, -1e20, f32::MIN, f32::NEG_INFINITY] {
        assert_eq!(gelu(x).to_bits(), (-0.0f32).to_bits(), "gelu({x:e})");
    }
    // Subnormals neither trap nor leave the budget: gelu(x) = x/2.
    for x in [f32::from_bits(1), -f32::from_bits(1), f32::MIN_POSITIVE] {
        assert!((gelu(x) - 0.5 * x).abs() <= f32::EPSILON * x.abs());
    }
}

// ---------------------------------------------------------------------
// The production paths
// ---------------------------------------------------------------------

fn assert_bitwise(want: &[f64], got: &[f64], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length mismatch");
    for (i, (x, y)) in want.iter().zip(got).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: elem {i}: {x:e} vs {y:e}");
    }
}

/// What production runs is `backend::simd()`, to the bit: `Tensor` GEMM
/// (one band and the pool's fan-out over bands), `tanh_into`, `gelu_into`
/// and every layer of a compiled plan, replayed here kernel by kernel on
/// the plan's own inputs. A production path moved to the scalar
/// reference fails this on any build: the activations differ everywhere,
/// GEMM and the layer where the simd chain is fused.
#[test]
fn production_runs_the_simd_kernels() {
    let simd = backend::simd();
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    // One band, then a product over the 3·2¹⁷ multiply-adds and the one
    // 64-row band below which `gemm_into` runs inline: its bands are shared
    // out.
    for &(m, k, n) in &[(13, 300, 9), (200, 64, 48)] {
        for (la, lb) in [
            (Layout::Normal, Layout::Normal),
            (Layout::Transposed, Layout::Transposed),
        ] {
            let (ua, ub) = (rand_tensor(&mut rng, m, k), rand_tensor(&mut rng, k, n));
            // Stored so that the product reads `ua · ub`.
            let (a, b) = (as_used(&ua, la), as_used(&ub, lb));
            let mut want = vec![0.0; m * n];
            simd.gemm_band(ua.as_slice(), ub.as_slice(), &mut want, k, n);
            let what = format!("gemm {m}x{k}x{n} {la:?}/{lb:?}");
            assert_bitwise(&want, gemm(&a, la, &b, lb).as_slice(), &what);
        }
    }
    let x = Tensor::from_fn(1, 257, |_, j| (j as f64 - 128.0) * 0.07);
    let mut got = Tensor::zeros(1, 257);
    let mut want = vec![0.0; 257];
    x.tanh_into(&mut got);
    simd.tanh(x.as_slice(), &mut want);
    assert_bitwise(&want, got.as_slice(), "tanh_into");
    x.gelu_into(&mut got);
    simd.gelu(x.as_slice(), &mut want);
    assert_bitwise(&want, got.as_slice(), "gelu_into");

    // A plan without convs or Fourier features is `Load`, the projection
    // layer, the split combine, the trunk's layers and the head's, `Store`.
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let mut cfg = SdNetConfig::small(spec.boundary_len());
    cfg.conv_channels = vec![];
    cfg.hidden = vec![16, 16];
    let extent = cfg.coord_extent;
    let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(21));
    let (b, q) = (3, 5);
    let (bnds, pts) = sample_points(spec, b, q, 22);
    let pts = Tensor::from_vec(q, 2, pts.as_slice()[..2 * q].to_vec());
    let got = InferencePlan::compile(&net, &pts).execute(&mut Workspace::new(), &bnds);

    let f32s = |t: &Tensor| t.as_slice().iter().map(|&v| v as f32).collect::<Vec<f32>>();
    let param = |id| net.params.get(id);
    let (wg, wx, b0) = net.split_params();
    let d0 = param(b0).cols();
    let mut g = vec![0.0f32; b * d0];
    let boundary_weights = PackedB::new(&param(wg).transpose());
    simd.layer(&f32s(&bnds), &boundary_weights, None, Act::Identity, &mut g);
    // The coordinate half `W_x · X`, computed once in `f64` at compile time.
    let coords = pts.add_scalar(-0.5 * extent).scale(2.0 / extent);
    let wx = param(wx);
    let hx = f32s(&gemm(&coords, Layout::Normal, wx, Layout::Transposed));
    let b0 = f32s(param(b0));
    let mut h: Vec<f32> = Vec::with_capacity(b * q * d0);
    for gb in g.chunks_exact(d0) {
        for xp in hx.chunks_exact(d0) {
            let sum = xp.iter().zip(gb).zip(&b0);
            h.extend(sum.map(|((&x, &gg), &c)| (x + gg) + c));
        }
    }
    simd.activate_f32(Act::Gelu, &mut h);
    let head = std::iter::once((net.head(), Act::Identity));
    for (lin, act) in net.trunk().iter().map(|lin| (lin, Act::Gelu)).chain(head) {
        let w = PackedB::new(&param(lin.weight()).transpose());
        let bias = lin.bias().map(|id| f32s(param(id)));
        let mut out = vec![0.0f32; b * q * w.n()];
        simd.layer(&h, &w, bias.as_deref(), act, &mut out);
        h = out;
    }
    let want: Vec<f64> = h.iter().map(|&v| v as f64).collect();
    assert_bitwise(&want, got.as_slice(), "plan launch");
}

fn sample_points(spec: SubdomainSpec, b: usize, q: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let bnds = Tensor::from_fn(b, spec.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
    let pts = Tensor::from_fn(b * q, 2, |_, _| rng.gen_range(0.0..spec.spatial));
    (bnds, pts)
}

/// The compiled `f32` inference plan stays within its launch bound of the
/// `f64` graph path. This is the contract `repro_mfp_throughput` relies on.
#[test]
fn plan_matches_graph_within_the_launch_bound() {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let mut cfg = SdNetConfig::small(spec.boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![16, 16];
    let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(12));
    let plan = PlanSolver::new(net.clone(), spec);
    let (bnds, pts) = sample_points(spec, 5, 4, 13);
    let pts = Tensor::from_vec(4, 2, pts.as_slice()[..8].to_vec());
    // The graph: every boundary's copy of the points in one predict.
    let e = net.predict(&bnds, &Tensor::from_vec(20, 2, pts.as_slice().repeat(5)), 4);
    let g = plan.solve_batch(&bnds, &pts);
    let bound = InferencePlan::compile(&net, &pts).graph_error_bound(&bnds);
    for (i, ((x, y), b)) in (e.as_slice().iter().zip(g.as_slice()))
        .zip(bound.as_slice())
        .enumerate()
    {
        assert!(
            (x - y).abs() <= *b,
            "plan-vs-graph, output {i}: {y:e} vs {x:e}, bound {b:e}"
        );
    }
}

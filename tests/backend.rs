//! Differential correctness harness for the kernel backends.
//!
//! Every kernel is run under both the scalar reference backend and the
//! vectorized one, on the same inputs, and the outputs are compared:
//!
//! * **bitwise** for the kernels with one body — the elementwise kernels
//!   and fused VJPs, unfold/fold, axpy/add-assign — driven through the
//!   `Tensor` API under `with_backend`, so that no backend-specific
//!   arithmetic for them can come back unnoticed; and *within* a backend:
//!   the fused `f32` dense layer is bitwise its own unfused steps on each
//!   backend.
//! * **error-bounded** for GEMM and the `f32` layer across backends. Both
//!   run each output element as one ascending-`p` multiply-add chain, but
//!   the simd chain is fused (one rounding per step) when the build target
//!   has the instruction (`tensor::FUSED`; see `.cargo/config.toml`). Each
//!   chain is within `γ_k·(|A|·|B|)ᵢⱼ` of the exact sum, so the two are
//!   within `2γ_k·(|A|·|B|)ᵢⱼ` of each other, `γ_k = kε/(1 − kε)` with the
//!   element type's `ε`: asserted elementwise (`tensor::check_gemm_contract`,
//!   `tensor::check_layer_contract`, the magnitude computed from `|a|` and
//!   `|b|`), and on a build without the instruction the same tests assert
//!   bits, because there the chains are the same.
//! * **ulp-budgeted** for `tanh` and `gelu`, whose vectorized versions
//!   use a branch-free polynomial/rational approximation instead of
//!   libm. In `f64`, `tanh` must stay within 16 ulp, `gelu` (evaluated as
//!   `x / (1 + e^(−2u))`, without a `tanh`) within 32 ulp or `1e-14`
//!   absolute (where the reference's `1 + tanh u` cancels, its own
//!   rounding makes relative error meaningless). In `f32` — the compiled
//!   plan's activations — `tanh` within 8 ulp, `gelu` within 8 ulp or
//!   `4ε·|x|` absolute, the same cancellation scaled to `f32`.
//!
//! On top of the per-kernel tests, the end-to-end paths — an SDNet
//! forward pass, the compiled inference plan, a full physics-informed
//! training step, and an MFP solve-batch — are run under both backends
//! and compared, and the plan-vs-graph launch bound is asserted under each
//! backend separately.

use mosaic_flow::prelude::*;
use mosaic_flow::tensor::{
    backend, check_gemm_contract, check_layer_contract, fold1d_circular_into, gelu_scalar_f32,
    gemm_into, same_bits, ulp_distance, ulp_distance_f32, unfold1d_circular_into, with_backend,
    Act, BackendKind, Layout, PackedB,
};
use mosaic_flow::train::local_gradients;
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

fn assert_slices_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at flat index {i}: {x:e} vs {y:e}"
        );
    }
}

fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    assert_slices_bitwise(a.as_slice(), b.as_slice(), what);
}

/// The cross-backend GEMM contract on `c0 + a·b` (`a` is `m×k`, `b` is
/// `k×n`, `c0` the `m×n` start of the chains, zero if `None`): on a build
/// whose simd chain is fused, `scalar` and `simd` differ elementwise by at
/// most `2γ·(|c0| + |a|·|b|)ᵢⱼ`; on one where it is not they are the same
/// chain, and must be `same` (bits, or values where zeros are skipped on
/// one side).
fn assert_gemm_contract(
    (a, b, c0): (&Tensor, &Tensor, Option<&Tensor>),
    scalar: &[f64],
    simd: &[f64],
    same: fn(f64, f64) -> bool,
    what: &str,
) {
    let zeros = Tensor::zeros(a.rows(), b.cols());
    let operands = (a.as_slice(), b.as_slice(), c0.unwrap_or(&zeros).as_slice());
    check_gemm_contract(operands, b.shape(), (scalar, simd), same)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

/// Run `f` under both backends and return (scalar_result, simd_result).
fn both<R>(f: impl Fn() -> R) -> (R, R) {
    (
        with_backend(BackendKind::Scalar, &f),
        with_backend(BackendKind::Simd, &f),
    )
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
            let (s, v) = both(|| {
                let mut c = Tensor::zeros(m, n);
                gemm_into(&a, la, &b, lb, &mut c);
                c
            });
            let as_used = |t: &Tensor, l| match l {
                Layout::Normal => t.clone(),
                Layout::Transposed => t.transpose(),
            };
            assert_gemm_contract(
                (&as_used(&a, la), &as_used(&b, lb), None),
                s.as_slice(),
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
        let (s, v) = both(|| {
            let mut c = c0.clone();
            gemm_into(&a, Layout::Normal, &b, Layout::Normal, &mut c);
            c
        });
        assert_gemm_contract(
            (&a, &b, Some(&c0)),
            s.as_slice(),
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
        let (s, v) = both(|| {
            let mut c = Tensor::zeros(m, n);
            gemm_into(&a, Layout::Normal, &b, Layout::Normal, &mut c);
            c
        });
        assert_gemm_contract(
            (&a, &b, None),
            s.as_slice(),
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
                let mut sums = Vec::new();
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
                        for act in [Act::Identity, Act::Tanh, Act::Gelu] {
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
                    let mut sum = vec![0.0; m * n];
                    be.gemm_band(a.as_slice(), w.as_slice(), &mut sum, k, n);
                    sums.push(sum);
                }
                check_layer_contract((&a32, &packed), (&products[0], &products[1]))
                    .unwrap_or_else(|e| panic!("layer {m}x{k}x{n} scalar vs simd: {e}"));
                assert_gemm_contract(
                    (&a, &w, None),
                    &sums[0],
                    &sums[1],
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
// Kernels with one body: elementwise, fused VJPs, axpy/add-acc,
// unfold/fold (all bitwise, through the Tensor API)
// ---------------------------------------------------------------------

/// Lengths around the 16-wide block boundary plus empty and tiny.
const LENGTHS: &[usize] = &[0, 1, 2, 15, 16, 17, 31, 33, 100, 1000];

#[test]
fn elementwise_kernels_bitwise_across_backends() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for &len in LENGTHS {
        let a = rand_tensor(&mut rng, 1, len.max(1));
        let b = rand_tensor(&mut rng, 1, len.max(1));
        let a = Tensor::from_vec(1, len, a.as_slice()[..len].to_vec());
        let b = Tensor::from_vec(1, len, b.as_slice()[..len].to_vec());
        let run = |f: &dyn Fn(&mut Tensor)| {
            let (s, v) = both(|| {
                let mut out = Tensor::zeros(1, len);
                f(&mut out);
                out
            });
            (s, v)
        };
        #[allow(clippy::type_complexity)] // one-off case table; an alias would just move the noise
        let cases: Vec<(&str, Box<dyn Fn(&mut Tensor)>)> = vec![
            ("add", Box::new(|o: &mut Tensor| a.add_into(&b, o))),
            ("sub", Box::new(|o: &mut Tensor| a.sub_into(&b, o))),
            ("mul", Box::new(|o: &mut Tensor| a.mul_into(&b, o))),
            ("scale", Box::new(|o: &mut Tensor| a.scale_into(1.7, o))),
            (
                "add_scalar",
                Box::new(|o: &mut Tensor| a.add_scalar_into(-0.3, o)),
            ),
            (
                "tanh_vjp",
                Box::new(|o: &mut Tensor| a.tanh_vjp_into(&b, o)),
            ),
            (
                "one_minus_sq",
                Box::new(|o: &mut Tensor| a.one_minus_sq_into(o)),
            ),
            (
                "gelu_inner",
                Box::new(|o: &mut Tensor| a.gelu_inner_into(&b, o)),
            ),
            ("gelu_du", Box::new(|o: &mut Tensor| a.gelu_du_into(o))),
            (
                "half_one_plus",
                Box::new(|o: &mut Tensor| a.half_one_plus_into(o)),
            ),
        ];
        for (name, f) in &cases {
            let (s, v) = run(f.as_ref());
            assert_bitwise(&s, &v, &format!("{name} len={len}"));
        }
    }
}

#[test]
fn axpy_and_add_assign_bitwise_across_backends() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for &len in LENGTHS {
        let x = Tensor::from_fn(1, len, |_, _| rng.gen_range(-2.0..2.0));
        let y0 = Tensor::from_fn(1, len, |_, _| rng.gen_range(-2.0..2.0));
        let (s, v) = both(|| {
            let mut y = y0.clone();
            y.axpy(0.37, &x);
            y
        });
        assert_bitwise(&s, &v, &format!("axpy len={len}"));
        let (s, v) = both(|| {
            let mut y = y0.clone();
            y.add_assign(&x);
            y
        });
        assert_bitwise(&s, &v, &format!("add_assign len={len}"));
    }
}

#[test]
fn unfold_and_fold_bitwise_across_backends() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    for &(bsz, len, channels, kw) in &[
        (1usize, 4usize, 1usize, 3usize),
        (2, 8, 2, 3),
        (3, 16, 4, 5),
        (1, 5, 3, 5),
        (2, 1, 1, 5),
        (1, 3, 2, 9),
    ] {
        let input = rand_tensor(&mut rng, bsz, len * channels);
        let (s, v) = both(|| {
            let mut out = Tensor::zeros(bsz * len, kw * channels);
            unfold1d_circular_into(&input, channels, kw, &mut out);
            out
        });
        assert_bitwise(
            &s,
            &v,
            &format!("unfold b={bsz} len={len} c={channels} k={kw}"),
        );

        let grad = rand_tensor(&mut rng, bsz * len, kw * channels);
        let (s, v) = both(|| {
            let mut out = Tensor::zeros(bsz, len * channels);
            fold1d_circular_into(&grad, bsz, channels, kw, &mut out);
            out
        });
        assert_bitwise(
            &s,
            &v,
            &format!("fold b={bsz} len={len} c={channels} k={kw}"),
        );
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

/// `f32` inputs for the plan's activations: a fine sweep over [−24, 24]
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
fn f32_tanh_within_8_ulp_of_scalar_reference() {
    let xs = f32_inputs();
    let mut reference = xs.clone();
    let mut got = xs.clone();
    backend::scalar().activate_f32(Act::Tanh, &mut reference);
    backend::simd().activate_f32(Act::Tanh, &mut got);
    for ((&x, &r), &g) in xs.iter().zip(&reference).zip(&got) {
        let d = ulp_distance_f32(r, g);
        assert!(d <= 8, "tanh({x:e}): {r:e} vs {g:e} is {d} ulp (budget 8)");
        // Signed zeros and ±1 at the infinities to the bit; NaN stays NaN.
        if x == 0.0 || x.is_infinite() {
            assert_eq!(r.to_bits(), g.to_bits(), "tanh({x:e})");
        }
        assert_eq!(x.is_nan(), g.is_nan(), "tanh({x:e})");
    }
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
// End-to-end paths
// ---------------------------------------------------------------------

fn test_net(seed: u64) -> (SubdomainSpec, SdNet) {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let mut cfg = SdNetConfig::small(spec.boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![16, 16];
    (spec, SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed)))
}

fn sample_points(spec: SubdomainSpec, b: usize, q: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let bnds = Tensor::from_fn(b, spec.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
    let pts = Tensor::from_fn(b * q, 2, |_, _| rng.gen_range(0.0..spec.spatial));
    (bnds, pts)
}

/// The graph forward under scalar vs simd agrees to tight relative
/// tolerance — exact bits can differ because tanh/gelu carry ulp
/// budgets, but a few ulp through two hidden layers stays ~1e-12.
#[test]
fn sdnet_forward_agrees_across_backends() {
    let (spec, net) = test_net(10);
    let (bnds, pts) = sample_points(spec, 4, 6, 11);
    let (s, v) = both(|| net.predict(&bnds, &pts, 6));
    assert_eq!(s.shape(), v.shape());
    for (x, y) in s.as_slice().iter().zip(v.as_slice()) {
        assert!(
            (x - y).abs() <= 1e-10 * x.abs().max(1.0),
            "forward diverged across backends: {x:e} vs {y:e}"
        );
    }
}

/// The compiled `f32` inference plan stays within its launch bound of the
/// `f64` graph path under EITHER backend. This is the contract
/// `repro_mfp_throughput` relies on, asserted per backend.
#[test]
fn plan_matches_graph_within_the_launch_bound_under_each_backend() {
    let (spec, net) = test_net(12);
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        with_backend(kind, || {
            let graph = NeuralSolver::new(net.clone(), spec);
            let plan = PlanSolver::new(net.clone(), spec);
            let (bnds, pts) = sample_points(spec, 5, 4, 13);
            let pts = Tensor::from_vec(4, 2, pts.as_slice()[..8].to_vec());
            let e = graph.solve_batch(&bnds, &pts);
            let g = plan.solve_batch(&bnds, &pts);
            let bound = InferencePlan::compile(&net, &pts).graph_error_bound(&bnds);
            for (i, ((x, y), b)) in (e.as_slice().iter().zip(g.as_slice()))
                .zip(bound.as_slice())
                .enumerate()
            {
                assert!(
                    (x - y).abs() <= *b,
                    "plan-vs-graph under {}, output {i}: {y:e} vs {x:e}, bound {b:e}",
                    kind.name()
                );
            }
        });
    }
}

/// A full physics-informed training step (data pass + forward-Laplacian
/// PDE pass) produces gradients that agree across backends to relative
/// 1e-6 — the second derivatives amplify the activation ulp budgets, but
/// only by a few orders of magnitude.
#[test]
fn training_step_gradients_agree_across_backends() {
    let (spec, net) = test_net(14);
    let ds = Dataset::generate(spec, 8, 3);
    let mut sampler = BatchSampler::new(4, 8, 4, 0);
    let idx: Vec<usize> = (0..4).collect();
    let batch = sampler.make_batch(&ds, &idx);
    let ((dg_s, pg_s, _), (dg_v, pg_v, _)) = both(|| local_gradients(&net, &batch, 0.5));
    for (which, gs, gv) in [("data", &dg_s, &dg_v), ("pde", &pg_s, &pg_v)] {
        assert_eq!(gs.len(), gv.len());
        for (i, (a, b)) in gs.iter().zip(gv.iter()).enumerate() {
            let scale = a.norm_linf().max(1.0);
            let diff = a.max_abs_diff(b);
            assert!(
                diff <= 1e-6 * scale,
                "{which} grad {i}: max abs diff {diff:e} vs scale {scale:e}"
            );
        }
    }
}

/// A short MFP run converges to the same field across backends.
#[test]
fn mfp_solve_agrees_across_backends() {
    let (spec, net) = test_net(16);
    let domain = DomainSpec::new(spec, 2, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let bc = Tensor::from_fn(1, domain.boundary_len(), |_, _| rng.gen_range(-0.5..0.5));
    let cfg = MfpConfig {
        max_iters: 12,
        tol: 0.0,
        ..Default::default()
    };
    let (s, v) = both(|| {
        let solver = NeuralSolver::new(net.clone(), spec);
        Mfp::new(&solver, domain).run(&bc, &cfg).grid
    });
    let scale = s.norm_linf().max(1.0);
    let diff = s.max_abs_diff(&v);
    assert!(
        diff <= 1e-8 * scale,
        "MFP field diverged across backends: {diff:e} vs scale {scale:e}"
    );
}

/// The error contract end to end: MFP is a self-correcting fixed-point
/// iteration, so the per-launch differences between the backends (a fused
/// or an unfused `f32` multiply-add chain, the activations' ulp budgets)
/// must neither cost a sweep nor move the fixed point. On a 4×4 domain
/// with a seeded network, to `tol 1e-6` — above the `f32` plan's floor of
/// relative change, about 1e-7, where rounding decides the count: the same
/// iteration count, grids within 1e-5 (the fixed-point clause of the
/// plan's contract with the `f64` graph; measured 1.4e-7).
#[test]
fn mfp_fixed_point_and_iteration_count_agree_across_backends() {
    let (spec, net) = test_net(18);
    let domain = DomainSpec::new(spec, 4, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let bc = Tensor::from_fn(1, domain.boundary_len(), |_, _| rng.gen_range(-0.5..0.5));
    let cfg = MfpConfig {
        max_iters: 200,
        tol: 1e-6,
        ..Default::default()
    };
    let (s, v) = both(|| {
        let solver = PlanSolver::new(net.clone(), spec);
        Mfp::new(&solver, domain).run(&bc, &cfg)
    });
    assert!(s.converged && v.converged, "the seeded net must contract");
    assert_eq!(s.iterations, v.iterations, "iteration count moved");
    let diff = s.grid.max_abs_diff(&v.grid);
    assert!(diff <= 1e-5, "fixed points are {diff:e} apart");
}

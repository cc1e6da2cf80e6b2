//! Property-based tests of the tensor algebra: the identities the autodiff
//! rules and the GEMM kernel silently rely on.

use crate::{fold1d_circular, gemm, unfold1d_circular, Layout, Tensor};
use proptest::prelude::*;

/// Strategy: a tensor with the given shape and bounded entries.
fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn addition_commutes(a in tensor(3, 4), b in tensor(3, 4)) {
        prop_assert!(a.add(&b).allclose(&b.add(&a), 1e-12));
    }

    #[test]
    fn multiplication_distributes_over_addition(
        a in tensor(2, 3), b in tensor(2, 3), c in tensor(2, 3)
    ) {
        let lhs = a.mul(&b.add(&c));
        let rhs = a.mul(&b).add(&a.mul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-9));
    }

    #[test]
    fn matmul_is_associative(a in tensor(2, 3), b in tensor(3, 4), c in tensor(4, 2)) {
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-8), "max diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn matmul_transpose_identity(a in tensor(3, 4), b in tensor(4, 2)) {
        // (AB)ᵀ = BᵀAᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = gemm(&b, Layout::Transposed, &a, Layout::Transposed);
        prop_assert!(lhs.allclose(&rhs, 1e-10));
    }

    #[test]
    fn transposed_layouts_match_explicit_transpose(a in tensor(4, 3), b in tensor(4, 5)) {
        let fast = gemm(&a, Layout::Transposed, &b, Layout::Normal);
        let slow = a.transpose().matmul(&b);
        prop_assert!(fast.allclose(&slow, 1e-10));
    }

    #[test]
    fn dot_product_is_bilinear(a in tensor(1, 6), b in tensor(1, 6), k in -5.0f64..5.0) {
        let lhs = a.scale(k).dot(&b);
        let rhs = k * a.dot(&b);
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + rhs.abs()));
    }

    #[test]
    fn repeat_sum_groups_adjoint(x in tensor(3, 2), y in tensor(12, 2)) {
        // <repeat(x), y> == <x, sum_groups(y)>
        let lhs = x.repeat_rows(4).dot(&y);
        let rhs = x.dot(&y.sum_groups(4));
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + rhs.abs()));
    }

    #[test]
    fn unfold_fold_adjoint(x in tensor(2, 10), y in tensor(10, 6)) {
        // <unfold(x), y> == <x, fold(y)> with 2 channels, kernel 3.
        let lhs = unfold1d_circular(&x, 2, 3).dot(&y);
        let rhs = x.dot(&fold1d_circular(&y, 2, 2, 3));
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + rhs.abs()));
    }

    #[test]
    fn slice_pad_adjoint(x in tensor(3, 4), y in tensor(3, 9)) {
        // <pad(x), y> == <x, slice(y)> for the same window.
        let lhs = x.pad_cols(2, 9).dot(&y);
        let rhs = x.dot(&y.slice_cols(2, 4));
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + rhs.abs()));
    }

    #[test]
    fn norms_satisfy_triangle_inequality(a in tensor(4, 4), b in tensor(4, 4)) {
        prop_assert!(a.add(&b).norm_l2() <= a.norm_l2() + b.norm_l2() + 1e-9);
        prop_assert!(a.add(&b).norm_linf() <= a.norm_linf() + b.norm_linf() + 1e-12);
    }

    #[test]
    fn reshape_preserves_sum_and_norm(a in tensor(4, 6)) {
        let r = a.reshape(3, 8);
        prop_assert!((a.sum() - r.sum()).abs() < 1e-9);
        prop_assert!((a.norm_l2() - r.norm_l2()).abs() < 1e-9);
    }

    #[test]
    fn vstack_then_slice_rows_roundtrips(a in tensor(2, 3), b in tensor(4, 3)) {
        let v = Tensor::vstack(&[a.clone(), b.clone()]);
        prop_assert!(v.slice_rows(0, 2).allclose(&a, 0.0));
        prop_assert!(v.slice_rows(2, 4).allclose(&b, 0.0));
    }

    #[test]
    fn sum_axis_decompositions_agree(a in tensor(5, 7)) {
        let total = a.sum();
        prop_assert!((a.sum_axis0().sum() - total).abs() < 1e-9);
        prop_assert!((a.sum_axis1().sum() - total).abs() < 1e-9);
    }

    #[test]
    fn gemm_into_accumulation_is_additive(a in tensor(3, 3), b in tensor(3, 3)) {
        use crate::gemm_into;
        let mut acc = Tensor::zeros(3, 3);
        gemm_into(&a, Layout::Normal, &b, Layout::Normal, &mut acc);
        gemm_into(&a, Layout::Normal, &b, Layout::Normal, &mut acc);
        let twice = a.matmul(&b).scale(2.0);
        prop_assert!(acc.allclose(&twice, 1e-9));
    }

    #[test]
    fn broadcast_row_add_matches_manual(a in tensor(4, 3), row in tensor(1, 3)) {
        let out = a.broadcast_row_add(&row);
        for r in 0..4 {
            for c in 0..3 {
                prop_assert!((out.get(r, c) - a.get(r, c) - row.get(0, c)).abs() < 1e-12);
            }
        }
    }
}

/// The structural kernels exist once (`inplace.rs`; the allocating names are
/// `zeros` + `_into`), so nothing in the crate is left to compare them with.
/// This is the outside oracle: every one of them, and the blocked transpose,
/// against its index formula written with `from_fn` / `get`, by bits — on
/// edge shapes that always run and on random ones. The kernels documented
/// to overwrite their whole output are also run into a NaN-filled one.
#[test]
fn structural_ops_equal_their_index_formulas() {
    use proptest::test_runner::TestRng;
    // (rows, cols, q, (row start, row len), (col start, col len))
    type Case = (usize, usize, usize, (usize, usize), (usize, usize));
    const EDGES: [Case; 6] = [
        (0, 3, 2, (0, 0), (1, 2)),     // no rows
        (3, 0, 1, (1, 2), (0, 0)),     // no columns, q = 1
        (1, 1, 1, (0, 1), (0, 1)),     // 1×1 transpose, whole-tensor slices
        (2, 33, 3, (2, 0), (30, 3)),   // transpose crosses the 32-block; start + len = cols
        (33, 2, 2, (32, 1), (2, 0)),   // … and crosses it by rows; start + len = rows
        (40, 37, 1, (0, 40), (0, 37)), // two blocks each way, ragged
    ];
    let random = |case: u64| -> Case {
        let mut rng = TestRng::for_case(case);
        let mut below = |n: usize| (0..=n).generate(&mut rng);
        let (rows, cols, q) = (below(6), below(36), 1 + below(3));
        let (rs, cs) = (below(rows), below(cols));
        (
            rows,
            cols,
            q,
            (rs, below(rows - rs)),
            (cs, below(cols - cs)),
        )
    };
    for (i, case) in EDGES.into_iter().chain((0..64).map(random)).enumerate() {
        let (rows, cols, q, (rs, rl), (cs, cl)) = case;
        let mut rng = TestRng::for_case(1000 + i as u64);
        let mut fill = |r, c| tensor(r, c).generate(&mut rng);
        let a = fill(rows, cols);
        let check = |op: &str, got: &Tensor, want: &Tensor| {
            assert_eq!(got.shape(), want.shape(), "{op}: shape, case {case:?}");
            let same = |(&g, &w)| crate::same_bits(g, w);
            assert!(
                got.as_slice().iter().zip(want.as_slice()).all(same),
                "{op}: bits, case {case:?}"
            );
        };
        let dirty = |want: &Tensor| Tensor::full(want.rows(), want.cols(), f64::NAN);

        let want = Tensor::from_fn(cols, rows, |r, c| a.get(c, r));
        check("transpose", &a.transpose(), &want);
        let mut out = dirty(&want);
        a.transpose_into(&mut out);
        check("transpose_into", &out, &want);

        let want = Tensor::from_fn(1, cols, |_, c| (0..rows).fold(0.0, |s, r| s + a.get(r, c)));
        check("sum_axis0", &a.sum_axis0(), &want);

        let bias = fill(1, cols);
        let want = Tensor::from_fn(rows, cols, |r, c| a.get(r, c) + bias.get(0, c));
        check("broadcast_row_add", &a.broadcast_row_add(&bias), &want);
        let mut out = dirty(&want);
        a.broadcast_row_add_into(&bias, &mut out);
        check("broadcast_row_add_into", &out, &want);

        let want = Tensor::from_fn(rows * q, cols, |r, c| a.get(r / q, c));
        check("repeat_rows", &a.repeat_rows(q), &want);
        let mut out = dirty(&want);
        a.repeat_rows_into(q, &mut out);
        check("repeat_rows_into", &out, &want);

        let g = fill(rows * q, cols);
        let want = Tensor::from_fn(rows, cols, |r, c| {
            (r * q..(r + 1) * q).fold(0.0, |s, i| s + g.get(i, c))
        });
        check("sum_groups", &g.sum_groups(q), &want);

        let want = Tensor::from_fn(rows, cl, |r, c| a.get(r, cs + c));
        check("slice_cols", &a.slice_cols(cs, cl), &want);
        let mut out = dirty(&want);
        a.slice_cols_into(cs, cl, &mut out);
        check("slice_cols_into", &out, &want);

        let want = Tensor::from_fn(rl, cols, |r, c| a.get(rs + r, c));
        check("slice_rows", &a.slice_rows(rs, rl), &want);
        let mut out = dirty(&want);
        a.slice_rows_into(rs, rl, &mut out);
        check("slice_rows_into", &out, &want);

        let right = fill(rows, cl);
        let want = Tensor::from_fn(rows, cols + cl, |r, c| {
            if c < cols {
                a.get(r, c)
            } else {
                right.get(r, c - cols)
            }
        });
        check("concat_cols", &a.concat_cols(&right), &want);
        let mut out = dirty(&want);
        a.concat_cols_into(&right, &mut out);
        check("concat_cols_into", &out, &want);

        let below = fill(rl, cols);
        let want = Tensor::from_fn(rows + rl, cols, |r, c| {
            if r < rows {
                a.get(r, c)
            } else {
                below.get(r - rows, c)
            }
        });
        check("concat_rows", &a.concat_rows(&below), &want);
        let mut out = dirty(&want);
        a.concat_rows_into(&below, &mut out);
        check("concat_rows_into", &out, &want);

        // Embedded at offset `cs` / `rs` with `cl` / `rl` zero lines after.
        let want = Tensor::from_fn(rows, cs + cols + cl, |r, c| {
            if (cs..cs + cols).contains(&c) {
                a.get(r, c - cs)
            } else {
                0.0
            }
        });
        check("pad_cols", &a.pad_cols(cs, cs + cols + cl), &want);

        let want = Tensor::from_fn(rs + rows + rl, cols, |r, c| {
            if (rs..rs + rows).contains(&r) {
                a.get(r - rs, c)
            } else {
                0.0
            }
        });
        check("pad_rows", &a.pad_rows(rs, rs + rows + rl), &want);
    }
}

/// Strategy: an arbitrary small shape, *including* degenerate ones —
/// empty tensors, single rows/columns, and sizes that don't divide the
/// vector width or the 4×8 GEMM tile.
fn any_shape() -> impl Strategy<Value = (usize, usize)> {
    (0usize..9, 0usize..18)
}

/// Differential property tests: for random shapes and data, the simd
/// backend must reproduce the scalar reference exactly (bitwise) on
/// every kernel that does the reference's arithmetic per element, and
/// within the GEMM error bound where its multiply-add chain may be fused
/// — the per-kernel contract behind `tests/backend.rs`, here explored by
/// proptest instead of by a fixed shape table.
mod backend_differential {
    use super::*;
    use crate::backend::{scalar, simd};
    use crate::gemm_into;

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gemm_contract_on_random_shapes(
            (m, k) in any_shape(),
            n in 0usize..18,
            a_t in prop::bool::ANY,
            b_t in prop::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            // Bounded away from zero: the scalar loop's `a == 0.0` skip is
            // covered by value-equality tests in `tests/backend.rs`.
            let mut fill = |r: usize, c: usize| {
                Tensor::from_fn(r, c, |_, _| {
                    let v = rng.gen_range(0.1f64..2.0);
                    if rng.gen_bool(0.5) { v } else { -v }
                })
            };
            let (la, a) = if a_t {
                (Layout::Transposed, fill(k, m))
            } else {
                (Layout::Normal, fill(m, k))
            };
            let (lb, b) = if b_t {
                (Layout::Transposed, fill(n, k))
            } else {
                (Layout::Normal, fill(k, n))
            };
            let c0 = fill(m, n);
            let run = |backend: crate::BackendKind| {
                crate::with_backend(backend, || {
                    let mut c = c0.clone();
                    gemm_into(&a, la, &b, lb, &mut c);
                    c
                })
            };
            let s = run(crate::BackendKind::Scalar);
            let v = run(crate::BackendKind::Simd);
            let (a, b) = (
                if a_t { a.transpose() } else { a },
                if b_t { b.transpose() } else { b },
            );
            let held = crate::check_gemm_contract(
                (a.as_slice(), b.as_slice(), c0.as_slice()),
                (k, n),
                (s.as_slice(), v.as_slice()),
                crate::same_bits,
            );
            prop_assert!(
                held.is_ok(),
                "gemm {m}x{k}x{n} (a_t={a_t}, b_t={b_t}) diverged: {held:?}"
            );
        }

        #[test]
        fn elementwise_bitwise_on_random_lengths(
            n in 0usize..70,
            seed in 0u64..u64::MAX,
            s in -3.0f64..3.0,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let mut out_s = vec![0.0; n];
            let mut out_v = vec![0.0; n];
            type K = fn(&dyn crate::Backend, &[f64], &[f64], f64, &mut [f64]);
            let kernels: &[(&str, K)] = &[
                ("add", |bk, a, b, _, o| bk.add(a, b, o)),
                ("sub", |bk, a, b, _, o| bk.sub(a, b, o)),
                ("mul", |bk, a, b, _, o| bk.mul(a, b, o)),
                ("scale", |bk, a, _, s, o| bk.scale(a, s, o)),
                ("add_scalar", |bk, a, _, s, o| bk.add_scalar(a, s, o)),
                ("tanh_vjp", |bk, a, b, _, o| bk.tanh_vjp(a, b, o)),
                ("one_minus_sq", |bk, a, _, _, o| bk.one_minus_sq(a, o)),
                ("gelu_inner", |bk, a, b, _, o| bk.gelu_inner(a, b, o)),
                ("gelu_du", |bk, a, _, _, o| bk.gelu_du(a, o)),
                ("half_one_plus", |bk, a, _, _, o| bk.half_one_plus(a, o)),
            ];
            for (name, k) in kernels {
                k(scalar(), &a, &b, s, &mut out_s);
                k(simd(), &a, &b, s, &mut out_v);
                prop_assert!(bits_eq(&out_s, &out_v), "{name} diverged at len {n}");
            }
            // Accumulating kernels start from the same random state.
            let mut y_s = b.clone();
            let mut y_v = b.clone();
            scalar().axpy(s, &a, &mut y_s);
            simd().axpy(s, &a, &mut y_v);
            prop_assert!(bits_eq(&y_s, &y_v), "axpy diverged at len {n}");
            let mut y_s = b.clone();
            let mut y_v = b;
            scalar().add_assign(&mut y_s, &a);
            simd().add_assign(&mut y_v, &a);
            prop_assert!(bits_eq(&y_s, &y_v), "add_assign diverged at len {n}");
        }

        #[test]
        fn unfold_fold_bitwise_on_random_shapes(
            bsz in 1usize..4,
            len in 1usize..9,
            channels in 1usize..4,
            khalf in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let kw = 2 * khalf + 1; // circular kernels are odd-width
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let input = Tensor::from_fn(bsz, len * channels, |_, _| rng.gen_range(-2.0..2.0));
            let mut u_s = vec![0.0; bsz * len * kw * channels];
            let mut u_v = u_s.clone();
            scalar().unfold1d(input.as_slice(), bsz, len, channels, kw, &mut u_s);
            simd().unfold1d(input.as_slice(), bsz, len, channels, kw, &mut u_v);
            prop_assert!(bits_eq(&u_s, &u_v), "unfold diverged");
            let grad = Tensor::from_fn(bsz * len, kw * channels, |_, _| rng.gen_range(-2.0..2.0));
            let mut f_s = vec![0.0; bsz * len * channels];
            let mut f_v = f_s.clone();
            scalar().fold1d(grad.as_slice(), bsz, len, channels, kw, &mut f_s);
            simd().fold1d(grad.as_slice(), bsz, len, channels, kw, &mut f_v);
            prop_assert!(bits_eq(&f_s, &f_v), "fold diverged");
        }

        #[test]
        fn tanh_gelu_within_ulp_budget_on_random_inputs(
            n in 0usize..70,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-40.0..40.0)).collect();
            let mut out_s = vec![0.0; xs.len()];
            let mut out_v = vec![0.0; xs.len()];
            scalar().tanh(&xs, &mut out_s);
            simd().tanh(&xs, &mut out_v);
            for ((&x, &r), &g) in xs.iter().zip(&out_s).zip(&out_v) {
                let d = crate::ulp_distance(r, g);
                prop_assert!(d <= 16, "tanh({x}) off by {d} ulp");
            }
            scalar().gelu(&xs, &mut out_s);
            simd().gelu(&xs, &mut out_v);
            for ((&x, &r), &g) in xs.iter().zip(&out_s).zip(&out_v) {
                let d = crate::ulp_distance(r, g);
                prop_assert!(
                    d <= 32 || (r - g).abs() <= 1e-14,
                    "gelu({x}) off by {d} ulp"
                );
            }
        }
    }
}

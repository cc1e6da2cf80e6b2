//! Cross-crate property-based tests on the invariants the paper's
//! algorithms rely on.

use mosaic_flow::numerics::boundary::{boundary_coords, grid_with_boundary};
use mosaic_flow::numerics::{solve_dirichlet, Poisson};
use mosaic_flow::prelude::*;
use mosaic_flow::tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn spec() -> SubdomainSpec {
    SubdomainSpec { m: 9, spatial: 0.5 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The MFP with the oracle solver reproduces any harmonic polynomial:
    /// 5-point-exact harmonic functions are fixed points of the whole
    /// Schwarz machinery.
    #[test]
    fn oracle_mfp_reproduces_harmonic_polynomials(
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
        c in -1.0f64..1.0,
    ) {
        let domain = DomainSpec::new(spec(), 2, 1);
        let h = domain.h();
        // u = a(x² − y²) + b·xy + c·x is harmonic and 5-point exact.
        let f = |x: f64, y: f64| a * (x * x - y * y) + b * x * y + c * x;
        let coords = boundary_coords(domain.ny(), domain.nx());
        let bc = Tensor::from_vec(
            1,
            coords.len(),
            coords.iter().map(|&(j, i)| f(i as f64 * h, j as f64 * h)).collect(),
        );
        let exact =
            Tensor::from_fn(domain.ny(), domain.nx(), |j, i| f(i as f64 * h, j as f64 * h));
        let oracle = OracleSolver::new(spec(), 1e-10);
        let res = Mfp::new(&oracle, domain)
            .run(&bc, &MfpConfig { max_iters: 300, tol: 1e-9, ..Default::default() });
        let mae = res.grid.mean_abs_diff(&exact);
        prop_assert!(mae < 1e-5, "MAE {mae} for (a,b,c)=({a},{b},{c})");
    }

    /// Discrete maximum principle: the MFP solution never exceeds the
    /// boundary extremes (a property of the Laplace equation that any
    /// correct solver chain must preserve with the oracle).
    #[test]
    fn mfp_respects_the_maximum_principle(seed in 0u64..50) {
        let domain = DomainSpec::new(spec(), 2, 1);
        let mut sampler =
            BoundarySampler::new(domain.boundary_len(), (0.4, 0.8), (0.3, 0.8), true);
        let bc = sampler.sample(&mut ChaCha8Rng::seed_from_u64(seed));
        let lo = bc.as_slice().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = bc.as_slice().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let res = Mfp::new(&oracle, domain)
            .run(&bc, &MfpConfig { max_iters: 400, tol: 1e-8, ..Default::default() });
        let tol = 1e-6 * (1.0 + hi.abs().max(lo.abs()));
        for v in res.grid.as_slice() {
            prop_assert!(*v >= lo - tol && *v <= hi + tol,
                "value {v} escapes boundary range [{lo}, {hi}]");
        }
    }

    /// Superposition: the Laplace problem is linear, so MFP(α·g) ≈
    /// α·MFP(g) when the subdomain solver is linear (the oracle is).
    #[test]
    fn oracle_mfp_is_linear_in_the_boundary_condition(alpha in 0.25f64..3.0) {
        let domain = DomainSpec::new(spec(), 2, 1);
        let mut sampler =
            BoundarySampler::new(domain.boundary_len(), (0.5, 0.9), (0.4, 0.8), true);
        let bc = sampler.sample(&mut ChaCha8Rng::seed_from_u64(9));
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, domain);
        let cfg = MfpConfig { max_iters: 300, tol: 1e-9, ..Default::default() };
        let base = mfp.run(&bc, &cfg);
        let scaled = mfp.run(&bc.scale(alpha), &cfg);
        let diff = scaled.grid.max_abs_diff(&base.grid.scale(alpha));
        prop_assert!(diff < 1e-4 * alpha.max(1.0), "superposition violated: {diff}");
    }

    /// Dataset ground truth always satisfies the discrete equation.
    #[test]
    fn dataset_samples_are_discretely_harmonic(seed in 0u64..30) {
        let s = SubdomainSpec { m: 9, spatial: 0.5 };
        let ds = Dataset::generate(s, 1, seed);
        let p = Poisson::laplace(s.m, s.m, s.h());
        let r = mosaic_flow::numerics::residual_norm(&p, &ds.samples[0].solution);
        prop_assert!(r < 1e-6, "residual {r}");
    }

    /// The global multigrid reference and the oracle MFP agree for random
    /// GP boundary conditions on non-square domains.
    #[test]
    fn mfp_matches_direct_solve_on_rectangular_domains(
        seed in 0u64..20,
        wide in prop::bool::ANY,
    ) {
        let (sx, sy) = if wide { (3, 1) } else { (1, 3) };
        let domain = DomainSpec::new(spec(), sx, sy);
        let mut sampler =
            BoundarySampler::new(domain.boundary_len(), (0.5, 0.9), (0.4, 0.8), true);
        let bc = sampler.sample(&mut ChaCha8Rng::seed_from_u64(seed));
        let guess = grid_with_boundary(domain.ny(), domain.nx(), &bc);
        let (reference, st) = solve_dirichlet(
            &Poisson::laplace(domain.ny(), domain.nx(), domain.h()),
            &guess,
            1e-9,
        );
        prop_assert!(st.converged);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let res = Mfp::new(&oracle, domain)
            .run(&bc, &MfpConfig { max_iters: 600, tol: 1e-8, ..Default::default() });
        prop_assert!(res.converged);
        let mae = res.grid.mean_abs_diff(&reference);
        prop_assert!(mae < 1e-3, "MAE {mae} on {sx}x{sy} domain");
    }

    /// The accelerated default never needs more sweeps than the paper's
    /// one-level iteration, and stops at the same solution — on any
    /// domain up to 6×6 subdomains (1×1, where there is nothing to mix,
    /// included) and any GP boundary.
    #[test]
    fn acceleration_never_costs_iterations(
        sx in 1usize..7,
        sy in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let spec = SubdomainSpec { m: 5, spatial: 0.5 };
        let domain = DomainSpec::new(spec, sx, sy);
        let mut sampler =
            BoundarySampler::new(domain.boundary_len(), (0.4, 0.8), (0.5, 1.0), true);
        let bc = sampler.sample(&mut ChaCha8Rng::seed_from_u64(seed));
        let oracle = OracleSolver::new(spec, 1e-10);
        let mfp = Mfp::new(&oracle, domain);
        let run = |accelerate: bool| {
            mfp.run(&bc, &MfpConfig { max_iters: 3000, tol: 1e-7, accelerate, ..Default::default() })
        };
        let (one_level, two_level) = (run(false), run(true));
        prop_assert!(one_level.converged && two_level.converged);
        prop_assert!(
            two_level.iterations <= one_level.iterations,
            "{sx}x{sy}, seed {seed}: {} accelerated vs {} one-level iterations",
            two_level.iterations,
            one_level.iterations
        );
        let gap = two_level.grid.max_abs_diff(&one_level.grid);
        prop_assert!(gap < 1e-4, "{sx}x{sy}, seed {seed}: solutions {gap} apart");
    }
}

// ---------------------------------------------------------------------------
// Fused in-place VJP kernels vs the unfused out-of-place legacy chains.
// ---------------------------------------------------------------------------

/// Ulp distance between two finite f64s of the same sign class.
fn ulps(a: f64, b: f64) -> u64 {
    let (x, y) = (a.to_bits() as i64, b.to_bits() as i64);
    // Map to a monotone integer line so the difference counts ulps even
    // across the ±0 boundary.
    let canon = |v: i64| if v < 0 { i64::MIN - v } else { v };
    canon(x).abs_diff(canon(y))
}

/// Run `f` with the kernel backend held fixed. The backend differentials
/// further down switch the process-wide backend while this binary's tests
/// run in parallel, and tanh/gelu differ by a few ulps between backends:
/// a lean-vs-legacy comparison straddling a switch fails spuriously (the
/// third-order test did, in about a third of the runs of this binary).
fn on_one_backend<R>(f: impl FnOnce() -> R) -> R {
    use mosaic_flow::tensor::{backend_kind, with_backend};
    with_backend(backend_kind(), f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lean engine's fused VJPs (`TanhVjp`, the fused Gelu chain,
    /// `AddBias`, pooled `AddAcc` accumulation) must reproduce the legacy
    /// unfused out-of-place chains to ulp level: bitwise at first and
    /// second order through an elementwise tanh∘gelu stack.
    #[test]
    fn fused_vjps_match_unfused_bitwise_to_second_order(
        vals in prop::collection::vec(-2.5f64..2.5, 12),
    ) {
        let run = |lean: bool| {
            let mut g = if lean { Graph::new() } else { Graph::new_legacy() };
            let x = g.leaf(Tensor::row_vector(&vals));
            let t = g.tanh(x);
            let e = g.gelu(t);
            let s = g.sum(e);
            let d1 = g.grad(s, &[x])[0];
            let s1 = g.sum(d1);
            let d2 = g.grad(s1, &[x])[0];
            (g.value(d1).clone(), g.value(d2).clone())
        };
        let ((lean1, lean2), (leg1, leg2)) = on_one_backend(|| (run(true), run(false)));
        for (a, b) in lean1.as_slice().iter().zip(leg1.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "order-1 mismatch: {} vs {}", a, b);
        }
        for (a, b) in lean2.as_slice().iter().zip(leg2.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "order-2 mismatch: {} vs {}", a, b);
        }
    }

    /// Weight gradients of a full biased two-layer MLP under MSE must be
    /// bitwise identical between the lean and legacy engines — `AddBias`
    /// and in-place gemm accumulation included.
    #[test]
    fn lean_mlp_weight_grads_match_legacy_bitwise(seed in 0u64..200) {
        use mosaic_flow::nn::{Linear, Params};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ps = Params::new();
        let l1 = Linear::new(&mut ps, &mut rng, "l1", 3, 7, true);
        let l2 = Linear::new(&mut ps, &mut rng, "l2", 7, 2, true);
        let x = Tensor::from_fn(5, 3, |r, c| ((seed + 1) as f64 * 0.3 + (r * 3 + c) as f64 * 0.21).sin());
        let y = Tensor::from_fn(5, 2, |r, c| ((r * 2 + c) as f64 * 0.17).cos());
        let run = |lean: bool| {
            let mut g = if lean { Graph::new() } else { Graph::new_legacy() };
            let bound = ps.bind(&mut g);
            let xv = g.constant_from(&x);
            let h = l1.forward(&mut g, &bound, xv);
            let h = g.tanh(h);
            let out = l2.forward(&mut g, &bound, h);
            let tv = g.constant_from(&y);
            let loss = g.mse(out, tv);
            let grads = g.grad(loss, bound.all_vars());
            grads.iter().map(|&gv| g.value(gv).clone()).collect::<Vec<_>>()
        };
        let (lean, legacy) = on_one_backend(|| (run(true), run(false)));
        prop_assert_eq!(lean.len(), legacy.len());
        for (pi, (a, b)) in lean.iter().zip(&legacy).enumerate() {
            for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
                prop_assert_eq!(
                    va.to_bits(), vb.to_bits(),
                    "param {} mismatch: {} vs {} ({} ulps)", pi, va, vb, ulps(*va, *vb)
                );
            }
        }
    }

    /// At third order the fused chains re-associate adjoint sums (fresh
    /// fused nodes vs legacy's shared intermediates), so exact bit
    /// equality is no longer guaranteed — but the drift must stay at ulp
    /// level, orders of magnitude inside the 1e-9 fixture tolerance.
    #[test]
    fn fused_vjps_match_unfused_to_ulp_at_third_order(
        vals in prop::collection::vec(-2.0f64..2.0, 9),
    ) {
        let run = |lean: bool| {
            let mut g = if lean { Graph::new() } else { Graph::new_legacy() };
            let x = g.leaf(Tensor::row_vector(&vals));
            let t = g.tanh(x);
            let e = g.gelu(t);
            let s = g.sum(e);
            let d1 = g.grad(s, &[x])[0];
            let s1 = g.sum(d1);
            let d2 = g.grad(s1, &[x])[0];
            let s2 = g.sum(d2);
            let d3 = g.grad(s2, &[x])[0];
            g.value(d3).clone()
        };
        let (lean, legacy) = on_one_backend(|| (run(true), run(false)));
        for (a, b) in lean.as_slice().iter().zip(legacy.as_slice()) {
            prop_assert!(
                ulps(*a, *b) <= 64,
                "order-3 drift beyond ulp level: {} vs {} ({} ulps)", a, b, ulps(*a, *b)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry histogram quantile estimation.
// ---------------------------------------------------------------------------

/// Build the `HistSnapshot` a telemetry histogram with layout `buckets`
/// would freeze after observing `samples`.
fn hist_from_samples(
    buckets: &mosaic_flow::telemetry::Buckets,
    samples: &[f64],
) -> mosaic_flow::telemetry::HistSnapshot {
    let bounds = buckets.bounds().to_vec();
    let mut counts = vec![0u64; bounds.len() + 1];
    for &v in samples {
        counts[buckets.bucket_index(v)] += 1;
    }
    mosaic_flow::telemetry::HistSnapshot {
        bounds,
        counts,
        count: samples.len() as u64,
        sum: samples.iter().sum(),
        min: samples.iter().cloned().fold(f64::INFINITY, f64::min),
        max: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `HistSnapshot::quantile_est` against ground truth: for any sample
    /// set and any of the gate's quantiles, the interpolated estimate
    /// must stay inside the bucket that actually contains the exact
    /// sorted-sample quantile (clamped to the observed `[min, max]`) —
    /// the tightest guarantee a log-bucketed histogram can make.
    #[test]
    fn quantile_est_lands_in_the_exact_quantiles_bucket(
        raw in prop::collection::vec(0.1f64..5_000.0, 96),
        n in 1usize..96,
        layout in 0usize..3,
    ) {
        use mosaic_flow::telemetry::Buckets;
        let buckets = match layout {
            0 => Buckets::latency_us(),
            1 => Buckets::exponential(0.5, 3.0, 8),
            _ => Buckets::explicit(&[1.0, 10.0, 100.0, 1000.0]),
        };
        let samples = &raw[..n];
        let snap = hist_from_samples(&buckets, samples);
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        for q in [0.5f64, 0.95, 0.99] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = sorted[rank - 1];
            let est = snap.quantile_est(q);
            // The estimate may never stray outside the observed range...
            prop_assert!(est >= snap.min && est <= snap.max,
                "q={q}: est {est} outside [{}, {}]", snap.min, snap.max);
            // ...and must fall inside the exact quantile's bucket.
            let b = buckets.bucket_index(exact);
            let lo = if b == 0 { snap.min } else { buckets.bounds()[b - 1].max(snap.min) };
            let hi = buckets.bounds().get(b).copied().unwrap_or(snap.max).min(snap.max);
            prop_assert!(est >= lo && est <= hi.max(lo),
                "q={q}: est {est} outside bucket {b} [{lo}, {hi}] containing exact {exact}");
        }
    }

    /// The one `Ring` against a `VecDeque` model: random `push` /
    /// `drain_filter` / `clear` sequences on small capacities, so most
    /// runs cross the wrap boundary several times.
    #[test]
    fn ring_matches_a_deque_model_across_the_wrap_boundary(
        cap in 1usize..9,
        ops in prop::collection::vec(0u64..1000, 96),
    ) {
        use std::collections::VecDeque;
        let mut ring = mosaic_flow::telemetry::Ring::new(cap);
        let mut model: VecDeque<u64> = VecDeque::new();
        let (mut total, mut overwritten) = (0u64, 0u64);
        for (i, op) in ops.into_iter().enumerate() {
            match op % 8 {
                0 => {
                    ring.clear();
                    model.clear();
                    (total, overwritten) = (0, 0);
                }
                1 | 2 => {
                    let k = op % 3 + 2;
                    let mut drained = Vec::new();
                    ring.drain_filter(|v| v % k == 0, |v| drained.push(v));
                    let expect: Vec<u64> = model.iter().copied().filter(|v| v % k == 0).collect();
                    model.retain(|v| v % k != 0);
                    prop_assert_eq!(drained, expect, "drain order, op {}", i);
                }
                _ => {
                    model.push_back(op);
                    let lost = (model.len() > cap).then(|| model.pop_front().unwrap());
                    total += 1;
                    overwritten += lost.is_some() as u64;
                    prop_assert_eq!(ring.push(op), lost, "overwritten entry, op {}", i);
                }
            }
            prop_assert_eq!(ring.iter().copied().collect::<Vec<_>>(), Vec::from(model.clone()));
            prop_assert_eq!(ring.iter().next_back(), model.back());
            prop_assert_eq!((ring.len(), ring.is_empty()), (model.len(), model.is_empty()));
            prop_assert_eq!((ring.total(), ring.overwritten()), (total, overwritten));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whole-stack backend differential: a random SDNet forward pass on
    /// random shapes agrees across the scalar and simd backends to tight
    /// relative tolerance (the only divergence allowed comes from the
    /// vectorized tanh/gelu ulp budgets; GEMM and the data-movement
    /// kernels are bitwise — `tests/backend.rs` pins those per kernel).
    #[test]
    fn sdnet_forward_backend_differential(
        b in 1usize..5,
        q in 1usize..7,
        hidden in 4usize..24,
        channels in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        use mosaic_flow::tensor::{with_backend, BackendKind};
        use rand::Rng;
        let spec = spec();
        let mut cfg = SdNetConfig::small(spec.boundary_len());
        cfg.conv_channels = vec![channels];
        cfg.hidden = vec![hidden, hidden];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = SdNet::new(cfg, &mut rng);
        let bnds = Tensor::from_fn(b, spec.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
        let pts = Tensor::from_fn(b * q, 2, |_, _| rng.gen_range(0.0..spec.spatial));
        let s = with_backend(BackendKind::Scalar, || net.predict(&bnds, &pts, q));
        let v = with_backend(BackendKind::Simd, || net.predict(&bnds, &pts, q));
        prop_assert_eq!(s.shape(), v.shape());
        for (x, y) in s.as_slice().iter().zip(v.as_slice()) {
            prop_assert!(
                (x - y).abs() <= 1e-10 * x.abs().max(1.0),
                "forward diverged across backends: {:e} vs {:e}", x, y
            );
        }
    }

    /// Tensor-level differential on random rectangular chains: the
    /// composition (unfold → gemm → gelu → gemm) that makes up an SDNet
    /// layer stack, on shapes proptest picks, matches across backends.
    #[test]
    fn layer_chain_backend_differential(
        rows in 1usize..10,
        inner in 1usize..12,
        cols in 1usize..10,
        seed in 0u64..u64::MAX,
    ) {
        use mosaic_flow::tensor::{gemm_into, with_backend, BackendKind, Layout};
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut fill = |r: usize, c: usize| {
            Tensor::from_fn(r, c, |_, _| {
                let v = rng.gen_range(0.1f64..1.5);
                if rng.gen_bool(0.5) { v } else { -v }
            })
        };
        let a = fill(rows, inner);
        let w1 = fill(inner, cols);
        let w2 = fill(cols, rows);
        let run = |kind| with_backend(kind, || {
            let mut h = Tensor::zeros(rows, cols);
            gemm_into(&a, Layout::Normal, &w1, Layout::Normal, &mut h);
            let mut act = Tensor::zeros(rows, cols);
            h.gelu_into(&mut act);
            let mut out = Tensor::zeros(rows, rows);
            gemm_into(&act, Layout::Normal, &w2, Layout::Normal, &mut out);
            out
        });
        let s = run(BackendKind::Scalar);
        let v = run(BackendKind::Simd);
        // gelu carries a 32-ulp budget; one GEMM on top keeps the
        // relative gap at ~1e-13.
        for (x, y) in s.as_slice().iter().zip(v.as_slice()) {
            prop_assert!(
                (x - y).abs() <= 1e-11 * x.abs().max(1.0),
                "chain diverged: {:e} vs {:e}", x, y
            );
        }
    }
}

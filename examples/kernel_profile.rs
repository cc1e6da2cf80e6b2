//! Where one plan launch of the benchmark network goes, kernel by kernel.
//!
//! The network is the one `mf-benchmark` solves with (one 4-channel conv,
//! 3×48 GELU trunk, 9×9 subdomains) and the launch its largest sweep group:
//! B = 64 boundaries × 13 cross points. Every kernel of that launch — the
//! plan's `f32` layers (the conv and the split projection are one, folded
//! at compile time) and the split-combine GELU — is timed alone at
//! its launch shape, on one lane and with its rows shared over two, next
//! to arithmetic chains measured in the same run: separate multiply + add
//! and fused multiply-add, in `f32` and in `f64`, and on an `avx512f` build
//! the 512-bit fused `f32` chain the plan's layers issue there. "Of chain"
//! is against the widest one the simd kernel issues in this build, in its
//! element type: the fused chain when the target has the instruction
//! (`mf_tensor::FUSED`), the mul+add chain otherwise, 512 bits wide for
//! `f32` on an `avx512f` build. The `f64` kernels training runs are listed
//! for comparison. The sum of the launch's kernels is set against the
//! launch itself. A second table does the same for the kernels of one
//! training step (`local_gradients` at the `train_ddp` step's shapes):
//!
//! ```text
//! cargo run --release --example kernel_profile            # ~20 s
//! cargo run --release --example kernel_profile -- --quick # ~3 s, CI smoke
//! ```
//!
//! Output is a markdown table (CI appends it to the job summary).
use mf_data::{BatchSampler, Dataset, SubdomainSpec};
use mf_infer::{InferencePlan, Workspace};
use mf_nn::{SdNet, SdNetConfig};
use mf_tensor::par::{self, prelude::*};
use mf_tensor::{backend, fmadd, gemm_into, Act, Layout, PackedB, Tensor, FUSED};
use mf_train::local_gradients;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Boundaries in the launch, cross points per boundary, boundary walk
/// length, conv channels, trunk width.
const B: usize = 64;
const Q: usize = 13;
const L: usize = 32;
const OC: usize = 4;
const WIDTH: usize = 48;

/// Best µs per call of `f` over `samples` samples of about 300 µs each.
fn best_us(samples: usize, mut f: impl FnMut()) -> f64 {
    let sample = |reps: usize, f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    let mut reps = 1;
    while sample(reps, &mut f) * (reps as f64) < 300.0 && reps < 1 << 16 {
        reps *= 2;
    }
    (0..samples)
        .map(|_| sample(reps, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// An element type a chain runs in, with the simd backend's multiply-add.
trait Chain: Copy {
    const A: Self;
    const B: Self;
    const ONE: Self;
    fn step(self, a: Self, b: Self, fuse: bool) -> Self;
}

impl Chain for f64 {
    const A: f64 = 0.999_999;
    const B: f64 = 1e-7;
    const ONE: f64 = 1.0;
    fn step(self, a: f64, b: f64, fuse: bool) -> f64 {
        if fuse {
            fmadd(self, a, b)
        } else {
            self * a + b
        }
    }
}

impl Chain for f32 {
    const A: f32 = 0.999_999;
    const B: f32 = 1e-7;
    const ONE: f32 = 1.0;
    fn step(self, a: f32, b: f32, fuse: bool) -> f32 {
        if fuse && FUSED {
            self.mul_add(a, b)
        } else {
            self * a + b
        }
    }
}

/// GFLOP/s of `C` independent `LANES`-wide chains of `x = x*a + b` on the
/// calling thread: separate multiply and add, or with `FUSE` the simd
/// backend's own multiply-add (fused when the build has the instruction).
/// Timed in place — behind a closure the chains would live in memory.
fn chain_gflops<T: Chain, const C: usize, const LANES: usize, const FUSE: bool>(
    samples: usize,
) -> f64 {
    const ROUNDS: usize = 1 << 14;
    let a = black_box([T::A; LANES]);
    let b = black_box([T::B; LANES]);
    (0..samples)
        .map(|_| {
            let mut acc = [[T::ONE; LANES]; C];
            let t = Instant::now();
            for _ in 0..ROUNDS {
                for chain in acc.iter_mut() {
                    for l in 0..LANES {
                        chain[l] = chain[l].step(a[l], b[l], FUSE);
                    }
                }
            }
            black_box(&mut acc);
            2.0 * (C * LANES * ROUNDS) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// The chain the simd kernels issue in `T` (the fused one when the build
/// has FMA) at the register blocking fastest on this host, and a header
/// note giving both.
fn ceiling<T: Chain, const V: usize>(samples: usize, name: &str) -> (f64, String) {
    let best = |shapes: [f64; 3]| shapes.into_iter().fold(0.0, f64::max);
    let unfused = best([
        chain_gflops::<T, 12, V, false>(samples),
        chain_gflops::<T, 8, V, false>(samples),
        chain_gflops::<T, 10, V, false>(samples),
    ]);
    if !FUSED {
        return (unfused, format!("{name} mul+add chain {unfused:.1}"));
    }
    let fused = best([
        chain_gflops::<T, 12, V, true>(samples),
        chain_gflops::<T, 8, V, true>(samples),
        chain_gflops::<T, 10, V, true>(samples),
    ]);
    (
        fused,
        format!("{name} mul+add chain {unfused:.1}, fused chain {fused:.1}"),
    )
}

/// GFLOP/s of 512-bit fused `f32` chains of `x = x*a + b` at the register
/// blocking fastest on this host — the chain the plan's layers issue on an
/// `avx512f` build, which LLVM's 256-bit preference keeps the portable
/// chains above from measuring — or `None` on a build without `avx512f`.
fn chain512(samples: usize) -> Option<f64> {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        #[target_feature(enable = "avx512f")]
        fn gflops<const C: usize>(samples: usize) -> f64 {
            use std::arch::x86_64::{_mm512_fmadd_ps, _mm512_set1_ps};
            const ROUNDS: usize = 1 << 14;
            let a = _mm512_set1_ps(black_box(f32::A));
            let b = _mm512_set1_ps(black_box(f32::B));
            (0..samples)
                .map(|_| {
                    let mut acc = [_mm512_set1_ps(1.0); C];
                    let t = Instant::now();
                    for _ in 0..ROUNDS {
                        for s in acc.iter_mut() {
                            *s = _mm512_fmadd_ps(*s, a, b);
                        }
                    }
                    black_box(&mut acc);
                    2.0 * (C * 16 * ROUNDS) as f64 / t.elapsed().as_secs_f64() / 1e9
                })
                .fold(0.0, f64::max)
        }
        // SAFETY: the build target has `avx512f`.
        let shapes = unsafe {
            [
                gflops::<12>(samples),
                gflops::<8>(samples),
                gflops::<10>(samples),
            ]
        };
        Some(shapes.into_iter().fold(0.0, f64::max))
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    {
        let _ = samples;
        None
    }
}

fn filled(rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17) % 97) as f64 * 0.02 - 0.9
    })
}

fn filled_f32(rows: usize, cols: usize) -> Vec<f32> {
    filled(rows, cols)
        .as_slice()
        .iter()
        .map(|&v| v as f32)
        .collect()
}

/// `f(rows of a, rows of out)` over the rows of one kernel call (`a` is
/// `k` wide, `out` `n` wide), on one lane or cut into one block of rows
/// per lane.
fn over_rows<T: Send + Sync>(
    lanes: usize,
    (a, k): (&[T], usize),
    (out, n): (&mut [T], usize),
    f: impl Fn(&[T], &mut [T]) + Sync,
) {
    if lanes == 1 {
        return f(a, out);
    }
    let rows = (out.len() / n).div_ceil(lanes);
    out.par_chunks_mut(rows * n)
        .enumerate()
        .for_each(|(i, o)| f(&a[i * rows * k..][..o.len() / n * k], o));
}

struct Row {
    name: String,
    /// µs on one lane and on two.
    us: [f64; 2],
    flops: f64,
    elems: f64,
    /// Whether the kernel runs in `f32` (its chain is the `f32` one).
    single: bool,
    /// Calls per launch (0: not a step of the launch).
    per_launch: usize,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 3 } else { 15 };
    let mut rows: Vec<Row> = Vec::new();
    let mut time = |name: &str,
                    (flops, elems): (f64, f64),
                    single: bool,
                    per_launch: usize,
                    run: &mut dyn FnMut(usize)| {
        let us =
            [1, 2].map(|lanes| par::with_pool_width(lanes, || best_us(samples, || run(lanes))));
        rows.push(Row {
            name: name.to_string(),
            us,
            flops,
            elems,
            single,
            per_launch,
        });
    };

    // The fused f32 layers of the launch, at their launch shapes.
    let layers: [(&str, usize, usize, usize, Act, usize); 3] = [
        ("embedding", B, L, WIDTH, Act::Identity, 1),
        ("trunk + gelu", B * Q, WIDTH, WIDTH, Act::Gelu, 2),
        ("head", B * Q, WIDTH, 1, Act::Identity, 1),
    ];
    for (what, m, k, n, act, per_launch) in layers {
        let a = filled_f32(m, k);
        let w = PackedB::new(&filled(k, n));
        let bias = filled_f32(1, n);
        let mut out = vec![0.0f32; m * n];
        let macs = (m * k * n) as f64;
        // The activation's share is reported by the gelu row; a layer's
        // GFLOP/s counts its multiply-adds only.
        time(
            &format!("layer [{m},{k}]×[{k},{n}] {what}"),
            (2.0 * macs, 0.0),
            true,
            per_launch,
            &mut |lanes| {
                over_rows(lanes, (black_box(&a), k), (&mut out, n), |a, o| {
                    backend::simd().layer(a, &w, Some(&bias), act, o)
                })
            },
        );
    }
    // What the launch does besides layers.
    {
        let x = filled_f32(B * Q, WIDTH);
        let mut y = x.clone();
        time(
            "gelu [832,48] in place (split combine)",
            (0.0, (B * Q * WIDTH) as f64),
            true,
            1,
            &mut |lanes| {
                over_rows(lanes, (&x, WIDTH), (&mut y, WIDTH), |x, y| {
                    y.copy_from_slice(x);
                    backend::simd().activate_f32(Act::Gelu, y)
                })
            },
        );
    }
    // The f64 kernels the graph path (training) runs, for comparison.
    {
        let (a, w) = (filled(B * Q, WIDTH), filled(WIDTH, WIDTH));
        let mut out = Tensor::zeros(B * Q, WIDTH);
        let flops = 2.0 * (B * Q * WIDTH * WIDTH) as f64;
        time(
            "f64 gemm_into [832,48]×[48,48] (accumulating)",
            (flops, 0.0),
            false,
            0,
            &mut |_| gemm_into(black_box(&a), Layout::Normal, &w, Layout::Normal, &mut out),
        );
        let mut y = Tensor::zeros(B * Q, WIDTH);
        let elems = (B * Q * WIDTH) as f64;
        time(
            "f64 gelu_into [832,48]",
            (0.0, elems),
            false,
            0,
            &mut |_| black_box(&a).gelu_into(&mut y),
        );
        time(
            "f64 tanh_into [832,48]",
            (0.0, elems),
            false,
            0,
            &mut |_| black_box(&a).tanh_into(&mut y),
        );
    }

    // The launch itself.
    let mut cfg = SdNetConfig::small(L);
    cfg.conv_channels = vec![OC];
    cfg.hidden = vec![WIDTH; 3];
    let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
    let pts = Tensor::from_fn(Q, 2, |r, c| 0.03 * (r + c + 1) as f64);
    let plan = InferencePlan::compile(&net, &pts);
    let bounds = filled(B, L);
    let launch = [1, 2].map(|lanes| {
        par::with_pool_width(lanes, || {
            let mut ws = Workspace::new();
            let mut out = Tensor::zeros(B * Q, 1);
            best_us(samples, || {
                plan.execute_into(&mut ws, black_box(&bounds), &mut out)
            })
        })
    });

    // What "of chain" is stated against: the chain the simd kernels issue.
    let (chain32, note32) = ceiling::<f32, 8>(samples, "f32");
    // The plan's `f32` layers run 512-bit vectors where the target has them.
    let wide = chain512(samples);
    let (chain32, note32) = match wide {
        Some(wide) => (
            wide,
            format!("{note32} (256-bit), 512-bit fused chain {wide:.1}"),
        ),
        None => (chain32, note32),
    };
    let (chain64, note64) = ceiling::<f64, 4>(samples, "f64");
    let which = match (FUSED, wide.is_some()) {
        (true, true) => "fused chain in the kernel's type, 512 bits wide for f32",
        (true, false) => "fused chain in the kernel's type",
        _ => "mul+add chain in the kernel's type",
    };

    println!("### Kernel profile: one B = {B} launch of the benchmark network");
    println!();
    println!(
        "backend `{}`, build {} FMA: {note32}, {note64} GFLOP/s per lane; \"of chain\" is of \
         the {which}; best of {samples} samples{}",
        mf_tensor::backend_kind().name(),
        if FUSED { "has" } else { "has no" },
        if quick { " (`--quick`)" } else { "" }
    );
    println!();
    println!("| kernel | 1 lane µs | 2 lanes µs | rate (1 lane) | of chain | per launch | launch µs | share |");
    println!("|---|---:|---:|---:|---:|---:|---:|---:|");
    let budget: f64 = rows.iter().map(|r| r.per_launch as f64 * r.us[0]).sum();
    for r in &rows {
        let (rate, of_chain) = if r.flops > 0.0 {
            let g = r.flops / r.us[0] / 1e3;
            let chain = if r.single { chain32 } else { chain64 };
            (format!("{g:.1} GFLOP/s"), format!("{:.2}", g / chain))
        } else if r.elems > 0.0 {
            (format!("{:.0} Melem/s", r.elems / r.us[0]), String::new())
        } else {
            (String::new(), String::new())
        };
        let (in_launch, share) = if r.per_launch > 0 {
            let us = r.per_launch as f64 * r.us[0];
            (format!("{us:.1}"), format!("{:.0} %", 100.0 * us / budget))
        } else {
            (String::new(), String::new())
        };
        println!(
            "| {} | {:.1} | {:.1} | {rate} | {of_chain} | {} | {in_launch} | {share} |",
            r.name, r.us[0], r.us[1], r.per_launch
        );
    }
    println!("| **sum of the launch's kernels** | {budget:.1} | | | | | {budget:.1} | 100 % |");
    println!(
        "| **`InferencePlan::execute_into`, B = {B}** | {:.1} | {:.1} | | | | | {:.0} % |",
        launch[0],
        launch[1],
        100.0 * launch[0] / budget
    );

    training_section(samples, chain64);
}

/// Boundaries, data points and collocation points per boundary of one
/// training step of the benchmark (`mf-benchmark`'s `train_ddp`).
const TRAIN_B: usize = 8;
const QD: usize = 48;
const QC: usize = 16;

/// The kernels a training step of the benchmark network spends its
/// elementwise time in since `σ⁽ᵏ⁾` became one node — `GeluDeriv` at the
/// data tape's `[384,48]` and the PDE tape's `[128,48]` — and its
/// weight-gradient GEMM `Aᵀ·B` with the transposed pack, each set against
/// the `f64` chain and one measured one-lane `local_gradients`. Calls per
/// step follow from the network: with `n` GELU layers, the data backward
/// runs `n` `σ'` (the GELU VJPs); the PDE forward runs `σ'` and `σ''` per
/// layer, its backward `σ''` and `σ'''` for them and `σ'` for the `n − 1`
/// GELUs the forward Laplacian applies; the `n − 1` trunk layers each take
/// one `Aᵀ·B` on the data tape.
fn training_section(samples: usize, chain64: f64) {
    let mut cfg = SdNetConfig::small(L);
    cfg.conv_channels = vec![OC];
    cfg.hidden = vec![WIDTH; 3];
    let n = cfg.hidden.len();
    let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let ds = Dataset::generate(spec, TRAIN_B, 0);
    let idx: Vec<usize> = (0..TRAIN_B).collect();
    let batch = BatchSampler::new(TRAIN_B, QD, QC, 0).make_batch(&ds, &idx);
    let one_lane = |f: &mut dyn FnMut()| par::with_pool_width(1, || best_us(samples, f));
    let step = one_lane(&mut || {
        black_box(local_gradients(&net, &batch, 0.02));
    });

    // (name, µs, rate, against the chain, calls per step)
    let mut rows: Vec<(String, f64, String, String, usize)> = Vec::new();
    let (data_rows, pde_rows) = (TRAIN_B * QD, TRAIN_B * QC);
    let per_step = |k: u8, rows: usize| match (k, rows == data_rows) {
        (1, true) => n,
        (1, false) => n + n - 1,
        (2, _) => 2 * n,
        _ => n,
    };
    for (k, m) in [(1, pde_rows), (2, pde_rows), (3, pde_rows), (1, data_rows)] {
        let x = filled(m, WIDTH);
        let mut y = Tensor::zeros(m, WIDTH);
        let us = one_lane(&mut || black_box(&x).gelu_deriv_into(k, &mut y));
        let elems = (m * WIDTH) as f64;
        // What one element costs, in multiply-adds of the f64 chain.
        let fmas = us / elems * chain64 / 2.0 * 1e3;
        rows.push((
            format!("f64 gelu_deriv_into k = {k} [{m},{WIDTH}]"),
            us,
            format!("{:.0} Melem/s", elems / us),
            format!("{fmas:.0} multiply-adds / elem"),
            per_step(k, m),
        ));
    }
    // The elementwise node chain `σ'` was before it was one node.
    {
        let x = filled(data_rows, WIDTH);
        let mut t = [(); 11].map(|_| Tensor::zeros(data_rows, WIDTH));
        let us = one_lane(&mut || {
            let [x2, x3, u, th, h1, s, du, hx, hs, t2, d] = &mut t;
            x.mul_into(&x, x2);
            x2.mul_into(&x, x3);
            x.gelu_inner_into(x3, u);
            u.tanh_into(th);
            th.half_one_plus_into(h1);
            th.one_minus_sq_into(s);
            x2.gelu_du_into(du);
            x.scale_into(0.5, hx);
            hx.mul_into(s, hs);
            hs.mul_into(du, t2);
            h1.add_into(t2, d);
        });
        let elems = (data_rows * WIDTH) as f64;
        rows.push((
            format!("f64 σ' as 11 node kernels [{data_rows},{WIDTH}] (before)"),
            us,
            format!("{:.0} Melem/s", elems / us),
            format!(
                "{:.0} multiply-adds / elem",
                us / elems * chain64 / 2.0 * 1e3
            ),
            0,
        ));
    }
    {
        let a = filled(data_rows, WIDTH);
        let g = filled(data_rows, WIDTH);
        let mut out = Tensor::zeros(WIDTH, WIDTH);
        let us = one_lane(&mut || {
            gemm_into(
                black_box(&a),
                Layout::Transposed,
                &g,
                Layout::Normal,
                &mut out,
            )
        });
        let gflops = 2.0 * (data_rows * WIDTH * WIDTH) as f64 / us / 1e3;
        rows.push((
            format!("f64 gemm Aᵀ·B [{WIDTH},{data_rows}]×[{data_rows},{WIDTH}], pack included"),
            us,
            format!("{gflops:.1} GFLOP/s"),
            format!("{:.2} of chain", gflops / chain64),
            n - 1,
        ));
    }

    println!();
    println!("### Training kernels: one `local_gradients` step of the benchmark network, one lane");
    println!();
    println!(
        "{TRAIN_B} boundaries × {QD} data / {QC} collocation points; `local_gradients` \
         {step:.0} µs; the f64 chain runs {chain64:.1} GFLOP/s per lane"
    );
    println!();
    println!("| kernel | 1 lane µs | rate | against the f64 chain | per step | step µs | share |");
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for (name, us, rate, against, calls) in rows {
        let (in_step, share) = if calls > 0 {
            let total = calls as f64 * us;
            (
                format!("{total:.1}"),
                format!("{:.1} %", 100.0 * total / step),
            )
        } else {
            (String::new(), String::new())
        };
        println!("| {name} | {us:.1} | {rate} | {against} | {calls} | {in_step} | {share} |");
    }
}

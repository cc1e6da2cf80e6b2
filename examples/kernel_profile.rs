//! Where one plan launch of the benchmark network goes, kernel by kernel.
//!
//! The network is the one `mf-benchmark` solves with (one 4-channel conv,
//! 3×48 GELU trunk, 9×9 subdomains) and the launch its largest sweep group:
//! B = 64 boundaries × 13 cross points. Every kernel of that launch is timed
//! alone at its launch shape — on one lane and with its rows shared over
//! two — next to two arithmetic chains measured in the same run, separate
//! multiply + add and fused multiply-add. "Of chain" is against the one
//! the simd GEMM issues in this build: the fused chain when the target has
//! the instruction (`mf_tensor::FUSED`), the mul+add chain otherwise. The
//! sum of the kernels is set against the launch itself:
//!
//! ```text
//! cargo run --release --example kernel_profile            # ~20 s
//! cargo run --release --example kernel_profile -- --quick # ~3 s, CI smoke
//! ```
//!
//! Output is a markdown table (CI appends it to the job summary).
use mf_infer::{InferencePlan, Workspace};
use mf_nn::{SdNet, SdNetConfig};
use mf_tensor::par::{self, prelude::*};
use mf_tensor::{
    backend, fmadd, gemm_into, unfold1d_circular_into, Act, Layout, PackedB, Tensor, FUSED,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Boundaries in the launch, cross points per boundary, boundary walk
/// length, conv kernel and channels, trunk width.
const B: usize = 64;
const Q: usize = 13;
const L: usize = 32;
const KW: usize = 5;
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

/// GFLOP/s of `C` independent `LANES`-wide chains of `x = x*a + b` on the
/// calling thread: separate multiply and add, or with `FUSE` the simd
/// backend's own multiply-add (fused when the build has the instruction).
/// Timed in place — behind a closure the chains would live in memory.
fn chain_gflops<const C: usize, const LANES: usize, const FUSE: bool>(samples: usize) -> f64 {
    const ROUNDS: usize = 1 << 14;
    let a = black_box([0.999_999f64; LANES]);
    let b = black_box([1e-7f64; LANES]);
    (0..samples)
        .map(|_| {
            let mut acc = [[1.0f64; LANES]; C];
            let t = Instant::now();
            for _ in 0..ROUNDS {
                for chain in acc.iter_mut() {
                    for l in 0..LANES {
                        chain[l] = if FUSE {
                            fmadd(chain[l], a[l], b[l])
                        } else {
                            chain[l] * a[l] + b[l]
                        };
                    }
                }
            }
            black_box(&mut acc);
            2.0 * (C * LANES * ROUNDS) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

fn filled(rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17) % 97) as f64 * 0.02 - 0.9
    })
}

/// `f(rows of a, rows of out)` over the `m` rows of one kernel call, on one
/// lane or cut into one block of rows per lane.
fn over_rows(lanes: usize, a: &Tensor, out: &mut Tensor, f: impl Fn(&[f64], &mut [f64]) + Sync) {
    let (m, k, n) = (a.rows(), a.cols(), out.cols());
    if lanes == 1 {
        return f(a.as_slice(), out.as_mut_slice());
    }
    let rows = m.div_ceil(lanes);
    out.as_mut_slice()
        .par_chunks_mut(rows * n)
        .enumerate()
        .for_each(|(i, o)| f(&a.as_slice()[i * rows * k..][..o.len() / n * k], o));
}

struct Row {
    name: String,
    /// µs on one lane and on two.
    us: [f64; 2],
    flops: f64,
    elems: f64,
    /// Calls per launch (0: not a step of the launch).
    per_launch: usize,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 3 } else { 15 };
    let mut rows: Vec<Row> = Vec::new();
    let mut time =
        |name: &str, flops: f64, elems: f64, per_launch: usize, run: &mut dyn FnMut(usize)| {
            let us =
                [1, 2].map(|lanes| par::with_pool_width(lanes, || best_us(samples, || run(lanes))));
            rows.push(Row {
                name: name.to_string(),
                us,
                flops,
                elems,
                per_launch,
            });
        };

    // The fused layers of the launch, at their launch shapes.
    let layers: [(&str, usize, usize, usize, Act, usize); 4] = [
        ("conv", B * L, KW, OC, Act::Identity, 1),
        ("split projection", B, L * OC, WIDTH, Act::Identity, 1),
        ("trunk + gelu", B * Q, WIDTH, WIDTH, Act::Gelu, 2),
        ("head", B * Q, WIDTH, 1, Act::Identity, 1),
    ];
    for (what, m, k, n, act, per_launch) in layers {
        let a = filled(m, k);
        let w = PackedB::new(&filled(k, n));
        let bias = filled(1, n);
        let mut out = Tensor::zeros(m, n);
        let macs = (m * k * n) as f64;
        // The activation's share is reported by the gelu row; a layer's
        // GFLOP/s counts its multiply-adds only.
        time(
            &format!("layer [{m},{k}]×[{k},{n}] {what}"),
            2.0 * macs,
            0.0,
            per_launch,
            &mut |lanes| {
                over_rows(lanes, black_box(&a), &mut out, |a, o| {
                    backend().layer(a, &w, Some(bias.as_slice()), act, o)
                })
            },
        );
    }
    // What the launch does besides layers.
    {
        let load = filled(B, L);
        let mut unfolded = Tensor::zeros(B * L, KW);
        time("unfold [64,32]→[2048,5]", 0.0, 0.0, 1, &mut |_| {
            unfold1d_circular_into(black_box(&load), 1, KW, &mut unfolded)
        });
        let x = filled(B * Q, WIDTH);
        let mut y = x.clone();
        time(
            "gelu [832,48] in place (split combine)",
            0.0,
            (B * Q * WIDTH) as f64,
            1,
            &mut |lanes| {
                over_rows(lanes, &x, &mut y, |x, y| {
                    y.copy_from_slice(x);
                    backend().activate(Act::Gelu, y)
                })
            },
        );
    }
    // The unfused kernels the graph path (training) runs, for comparison.
    {
        let (a, w) = (filled(B * Q, WIDTH), filled(WIDTH, WIDTH));
        let mut out = Tensor::zeros(B * Q, WIDTH);
        let flops = 2.0 * (B * Q * WIDTH * WIDTH) as f64;
        time(
            "gemm_into [832,48]×[48,48] (accumulating)",
            flops,
            0.0,
            0,
            &mut |_| gemm_into(black_box(&a), Layout::Normal, &w, Layout::Normal, &mut out),
        );
        let mut y = Tensor::zeros(B * Q, WIDTH);
        let elems = (B * Q * WIDTH) as f64;
        time("gelu_into [832,48]", 0.0, elems, 0, &mut |_| {
            black_box(&a).gelu_into(&mut y)
        });
        time("tanh_into [832,48]", 0.0, elems, 0, &mut |_| {
            black_box(&a).tanh_into(&mut y)
        });
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

    let best = |shapes: [f64; 3]| shapes.into_iter().fold(0.0, f64::max);
    let unfused = best([
        chain_gflops::<12, 4, false>(samples),
        chain_gflops::<8, 8, false>(samples),
        chain_gflops::<10, 8, false>(samples),
    ]);
    // What "of chain" is stated against: the chain the simd GEMM issues.
    let (chain, chains) = if FUSED {
        let fused = best([
            chain_gflops::<12, 4, true>(samples),
            chain_gflops::<8, 8, true>(samples),
            chain_gflops::<10, 8, true>(samples),
        ]);
        let both = format!(
            "build has FMA: mul+add chain {unfused:.1}, fused chain {fused:.1} GFLOP/s per lane, \
             \"of chain\" is of the fused one"
        );
        (fused, both)
    } else {
        let one = format!("build has no FMA: mul+add chain {unfused:.1} GFLOP/s per lane");
        (unfused, one)
    };

    println!("### Kernel profile: one B = {B} launch of the benchmark network");
    println!();
    println!(
        "backend `{}`, {chains}, best of {samples} samples{}",
        mf_tensor::backend_kind().name(),
        if quick { " (`--quick`)" } else { "" }
    );
    println!();
    println!("| kernel | 1 lane µs | 2 lanes µs | rate (1 lane) | of chain | per launch | launch µs | share |");
    println!("|---|---:|---:|---:|---:|---:|---:|---:|");
    let budget: f64 = rows.iter().map(|r| r.per_launch as f64 * r.us[0]).sum();
    for r in &rows {
        let (rate, of_chain) = if r.flops > 0.0 {
            let g = r.flops / r.us[0] / 1e3;
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
}

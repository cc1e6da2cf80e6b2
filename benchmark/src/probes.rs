//! Per-layer metrics, taken from outside the crates: each layer's public
//! functions are called at the shapes and counts the workloads produce and
//! timed here. A traced run of any workload prints all of them — the
//! selected workload's own traced window supplies its layer's numbers, the
//! other three workloads are run at a quarter of the size with one set-up.
//!
//! Bytes moved are computed from array sizes, not measured (CPU host).

use crate::fixture::{self, SPEC};
use crate::run::{Alternate, Run, Size, PROBE_WARMUP};
use crate::{host, inputs, serve, solve, stats, WORKLOADS};
use mf_autodiff::Graph;
use mf_data::{BatchSampler, Dataset};
use mf_dist::Cluster;
use mf_infer::{InferencePlan, Workspace};
use mf_mfp::{DomainSpec, Mfp, MfpConfig, PlanSolver, SubdomainSolver};
use mf_numerics::boundary::apply_boundary;
use mf_serve::{protocol, TcpServer};
use mf_tensor::{gemm_into, Layout, Tensor};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Instant;

/// Query points of one sweep launch per subdomain (the center cross of a
/// 9×9 subdomain) and trunk width of the fixture network.
const Q_CROSS: usize = 13;
const WIDTH: usize = 48;
/// Subdomains in the largest sweep group of the 8×8 domain.
const FAT_BATCH: usize = 64;

/// Median µs per call of `f`: repetitions are doubled until one sample
/// lasts 300 µs, then 15 samples are taken.
fn bench_us(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let sample = |reps: usize, f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    let mut reps = 1;
    while sample(reps, &mut f) * (reps as f64) < 300.0 && reps < 1 << 20 {
        reps *= 2;
    }
    let samples: Vec<f64> = (0..15).map(|_| sample(reps, &mut f)).collect();
    stats::median(&samples)
}

/// Median µs per call over exactly `reps` calls. For the two-rank probes:
/// both ranks must make the same number of calls, which a repetition
/// count found by each rank's own clock would not guarantee.
fn fixed_reps_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

fn filled(rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| {
        0.01 + ((r * 31 + c * 17) % 97) as f64 * 1e-3
    })
}

/// GFLOP/s of `C += A·B` at the given shape and layouts.
fn gemm_gflops(m: usize, k: usize, n: usize, la: Layout, lb: Layout) -> f64 {
    let a = if la == Layout::Normal {
        filled(m, k)
    } else {
        filled(k, m)
    };
    let b = if lb == Layout::Normal {
        filled(k, n)
    } else {
        filled(n, k)
    };
    let mut out = Tensor::zeros(m, n);
    let us = bench_us(|| gemm_into(black_box(&a), la, black_box(&b), lb, &mut out));
    2.0 * (m * k * n) as f64 / us / 1e3
}

/// Multiply+add rate of `C` independent `L`-lane chains of `x = x*a + b`
/// on the calling thread, in GFLOP/s (median of 15 samples of about 1 ms).
/// The loop is timed in place: behind a closure the chains would live in
/// memory and not in registers.
fn chain_gflops<const C: usize, const L: usize>() -> f64 {
    const ROUNDS: usize = 1 << 15;
    let a = black_box([0.999_999f64; L]);
    let b = black_box([1e-7f64; L]);
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let mut acc = [[1.0f64; L]; C];
            let t = Instant::now();
            for _ in 0..ROUNDS {
                for chain in acc.iter_mut() {
                    for l in 0..L {
                        chain[l] = chain[l] * a[l] + b[l];
                    }
                }
            }
            black_box(&mut acc);
            2.0 * (C * L * ROUNDS) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    stats::median(&samples)
}

/// Peak multiply+add rate of the machine without fused multiply-add (the
/// crates never contract `a*b + c`, so this is the ceiling their kernels
/// can reach): every core runs the chain kernel at once, at the register
/// blocking that is fastest on it, and the rates add up.
fn peak_gflops() -> f64 {
    let per_core = || {
        [
            chain_gflops::<12, 4>(),
            chain_gflops::<8, 8>(),
            chain_gflops::<10, 8>(),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    };
    std::thread::scope(|s| {
        let cores: Vec<_> = (0..host::nproc()).map(|_| s.spawn(per_core)).collect();
        cores
            .into_iter()
            .map(|h| h.join().expect("peak probe thread panicked"))
            .sum()
    })
}

/// Read bandwidth over one array of four times the last-level cache.
fn stream_gb_per_s() -> f64 {
    let (llc, from_sysfs) = host::llc_bytes();
    let n = 4 * llc / 8;
    eprintln!(
        "stream probe: last-level cache {} MiB ({}), array {} MiB",
        llc >> 20,
        if from_sysfs { "sysfs" } else { "assumed" },
        (n * 8) >> 20
    );
    let data = vec![1.0f64; n];
    let pass = || {
        let t = Instant::now();
        // Eight partial sums, so that the loop is not bound by add latency.
        let mut s = [0.0f64; 8];
        for chunk in black_box(&data).chunks_exact(8) {
            for l in 0..8 {
                s[l] += chunk[l];
            }
        }
        black_box(s);
        (n * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
    };
    stats::median(&[pass(), pass(), pass()])
}

/// µs of the dense kernels one launch of `b` boundaries runs: the split
/// layer's boundary GEMM, two trunk GEMMs, the head GEMM and three GELUs.
fn launch_kernels_us(b: usize) -> f64 {
    let rows = b * Q_CROSS;
    let emb = fixture::net_config().embedded_len();
    let (g, wg) = (filled(b, emb), filled(emb, WIDTH));
    let (x, w, head) = (filled(rows, WIDTH), filled(WIDTH, WIDTH), filled(WIDTH, 1));
    let (mut e, mut h, mut o) = (
        Tensor::zeros(b, WIDTH),
        Tensor::zeros(rows, WIDTH),
        Tensor::zeros(rows, 1),
    );
    let mut act = Tensor::zeros(rows, WIDTH);
    bench_us(|| {
        gemm_into(&g, Layout::Normal, &wg, Layout::Normal, &mut e);
        x.gelu_into(&mut act);
        for _ in 0..2 {
            gemm_into(&act, Layout::Normal, &w, Layout::Normal, &mut h);
            h.gelu_into(&mut act);
        }
        gemm_into(&act, Layout::Normal, &head, Layout::Normal, &mut o);
        black_box(&mut o);
    })
}

fn tensor_and_machine(out: &mut Vec<(&'static str, f64)>) {
    let rows = FAT_BATCH * Q_CROSS;
    let fat = gemm_gflops(rows, WIDTH, WIDTH, Layout::Normal, Layout::Normal);
    let skinny = gemm_gflops(Q_CROSS, WIDTH, WIDTH, Layout::Normal, Layout::Normal);
    // Backward shapes of a training step (8 boundaries × 48 data points):
    // dW = Xᵀ·dY and dX = dY·Wᵀ.
    let bwd = 8 * 48;
    let tn = gemm_gflops(WIDTH, bwd, WIDTH, Layout::Transposed, Layout::Normal);
    let nt = gemm_gflops(bwd, WIDTH, WIDTH, Layout::Normal, Layout::Transposed);
    let x = filled(rows, WIDTH);
    let mut y = Tensor::zeros(rows, WIDTH);
    let gelu = bench_us(|| black_box(&x).gelu_into(&mut y));
    let tanh = bench_us(|| black_box(&x).tanh_into(&mut y));
    let peak = peak_gflops();
    out.extend([
        ("tensor.gemm_fat_gflops", fat),
        ("tensor.gemm_skinny_gflops", skinny),
        ("tensor.gemm_tn_gflops", 2.0 / (1.0 / tn + 1.0 / nt)),
        ("tensor.gelu_melem_per_s", (rows * WIDTH) as f64 / gelu),
        ("tensor.tanh_melem_per_s", (rows * WIDTH) as f64 / tanh),
        ("machine.peak_gflops", peak),
        ("machine.stream_gb_per_s", stream_gb_per_s()),
        ("tensor.gemm_fat_ceiling_share", fat / peak),
    ]);
}

fn infer(out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let net = fixture::load()?;
    let d = solve::domain();
    let cross = d.offsets_to_points(&d.center_cross_offsets());
    let compile = bench_us(|| {
        black_box(InferencePlan::compile(&net, &cross));
    });
    let plan = InferencePlan::compile(&net, &cross);
    // µs per launch at `b` boundaries, and the pool misses after the first.
    let launch = |b: usize| {
        let mut ws = Workspace::new();
        let boundaries = filled(b, SPEC.boundary_len());
        let mut o = Tensor::zeros(b * Q_CROSS, 1);
        let us = bench_us(|| plan.execute_into(&mut ws, black_box(&boundaries), &mut o));
        (us, ws.warm_allocs())
    };
    let (fat, fat_allocs) = launch(FAT_BATCH);
    let (tiny, tiny_allocs) = launch(1);
    out.extend([
        ("infer.compile_ms", compile / 1e3),
        ("infer.launch_fat_us", fat),
        ("infer.launch_tiny_us", tiny),
        // What a launch costs beyond its kernels is the difference of these
        // two; at one boundary it is within the resolution of probing
        // kernels one by one (-3 µs measured), so it is not a metric.
        ("infer.launch_tiny_kernels_us", launch_kernels_us(1)),
        ("infer.warm_allocs", (fat_allocs + tiny_allocs) as f64),
    ]);
    Ok(())
}

/// µs of one plan launch at each of the four sweep-group sizes of the
/// solve domain, summed: the plan-launch time of one iteration.
fn sweep_launches_us(solver: &PlanSolver) -> f64 {
    let d = solve::domain();
    let cross = d.offsets_to_points(&d.center_cross_offsets());
    Mfp::new(solver, d)
        .sweep_groups()
        .iter()
        .map(|g| {
            let boundaries = filled(g.len(), SPEC.boundary_len());
            bench_us(|| {
                black_box(solver.solve_batch(&boundaries, &cross));
            })
        })
        .sum()
}

fn mfp(seed: u64, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let solver = PlanSolver::new(fixture::load()?, SPEC);
    let d = solve::domain();
    let bc = &inputs::jittered_pool(d.boundary_len(), 1, seed)[0];
    let mut grid = solve::reference(&d, bc)?;
    let mfp = Mfp::new(&solver, d);
    let dense_fill = bench_us(|| mfp.dense_fill(&mut grid)) / 1e3;
    let coarse = bench_us(|| {
        let mut g = Tensor::zeros(d.ny(), d.nx());
        apply_boundary(&mut g, bc);
        d.coarse_initialize(&mut g);
        black_box(g);
    }) / 1e3;

    // The serve path's batching: 1×1 requests through `run_many`, alone
    // and 32 at a time.
    let d1 = DomainSpec::new(SPEC, 1, 1);
    let small = inputs::jittered_pool(SPEC.boundary_len(), serve::OUTSTANDING, seed);
    let cfg = MfpConfig {
        max_iters: 100,
        ..Default::default()
    };
    let mfp1 = Mfp::new(&solver, d1);
    let b1 = bench_us(|| {
        black_box(mfp1.run_many(&small[..1], &cfg));
    });
    let b32 = bench_us(|| {
        black_box(mfp1.run_many(&small, &cfg));
    }) / small.len() as f64;

    // One solve of exactly 20 iterations next to the launch probes, so
    // that both sides of the share see the same host conditions.
    const ITERS: usize = 20;
    let fixed = MfpConfig {
        max_iters: ITERS,
        tol: 0.0,
        ..Default::default()
    };
    let solve_ms = bench_us(|| {
        black_box(mfp.run(bc, &fixed));
    }) / 1e3;
    let attributed_ms = ITERS as f64 * sweep_launches_us(&solver) / 1e3 + dense_fill;
    out.extend([
        ("mfp.dense_fill_ms", dense_fill),
        ("mfp.coarse_init_ms", coarse),
        ("mfp.run_many_req_us_b1", b1),
        ("mfp.run_many_req_us_b32", b32),
        ("mfp.batch_gain", b1 / b32),
        ("solve.attributed_share", attributed_ms / solve_ms),
    ]);
    Ok(())
}

/// Two-rank probes of `mf-dist`: spawning the ranks, a round trip, and the
/// two allreduce sizes the workloads use (one element for the solve's
/// convergence check, the parameter count for the gradient sync).
fn dist(out: &mut Vec<(&'static str, f64)>) {
    let spawn = bench_us(|| {
        black_box(Cluster::run(2, |c| c.rank()));
    });
    let params = fixture::fresh_net(0).count_params();
    let timings = Cluster::run(2, |comm| {
        let rank = comm.rank();
        let pingpong = fixed_reps_us(400, || {
            if rank == 0 {
                comm.send(1, 7, &[1.0]);
                black_box(comm.recv(1, 7));
            } else {
                black_box(comm.recv(0, 7));
                comm.send(0, 7, &[1.0]);
            }
        });
        let mut one = [1.0];
        let small = fixed_reps_us(400, || comm.allreduce_sum(&mut one));
        let mut grad = vec![1e-3; params];
        let large = fixed_reps_us(200, || comm.allreduce_mean(&mut grad));
        (pingpong, small, large)
    });
    let (pingpong, small, large) = timings[0];
    out.extend([
        ("dist.spawn_ms", spawn / 1e3),
        ("dist.pingpong_us", pingpong),
        ("dist.allreduce_small_us", small),
        ("dist.allreduce_grad_us", large),
    ]);
}

/// Median µs of 200 sequential requests over one real `TcpServer`
/// connection, minus the same requests answered in process.
fn tcp_rtt_us(seed: u64) -> Result<f64, String> {
    const REQUESTS: usize = 200;
    let pool = inputs::jittered_pool(SPEC.boundary_len(), 8, seed);
    let lines: Vec<String> = pool
        .iter()
        .enumerate()
        .map(|(k, bc)| serve::request_line(k, bc))
        .collect();
    let service = Arc::new(serve::start_service()?);
    let io = |e: std::io::Error| format!("tcp probe: {e}");
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").map_err(io)?;
    let stream = std::net::TcpStream::connect(server.addr()).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut writer = stream.try_clone().map_err(io)?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let mut over_tcp = Vec::with_capacity(REQUESTS);
    let mut in_process = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let line = &lines[i % lines.len()];
        let t = Instant::now();
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(io)?;
        reply.clear();
        reader.read_line(&mut reply).map_err(io)?;
        over_tcp.push(t.elapsed().as_secs_f64() * 1e6);
        if !reply.contains("\"status\":\"ok\"") {
            return Err(format!("tcp probe: unexpected reply {reply:?}"));
        }
        let t = Instant::now();
        let wire = protocol::parse_request(line)?;
        let resp = service
            .solve_blocking(protocol::to_solve_request(&wire, service.spec()))
            .map_err(|e| e.to_string())?;
        black_box(protocol::render_ok(wire.id, &resp));
        in_process.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&over_tcp) - stats::median(&in_process))
}

fn train_and_data(seed: u64, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let ds = Dataset::generate(SPEC, 64, seed);
    let gen = bench_us(|| {
        black_box(Dataset::generate(SPEC, 64, seed));
    }) / 64.0;
    let net = fixture::fresh_net(0);
    let batch = BatchSampler::new(8, 48, 16, 0).make_batch(&ds, &[0, 1, 2, 3, 4, 5, 6, 7]);
    let mut g = Graph::new();
    let mut forward = |pde: bool| {
        bench_us(|| {
            g.clear();
            let bound = net.params.bind(&mut g);
            let loss = if pde {
                mf_train::pde_loss(&mut g, &net, &bound, &batch)
            } else {
                mf_train::data_loss(&mut g, &net, &bound, &batch)
            };
            black_box(g.value(loss).item());
        }) / 1e3
    };
    let (fwd_data, fwd_pde) = (forward(false), forward(true));
    let d = solve::domain();
    let bc = &inputs::jittered_pool(d.boundary_len(), 1, seed)[0];
    solve::reference(&d, bc)?;
    let mg = bench_us(|| {
        black_box(solve::reference(&d, bc).is_ok());
    });
    let load = bench_us(|| {
        black_box(fixture::load().is_ok());
    });
    out.extend([
        ("train.fwd_data_ms", fwd_data),
        ("train.fwd_pde_ms", fwd_pde),
        ("data.gen_ms_per_sample", gen / 1e3),
        ("numerics.mg_solve_ms", mg / 1e3),
        ("nn.load_ms", load / 1e3),
    ]);
    Ok(())
}

/// A traced window of `workload` at a quarter of the size with one set-up
/// and a short warm-up: what the layer probes run of the workloads not
/// selected.
fn probe_size(workload: &str, seconds: f64) -> Size {
    Size {
        setup_reps: 1,
        warmup: PROBE_WARMUP,
        ..crate::size_for(workload, seconds / 4.0, true)
    }
}

/// `units_per_s` with every observability switch off ÷ with the program
/// defaults, from one window whose slices alternate between the two.
fn switch_overhead(workload: &str, seed: u64, seconds: f64) -> Result<f64, String> {
    let size = Size {
        alternate: Alternate::Switches,
        ..probe_size(workload, seconds)
    };
    let run = crate::run_workload(workload, seed, &size);
    crate::run::set_switches(true);
    Ok(run?.alternation_ratio(&size))
}

/// Every per-layer metric by name, for a traced run of `selected` whose
/// window is `selected_run`. Units come from `BENCHMARK.json`.
pub fn per_layer(
    selected: &str,
    seed: u64,
    seconds: f64,
    selected_run: &Run,
    size: &Size,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    tensor_and_machine(&mut out);
    infer(&mut out)?;

    // The other workloads at a quarter of the size, spans on in the even
    // slices so that their layer spans exist, one set-up each.
    let mut others: Vec<(&str, Run)> = Vec::new();
    for w in WORKLOADS.into_iter().filter(|w| *w != selected) {
        others.push((w, crate::run_workload(w, seed, &probe_size(w, seconds))?));
    }
    let run_of = |w: &str| {
        others
            .iter()
            .find(|(n, _)| *n == w)
            .map_or(selected_run, |(_, r)| r)
    };
    let (seq, dist_run) = (run_of("solve_seq"), run_of("solve_dist"));
    for r in WORKLOADS.map(run_of) {
        out.extend(r.facts.iter().copied());
    }
    mfp(seed, &mut out)?;
    dist(&mut out);
    out.push((
        "dist.scaling_eff",
        seq.fact("solve.unit_ms_p50") / (solve::RANKS as f64 * dist_run.fact("solve.unit_ms_p50")),
    ));
    out.push(("serve.tcp_rtt_us", tcp_rtt_us(seed)?));
    train_and_data(seed, &mut out)?;
    out.push((
        "obs.overhead_solve",
        switch_overhead("solve_seq", seed, seconds)?,
    ));
    out.push((
        "obs.overhead_serve",
        switch_overhead("serve_lines", seed, seconds)?,
    ));
    out.push(("bench.trace_overhead", selected_run.alternation_ratio(size)));
    out.push(("setup.first_ms", selected_run.setup_s[0] * 1e3));

    Ok(out)
}

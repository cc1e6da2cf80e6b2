//! Contract of the process-wide compute pool and its thread budget
//! (`mosaic_flow::tensor::par`), and the property the whole stack relies
//! on: results do not depend on how wide the pool is.
//!
//! Widths other than the machine's are reached through
//! `par::with_pool_width`, which serves the calling thread's parallel
//! calls from a private pool for the duration of a closure. Interleavings
//! are forced with barriers, never with sleeps. `tests/pool_spawns.rs`
//! holds the one test that counts OS threads, alone in its process.

use mosaic_flow::prelude::*;
use mosaic_flow::tensor::par::{self, prelude::*};
use mosaic_flow::tensor::{gemm, Layout};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};
use std::thread::ThreadId;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn spec() -> SubdomainSpec {
    SubdomainSpec { m: 9, spatial: 0.5 }
}

/// The benchmark's trunk width, so a sweep group crosses the fan-out
/// threshold of `InferencePlan::execute_into`.
fn wide_net(seed: u64) -> SdNet {
    let mut cfg = SdNetConfig::small(spec().boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![48, 48];
    cfg.coord_fourier = 2;
    SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed))
}

fn random(seed: u64, rows: usize, cols: usize) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Threads that ran a task of one `par_chunks_mut` over `tasks` chunks,
/// each with whether it is a pool worker.
fn threads_used(tasks: usize) -> HashSet<(ThreadId, bool)> {
    let seen = Mutex::new(HashSet::new());
    vec![0u8; tasks].par_chunks_mut(1).for_each(|_| {
        let entry = (std::thread::current().id(), par::lane() != 0);
        seen.lock().unwrap().insert(entry);
    });
    seen.into_inner().unwrap()
}

#[test]
fn a_task_panic_reaches_the_caller_with_its_message_and_the_pool_serves_on() {
    // On the process-wide pool (however wide this machine makes it) ...
    let caught = catch_unwind(AssertUnwindSafe(|| {
        [0u8; 64].par_chunks_mut(1).enumerate().for_each(|(i, _)| {
            assert!(i != 41, "band {i} is broken");
        });
    }));
    let payload = caught.expect_err("the task's panic must surface");
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted message");
    assert!(message.contains("band 41 is broken"), "{message}");
    let mut data = vec![0usize; 64];
    data.par_chunks_mut(4)
        .enumerate()
        .for_each(|(i, c)| c.fill(i));
    assert!(data.iter().enumerate().all(|(k, &v)| v == k / 4));

    // ... and on a 2-lane pool with the panic forced onto the worker.
    par::with_pool_width(2, || {
        let both_running = Barrier::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            [0u8; 2].par_chunks_mut(1).for_each(|_| {
                both_running.wait();
                assert!(par::lane() == 0, "lane {} gave up", par::lane());
            });
        }));
        let payload = caught.expect_err("the worker's panic must surface");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(message.contains("lane 1 gave up"), "{message}");
        let both_running = Barrier::new(2);
        [0u8; 2].par_chunks_mut(1).for_each(|_| {
            both_running.wait();
        });
    });
}

#[test]
fn nested_and_concurrent_calls_complete_and_stay_inside_the_budget() {
    // As many callers as cores, each declared a compute lane, each
    // fanning out nested calls at once: every task must run on the thread
    // that made the call, so the process never computes on more threads
    // than it has cores.
    let callers = cores().max(2);
    let all_started = Barrier::new(callers);
    std::thread::scope(|scope| {
        for _ in 0..callers {
            scope.spawn(|| {
                let _lane = par::compute_lanes(callers);
                all_started.wait();
                for _ in 0..50 {
                    let me = HashSet::from([(std::thread::current().id(), false)]);
                    assert_eq!(threads_used(32), me, "a lane's kernels left its thread");
                    let mut grid = vec![0usize; 16 * 16];
                    grid.par_chunks_mut(16).enumerate().for_each(|(r, row)| {
                        row.par_chunks_mut(4)
                            .enumerate()
                            .for_each(|(c, cell)| cell.fill(r * 4 + c));
                    });
                    assert!(grid
                        .iter()
                        .enumerate()
                        .all(|(k, &v)| v == (k / 16) * 4 + (k % 16) / 4));
                }
            });
        }
    });

    // Undeclared callers compete for the one lease: whoever holds it gets
    // the workers, the others run inline. A call's tasks therefore run on
    // its own thread and the pool's workers — never on another caller's.
    let all_started = Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                all_started.wait();
                for _ in 0..200 {
                    let me = std::thread::current().id();
                    let used = threads_used(64);
                    assert!(used.iter().all(|&(id, worker)| worker || id == me));
                    let workers = used.iter().filter(|&&(_, worker)| worker).count();
                    assert!(workers < cores(), "{workers} workers on {} cores", cores());
                }
            });
        }
    });
}

#[test]
fn gemm_is_bitwise_equal_at_pool_widths_1_2_4() {
    use Layout::{Normal as N, Transposed as T};
    // Sweep-group forward, and the training step's forward, dW = Xᵀ·dY
    // and dX = dY·Wᵀ at 8 boundaries × 48 points.
    let cases = [
        (random(1, 832, 48), N, random(2, 48, 48), N),
        (random(3, 384, 48), N, random(4, 48, 48), N),
        (random(5, 384, 48), T, random(6, 384, 48), N),
        (random(7, 384, 48), N, random(8, 48, 48), T),
        // A ragged last band.
        (random(9, 333, 64), N, random(10, 64, 40), N),
    ];
    for (i, (a, la, b, lb)) in cases.iter().enumerate() {
        let want = par::with_pool_width(1, || gemm(a, *la, b, *lb));
        for width in [2, 4] {
            let got = par::with_pool_width(width, || gemm(a, *la, b, *lb));
            assert_eq!(bits(&want), bits(&got), "case {i}, width {width}");
        }
    }
}

#[test]
fn fat_plan_launch_is_bitwise_equal_and_allocation_free_at_widths_1_2_4() {
    let net = wide_net(3);
    let domain = DomainSpec::new(spec(), 2, 2);
    let cross = domain.offsets_to_points(&domain.center_cross_offsets());
    let plan = InferencePlan::compile(&net, &cross);
    let boundaries = random(4, 64, spec().boundary_len());
    let launch = |width: usize| {
        par::with_pool_width(width, || {
            let mut ws = Workspace::new();
            let mut out = Tensor::zeros(64 * plan.q(), 1);
            for _ in 0..30 {
                plan.execute_into(&mut ws, &boundaries, &mut out);
            }
            (bits(&out), ws.warm_allocs())
        })
    };
    let (want, warm) = launch(1);
    assert_eq!(warm, 0);
    // The graph path is the reference for the bits themselves.
    let tiled = Tensor::vstack(&vec![cross.clone(); 64]);
    assert_eq!(want, bits(&net.predict(&boundaries, &tiled, plan.q())));
    for width in [2, 4] {
        let (got, warm) = launch(width);
        assert_eq!(want, got, "width {width}");
        assert_eq!(warm, 0, "width {width}: a warm lane allocated");
    }
}

#[test]
fn a_full_solve_is_bitwise_equal_at_widths_1_2_4() {
    let solver = PlanSolver::new(wide_net(5), spec());
    // 7×7 overlapping subdomains: sweep groups of 16, 12, 12 and 9.
    let domain = DomainSpec::new(spec(), 4, 4);
    let bc = random(6, 1, domain.boundary_len());
    let cfg = MfpConfig {
        max_iters: 6,
        tol: 0.0,
        ..Default::default()
    };
    let solve = |width: usize| {
        par::with_pool_width(width, || {
            let r = Mfp::new(&solver, domain).run(&bc, &cfg);
            (
                bits(&r.grid),
                r.deltas.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            )
        })
    };
    let want = solve(1);
    for width in [2, 4] {
        assert_eq!(want, solve(width), "width {width}");
    }
}

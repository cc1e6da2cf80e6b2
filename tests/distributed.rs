//! Integration tests of the distributed stack: the Algorithm-2 predictor
//! across processor counts and the simulated cluster underneath it.

use mosaic_flow::dist::{Cluster, PerfModel};
use mosaic_flow::numerics::boundary::{boundary_coords, grid_with_boundary};
use mosaic_flow::numerics::{solve_dirichlet, Poisson};
use mosaic_flow::prelude::*;
use mosaic_flow::tensor::Tensor;

fn spec() -> SubdomainSpec {
    SubdomainSpec { m: 9, spatial: 0.5 }
}

fn gp_bc(domain: &DomainSpec, seed: u64) -> Tensor {
    use rand::SeedableRng;
    let mut sampler = BoundarySampler::new(domain.boundary_len(), (0.4, 0.8), (0.5, 1.0), true);
    sampler.sample(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed))
}

fn reference(domain: &DomainSpec, bc: &Tensor) -> Tensor {
    let guess = grid_with_boundary(domain.ny(), domain.nx(), bc);
    let (sol, st) = solve_dirichlet(
        &Poisson::laplace(domain.ny(), domain.nx(), domain.h()),
        &guess,
        1e-9,
    );
    assert!(st.converged);
    sol
}

#[test]
fn distributed_mfp_is_correct_for_1_2_4_8_ranks() {
    let domain = DomainSpec::new(spec(), 4, 2);
    let oracle = OracleSolver::new(spec(), 1e-9);
    let bc = gp_bc(&domain, 1);
    let refsol = reference(&domain, &bc);
    for ranks in [1usize, 2, 4, 8] {
        let res = run_distributed(
            &oracle,
            &domain,
            &bc,
            ranks,
            &DistMfpConfig {
                max_iters: 800,
                tol: 1e-8,
                ..Default::default()
            },
        );
        assert!(res.converged, "P={ranks} did not converge");
        let mae = res.grid.mean_abs_diff(&refsol);
        assert!(mae < 1e-3, "P={ranks}: MAE {mae}");
        assert_eq!(res.reports.len(), ranks);
    }
}

#[test]
fn accelerated_iteration_needs_at_most_half_the_sweeps() {
    // `mosaic-flow solve --domain 8x8 --oracle --ranks 4` (sin boundary;
    // the CLI's oracle tolerance, `max_iters` and `tol`) against the same
    // run with `--one-level`, the paper's Algorithm 2 as printed.
    let domain = DomainSpec::new(spec(), 8, 8);
    let oracle = OracleSolver::new(spec(), 1e-9);
    let bc = mosaic_flow::numerics::boundary::boundary_from_fn(domain.ny(), domain.nx(), |t| {
        (2.0 * std::f64::consts::PI * t).sin()
    });
    let sweeps = |accelerate: bool| {
        let cfg = DistMfpConfig {
            max_iters: 2000,
            tol: 1e-6,
            accelerate,
            ..Default::default()
        };
        let res = run_distributed(&oracle, &domain, &bc, 4, &cfg);
        assert!(res.converged, "accelerate = {accelerate}: not converged");
        res.iterations
    };
    let (accelerated, one_level) = (sweeps(true), sweeps(false));
    assert!(
        2 * accelerated <= one_level,
        "{accelerated} accelerated sweeps against {one_level} one-level ones"
    );
}

#[test]
fn iteration_count_grows_mildly_with_rank_count() {
    // Table 4's qualitative claim: relaxed synchronization costs a few
    // percent more iterations, not multiples.
    let domain = DomainSpec::new(spec(), 4, 4);
    let oracle = OracleSolver::new(spec(), 1e-9);
    let bc = gp_bc(&domain, 2);
    let iters = |ranks: usize, accelerate: bool| {
        let res = run_distributed(
            &oracle,
            &domain,
            &bc,
            ranks,
            &DistMfpConfig {
                max_iters: 1500,
                tol: 1e-7,
                accelerate,
                ..Default::default()
            },
        );
        assert!(res.converged, "P={ranks} did not converge");
        res.iterations
    };
    // The paper's one-level iteration.
    let i1 = iters(1, false);
    let i4 = iters(4, false);
    let i16 = iters(16, false);
    assert!(i4 >= i1, "P=4 ({i4}) vs P=1 ({i1})");
    assert!(i16 >= i4, "P=16 ({i16}) vs P=4 ({i4})");
    assert!(
        i16 <= i1 * 3,
        "relaxation should cost a mild factor, got {i1} -> {i16}"
    );
    // The accelerated default mixes with global coefficients, so the
    // relaxation costs it no more: a fraction of the one-level count at
    // every rank count.
    for ranks in [1, 4, 16] {
        let accelerated = iters(ranks, true);
        assert!(
            3 * accelerated <= i1,
            "P={ranks}: {accelerated} accelerated iterations vs {i1} one-level"
        );
    }
}

#[test]
fn halo_bytes_per_rank_shrink_with_more_ranks() {
    // The alpha-beta analysis (§4.3): per-rank bandwidth scales with
    // N/sqrt(P); fixed global domain + more ranks = fewer bytes per rank
    // per iteration.
    let domain = DomainSpec::new(spec(), 8, 8);
    let oracle = OracleSolver::new(spec(), 1e-9);
    let bc = gp_bc(&domain, 3);
    let bytes_per_iter = |ranks: usize| {
        let res = run_distributed(
            &oracle,
            &domain,
            &bc,
            ranks,
            &DistMfpConfig {
                max_iters: 5,
                tol: 0.0,
                // Halo traffic only: with `tol = 0` the one-level
                // iteration has no allreduce.
                accelerate: false,
                ..Default::default()
            },
        );
        // Interior ranks have the most neighbors; take the max of the
        // iteration-phase (halo) traffic only.
        res.reports
            .iter()
            .map(|r| r.halo.bytes_sent / res.iterations.max(1))
            .max()
            .unwrap()
    };
    // Compare two processor counts that both have interior ranks (8
    // neighbors), so the per-rank maximum is apples-to-apples.
    let b16 = bytes_per_iter(16);
    let b64 = bytes_per_iter(64);
    assert!(
        b64 < b16,
        "per-rank halo bytes should shrink with sqrt(P): P=16 {b16} vs P=64 {b64}"
    );
    // Roughly the sqrt(P) law: doubling sqrt(P) should halve the bytes
    // (allow generous slack for lattice discreteness).
    let ratio = b16 as f64 / b64 as f64;
    assert!((1.4..3.0).contains(&ratio), "scaling ratio {ratio}");
}

#[test]
fn modeled_comm_time_matches_cost_formula_shape() {
    let model = PerfModel::a30_cluster();
    let domain = DomainSpec::new(spec(), 4, 4);
    let oracle = OracleSolver::new(spec(), 1e-9);
    let bc = gp_bc(&domain, 4);
    let res = run_distributed(
        &oracle,
        &domain,
        &bc,
        4,
        &DistMfpConfig {
            max_iters: 20,
            tol: 0.0,
            ..Default::default()
        },
    );
    // Measured-counter modeled time and the closed-form §4.3 cost must
    // agree within an order of magnitude (the formula ignores edge ranks
    // and lattice detail).
    let measured: f64 = res
        .reports
        .iter()
        .map(|r| model.time_for(&r.comm))
        .fold(0.0, f64::max);
    let formula = model.mfp_comm_cost(res.iterations, domain.nx(), 2, 4);
    assert!(measured > 0.0 && formula > 0.0);
    let ratio = measured / formula;
    assert!(
        (0.05..20.0).contains(&ratio),
        "counter-based {measured:.2e} vs formula {formula:.2e} (ratio {ratio:.2})"
    );
}

#[test]
fn cluster_supports_mixed_collectives_under_load() {
    // Stress the communicator the way the trainer and MFP do together:
    // interleaved halo exchanges, allreduces and allgathers.
    let outs = Cluster::run(6, |comm| {
        let rank = comm.rank();
        let mut acc = 0.0;
        for it in 0..50 {
            let peers: Vec<(usize, Vec<f64>)> = (0..6)
                .filter(|&p| p != rank)
                .map(|p| (p, vec![rank as f64 + it as f64; 8]))
                .collect();
            let got = comm.exchange(&peers, it);
            acc += got.iter().map(|(_, v)| v[0]).sum::<f64>();
            let mut buf = vec![1.0; 64];
            comm.allreduce_sum(&mut buf);
            assert_eq!(buf[0], 6.0);
        }
        let gathered = comm.allgather(&[acc]);
        gathered.iter().map(|v| v[0]).sum::<f64>()
    });
    // Every rank computed the same global total.
    for w in outs.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-9);
    }
}

#[test]
fn boundary_condition_is_exact_in_distributed_result() {
    let domain = DomainSpec::new(spec(), 2, 2);
    let oracle = OracleSolver::new(spec(), 1e-9);
    let bc = gp_bc(&domain, 5);
    let res = run_distributed(
        &oracle,
        &domain,
        &bc,
        4,
        &DistMfpConfig {
            max_iters: 50,
            tol: 0.0,
            ..Default::default()
        },
    );
    let coords = boundary_coords(domain.ny(), domain.nx());
    for (k, &(j, i)) in coords.iter().enumerate() {
        assert!(
            (res.grid.get(j, i) - bc.as_slice()[k]).abs() < 1e-12,
            "boundary point {k} modified"
        );
    }
}

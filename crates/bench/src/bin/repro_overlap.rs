//! **Overlapped halo exchange**: pooled-pack-buffer allocation count on
//! real threads, plus alpha–beta-modeled overlap ratios at simulated
//! 64–1024 ranks.
//!
//! Two parts:
//!
//! 1. **Real threads (P=4)** — the shipping schedule runs with
//!    receiver-side delay injection standing in for real wire latency, so
//!    the interior pass has something to hide. Gates the pooled pack
//!    buffers' `overlap.warm_allocs = 0`. (That the schedule is bitwise the
//!    alternating one, and the 1.4× it measured over it under these
//!    delays, are recorded in CHANGES.md PR 10; the equality now lives as
//!    the unit test `overlapped_and_alternating_schedules_are_bitwise_identical`
//!    in `crates/mfp`.)
//!
//! 2. **Modeled sweeps (P = 64…1024)** — a fixed 32×32-atom domain is
//!    solved at 64/256/512/1024 simulated ranks under the mpi4py-like
//!    alpha–beta model the paper actually measured. The fleet-wide
//!    modeled `dist.overlap_ratio` is gated at 256 and 1024 ranks, and
//!    iteration counts must stay inside the paper's Fig-9/Table-4
//!    envelope (mild growth with rank count — 3200→3500 over 1→32 GPUs,
//!    i.e. well under 1.5×).
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_overlap [--json PATH] [--summary PATH]
//! ```

use mf_bench::*;
use mf_data::SubdomainSpec;
use mf_dist::{CartesianGrid, FaultPlan, PerfModel, RankOrder};
use mf_mfp::{run_distributed, DistMfpConfig, DistMfpResult, DomainSpec, OracleSolver};
use std::fmt::Write as _;

/// `--summary PATH`: where to write the CI step-summary markdown.
fn summary_out() -> Option<String> {
    std::env::args().skip_while(|a| a != "--summary").nth(1)
}

/// Current value of the pooled-pack-buffer miss counter.
fn warm_allocs_counter() -> u64 {
    mf_telemetry::snapshot()
        .metrics
        .iter()
        .find_map(|(n, v)| match (n.as_str(), v) {
            ("overlap.warm_allocs", mf_telemetry::MetricValue::Counter(c)) => Some(*c),
            _ => None,
        })
        .unwrap_or(0)
}

/// Fleet-wide hideable fraction: `Σ min(compute, modeled) / Σ modeled`
/// across ranks (the run-level `dist.overlap_ratio`).
fn fleet_ratio(res: &DistMfpResult) -> f64 {
    let mut hideable = 0.0;
    let mut modeled = 0.0;
    for r in &res.reports {
        hideable += r.overlap.overlap_ratio * r.overlap.modeled_comm_s;
        modeled += r.overlap.modeled_comm_s;
    }
    if modeled > 0.0 {
        hideable / modeled
    } else {
        1.0
    }
}

/// Modeled wall clock of the slowest rank: compute plus the
/// non-hideable excess of the wire time.
fn modeled_wall(res: &DistMfpResult) -> f64 {
    res.reports.iter().fold(0.0_f64, |wall, r| {
        let o = &r.overlap;
        wall.max(o.compute_s + o.modeled_comm_s * (1.0 - o.overlap_ratio))
    })
}

fn main() {
    let trace = init_telemetry();
    let spec = SubdomainSpec { m: 5, spatial: 0.5 };
    let mut md = String::from("### repro_overlap\n");

    // ---- Part 1: real threads under delay injection ----------------------
    //
    // Geometry is chosen so a 4-rank split leaves ~60% of each rank's
    // subdomains strictly inside the halo fringe: the interior pass has
    // real work to hide the injected delays (max 3 ms, drawn per message)
    // behind.
    let part_a_ranks = 4;
    let part_a_iters = 40;
    let rounds = 5;
    let domain_a = DomainSpec::new(spec, 20, 20);
    let bc_a = gp_boundary(&domain_a, 9);
    let oracle = OracleSolver::new(spec, 1e-9);
    let cfg_a = DistMfpConfig {
        max_iters: part_a_iters,
        tol: 0.0,
        // Halo traffic only, as at PR 10: with `tol = 0` the one-level
        // iteration has no allreduce for the injected delays to hit.
        accelerate: false,
        plan: FaultPlan {
            seed: 1234,
            delay_rate: 1.0,
            delay_max_us: 3_000,
            ..FaultPlan::none()
        },
        ..Default::default()
    };

    println!(
        "Part 1: P={part_a_ranks}, {}x{} grid, {} iterations x {rounds} runs, \
         delays <= {} us on every message",
        domain_a.ny(),
        domain_a.nx(),
        part_a_iters,
        cfg_a.plan.delay_max_us
    );
    let allocs_before = warm_allocs_counter();
    for _ in 0..rounds {
        let run = run_distributed(&oracle, &domain_a, &bc_a, part_a_ranks, &cfg_a);
        assert!(
            run.reports
                .iter()
                .map(|r| r.interior_subdomains)
                .sum::<usize>()
                > 0,
            "no interior work found to overlap"
        );
    }

    // Every pack after the first reuses its pooled buffer, so the only
    // tolerated counter growth is the cold first-touch per neighbor
    // link per run.
    let grid4 = CartesianGrid::square_for(part_a_ranks, RankOrder::RowMajor);
    let cold_per_run: u64 = (0..part_a_ranks)
        .map(|r| grid4.neighbors(r).len() as u64)
        .sum();
    let warm_allocs =
        (warm_allocs_counter() - allocs_before).saturating_sub(rounds as u64 * cold_per_run);
    println!("warm pack allocations {warm_allocs} (cold first-touch: {cold_per_run} per run)");
    let _ = writeln!(
        md,
        "\n**Measured (P={part_a_ranks}, real threads, {rounds} runs under \
         injected delays):** warm pack allocations: {warm_allocs}.\n"
    );

    // ---- Part 2: modeled overlap at simulated 64-1024 ranks --------------
    //
    // One fixed domain, so every world size solves the same problem.
    // The model is the mpi4py-serialized transport the paper measured:
    // latency-dominated small messages, which is exactly the regime
    // where the hierarchical tree allreduce (selected from 64 ranks up)
    // and the overlapped schedule pay off.
    let domain_b = DomainSpec::new(spec, 32, 32);
    let bc_b = gp_boundary(&domain_b, 9);
    let cfg_b = DistMfpConfig {
        max_iters: 200,
        tol: 2e-6,
        accelerate: true,
        perf_model: PerfModel::mpi4py_serialized(),
        ..Default::default()
    };

    println!(
        "\nPart 2: modeled sweeps on a {}x{} grid ({} atomic subdomains), mpi4py alpha-beta model",
        domain_b.ny(),
        domain_b.nx(),
        domain_b.atomic_subdomains().len()
    );
    let worlds = [64usize, 256, 512, 1024];
    let mut rows_b = Vec::new();
    let mut iters64 = 0usize;
    let mut modeled = std::collections::BTreeMap::new();
    for &p in &worlds {
        let ship = run_distributed(&oracle, &domain_b, &bc_b, p, &cfg_b);
        assert!(ship.converged, "P={p} did not converge");
        if p == 64 {
            iters64 = ship.iterations;
        }

        // Fig-9 envelope: iteration growth vs the 64-rank run stays
        // mild (the paper sees ~9% over 32x more ranks; 1.5x is the
        // generous outer bound).
        let iter_ratio = ship.iterations as f64 / iters64 as f64;
        assert!(
            iter_ratio <= 1.5,
            "P={p}: {} iterations vs {} at 64 ranks breaks the Fig-9 envelope",
            ship.iterations,
            iters64
        );

        let ratio = fleet_ratio(&ship);
        modeled.insert(p, (ratio, iter_ratio));
        rows_b.push(vec![
            p.to_string(),
            ship.iterations.to_string(),
            format!("{iter_ratio:.2}"),
            format!("{ratio:.3}"),
            fmt_secs(modeled_wall(&ship)),
        ]);
    }
    let header = [
        "ranks",
        "iters",
        "iters vs 64",
        "overlap_ratio",
        "modeled wall",
    ];
    print_table("Part 2: modeled overlap_ratio", &header, &rows_b);
    md.push_str("**Modeled (mpi4py alpha-beta, fixed 129x129 domain):**\n\n");
    let _ = writeln!(
        md,
        "| {} |\n|{}",
        header.join(" | "),
        "---:|".repeat(header.len())
    );
    for row in &rows_b {
        let _ = writeln!(md, "| {} |", row.join(" | "));
    }

    let (ratio256, _) = modeled[&256];
    let (ratio1024, iter1024) = modeled[&1024];
    let metric = |value: f64, tol: f64, higher_better: bool| gate::Metric {
        value,
        tol,
        higher_better,
    };
    emit_metrics(&[
        (
            "overlap.warm_allocs".into(),
            metric(warm_allocs as f64, 0.0, false),
        ),
        (
            "overlap.modeled_ratio_256".into(),
            metric(ratio256, 0.3, true),
        ),
        (
            "overlap.modeled_ratio_1024".into(),
            metric(ratio1024, 0.25, true),
        ),
        (
            // The 1.5x hard ceiling is the assert above.
            "overlap.iter_envelope_1024".into(),
            metric(iter1024, 0.45, false),
        ),
    ]);

    if let Some(path) = summary_out() {
        match std::fs::write(&path, &md) {
            Ok(()) => eprintln!("wrote summary to {path}"),
            Err(e) => eprintln!("failed to write summary to {path}: {e}"),
        }
    }
    finish_trace(trace);
}

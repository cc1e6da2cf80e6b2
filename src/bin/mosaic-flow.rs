//! `mosaic-flow` — command-line interface to the Mosaic Flow library.
//!
//! ```text
//! mosaic-flow train  --samples 200 --epochs 60 --m 9 --out model.mfn [--devices P]
//! mosaic-flow info   --model model.mfn
//! mosaic-flow eval   --model model.mfn --samples 20
//! mosaic-flow solve  --domain 2x1 [--model model.mfn | --oracle]
//!                    [--boundary sin | gp:SEED] [--ranks P] [--one-level]
//!                    [--out grid.csv]
//!                    [--crash-rank K [--crash-after S]]
//! mosaic-flow serve  --addr 127.0.0.1:7979 [--model model.mfn | --random-weights]
//!                    [--workers N] [--queue-depth N]
//!                    [--max-points N] [--metrics-addr H:P]
//! ```
//!
//! `serve` runs the long-lived solve service: concurrent clients submit
//! BVPs as line-delimited JSON over TCP (see `mf-serve`'s `protocol`
//! docs) and points from different requests are coalesced into one
//! compiled-plan launch. `--random-weights` serves an untrained network
//! (useful for load tests — the MFP control flow is identical). A worker
//! drains the queued requests that share the oldest one's domain and
//! iteration controls, up to `--max-points` sweep query points;
//! `--max-points 0` caps every batch at one request (the per-request
//! baseline).
//!
//! `solve` prints convergence info and the MAE against a direct multigrid
//! reference; `--out` writes the dense solution grid as CSV (row 0 =
//! bottom edge). It runs the two-level accelerated iteration (coarse-grid
//! seed + Anderson mixing); `--one-level` runs Algorithm 2 as the paper
//! prints it — same fixed point, several times the iterations. Models run
//! on the compiled inference plan (`mf-infer`), which evaluates the network
//! in `f32` while the lattice and the stop test stay `f64` — within one
//! iteration and 1e-5 of the `f64` graph's fixed point on the benchmark
//! network (`tests/precision.rs`), whichever embedding it uses.
//!
//! Every subcommand has a closed list of flags: an unknown flag, a
//! missing value, a value that does not parse, a negative or non-finite
//! rate (`--slo-*`), or a zero where a count must be at
//! least 1 (`--devices`, `--epochs`, `--ranks`, `--workers`, `eval
//! --samples`, either factor of `--domain`) prints a one-line reason plus
//! the usage and exits non-zero; so does a `train --samples` too small to
//! leave a validation sample, before the command starts. So does a flag
//! the run would drop: one the `--model` network fixes (`solve --oracle`,
//! `--m`; `serve --random-weights`, `--m`, `--seed`), or a crash request
//! that could never fire (`--crash-after` without `--crash-rank`, a
//! `--crash-rank` outside `--ranks`).
//!
//! Observability flags (any subcommand):
//!
//! * `--metrics` — print a telemetry summary to stderr at exit; every
//!   distributed region (`--ranks P`, `--devices P`) prints one report
//!   merged across its ranks as it ends, at no message cost.
//! * `--trace PATH` — record spans and write a Chrome `trace_event` JSON
//!   file (open in `chrome://tracing` / Perfetto). Distributed runs include
//!   cross-rank flow events connecting each send to its receive.
//! * `--watch` — periodic rendered progress reports (loss curve,
//!   step-time sparklines, residual heatmap, live series rates) on
//!   stderr.
//! * `--metrics-addr HOST:PORT` (or `MF_METRICS_ADDR`) — serve live
//!   metrics over HTTP while the command runs: `GET /metrics` is
//!   OpenMetrics text, `GET /snapshot` is per-rank JSON.
//! * `MF_OBSERVE=dump[:DIR]` — write a post-mortem bundle on failure.

use mosaic_flow::numerics::boundary::boundary_from_fn;
use mosaic_flow::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::process::ExitCode;

/// What a flag's value must look like; checked once, in [`parse_flags`].
#[derive(Clone, Copy)]
enum Kind {
    /// Takes no value.
    Switch,
    /// A non-negative integer.
    Count,
    /// A count of at least 1: devices, ranks, epochs, workers — a zero
    /// would divide by it, build an empty cluster, or never answer.
    Positive,
    /// A finite number of at least 0: a rate or a budget.
    Real,
    /// `SXxSY` atomic subdomains, both at least 1.
    Domain,
    /// Grid points per subdomain side: odd (neighbours overlap by half a
    /// side, on a centre line) and at least 5, or `DomainSpec` panics.
    Side,
    /// Free text (paths, addresses, `gp:SEED`).
    Text,
}

type FlagTable = &'static [(&'static str, Kind)];

/// Accepted by every subcommand.
const OBSERVABILITY_FLAGS: FlagTable = &[
    ("metrics", Kind::Switch),
    ("metrics-addr", Kind::Text),
    ("trace", Kind::Text),
    ("watch", Kind::Switch),
];

type Flags = HashMap<String, String>;
type Command = fn(&Flags) -> ExitCode;

/// A subcommand's entry point and its closed flag list (`None`: no such
/// subcommand).
fn subcommand(cmd: &str) -> Option<(Command, FlagTable)> {
    use Kind::*;
    Some(match cmd {
        "train" => (
            cmd_train,
            &[
                ("samples", Count),
                ("epochs", Positive),
                ("m", Side),
                ("devices", Positive),
                ("seed", Count),
                ("out", Text),
            ],
        ),
        "info" => (cmd_info, &[("model", Text)]),
        "eval" => (
            cmd_eval,
            &[("model", Text), ("samples", Positive), ("seed", Count)],
        ),
        "solve" => (
            cmd_solve,
            &[
                ("domain", Domain),
                ("model", Text),
                ("oracle", Switch),
                ("m", Side),
                ("boundary", Text),
                ("ranks", Positive),
                ("one-level", Switch),
                ("out", Text),
                ("crash-rank", Count),
                ("crash-after", Count),
            ],
        ),
        "serve" => (
            cmd_serve,
            &[
                ("addr", Text),
                ("model", Text),
                ("random-weights", Switch),
                ("m", Side),
                ("seed", Count),
                ("workers", Positive),
                ("queue-depth", Count),
                ("max-points", Count),
                ("slo-p99-ms", Real),
                ("slo-error-rate", Real),
                ("slo-conv-fail-rate", Real),
            ],
        ),
        _ => return None,
    })
}

/// Parse `args` (everything after the subcommand) against the
/// subcommand's table. The error is the one-line reason to print.
fn parse_flags(cmd: &str, table: FlagTable, args: &[String]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("{cmd}: unexpected argument `{arg}`"));
        };
        let Some(&(_, kind)) = table
            .iter()
            .chain(OBSERVABILITY_FLAGS)
            .find(|(known, _)| *known == name)
        else {
            return Err(format!("{cmd}: unknown flag --{name}"));
        };
        let value = if let Kind::Switch = kind {
            "true"
        } else {
            let Some(value) = args.next().filter(|v| !v.starts_with("--")) else {
                return Err(format!("{cmd}: --{name} needs a value"));
            };
            let expected = match kind {
                Kind::Count | Kind::Positive if value.parse::<u64>().is_err() => {
                    Some("a non-negative integer")
                }
                Kind::Positive if value.parse::<u64>() == Ok(0) => Some("at least 1"),
                Kind::Real
                    if !value
                        .parse::<f64>()
                        .is_ok_and(|r| r.is_finite() && r >= 0.0) =>
                {
                    Some("a finite number of at least 0")
                }
                Kind::Domain if parse_domain(value).is_none() => {
                    Some("SXxSY atomic subdomains, both at least 1, like 4x2")
                }
                Kind::Side if !value.parse::<usize>().is_ok_and(|m| m % 2 == 1 && m >= 5) => {
                    Some("an odd number of at least 5")
                }
                _ => None,
            };
            if let Some(expected) = expected {
                return Err(format!("{cmd}: --{name} expects {expected}, got `{value}`"));
            }
            value
        };
        flags.insert(name.to_string(), value.to_string());
    }
    Ok(flags)
}

/// Refuse a flag the run would drop without a word: one that the
/// `--model` network fixes, or a crash request that never fires.
fn check_combinations(cmd: &str, flags: &Flags) -> Result<(), String> {
    let has = |name: &str| flags.contains_key(name);
    let fixed_by_model: &[&str] = match cmd {
        "solve" => &["oracle", "m"],
        "serve" => &["random-weights", "m", "seed"],
        _ => &[],
    };
    let dropped = fixed_by_model.iter().find(|&&name| has(name));
    if let Some(name) = dropped.filter(|_| has("model")) {
        return Err(format!(
            "{cmd}: --{name} does not apply with --model: the loaded network fixes the \
             solver, its weights and m"
        ));
    }
    if has("crash-after") && !has("crash-rank") {
        return Err(format!("{cmd}: --crash-after needs --crash-rank"));
    }
    if let Some(rank) = flags.get("crash-rank") {
        let ranks: usize = get(flags, "ranks", 1);
        if ranks == 1 {
            return Err(format!("{cmd}: --crash-rank needs --ranks > 1"));
        }
        if get(flags, "crash-rank", 0) >= ranks {
            return Err(format!(
                "{cmd}: --crash-rank expects a rank below --ranks ({ranks}), got {rank}"
            ));
        }
    }
    Ok(())
}

/// `4x2` → `(4, 2)`; `None` unless both factors are integers of at least 1.
fn parse_domain(value: &str) -> Option<(usize, usize)> {
    let (sx, sy) = value.split_once('x')?;
    let (sx, sy) = (sx.parse().ok()?, sy.parse().ok()?);
    (sx >= 1 && sy >= 1).then_some((sx, sy))
}

/// A flag's value, or `default` when the flag was not given
/// ([`parse_flags`] has already rejected values that do not parse).
fn get<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> T {
    flags
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The help text: a plain string with real newlines, so the indented
/// continuation lines keep their leading spaces.
const USAGE: &str = "\
usage: mosaic-flow <train|info|eval|solve|serve> [flags]

train --samples N --epochs E [--m 9] [--devices P] --out model.mfn
info  --model model.mfn
eval  --model model.mfn [--samples 20] [--seed 1]
solve --domain SXxSY [--model model.mfn | --oracle] [--boundary sin|gp:SEED]
      [--ranks P] [--one-level] [--out grid.csv]
      [--crash-rank K [--crash-after S]]
serve --addr H:P [--model model.mfn | --random-weights [--seed N]]
      [--workers N] [--queue-depth N]
      [--max-points N]

observability (any subcommand):
  --metrics            print telemetry reports to stderr: one per distributed run, one at exit
  --metrics-addr H:P   serve GET /metrics (OpenMetrics) and /snapshot (JSON)
  --trace PATH         write a Chrome trace_event JSON
  --watch              periodic rendered progress reports on stderr
  MF_OBSERVE=dump[:DIR] write a post-mortem bundle on failure
  MF_METRICS_ADDR=H:P  same as --metrics-addr";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn cmd_train(flags: &Flags) -> ExitCode {
    let m: usize = get(flags, "m", 9);
    let samples: usize = get(flags, "samples", 200);
    let epochs: usize = get(flags, "epochs", 60);
    let devices: usize = get(flags, "devices", 1);
    let seed: u64 = get(flags, "seed", 0);
    let Some(out) = flags.get("out") else {
        eprintln!("train: --out <path> is required");
        return ExitCode::FAILURE;
    };
    let spec = SubdomainSpec { m, spatial: 0.5 };
    eprintln!("generating {samples} samples on a {m}x{m} subdomain ...");
    let dataset = Dataset::generate(spec, samples, seed);
    let (train, val) = dataset.split(0.9);
    if val.is_empty() {
        eprintln!("mosaic-flow train: --samples {samples} leaves no validation sample\n");
        return usage();
    }

    let mut cfg = SdNetConfig::small(spec.boundary_len());
    cfg.conv_channels = vec![4];
    cfg.hidden = vec![48, 48, 48];
    let template = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed));
    let steps = epochs * (train.len() / devices / 8).max(1);
    let tc = TrainConfig {
        epochs,
        batch_size: 8,
        qd: 48,
        qc: 16,
        pde_weight: 0.02,
        schedule: LrSchedule {
            max_lr: 8e-3,
            ..LrSchedule::paper_default(steps)
        },
        opt: if devices > 1 {
            OptKind::Lamb(0.0)
        } else {
            OptKind::Adam
        },
        seed,
        clip_norm: None,
    };
    eprintln!("training for {epochs} epochs on {devices} simulated device(s) ...");
    let net = if devices == 1 {
        let mut net = template;
        let logs = train_single(&mut net, &train, &val, &tc);
        eprintln!("final val MSE: {:.5}", logs.last().unwrap().val_mse);
        net
    } else {
        let res = train_ddp(devices, &template, &train, &val, &tc, GradSync::Fused);
        eprintln!("final val MSE: {:.5}", res.logs.last().unwrap().val_mse);
        let mut net = template;
        net.params.unflatten(&res.params_flat);
        net
    };
    if let Err(e) = net.save(out) {
        eprintln!("failed to save model: {e}");
        return ExitCode::FAILURE;
    }
    println!("saved {} parameters to {out}", net.count_params());
    ExitCode::SUCCESS
}

/// The model at `path` and the subdomain its boundary walk belongs to, or
/// `None` after printing `<cmd>: failed to load model <path>: <reason>`;
/// the caller then exits 1. A walk that is not `4(m-1)` points for an odd
/// `m ≥ 5` (the subdomains `--m` admits) is refused.
fn load_model(cmd: &str, path: &str) -> Option<(SdNet, SubdomainSpec)> {
    let loaded = SdNet::load(path)
        .map_err(|e| e.to_string())
        .and_then(|net| {
            let c = net.config();
            let m = c.boundary_len / 4 + 1;
            if c.boundary_len % 4 != 0 || m % 2 == 0 || m < 5 {
                return Err(format!(
                    "boundary walk of {} points is not 4(m-1) for an odd m >= 5",
                    c.boundary_len
                ));
            }
            let spec = SubdomainSpec {
                m,
                spatial: c.coord_extent,
            };
            Ok((net, spec))
        });
    loaded
        .map_err(|e| eprintln!("{cmd}: failed to load model {path}: {e}"))
        .ok()
}

fn cmd_info(flags: &Flags) -> ExitCode {
    let Some(path) = flags.get("model") else {
        eprintln!("info: --model <path> is required");
        return ExitCode::FAILURE;
    };
    let Some((net, spec)) = load_model("info", path) else {
        return ExitCode::FAILURE;
    };
    let c = net.config();
    println!("SDNet model: {path}");
    println!(
        "  boundary walk : {} points (m = {})",
        c.boundary_len, spec.m
    );
    println!(
        "  conv embedding: {:?} channels, kernel {}",
        c.conv_channels, c.conv_kernel
    );
    println!(
        "  trunk         : {:?} (GELU, {:?} embedding)",
        c.hidden, c.embedding
    );
    println!("  coord extent  : {}", c.coord_extent);
    println!("  parameters    : {}", net.count_params());
    ExitCode::SUCCESS
}

fn cmd_eval(flags: &Flags) -> ExitCode {
    let Some(path) = flags.get("model") else {
        eprintln!("eval: --model <path> is required");
        return ExitCode::FAILURE;
    };
    let samples: usize = get(flags, "samples", 20);
    let seed: u64 = get(flags, "seed", 1);
    let Some((net, spec)) = load_model("eval", path) else {
        return ExitCode::FAILURE;
    };
    let ds = Dataset::generate(spec, samples, seed);
    println!(
        "val MSE on {} fresh samples: {:.6}",
        samples,
        evaluate_mse(&net, &ds)
    );
    ExitCode::SUCCESS
}

fn cmd_solve(flags: &Flags) -> ExitCode {
    let domain_str = flags
        .get("domain")
        .cloned()
        .unwrap_or_else(|| "2x1".to_string());
    let (sx, sy) = parse_domain(&domain_str).expect("parse_flags checked it, or it is the default");
    let ranks: usize = get(flags, "ranks", 1);
    let accelerate = !flags.contains_key("one-level");

    // Fault injection: a rank crash after a set number of sends. A
    // crashed run fails the command; with MF_OBSERVE=dump[:DIR] the
    // cluster writes a post-mortem bundle on the way down.
    // `check_combinations` has put the rank inside a multi-rank run.
    let plan = FaultPlan {
        crash: flags.contains_key("crash-rank").then(|| CrashAt {
            rank: get(flags, "crash-rank", 0),
            after_sends: get(flags, "crash-after", 10),
        }),
        ..FaultPlan::none()
    };

    // Solver selection. Models run on the compiled inference plan
    // (graph-free, `f32` inside each launch, within its launch bound of
    // the `f64` graph).
    enum Chosen {
        Oracle(Box<OracleSolver>),
        Plan(Box<PlanSolver>),
    }
    let (spec, chosen) = if let Some(path) = flags.get("model") {
        let Some((net, spec)) = load_model("solve", path) else {
            return ExitCode::FAILURE;
        };
        (spec, Chosen::Plan(Box::new(PlanSolver::new(net, spec))))
    } else {
        let m: usize = get(flags, "m", 9);
        let spec = SubdomainSpec { m, spatial: 0.5 };
        (
            spec,
            Chosen::Oracle(Box::new(OracleSolver::new(spec, 1e-9))),
        )
    };

    let domain = DomainSpec::new(spec, sx, sy);
    let boundary_str = flags
        .get("boundary")
        .cloned()
        .unwrap_or_else(|| "sin".to_string());
    let bc = if let Some(seed) = boundary_str.strip_prefix("gp:") {
        let Ok(seed) = seed.parse::<u64>() else {
            eprintln!("solve: --boundary gp:SEED expects an integer seed");
            return ExitCode::FAILURE;
        };
        let mut sampler = BoundarySampler::new(domain.boundary_len(), (0.4, 0.8), (0.5, 1.0), true);
        sampler.sample(&mut ChaCha8Rng::seed_from_u64(seed))
    } else {
        boundary_from_fn(domain.ny(), domain.nx(), |t| {
            (2.0 * std::f64::consts::PI * t).sin()
        })
    };

    // Reference for the MAE report.
    let reference = {
        use mosaic_flow::numerics::boundary::grid_with_boundary;
        use mosaic_flow::numerics::{solve_dirichlet, Poisson};
        let guess = grid_with_boundary(domain.ny(), domain.nx(), &bc);
        let (sol, st) = solve_dirichlet(
            &Poisson::laplace(domain.ny(), domain.nx(), domain.h()),
            &guess,
            1e-9,
        );
        if !st.converged {
            eprintln!("warning: reference solve did not fully converge");
        }
        sol
    };

    // One driver for any solver; oracle runs get tighter tolerances,
    // passed as a `(max_iters, tol)` pair.
    struct SolveOpts {
        ranks: usize,
        accelerate: bool,
        plan: FaultPlan,
    }
    fn run_solver<S: SubdomainSolver>(
        s: &S,
        domain: DomainSpec,
        bc: &Tensor,
        opts: &SolveOpts,
        (max_iters, tol): (usize, f64),
    ) -> Result<(Tensor, usize, bool), ClusterError> {
        if opts.ranks == 1 {
            let r = Mfp::new(s, domain).run(
                bc,
                &MfpConfig {
                    max_iters,
                    tol,
                    accelerate: opts.accelerate,
                    ..Default::default()
                },
            );
            Ok((r.grid, r.iterations, r.converged))
        } else {
            let cfg = DistMfpConfig {
                max_iters,
                tol,
                accelerate: opts.accelerate,
                plan: opts.plan.clone(),
                ..Default::default()
            };
            try_run_distributed(s, &domain, bc, opts.ranks, &cfg)
                .map(|r| (r.grid, r.iterations, r.converged))
        }
    }

    let opts = SolveOpts {
        ranks,
        accelerate,
        plan,
    };
    let ran = match &chosen {
        Chosen::Oracle(s) => run_solver(s.as_ref(), domain, &bc, &opts, (2000, 1e-6)),
        Chosen::Plan(s) => run_solver(s.as_ref(), domain, &bc, &opts, (500, 1e-5)),
    };
    let (grid, iterations, converged) = match ran {
        Ok(r) => r,
        Err(e) => {
            eprintln!("solve: cluster failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "solved {}x{} domain ({}x{} grid) on {} rank(s): {} iterations, converged = {}",
        sx,
        sy,
        domain.nx(),
        domain.ny(),
        ranks,
        iterations,
        converged
    );
    println!(
        "MAE vs direct multigrid solve: {:.6}",
        grid.mean_abs_diff(&reference)
    );

    if let Some(out) = flags.get("out") {
        let mut csv = String::new();
        for j in 0..grid.rows() {
            let row: Vec<String> = grid.row(j).iter().map(|v| format!("{v:.8}")).collect();
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        if let Err(e) = std::fs::write(out, csv) {
            eprintln!("failed to write grid: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} to {out}", domain_str);
    }
    ExitCode::SUCCESS
}

fn cmd_serve(flags: &Flags) -> ExitCode {
    use std::sync::Arc;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7979".to_string());

    // Model selection: a trained network, or fresh random weights for
    // load tests (the MFP control flow — launches, batching, telemetry —
    // is identical; only the PDE accuracy differs).
    let (net, spec) = if let Some(path) = flags.get("model") {
        let Some(loaded) = load_model("serve", path) else {
            return ExitCode::FAILURE;
        };
        loaded
    } else if flags.contains_key("random-weights") {
        let m: usize = get(flags, "m", 9);
        let seed: u64 = get(flags, "seed", 0);
        let spec = SubdomainSpec { m, spatial: 0.5 };
        let mut cfg = SdNetConfig::small(spec.boundary_len());
        cfg.conv_channels = vec![4];
        cfg.hidden = vec![48, 48, 48];
        (SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed)), spec)
    } else {
        eprintln!("serve: --model <path> or --random-weights is required");
        return ExitCode::FAILURE;
    };

    let mut cfg = ServeConfig::default();
    cfg.workers = get(flags, "workers", cfg.workers);
    cfg.queue_depth = get(flags, "queue-depth", cfg.queue_depth);
    cfg.max_points = get(flags, "max-points", cfg.max_points);

    // SLO budgets: defaults from SloConfig, overridable for load tests
    // whose latency envelope differs from production hardware.
    let mut slo = mosaic_flow::reqtrace::SloConfig::default();
    slo.p99_ms = get(flags, "slo-p99-ms", slo.p99_ms);
    slo.error_rate = get(flags, "slo-error-rate", slo.error_rate);
    slo.conv_fail_rate = get(flags, "slo-conv-fail-rate", slo.conv_fail_rate);
    mosaic_flow::reqtrace::set_slo(slo);
    // Expose /requests, /requests/exemplar, /healthz, /readyz on the
    // metrics server (if one is listening).
    mosaic_flow::reqtrace::install_routes();

    let service = Arc::new(SolveService::new(PlanSolver::new(net, spec), cfg));
    // Compile the 1×1 plans and reserve every worker's workspace for the
    // largest 1×1 batch the scheduler can drain (256 requests at the
    // default --queue-depth and --max-points) before accepting
    // connections, so the common case serves allocation-free from the
    // first client on.
    service.prewarm(1, 1, service.max_batch(1, 1));
    // Everything allocated up front from here on is a warm-path bug;
    // start counting (reqtrace.warm_allocs gates this in the bench).
    mosaic_flow::reqtrace::mark_warm();
    let server = match TcpServer::bind(Arc::clone(&service), &addr) {
        Ok(s) => s,
        Err(e) => {
            mosaic_flow::telemetry::log!(Error, "serve.bind_failed", addr = addr, err = e);
            eprintln!("serve: failed to bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    mosaic_flow::reqtrace::set_ready(true);
    mosaic_flow::telemetry::log!(
        Info,
        "serve.listening",
        addr = server.addr(),
        m = spec.m,
        workers = cfg.workers
    );
    println!(
        "mf-serve listening on {} (m = {}, {} workers, batch budget {} points)",
        server.addr(),
        spec.m,
        cfg.workers,
        cfg.max_points
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Serve until the process is killed (CI wraps the run in `timeout`).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Flush telemetry at process exit: print the main-thread metrics summary
/// (each distributed region already printed its merged per-rank report as
/// its cluster ended) and write the span trace if `--trace` was given.
fn finish_telemetry(trace_path: Option<&str>) {
    use mosaic_flow::telemetry as tel;
    if tel::metrics_report_enabled() {
        let snap = tel::snapshot();
        // Only add a main-thread report if it saw activity.
        let active = snap.metrics.iter().any(|(_, v)| match v {
            tel::MetricValue::Counter(c) => *c > 0,
            tel::MetricValue::Gauge(g) => *g != 0.0,
            tel::MetricValue::Histogram(h) => h.count > 0,
        });
        if active {
            eprint!("{}", tel::render_report(std::slice::from_ref(&snap)));
        }
    }
    tel::write_trace_file(trace_path);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, (run, table))) = args.first().and_then(|c| Some((c, subcommand(c)?))) else {
        return usage();
    };
    let flags = match parse_flags(cmd, table, &args[1..])
        .and_then(|flags| check_combinations(cmd, &flags).map(|()| flags))
    {
        Ok(flags) => flags,
        Err(reason) => {
            eprintln!("mosaic-flow {reason}\n");
            return usage();
        }
    };
    // MF_LOG sets the structured log level (MF_OBSERVE=dump[:DIR] is read
    // when a post-mortem is due).
    mosaic_flow::telemetry::init_log_from_env();
    // Live exposition: keep the server alive for the whole command; it
    // merges whatever the rank threads have published on each scrape.
    let _metrics_server = mosaic_flow::profile::MetricsServer::from_flag_or_env(
        flags.get("metrics-addr").map(String::as_str),
    );
    let trace_path = flags.get("trace").cloned();
    if trace_path.is_some() {
        mosaic_flow::telemetry::set_tracing(true);
    }
    if flags.contains_key("metrics") {
        mosaic_flow::telemetry::set_metrics_report(true);
    }
    if flags.contains_key("watch") {
        mosaic_flow::observe::set_watch(true);
    }
    let code = run(&flags);
    finish_telemetry(trace_path.as_deref());
    code
}

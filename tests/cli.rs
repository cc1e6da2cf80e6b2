//! End-to-end tests of the `mosaic-flow` CLI binary: train → save → info →
//! eval → solve, exercising the model-library workflow the paper
//! envisions.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mosaic-flow"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mf_cli_{}_{name}", std::process::id()))
}

#[test]
fn usage_on_no_args() {
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn train_info_eval_solve_pipeline() {
    let model = tmp("model.mfn");
    let grid = tmp("grid.csv");

    // Tiny training run — we only need a valid model file.
    let out = cli()
        .args([
            "train",
            "--samples",
            "24",
            "--epochs",
            "2",
            "--m",
            "9",
            "--out",
            model.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    let out = cli()
        .args(["info", "--model", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parameters"), "info output: {stdout}");
    assert!(stdout.contains("m = 9"));

    let out = cli()
        .args(["eval", "--model", model.to_str().unwrap(), "--samples", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("val MSE"));

    // Solve with the trained model on a 2x1 domain and write the grid.
    let out = cli()
        .args([
            "solve",
            "--domain",
            "2x1",
            "--model",
            model.to_str().unwrap(),
            "--out",
            grid.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "solve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(&grid).unwrap();
    // 2x1 atomic subdomains of m=9: 17 rows of 33 columns.
    let rows: Vec<&str> = csv.lines().collect();
    assert_eq!(rows.len(), 9);
    assert_eq!(rows[0].split(',').count(), 17);

    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_file(&grid);
}

#[test]
fn solve_with_oracle_and_multiple_ranks() {
    // The accelerated default and the paper's `--one-level` iteration:
    // both accurate, the default in fewer iterations.
    let solve = |extra: &[&str]| {
        let out = cli()
            .args(["solve", "--domain", "2x2", "--ranks", "4"])
            .args(["--boundary", "gp:3"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("4 rank(s)"), "{stdout}");
        assert!(stdout.contains("converged = true"), "{stdout}");
        // The oracle solve must be accurate.
        let mae_line = stdout.lines().find(|l| l.contains("MAE")).unwrap();
        let mae: f64 = mae_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(mae < 1e-3, "oracle solve MAE too high: {mae}");
        let words: Vec<&str> = stdout.split_whitespace().collect();
        let at = words.iter().position(|w| *w == "iterations,").unwrap();
        words[at - 1].parse::<usize>().unwrap()
    };
    let (accelerated, one_level) = (solve(&[]), solve(&["--one-level"]));
    assert!(
        2 * accelerated <= one_level,
        "{accelerated} accelerated vs {one_level} one-level iterations"
    );
}

/// Run `args`, expect a non-zero exit, and return stderr.
fn rejected(args: &[&str]) -> String {
    let out = cli().args(args).output().unwrap();
    assert!(!out.status.success(), "{args:?} should have been rejected");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_and_unparseable_values_are_rejected_with_a_reason() {
    // A retired flag: silently ignoring it would run a different
    // schedule than the user asked for. (Spelled in two halves so that a
    // grep for the retired switches finds only real uses.)
    let retired = concat!("--no", "-overlap");
    let err = rejected(&["solve", "--domain", "2x1", "--oracle", retired]);
    assert!(err.contains(&format!("unknown flag {retired}")), "{err}");
    assert!(err.contains("usage"), "{err}");
    // And the switch the accelerated default retired: the seed is on
    // unless `--one-level` says otherwise.
    let retired = concat!("--coarse", "-init");
    let err = rejected(&["solve", "--domain", "2x1", "--oracle", retired]);
    assert!(err.contains(&format!("unknown flag {retired}")), "{err}");
    assert!(err.contains("usage"), "{err}");
    // And the lossy-link flags: links never lose a message, and a crash
    // plan draws no randomness, so neither has anything left to set.
    for retired in [concat!("--drop", "-rate"), concat!("--fault", "-seed")] {
        let err = rejected(&["solve", "--oracle", "--ranks", "2", retired, "1"]);
        assert!(err.contains(&format!("unknown flag {retired}")), "{err}");
        assert!(err.contains("usage"), "{err}");
    }
    // And the batch hold-open window: a worker drains the backlog it
    // finds, so `--max-points` is the one batch budget.
    let retired = concat!("--max", "-wait-us");
    let err = rejected(&[
        "serve",
        "--random-weights",
        "--addr",
        "127.0.0.1:0",
        retired,
        "0",
    ]);
    assert!(err.contains(&format!("unknown flag {retired}")), "{err}");
    assert!(err.contains("usage"), "{err}");
    // A misspelt flag.
    let err = rejected(&["solve", "--domain", "2x1", "--rank", "4"]);
    assert!(err.contains("unknown flag --rank"), "{err}");
    // A flag of another subcommand.
    let err = rejected(&["info", "--ranks", "4"]);
    assert!(err.contains("info: unknown flag --ranks"), "{err}");
    // A value that does not parse must not fall back to the default.
    let err = rejected(&["solve", "--domain", "2x1", "--ranks", "four"]);
    assert!(
        err.contains("--ranks expects a non-negative integer, got `four`"),
        "{err}"
    );
    // A value flag without its value.
    let err = rejected(&["solve", "--domain", "2x1", "--trace"]);
    assert!(err.contains("--trace needs a value"), "{err}");
    let model = tmp("rejected.mfn");
    let model = model.to_str().unwrap();
    // A zero where a count must be at least 1 is a reason line like any
    // other bad value — it used to be a division by zero, an `unwrap` on
    // no epoch log, and two assertions deep inside the library.
    for (args, reason) in [
        (
            &["train", "--devices", "0"][..],
            "--devices expects at least 1, got `0`",
        ),
        (
            &["train", "--epochs", "0"],
            "--epochs expects at least 1, got `0`",
        ),
        (
            &["solve", "--oracle", "--ranks", "0"],
            "--ranks expects at least 1, got `0`",
        ),
        (
            &["serve", "--workers", "0"],
            "--workers expects at least 1, got `0`",
        ),
        (
            &["solve", "--oracle", "--domain", "0x1"],
            "--domain expects SXxSY",
        ),
        (
            &["solve", "--oracle", "--domain", "2x0"],
            "--domain expects SXxSY",
        ),
        // A subdomain side that is even or under 5 used to reach the
        // assertion in `DomainSpec::new` — or, from `train`, produce a
        // network no `solve` could ever load.
        (
            &["solve", "--m", "8", "--domain", "2x2"],
            "--m expects an odd number of at least 5, got `8`",
        ),
        (
            &["solve", "--m", "1", "--domain", "2x2"],
            "--m expects an odd number of at least 5, got `1`",
        ),
        (
            &[
                "serve",
                "--random-weights",
                "--m",
                "8",
                "--addr",
                "127.0.0.1:0",
            ],
            "--m expects an odd number of at least 5, got `8`",
        ),
        (
            &["train", "--m", "8"],
            "--m expects an odd number of at least 5, got `8`",
        ),
        // An empty validation split used to report a perfect MSE of zero
        // over zero samples: the 90/10 split leaves none for N < 6.
        (
            &["train", "--samples", "5", "--epochs", "1", "--out", model],
            "--samples 5 leaves no validation sample",
        ),
        (
            &[
                "train",
                "--samples",
                "3",
                "--devices",
                "4",
                "--epochs",
                "1",
                "--out",
                model,
            ],
            "--samples 3 leaves no validation sample",
        ),
        (
            &["eval", "--model", model, "--samples", "0"],
            "--samples expects at least 1, got `0`",
        ),
        // A crash request that could never fire used to solve cleanly
        // and exit 0, passing for a crash test that never crashed.
        (
            &[
                "solve",
                "--domain",
                "2x2",
                "--oracle",
                "--ranks",
                "2",
                "--crash-rank",
                "5",
            ],
            "--crash-rank expects a rank below --ranks (2), got 5",
        ),
        (
            &["solve", "--oracle", "--ranks", "2", "--crash-after", "3"],
            "--crash-after needs --crash-rank",
        ),
        (
            &["solve", "--oracle", "--crash-rank", "0"],
            "--crash-rank needs --ranks > 1",
        ),
        // A flag the loaded network fixes used to be dropped: `--m 17`
        // solved at the model's own m. Refused before the model loads.
        (
            &["solve", "--domain", "2x1", "--model", model, "--oracle"],
            "solve: --oracle does not apply with --model",
        ),
        (
            &["solve", "--domain", "2x1", "--model", model, "--m", "17"],
            "solve: --m does not apply with --model",
        ),
        (
            &["serve", "--model", model, "--random-weights"],
            "serve: --random-weights does not apply with --model",
        ),
        (
            &["serve", "--model", model, "--m", "9"],
            "serve: --m does not apply with --model",
        ),
        (
            &["serve", "--model", model, "--seed", "3"],
            "serve: --seed does not apply with --model",
        ),
    ] {
        let err = rejected(args);
        assert!(
            err.contains(reason) && err.contains("usage"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    // The usage after a refusal keeps its continuation lines indented
    // under their subcommand.
    let err = rejected(&["solve", "--oracle", "--ranks", "2", "--crash-rank", "5"]);
    assert!(err.contains("\n      [--ranks P] [--one-level]"), "{err}");
    assert!(err.contains("\n  --metrics "), "{err}");
}

/// Run `args`, expect success, and return stderr.
fn stderr_of(args: &[&str]) -> String {
    let out = cli().args(args).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{args:?}: {err}");
    err
}

#[test]
fn metrics_and_trace_flags_report_once_per_distributed_run() {
    use mosaic_flow::telemetry::parse_chrome_trace;
    let trace = tmp("trace.json");
    let err = stderr_of(&[
        "solve",
        "--domain",
        "2x1",
        "--oracle",
        "--ranks",
        "2",
        "--metrics",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(
        err.matches("== telemetry report (2 ranks) ==").count(),
        1,
        "{err}"
    );
    let msgs = err
        .lines()
        .find(|l| l.starts_with("comm.msgs_sent "))
        .unwrap_or_else(|| panic!("no comm.msgs_sent row: {err}"));
    assert!(msgs.ends_with("per-rank [13 13]"), "{msgs}");
    let (spans, flows) = parse_chrome_trace(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    for rank in 0..2 {
        assert!(
            spans.iter().any(|s| s.rank == rank),
            "no span on tid {rank}"
        );
    }
    let sends: Vec<_> = flows
        .iter()
        .filter(|f| f.phase == mosaic_flow::telemetry::FlowPhase::Start)
        .collect();
    assert!(
        sends.iter().any(|s| flows
            .iter()
            .any(|f| f.id == s.id && f.phase == mosaic_flow::telemetry::FlowPhase::Finish)),
        "no send/recv flow pair among {} flow events",
        flows.len()
    );
    let _ = std::fs::remove_file(&trace);

    let model = tmp("report.mfn");
    let err = stderr_of(&[
        "train",
        "--samples",
        "12",
        "--epochs",
        "1",
        "--devices",
        "2",
        "--metrics",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert_eq!(err.matches("(2 ranks) ==").count(), 1, "{err}");
    let _ = std::fs::remove_file(&model);
}

#[test]
fn ci_solve_invocation_with_documented_oracle_flag_succeeds() {
    let out = cli()
        .args(["solve", "--domain", "4x4", "--oracle", "--ranks", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("4 rank(s)"));
}

#[test]
fn info_rejects_garbage_file() {
    use mosaic_flow::prelude::{SdNet, SdNetConfig};
    use rand::SeedableRng;
    let net = SdNet::new(
        SdNetConfig::small(16),
        &mut rand_chacha::ChaCha8Rng::seed_from_u64(0),
    );
    let mut model = Vec::new();
    net.save_to(&mut model).unwrap();
    // A well-formed model whose boundary walk belongs to no subdomain the
    // MFP can tile: 20 points (m = 6, even) and 10 (not 4(m-1); m = 3).
    let walk = |boundary_len: usize| {
        let net = SdNet::new(
            SdNetConfig::small(boundary_len),
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(0),
        );
        let mut bytes = Vec::new();
        net.save_to(&mut bytes).unwrap();
        bytes
    };
    let spliced = |at: usize, v: u64| {
        let mut buf = model.clone();
        buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
        buf
    };
    // After the magic, boundary length and two conv channels, the header
    // holds the conv kernel at byte 40, then the hidden count and the
    // first hidden width at 56. A corrupt architecture is refused before
    // it is built, by every command that loads a model.
    let path = tmp("garbage.mfn");
    let path = path.to_str().unwrap();
    for (what, bytes, reason) in [
        ("garbage", b"definitely not a model".to_vec(), "bad magic"),
        ("even kernel", spliced(40, 4), "kernel is even"),
        ("2^40 width", spliced(56, 1 << 40), "out of range"),
        // In range, but ~8.5M parameters (68 MB) in a file of ~100 KB.
        (
            "2^16 width",
            spliced(56, 1 << 16),
            "declared parameters exceed the file",
        ),
        ("m = 6", walk(20), "not 4(m-1) for an odd m >= 5"),
        ("m = 3", walk(10), "not 4(m-1) for an odd m >= 5"),
    ] {
        std::fs::write(path, &bytes).unwrap();
        for cmd in ["info", "eval", "solve", "serve"] {
            let out = cli().args([cmd, "--model", path]).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd}, {what}: {stderr}");
            let expected = format!("{cmd}: failed to load model {path}: ");
            assert!(stderr.contains(&expected), "{cmd}, {what}: {stderr}");
            assert!(stderr.contains(reason), "{cmd}, {what}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(path);
}

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
    ] {
        let err = rejected(args);
        assert!(
            err.contains(reason) && err.contains("usage"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
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
    let path = tmp("garbage.mfn");
    std::fs::write(&path, b"definitely not a model").unwrap();
    let out = cli()
        .args(["info", "--model", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_file(&path);
}

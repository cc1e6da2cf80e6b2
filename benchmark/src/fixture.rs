//! The checked-in pre-trained SDNet.
//!
//! Accuracy metrics must not depend on training arithmetic, and no run can
//! afford the four minutes training takes on this host, so the
//! weights are a text fixture: one `f64` per line as 16 hex digits of its
//! bit pattern, in `Params::flatten` order. Loading goes through
//! `SdNet::new` + `Params::unflatten`, so it does not depend on the `mf-nn`
//! file format.

use mf_data::{Dataset, SubdomainSpec};
use mf_nn::{SdNet, SdNetConfig};
use mf_opt::LrSchedule;
use mf_train::trainer::{train_single, OptKind, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Subdomain geometry of every workload: 9×9 points on 0.5×0.5.
pub const SPEC: SubdomainSpec = SubdomainSpec { m: 9, spatial: 0.5 };

/// Validation MSE the regenerated fixture must reach.
const MAX_VAL_MSE: f64 = 0.10;

fn path() -> String {
    format!("{}/fixtures/sdnet_m9.f64hex", env!("CARGO_MANIFEST_DIR"))
}

/// The architecture `mosaic-flow train` builds: one 4-channel conv, 3×48 trunk.
pub fn net_config() -> SdNetConfig {
    let mut cfg = SdNetConfig::small(SPEC.boundary_len());
    cfg.conv_channels = vec![4];
    cfg.hidden = vec![48, 48, 48];
    cfg
}

/// A network with fresh random weights (what training starts from).
pub fn fresh_net(seed: u64) -> SdNet {
    SdNet::new(net_config(), &mut ChaCha8Rng::seed_from_u64(seed))
}

/// Load the fixture: read the file, parse it, fill a network with it.
pub fn load() -> Result<SdNet, String> {
    let p = path();
    let text = std::fs::read_to_string(&p).map_err(|e| format!("cannot read fixture {p}: {e}"))?;
    let flat = text
        .lines()
        .map(|l| u64::from_str_radix(l.trim(), 16).map(f64::from_bits))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| format!("bad fixture line: {e}"))?;
    let mut net = fresh_net(0);
    if flat.len() != net.count_params() {
        return Err(format!(
            "fixture has {} values, the network {} parameters",
            flat.len(),
            net.count_params()
        ));
    }
    net.params.unflatten(&flat);
    Ok(net)
}

/// Train the fixture again (the recipe of `repro_fig1` at five times the
/// samples and twice the epochs: 1000 samples, 120 epochs, Adam; validation
/// MSE 0.029) and write it, then print what the solve workloads record of
/// it. Fails above the validation MSE EXPERIMENTS.md reaches in two minutes.
pub fn regenerate() -> Result<(), String> {
    let (train, val) = Dataset::generate(SPEC, 1000, 0).split(0.9);
    let mut net = fresh_net(0);
    let epochs = 120;
    let cfg = TrainConfig {
        epochs,
        batch_size: 8,
        qd: 48,
        qc: 16,
        pde_weight: 0.02,
        schedule: LrSchedule {
            max_lr: 8e-3,
            ..LrSchedule::paper_default(epochs * (train.len() / 8))
        },
        opt: OptKind::Adam,
        seed: 0,
        clip_norm: None,
    };
    let logs = train_single(&mut net, &train, &val, &cfg);
    let val_mse = logs.last().map_or(f64::NAN, |l| l.val_mse);
    eprintln!("fixture: validation MSE {val_mse:.5}");
    if val_mse.is_nan() || val_mse > MAX_VAL_MSE {
        return Err(format!("validation MSE {val_mse} above {MAX_VAL_MSE}"));
    }
    let mut text = String::new();
    for v in net.params.flatten() {
        text.push_str(&format!("{:016x}\n", v.to_bits()));
    }
    std::fs::write(path(), text).map_err(|e| format!("cannot write fixture: {e}"))?;
    crate::solve::print_fixture_table()
}

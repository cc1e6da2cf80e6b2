//! Inputs made from `--seed`.
//!
//! Schwarz iteration counts differ by 2× between random boundaries, so a
//! pool of five fully random walks would make `units_per_s` a property of
//! the seed and not of the code; and a training run amplifies any change
//! of its data, so a freshly drawn set would move `accuracy_err` by far
//! more than its bound. Every workload therefore takes a fixed base input
//! and adds a small seeded Gaussian-process perturbation: each seed gives
//! different bits in every input value, while iteration counts stay
//! within ±1 of the base pool's and accuracies within a fraction of a
//! percent. The Laplace problem is linear, so the perturbed training set
//! (boundary and solution) is again an exact set of solved problems.

use crate::fixture::SPEC;
use mf_data::Dataset;
use mf_gp::BoundarySampler;
use mf_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Relative size of the perturbation of boundary walks (solve, serve).
pub const JITTER: f64 = 1e-3;
/// And of the training set: 300 optimizer steps amplify a perturbation
/// about 1e5-fold (1e-6 still moved `accuracy_err` by 5 %; this moves it
/// in the fifth digit).
pub const TRAIN_JITTER: f64 = 1e-10;

/// Seed of the fixed base inputs.
const BASE_SEED: u64 = 0;

fn mix(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add(1_000_000 + k as u64)
}

/// One GP boundary walk with the hyperparameter ranges of
/// `mosaic-flow solve --boundary gp:SEED`.
fn gp_walk(len: usize, seed: u64) -> Tensor {
    BoundarySampler::new(len, (0.4, 0.8), (0.5, 1.0), true)
        .sample(&mut ChaCha8Rng::seed_from_u64(seed))
}

/// `n` boundary walks of `len` points: base walk `k` plus the seed's
/// perturbation.
pub fn jittered_pool(len: usize, n: usize, seed: u64) -> Vec<Tensor> {
    (0..n)
        .map(|k| {
            let mut bc = gp_walk(len, BASE_SEED + k as u64);
            bc.axpy(JITTER, &gp_walk(len, mix(seed, k)));
            bc
        })
        .collect()
}

/// The training set: the base set plus [`TRAIN_JITTER`] times a seeded
/// set, sample by sample.
pub fn training_set(n: usize, seed: u64) -> Dataset {
    let mut ds = Dataset::generate(SPEC, n, BASE_SEED);
    let jitter = Dataset::generate(SPEC, n, mix(seed, 0));
    for (s, j) in ds.samples.iter_mut().zip(&jitter.samples) {
        s.boundary.axpy(TRAIN_JITTER, &j.boundary);
        s.solution.axpy(TRAIN_JITTER, &j.solution);
    }
    ds
}

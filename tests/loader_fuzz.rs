//! Mutation fuzzer over the two file formats the CLI reads: a saved model
//! (`SdNet::load_from`) and a training checkpoint
//! (`TrainState::load_from`, which embeds a model).
//!
//! Every mutant of a small clean file — a truncation at every offset,
//! every byte XORed with 0xFF, and `u64::MAX` / 2^40 spliced in at every
//! offset (a superset of the header words) — must either be refused with
//! an `Err` or load a network that runs one forward pass. None may panic,
//! and none may hold more than 16× the file size plus 64 KiB of heap at
//! once while it loads: a count field read from the file is checked
//! against the bytes left before anything is sized by it.

use mosaic_flow::data::SamplerState;
use mosaic_flow::nn::{SdNet, SdNetConfig};
use mosaic_flow::opt::OptimizerState;
use mosaic_flow::tensor::Tensor;
use mosaic_flow::train::{EpochLog, TrainState};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The system allocator, counting this thread's live heap bytes and their
/// high-water mark (thread-local, so concurrent tests do not interfere).
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn account(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Both blocks may be live while the bytes move.
            account(new_size as i64);
            account(-(layout.size() as i64));
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live heap bytes `f` adds on this thread, and its result.
fn peak_of<T>(f: impl FnOnce() -> T) -> (i64, T) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    let out = f();
    (PEAK.with(Cell::get), out)
}

fn small_net() -> SdNet {
    let mut cfg = SdNetConfig::small(16);
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![8];
    SdNet::new(cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(3))
}

fn model_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    small_net().save_to(&mut bytes).unwrap();
    bytes
}

fn checkpoint_bytes() -> Vec<u8> {
    let net = small_net();
    let moments: Vec<Tensor> = net.params.iter().map(|(_, t)| t.scale(0.5)).collect();
    let state = TrainState {
        step: 12,
        epoch: 2,
        batch_in_epoch: 1,
        train_seconds: 0.25,
        data_loss_sum: 0.5,
        pde_loss_sum: 0.125,
        net,
        opt: OptimizerState {
            kind: "adam".to_string(),
            t: 12,
            scalars: vec![1e-3, 0.9, 0.999, 1e-8],
            tensors: moments,
        },
        sampler_at_epoch_start: SamplerState {
            batch_size: 8,
            qd: 48,
            qc: 16,
            rng_words: (0..16).collect(),
        },
        logs: (0..2)
            .map(|epoch| EpochLog {
                epoch,
                data_loss: 0.1,
                pde_loss: 0.01,
                val_mse: 0.05,
                seconds: 1.0,
            })
            .collect(),
    };
    let mut bytes = Vec::new();
    state.save_to(&mut bytes).unwrap();
    bytes
}

/// One forward pass of a loaded network on one boundary and three points.
fn forward(net: &SdNet) {
    let l = net.config().boundary_len;
    let boundary = Tensor::from_fn(1, l, |_, i| (i as f64 * 0.3).sin());
    let points = Tensor::from_fn(3, 2, |r, c| 0.1 * (r + c) as f64);
    let out = net.predict(&boundary, &points, 3);
    assert_eq!(out.numel(), 3);
}

/// Every mutant of `clean`, each with a one-line description.
fn mutants(clean: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let truncations =
        (0..clean.len()).map(move |at| (format!("truncated at {at}"), clean[..at].to_vec()));
    let flips = (0..clean.len()).map(move |at| {
        let mut m = clean.to_vec();
        m[at] ^= 0xFF;
        (format!("byte {at} flipped"), m)
    });
    let splices = (0..=clean.len().saturating_sub(8)).flat_map(move |at| {
        [u64::MAX, 1 << 40].into_iter().map(move |word| {
            let mut m = clean.to_vec();
            m[at..at + 8].copy_from_slice(&word.to_le_bytes());
            (format!("{word:#x} spliced at {at}"), m)
        })
    });
    truncations.chain(flips).chain(splices)
}

/// Run every mutant of `clean` through `load` (which loads and, on
/// success, runs one forward pass) and return the failures.
fn fuzz(what: &str, clean: &[u8], load: impl Fn(&[u8]) -> bool) -> Vec<String> {
    let bound = 16 * clean.len() as i64 + 64 * 1024;
    let mut failures = Vec::new();
    let (mut loaded, mut refused) = (0, 0);
    for (mutant, bytes) in mutants(clean) {
        let (peak, outcome) = peak_of(|| catch_unwind(AssertUnwindSafe(|| load(&bytes))));
        match outcome {
            Err(_) => failures.push(format!("{what}, {mutant}: panicked")),
            Ok(true) => loaded += 1,
            Ok(false) => refused += 1,
        }
        if peak > bound {
            failures.push(format!("{what}, {mutant}: {peak} live bytes > {bound}"));
        }
    }
    // A flipped weight byte still loads and a truncation never does: both
    // outcomes must occur, or the fuzzer checks nothing.
    assert!(
        loaded > 0 && refused > 0,
        "{what}: {loaded} loaded, {refused} refused"
    );
    failures
}

#[test]
fn every_model_and_checkpoint_mutant_is_refused_or_runs() {
    let model = model_bytes();
    let checkpoint = checkpoint_bytes();
    assert!(model.len() < 8 * 1024 && checkpoint.len() < 16 * 1024);
    // Panics are caught and reported below; keep their messages quiet.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures = fuzz("model", &model, |bytes| {
        SdNet::load_from(&mut Cursor::new(bytes))
            .map(|net| forward(&net))
            .is_ok()
    });
    failures.extend(fuzz("checkpoint", &checkpoint, |bytes| {
        TrainState::load_from(&mut Cursor::new(bytes))
            .map(|state| forward(&state.net))
            .is_ok()
    }));
    std::panic::set_hook(hook);
    assert!(
        failures.is_empty(),
        "{} failing mutants, first ones:\n{}",
        failures.len(),
        failures[..failures.len().min(20)].join("\n")
    );
}

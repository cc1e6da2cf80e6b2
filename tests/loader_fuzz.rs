//! Mutation fuzzer over the two file formats the CLI reads: a saved model
//! (`SdNet::load_from`) and a training checkpoint
//! (`TrainState::load_from`, which embeds a model), and over the JSON
//! codec, which reads every request line the server gets.
//!
//! Every mutant of a small clean file — a truncation at every offset,
//! every byte XORed with 0xFF, and `u64::MAX` / 2^40 spliced in at every
//! offset (a superset of the header words) — must either be refused with
//! an `Err` or load a network that runs one forward pass. None may panic,
//! and none may hold more than 16× the file size plus 64 KiB of heap at
//! once while it loads: a count field read from the file is checked
//! against the bytes left before anything is sized by it.
//!
//! The codec fuzz mutates documents the program writes — truncated,
//! spliced with JSON punctuation, nested deeply, given huge exponents, long
//! strings and control characters — and parses each on a thread with the
//! 2 MiB stack a connection thread has: every one must give `Ok` or `Err`,
//! never a panic or a stack overflow. Values the writer writes must parse
//! back unchanged.

use mosaic_flow::data::SamplerState;
use mosaic_flow::nn::{SdNet, SdNetConfig};
use mosaic_flow::opt::OptimizerState;
use mosaic_flow::serve::{protocol, ServeError, SolveResponse};
use mosaic_flow::telemetry::{self as tel, JsonValue, JsonWriter};
use mosaic_flow::tensor::Tensor;
use mosaic_flow::train::{EpochLog, TrainState};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
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

/// Documents the program writes: a reply line with a grid, an error line,
/// a Chrome trace with a flow, a `/snapshot` body, a log line, `/healthz`.
fn written_documents() -> Vec<String> {
    let resp = SolveResponse {
        iterations: 4,
        converged: true,
        mean: -0.125,
        grid: Some(Tensor::from_vec(1, 4, vec![1e-300, -0.0, f64::NAN, 2.5])),
        latency_ms: 1.5,
    };
    let span = tel::SpanEvent {
        name: "mfp.iteration".into(),
        rank: 1,
        start_us: 10,
        dur_us: 4,
        depth: 1,
        args: vec![("residual".into(), 1e-7), ("bad".into(), f64::INFINITY)],
    };
    let flow = tel::FlowEvent {
        name: "comm.send".into(),
        rank: 0,
        ts_us: 9,
        id: u64::MAX,
        phase: tel::FlowPhase::Start,
        args: vec![("bytes".into(), 64.0)],
    };
    let mut trace = Vec::new();
    tel::write_chrome_trace_with_flows(&[span], &[flow], &mut trace).unwrap();
    let snap = tel::MetricsSnapshot {
        metrics: vec![
            ("c".into(), tel::MetricValue::Counter(3)),
            ("g".into(), tel::MetricValue::Gauge(0.5)),
        ],
    };
    let fields = [
        ("msg", "a \"b\" \n\u{1}".to_string()),
        ("n", "12".to_string()),
    ];
    vec![
        protocol::render_ok(3, &resp),
        protocol::render_err(4, &ServeError::BadRequest("bad \"line\"\n".into())),
        String::from_utf8(trace).unwrap(),
        tel::render_snapshot_json(&[(Some(0), snap.clone())], &snap),
        tel::format_log_line(tel::Level::Warn, "fuzz.event", &fields),
        mosaic_flow::reqtrace::healthz().1,
    ]
}

/// Hostile inputs: every truncation and seeded splices of the written
/// documents, plus deep nesting, huge exponents, long strings and control
/// characters.
fn codec_inputs() -> Vec<(String, String)> {
    const SPLICES: [&str; 24] = [
        "[",
        "{",
        "]",
        "}",
        ",",
        ":",
        "\"",
        "\\",
        "\\u",
        "\\ud800",
        "-",
        ".",
        "e",
        "E+",
        "1e999999999",
        "-1e-999999999",
        "NaN",
        "Infinity",
        "+1",
        "00",
        "\u{0}",
        "\u{1f}",
        "\n",
        "😀",
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(38);
    let mut inputs = Vec::new();
    for (d, doc) in written_documents().into_iter().enumerate() {
        let cuts: Vec<usize> = (0..=doc.len())
            .filter(|&i| doc.is_char_boundary(i))
            .collect();
        for &at in &cuts {
            inputs.push((format!("doc {d} truncated at {at}"), doc[..at].to_string()));
        }
        for k in 0..400 {
            let at = cuts[rng.gen_range(0..cuts.len())];
            let token = SPLICES[rng.gen_range(0..SPLICES.len())];
            let mut m = doc.clone();
            if k % 2 == 0 {
                m.insert_str(at, token);
            } else {
                let end = cuts.iter().copied().find(|&e| e > at).unwrap_or(at);
                m.replace_range(at..end, token);
            }
            inputs.push((format!("doc {d} splice {k}: {token:?} at {at}"), m));
        }
        for c in (0u8..0x20).map(char::from) {
            let mut m = doc.clone();
            m.insert(doc.find('"').map_or(0, |q| q + 1), c);
            inputs.push((format!("doc {d} with {c:?} in a string"), m));
        }
    }
    for n in [31, 32, 33, 1_000, 10_000, 100_000] {
        let open = "[".repeat(n);
        inputs.push((format!("{n} open ["), open.clone()));
        inputs.push((format!("{n} nested []"), format!("{open}{}", "]".repeat(n))));
        let obj = format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        inputs.push((format!("{n} nested objects"), obj));
    }
    for (what, text) in [
        ("huge exponent", "1e99999999999999999999".to_string()),
        ("tiny exponent", "-0.5e-99999999999999999999".to_string()),
        ("long integer", "1".repeat(5_000)),
        ("long fraction", format!("0.{}1", "0".repeat(5_000))),
        ("long string", format!("\"{}\"", "a".repeat(1 << 20))),
        (
            "long escapes",
            format!("\"{}\"", "\\n\\u00e9".repeat(50_000)),
        ),
        ("unterminated string", format!("\"{}", "µ".repeat(100_000))),
        ("long array", format!("[{}0]", "1e308,".repeat(20_000))),
    ] {
        inputs.push((what.to_string(), text));
    }
    inputs
}

#[test]
fn every_json_mutant_parses_or_is_refused_on_a_connection_stack() {
    let inputs = codec_inputs();
    let outcome = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let mut failures = Vec::new();
            let (mut ok, mut refused) = (0, 0);
            for (what, text) in &inputs {
                match catch_unwind(AssertUnwindSafe(|| JsonValue::parse(text))) {
                    Err(_) => failures.push(format!("{what}: panicked")),
                    Ok(Ok(_)) => ok += 1,
                    Ok(Err(_)) => refused += 1,
                }
            }
            (failures, ok, refused)
        })
        .unwrap()
        .join();
    let (failures, ok, refused) = outcome.expect("the parsing thread survived");
    assert!(ok > 0 && refused > 0, "{ok} parsed, {refused} refused");
    assert!(
        failures.is_empty(),
        "{} failing inputs, first ones:\n{}",
        failures.len(),
        failures[..failures.len().min(20)].join("\n")
    );
}

#[test]
fn values_the_writer_writes_parse_back_unchanged() {
    let mut rng = ChaCha8Rng::seed_from_u64(38);
    let mut numbers: Vec<f64> = (0..20_000)
        .map(|_| f64::from_bits(rng.next_u64()))
        .collect();
    numbers.extend([
        0.0,
        -0.0,
        5e-324,
        f64::MAX,
        f64::MIN,
        1e20,
        f64::NAN,
        f64::INFINITY,
    ]);
    let strings: Vec<String> = (0..2_000)
        .map(|_| {
            let len = rng.gen_range(0..40usize);
            (0..len)
                .filter_map(|_| match rng.gen_range(0..4u32) {
                    0 => char::from_u32(rng.next_u32() % 0x20),
                    1 => Some(['"', '\\', '/', 'u'][rng.gen_range(0..4usize)]),
                    2 => char::from_u32(rng.next_u32() % 0x11_0000),
                    _ => char::from_u32(0x20 + rng.next_u32() % 0x5f),
                })
                .collect()
        })
        .collect();
    let doc = JsonWriter::object(|w| {
        w.key("numbers").arr(|w| {
            for &v in &numbers {
                w.val(v);
            }
        });
        w.key("strings").obj(|w| {
            for s in &strings {
                w.field(s, s.as_str());
            }
        });
    });
    let doc = JsonValue::parse(&doc).expect("the writer writes JSON");
    let back = doc.get("numbers").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(back.len(), numbers.len());
    for (v, b) in numbers.iter().zip(back) {
        match b {
            JsonValue::Num(b) => assert_eq!(b.to_bits(), v.to_bits(), "{v:?}"),
            JsonValue::Null => assert!(!v.is_finite(), "{v:?} written as null"),
            other => panic!("{v:?} read back as {other:?}"),
        }
    }
    let Some(JsonValue::Obj(members)) = doc.get("strings") else {
        panic!("strings is not an object");
    };
    assert_eq!(members.len(), strings.len());
    for ((k, v), s) in members.iter().zip(&strings) {
        assert_eq!((k, v.as_str()), (s, Some(s.as_str())));
    }
}

//! The global request log: recent-N completed request records and
//! exemplar capture.
//!
//! A serve worker holds every fact of a finished request — the six
//! instants that bound its five phases, and what its solve reported — so
//! it writes the record itself ([`RequestTrace::finished`]) and hands the
//! batch over *after* its replies are sent ([`log_batch`]). The log adds
//! the two facts that belong to the thread, not to the request: the
//! worker's rank, and what the instrumentation spine recorded under the
//! solve (one read of the worker's flight ring: plan-compile time, and
//! the spans an exemplar keeps). Records go into a bounded ring guarded by
//! one mutex — contended batch by batch, never per request. Two exemplars
//! per rolling window of completions are kept in full (the slowest request
//! and the worst final residual) and can be exported as a Chrome
//! `trace_event` bundle ([`render_exemplar_trace`]) in the same format
//! mf-observe post-mortem bundles use, so the existing Perfetto tooling
//! opens them unchanged.
//!
//! Allocation accounting: the one buffer this crate creates lazily is the
//! log ring's storage. Workers [`reserve`] it at start; after the serve
//! layer calls [`mark_warm`], a first touch counts in [`warm_allocs`] —
//! the `reqtrace.warm_allocs` bench gate holds it at 0.

use crate::context::TraceContext;
use mf_telemetry::{Kind, Record, Ring, SpanEvent};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How many completed requests the recent ring keeps.
pub const RECENT_CAP: usize = 256;

/// Span records kept per request (5 contiguous phases + late wire
/// serialize spans leave headroom).
pub const MAX_SPANS: usize = 12;

/// Completions per exemplar window: when a window closes, its slowest /
/// worst-residual exemplars replace the previous window's.
pub const EXEMPLAR_WINDOW: u64 = 1024;

/// Phases a request's wall time decomposes into; they tile it exactly on
/// the worker (queue → batch-wait → solve → reply-wait → serialize).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Enqueued until a worker claimed the batch containing the request.
    #[default]
    Queue = 0,
    /// Claimed until the solve launched: batch assembly plus any
    /// hold-open window spent waiting for co-batched peers.
    BatchWait = 1,
    /// Inside `Mfp::run_many`.
    Solve = 2,
    /// Solve finished until the worker turned to this request's reply:
    /// the replies of co-batched requests sent ahead of it (zero for the
    /// first reply of a batch).
    ReplyWait = 3,
    /// Building and sending the reply (response struct + channel send on
    /// the worker; JSON rendering + socket write on the TCP path).
    Serialize = 4,
}

impl Phase {
    /// The five phases in the order they tile a request.
    pub const ALL: [Phase; 5] = [
        Phase::Queue,
        Phase::BatchWait,
        Phase::Solve,
        Phase::ReplyWait,
        Phase::Serialize,
    ];

    /// Stable lowercase name used in JSON exports and trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::BatchWait => "batch_wait",
            Phase::Solve => "solve",
            Phase::ReplyWait => "reply_wait",
            Phase::Serialize => "serialize",
        }
    }
}

/// One phase interval of one request. `Copy` and fixed-size so request-log
/// entries never allocate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanRec {
    /// The request this span belongs to.
    pub req: u64,
    /// Which phase of the request the interval covers.
    pub phase: Phase,
    /// Start, microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A completed request's record: phase decomposition, how its solve
/// ended, and the phase intervals. Fixed-size and `Copy` so ring storage is
/// preallocated once.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestTrace {
    /// Request id (see [`TraceContext`]).
    pub req: u64,
    /// Parent span id (TCP connection id, or 0 for in-process roots).
    pub parent: u64,
    /// Subdomain grid width requested.
    pub sx: u32,
    /// Subdomain grid height requested.
    pub sy: u32,
    /// Size of the batch this request was solved in.
    pub batch: u32,
    /// Telemetry rank of the worker that solved it.
    pub worker: u32,
    /// Enqueue time, microseconds since the telemetry epoch.
    pub enqueued_us: u64,
    /// End-to-end wall time, enqueue to reply sent.
    pub total_us: u64,
    /// Time from enqueue until a worker claimed the batch.
    pub queue_us: u64,
    /// Time from claim until the solve launched.
    pub batch_wait_us: u64,
    /// Time inside the MFP solve.
    pub solve_us: u64,
    /// Time behind the replies of co-batched requests sent first.
    pub reply_wait_us: u64,
    /// Time building and sending the reply.
    pub serialize_us: u64,
    /// Portion of the solve spent compiling inference plans (shared by
    /// the batch; attributed in full to each member). 0 while the flight
    /// recorder is off.
    pub plan_compile_us: u64,
    /// Schwarz iterations this request ran.
    pub iterations: u32,
    /// Iteration at which the request left the active set: its last one
    /// when it converged, `u32::MAX` (never) otherwise.
    pub evict_round: u32,
    /// Whether the request hit its convergence tolerance.
    pub converged: bool,
    /// Last residual observed for the request.
    pub final_residual: f64,
    /// Phase intervals (first `nspans` entries are valid).
    pub spans: [SpanRec; MAX_SPANS],
    /// Number of valid entries in `spans`.
    pub nspans: u8,
}

impl RequestTrace {
    /// The record of a finished request, written by the worker that served
    /// it. `bounds` are the six instants on the telemetry clock that bound
    /// its five phases: enqueued, batch claimed, solve started, solve
    /// ended, worker turned to this reply, reply sent. Each phase runs from
    /// one instant to the next, so the five tile `total_us` to the
    /// microsecond. `final_residual` is the solve's last delta.
    /// [`log_batch`] fills `batch`, `worker` and `plan_compile_us`.
    pub fn finished(
        ctx: TraceContext,
        sx: u32,
        sy: u32,
        bounds: [u64; 6],
        iterations: u32,
        converged: bool,
        final_residual: f64,
    ) -> Self {
        let mut t = RequestTrace {
            req: ctx.req,
            parent: ctx.parent,
            sx,
            sy,
            enqueued_us: bounds[0],
            total_us: bounds[5].saturating_sub(bounds[0]),
            iterations,
            evict_round: if converged {
                iterations.saturating_sub(1)
            } else {
                u32::MAX
            },
            converged,
            final_residual,
            ..RequestTrace::default()
        };
        for (phase, w) in Phase::ALL.into_iter().zip(bounds.windows(2)) {
            t.push_span(SpanRec {
                req: ctx.req,
                phase,
                start_us: w[0],
                dur_us: w[1].saturating_sub(w[0]),
            });
        }
        t
    }

    fn push_span(&mut self, rec: SpanRec) {
        if (self.nspans as usize) < MAX_SPANS {
            self.spans[self.nspans as usize] = rec;
            self.nspans += 1;
        }
        match rec.phase {
            Phase::Queue => self.queue_us += rec.dur_us,
            Phase::BatchWait => self.batch_wait_us += rec.dur_us,
            Phase::Solve => self.solve_us += rec.dur_us,
            Phase::ReplyWait => self.reply_wait_us += rec.dur_us,
            Phase::Serialize => self.serialize_us += rec.dur_us,
        }
    }
}

/// Spine records kept per exemplar (later ones are dropped; the iteration
/// *count* in the trace is still exact).
const MAX_EXEMPLAR_SPANS: usize = 128;

struct Exemplar {
    trace: RequestTrace,
    /// What the spine recorded on the worker under the batch's solve.
    spans: Vec<Record>,
}

/// Whether residual `new` is worse than `cur`. A non-finite residual (the
/// solve diverged) is worse than every finite one, and the first of a
/// window stays.
fn worse_residual(new: f64, cur: f64) -> bool {
    cur.is_finite() && (!new.is_finite() || new > cur)
}

struct LogInner {
    ring: Ring<RequestTrace>,
    completed: u64,
    /// Current / previous exemplar windows: (slowest, worst residual).
    slow_cur: Option<Exemplar>,
    bad_cur: Option<Exemplar>,
    slow_prev: Option<Exemplar>,
    bad_prev: Option<Exemplar>,
}

impl LogInner {
    const fn new() -> Self {
        Self {
            ring: Ring::new(RECENT_CAP),
            completed: 0,
            slow_cur: None,
            bad_cur: None,
            slow_prev: None,
            bad_prev: None,
        }
    }

    /// Allocate the ring's storage if it does not exist yet; a first touch
    /// after [`mark_warm`] counts as a warm-path allocation.
    fn reserve(&mut self) -> bool {
        let fresh = self.ring.reserve();
        if fresh && WARM.load(Ordering::Relaxed) {
            WARM_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    fn consider_exemplar(&mut self, t: &RequestTrace, spans: &[Record]) {
        let exemplar = || {
            Some(Exemplar {
                trace: *t,
                spans: spans.to_vec(),
            })
        };
        let cur = self.slow_cur.as_ref();
        if cur.is_none_or(|e| t.total_us > e.trace.total_us) {
            self.slow_cur = exemplar();
        }
        let cur = self.bad_cur.as_ref();
        if cur.is_none_or(|e| worse_residual(t.final_residual, e.trace.final_residual)) {
            self.bad_cur = exemplar();
        }
        self.completed += 1;
        if self.completed.is_multiple_of(EXEMPLAR_WINDOW) {
            self.slow_prev = self.slow_cur.take();
            self.bad_prev = self.bad_cur.take();
        }
    }
}

static LOG: Mutex<LogInner> = Mutex::new(LogInner::new());
static WARM: AtomicBool = AtomicBool::new(false);
static WARM_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn lock_log() -> MutexGuard<'static, LogInner> {
    LOG.lock().unwrap()
}

/// Declare the warm phase started: creating the log ring's storage from
/// here on counts as a warm-path allocation (the `reqtrace.warm_allocs`
/// gate). Call after prewarm/warmup.
pub fn mark_warm() {
    WARM.store(true, Ordering::SeqCst);
}

/// Warm-path allocations since [`mark_warm`] — 0 means every record the
/// fleet logged went into preallocated storage.
pub fn warm_allocs() -> u64 {
    WARM_ALLOCS.load(Ordering::Relaxed)
}

/// Reset the warm-alloc counter (bench A/B phases).
pub fn reset_warm_allocs() {
    WARM_ALLOCS.store(0, Ordering::Relaxed);
}

/// Allocate the log ring's storage now. Serve workers call this at thread
/// start, so the one-time allocation lands before [`mark_warm`].
pub fn reserve() {
    lock_log().reserve();
}

/// Completed requests logged since process start.
pub fn completed() -> u64 {
    lock_log().completed
}

/// Log one batch's finished records. Call on the worker thread that solved
/// the batch, once, after every reply is sent; `solve` is the batch's
/// solve interval. One read of the thread's flight ring takes the spans
/// the spine recorded under the solve: the `infer.plan_compile` ones sum to
/// `plan_compile_us`, and an exemplar keeps them all. A no-op when request
/// tracing is off.
pub fn log_batch(traces: &[RequestTrace], solve: RangeInclusive<u64>) {
    if !crate::enabled() || traces.is_empty() {
        return;
    }
    let worker = mf_telemetry::thread_rank().unwrap_or(0) as u32;
    let mut plan_compile_us = 0;
    let mut spans: Vec<Record> = Vec::new();
    // Spans older than the solve were left by batches solved while request
    // tracing was off; they go too, so the ring a worker scans stays short.
    mf_telemetry::drain_flight(
        |r| r.kind == Kind::Span && r.t_us <= *solve.end(),
        |r| {
            if r.t_us < *solve.start() {
                return;
            }
            if r.name == "infer.plan_compile" {
                plan_compile_us += r.dur_us;
            }
            if spans.len() < MAX_EXEMPLAR_SPANS {
                spans.push(r);
            }
        },
    );
    let mut log = lock_log();
    log.reserve();
    for t in traces {
        let t = RequestTrace {
            batch: traces.len() as u32,
            worker,
            plan_compile_us,
            ..*t
        };
        log.consider_exemplar(&t, &spans);
        log.ring.push(t);
    }
}

/// Attach a late serialization span (the TCP connection thread's JSON
/// render + socket write) to an already-logged request, extending its
/// total. No-op if the request has aged out of the ring.
pub fn note_serialize(req: u64, start_us: u64, dur_us: u64) {
    if !crate::enabled() {
        return;
    }
    let mut log = lock_log();
    let newest = log.ring.iter_mut().rev().find(|t| t.req == req);
    if let Some(t) = newest {
        t.push_span(SpanRec {
            req,
            phase: Phase::Serialize,
            start_us,
            dur_us,
        });
        let end = start_us + dur_us;
        t.total_us = t.total_us.max(end.saturating_sub(t.enqueued_us));
    }
}

/// The most recent `n` completed request traces, newest first.
pub fn recent(n: usize) -> Vec<RequestTrace> {
    lock_log().ring.iter().rev().take(n).copied().collect()
}

fn fmt_residual(r: f64) -> String {
    if r.is_finite() {
        format!("{r:e}")
    } else {
        "null".to_string()
    }
}

fn trace_json(t: &RequestTrace) -> String {
    let spans: Vec<String> = t.spans[..t.nspans as usize]
        .iter()
        .map(|s| {
            let (phase, start_us, dur_us) = (s.phase.as_str(), s.start_us, s.dur_us);
            format!("{{\"phase\":\"{phase}\",\"start_us\":{start_us},\"dur_us\":{dur_us}}}")
        })
        .collect();
    let spans = spans.join(",");
    let evict = if t.evict_round == u32::MAX {
        -1i64
    } else {
        t.evict_round as i64
    };
    format!(
        "{{\"req\":{},\"parent\":{},\"sx\":{},\"sy\":{},\"batch\":{},\"worker\":{},\
         \"enqueued_us\":{},\"total_us\":{},\"queue_us\":{},\"batch_wait_us\":{},\
         \"solve_us\":{},\"reply_wait_us\":{},\"serialize_us\":{},\"plan_compile_us\":{},\
         \"iterations\":{},\"evict_round\":{evict},\"converged\":{},\
         \"final_residual\":{},\"spans\":[{spans}]}}",
        t.req,
        t.parent,
        t.sx,
        t.sy,
        t.batch,
        t.worker,
        t.enqueued_us,
        t.total_us,
        t.queue_us,
        t.batch_wait_us,
        t.solve_us,
        t.reply_wait_us,
        t.serialize_us,
        t.plan_compile_us,
        t.iterations,
        t.converged,
        fmt_residual(t.final_residual),
    )
}

/// Render the `GET /requests` body: completion count and the recent
/// request traces (newest first).
pub fn render_requests_json(n: usize) -> String {
    let traces: Vec<String> = recent(n).iter().map(trace_json).collect();
    let (completed, traces) = (completed(), traces.join(","));
    format!("{{\"completed\":{completed},\"requests\":[{traces}]}}")
}

fn exemplar_spans(label: &str, e: &Exemplar, out: &mut Vec<SpanEvent>) {
    let t = &e.trace;
    out.push(SpanEvent {
        name: format!("request[{label}] req={} batch={}", t.req, t.batch),
        rank: t.worker as usize,
        start_us: t.enqueued_us,
        dur_us: t.total_us,
        depth: 0,
        args: vec![
            ("req".to_string(), t.req as f64),
            ("parent".to_string(), t.parent as f64),
            ("iterations".to_string(), t.iterations as f64),
            ("residual".to_string(), t.final_residual),
            ("converged".to_string(), t.converged as u8 as f64),
        ],
    });
    for s in &t.spans[..t.nspans as usize] {
        out.push(SpanEvent {
            name: s.phase.as_str().to_string(),
            rank: t.worker as usize,
            start_us: s.start_us,
            dur_us: s.dur_us,
            depth: 1,
            args: vec![("req".to_string(), s.req as f64)],
        });
    }
    // Under the solve phase, at the spine's own nesting.
    for r in &e.spans {
        out.push(SpanEvent {
            depth: 2 + r.depth,
            ..SpanEvent::from_record(t.worker as usize, r)
        });
    }
}

/// Export the current exemplars (slowest + worst-residual request of
/// the current window, falling back to the previous window) as a Chrome
/// `trace_event` array — the same format mf-observe post-mortem bundles
/// use, loadable in Perfetto alongside them.
pub fn render_exemplar_trace() -> String {
    let log = lock_log();
    let mut events = Vec::new();
    let slow = log.slow_cur.as_ref().or(log.slow_prev.as_ref());
    let bad = log.bad_cur.as_ref().or(log.bad_prev.as_ref());
    if let Some(e) = slow {
        exemplar_spans("slowest", e, &mut events);
    }
    match (slow, bad) {
        (Some(s), Some(b)) if s.trace.req == b.trace.req => {}
        (_, Some(b)) => exemplar_spans("worst_residual", b, &mut events),
        _ => {}
    }
    drop(log);
    events.sort_by(|a, b| {
        (a.rank, a.start_us, a.depth, &a.name).cmp(&(b.rank, b.start_us, b.depth, &b.name))
    });
    let mut buf = Vec::new();
    mf_telemetry::write_chrome_trace(&events, &mut buf).expect("in-memory trace write cannot fail");
    String::from_utf8(buf).expect("chrome trace is utf-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that log take this in read mode; the test that flips the
    /// global enable switch takes it in write mode, so parallel test
    /// threads never see tracing disabled mid-log.
    static ENABLE_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

    /// A converged five-iteration request enqueued at 1000 whose phases
    /// last 100, 50, 200, 30 and `total_us - 380` microseconds.
    fn finished(total_us: u64, residual: f64) -> RequestTrace {
        let bounds = [1000, 1100, 1150, 1350, 1380, 1000 + total_us];
        RequestTrace::finished(TraceContext::root(), 2, 1, bounds, 5, true, residual)
    }

    const WIRE_KEYS: &str = "req parent sx sy batch worker enqueued_us total_us queue_us \
        batch_wait_us solve_us reply_wait_us serialize_us plan_compile_us iterations evict_round \
        converged final_residual spans";

    fn logged(req: u64) -> Option<RequestTrace> {
        recent(RECENT_CAP).into_iter().find(|t| t.req == req)
    }

    #[test]
    fn a_finished_record_tiles_its_wall_time_and_is_logged_as_written() {
        let _g = ENABLE_LOCK.read().unwrap();
        let t = finished(400, 1e-5);
        log_batch(&[t], 1150..=1350);
        let got = logged(t.req).expect("trace logged");
        assert_eq!(got.queue_us, 100);
        assert_eq!(got.batch_wait_us, 50);
        assert_eq!(got.solve_us, 200);
        assert_eq!(got.reply_wait_us, 30);
        assert_eq!(got.serialize_us, 20);
        assert_eq!(got.total_us, 400);
        assert_eq!(got.nspans, 5);
        let phases: Vec<Phase> = got.spans[..5].iter().map(|s| s.phase).collect();
        assert_eq!(phases, Phase::ALL);
        assert_eq!((got.batch, got.iterations, got.evict_round), (1, 5, 4));
        assert!(got.converged);
        let sum =
            got.queue_us + got.batch_wait_us + got.solve_us + got.reply_wait_us + got.serialize_us;
        assert_eq!(sum, got.total_us, "the five phases tile the request");
        // A request that ran out of iterations never left the active set.
        let ctx = TraceContext::root();
        let open = RequestTrace::finished(ctx, 1, 1, [0, 1, 2, 3, 4, 5], 7, false, 0.5);
        assert_eq!(open.evict_round, u32::MAX);
        assert!(trace_json(&open).contains("\"evict_round\":-1"));
    }

    #[test]
    fn late_serialize_extends_the_trace() {
        let _g = ENABLE_LOCK.read().unwrap();
        let t = finished(380, 2e-4);
        log_batch(&[t], 1150..=1350);
        note_serialize(t.req, 1380, 100);
        let got = logged(t.req).unwrap();
        assert_eq!(got.serialize_us, 100);
        assert_eq!(got.total_us, 480);
    }

    #[test]
    fn the_log_reads_what_the_spine_recorded_under_the_solve() {
        let _g = ENABLE_LOCK.read().unwrap();
        std::thread::spawn(|| {
            {
                mf_telemetry::span!("mfp.iteration", it = 9.0);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            let start = mf_telemetry::now_us();
            {
                mf_telemetry::span!("mfp.iteration", it = 0.0);
                mf_telemetry::span!("infer.plan_compile");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let end = mf_telemetry::now_us();
            let bounds = [start - 1, start - 1, start, end, end, end + 900_000];
            let ctx = TraceContext::root();
            let t = RequestTrace::finished(ctx, 2, 1, bounds, 1, true, 3e-2);
            log_batch(&[t], start..=end);
            let got = logged(t.req).unwrap();
            assert!(got.plan_compile_us >= 2000, "{}", got.plan_compile_us);
            assert!(got.plan_compile_us <= got.solve_us);

            // The wire shape of the log: these keys, in this order.
            use mf_telemetry::JsonValue::{self, Obj};
            let keys = |v: &JsonValue| match v {
                Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
                other => panic!("not an object: {other:?}"),
            };
            let body = JsonValue::parse(&render_requests_json(RECENT_CAP)).expect("valid JSON");
            assert_eq!(keys(&body), ["completed", "requests"]);
            assert!(body.get("completed").and_then(|x| x.as_f64()).unwrap() >= 1.0);
            let newest = &body.get("requests").and_then(|x| x.as_arr()).unwrap()[0];
            assert_eq!(keys(newest).join(" "), WIRE_KEYS);
            // Slowest of any window the other tests fill: the spans under
            // its solve export, the iteration recorded before it does not.
            let trace = render_exemplar_trace();
            let events = mf_telemetry::parse_chrome_trace(&trace).expect("chrome trace");
            let named = |n: &str| events.iter().filter(|e| e.name == n).count();
            assert_eq!(named("mfp.iteration"), 1, "{trace}");
            assert_eq!(named("infer.plan_compile"), 1, "{trace}");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_diverged_request_is_the_worst_residual_of_its_window() {
        let mut log = LogInner::new();
        let bad = |log: &LogInner| log.bad_cur.as_ref().unwrap().trace.req;
        let finite = finished(400, 1e-3);
        log.consider_exemplar(&finite, &[]);
        assert_eq!(bad(&log), finite.req);
        let diverged = finished(400, f64::NAN);
        log.consider_exemplar(&diverged, &[]);
        assert_eq!(bad(&log), diverged.req, "non-finite is above every finite");
        // Neither a healthy request nor a later diverged one displaces it.
        log.consider_exemplar(&finished(400, 1e-1), &[]);
        log.consider_exemplar(&finished(400, f64::INFINITY), &[]);
        assert_eq!(bad(&log), diverged.req);
        // Among finite residuals the largest wins.
        let mut log = LogInner::new();
        let larger = finished(400, 1e-2);
        log.consider_exemplar(&finite, &[]);
        log.consider_exemplar(&larger, &[]);
        log.consider_exemplar(&finished(400, 1e-4), &[]);
        assert_eq!(bad(&log), larger.req);
    }

    #[test]
    fn only_a_first_touch_after_mark_warm_counts_as_a_warm_alloc() {
        // The counter is process-wide; other tests can only raise it.
        mark_warm();
        let before = warm_allocs();
        let mut log = LogInner::new();
        assert!(log.reserve());
        assert!(warm_allocs() > before, "ring creation must count");
        assert!(!log.reserve(), "the storage exists");
        log.ring.push(finished(400, 1e-5));
        assert!(!log.reserve());
    }

    #[test]
    fn disable_switch_gates_logging() {
        let _g = ENABLE_LOCK.write().unwrap();
        crate::set_enabled(false);
        assert!(!crate::enabled());
        let t = finished(400, 1e-5);
        log_batch(&[t], 1150..=1350);
        crate::set_enabled(true);
        assert!(logged(t.req).is_none());
    }
}

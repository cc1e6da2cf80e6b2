//! The global request log: recent-N completed request traces, the
//! convergence audit attached to each, and exemplar capture.
//!
//! Workers deposit finished requests here *after* replies are sent
//! ([`drain_batch`]): the thread's span ring and audit scope are merged
//! into fixed-size [`RequestTrace`] records and pushed into a bounded
//! ring guarded by one mutex — contended only batch-by-batch, never
//! per-span. Two exemplars per rolling window of completions are kept
//! in full (the slowest request and the worst final residual), each
//! with the batch's iteration spans, and can be exported as a Chrome
//! `trace_event` bundle ([`render_exemplar_trace`]) in the same format
//! mf-observe post-mortem bundles use, so the existing Perfetto
//! tooling opens them unchanged.

use crate::audit;
use crate::context::TraceContext;
use crate::ring::{self, Phase, SpanRec};
use mf_telemetry::{Record, Ring, SpanEvent};
use std::sync::{LazyLock, Mutex};

/// How many completed requests the recent ring keeps.
pub const RECENT_CAP: usize = 256;

/// Span records kept per request (5 contiguous phases + nested
/// plan-compile + wire serialize leaves headroom).
pub const MAX_SPANS: usize = 12;

/// Completions per exemplar window: when a window closes, its slowest /
/// worst-residual exemplars replace the previous window's.
pub const EXEMPLAR_WINDOW: u64 = 1024;

/// A completed request's trace: phase decomposition, convergence audit,
/// and the raw span records. Fixed-size and `Copy` so ring storage is
/// preallocated once.
#[derive(Clone, Copy, Debug)]
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
    /// the batch; attributed in full to each member).
    pub plan_compile_us: u64,
    /// Schwarz iterations this request ran.
    pub iterations: u32,
    /// Iteration at which the active set evicted the request
    /// (`u32::MAX` = ran to the final iteration).
    pub evict_round: u32,
    /// Whether the request hit its convergence tolerance.
    pub converged: bool,
    /// Last residual observed for the request.
    pub final_residual: f64,
    /// Halo exchanges that consumed a stale value (0 on the sequential
    /// path).
    pub stale_halos: u32,
    /// Raw span records (first `nspans` entries are valid).
    pub spans: [SpanRec; MAX_SPANS],
    /// Number of valid entries in `spans`.
    pub nspans: u8,
}

impl RequestTrace {
    const EMPTY: RequestTrace = RequestTrace {
        req: 0,
        parent: 0,
        sx: 0,
        sy: 0,
        batch: 0,
        worker: 0,
        enqueued_us: 0,
        total_us: 0,
        queue_us: 0,
        batch_wait_us: 0,
        solve_us: 0,
        reply_wait_us: 0,
        serialize_us: 0,
        plan_compile_us: 0,
        iterations: 0,
        evict_round: u32::MAX,
        converged: false,
        final_residual: f64::NAN,
        stale_halos: 0,
        spans: [SpanRec::EMPTY; MAX_SPANS],
        nspans: 0,
    };

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

/// What the serve worker knows about a finished request when it hands
/// the batch to [`drain_batch`].
#[derive(Clone, Copy, Debug)]
pub struct RequestMeta {
    /// The request's trace context.
    pub ctx: TraceContext,
    /// Subdomain grid width.
    pub sx: u32,
    /// Subdomain grid height.
    pub sy: u32,
    /// Enqueue time, microseconds since the telemetry epoch.
    pub enqueued_us: u64,
    /// Enqueue-to-reply wall time in microseconds.
    pub total_us: u64,
    /// Iterations the solve reported for this request.
    pub iterations: u32,
    /// Whether the solve converged.
    pub converged: bool,
    /// Final residual the solve reported (NaN if unknown).
    pub final_residual: f64,
}

/// Iteration spans kept per exemplar (later ones are dropped; the
/// iteration *count* in the trace is still exact).
const MAX_ITER_SPANS: usize = 128;

struct Exemplar {
    trace: RequestTrace,
    /// The batch's `mfp.iteration` spans, as the solver recorded them.
    iters: Vec<Record>,
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
    fn consider_exemplar(&mut self, t: &RequestTrace, iters: &[Record]) {
        let slower = self
            .slow_cur
            .as_ref()
            .map(|e| t.total_us > e.trace.total_us)
            .unwrap_or(true);
        if slower {
            self.slow_cur = Some(Exemplar {
                trace: *t,
                iters: iters.to_vec(),
            });
        }
        let worse = self
            .bad_cur
            .as_ref()
            .map(|e| {
                !e.trace.final_residual.is_finite()
                    || (t.final_residual.is_finite() && t.final_residual > e.trace.final_residual)
            })
            .unwrap_or(true);
        if worse {
            self.bad_cur = Some(Exemplar {
                trace: *t,
                iters: iters.to_vec(),
            });
        }
        self.completed += 1;
        if self.completed.is_multiple_of(EXEMPLAR_WINDOW) {
            self.slow_prev = self.slow_cur.take();
            self.bad_prev = self.bad_cur.take();
        }
    }
}

static LOG: LazyLock<Mutex<LogInner>> = LazyLock::new(|| {
    Mutex::new(LogInner {
        ring: Ring::new(RECENT_CAP),
        completed: 0,
        slow_cur: None,
        bad_cur: None,
        slow_prev: None,
        bad_prev: None,
    })
});

/// Completed requests logged since process start.
pub fn completed() -> u64 {
    LOG.lock().unwrap().completed
}

/// Merge the calling worker's span ring, audit scope and the iteration
/// spans the solver left in the worker's flight ring into finished request
/// traces, and push them into the global log. Call once per batch, after
/// every reply is sent — this is the drain that keeps the recording path
/// alloc-free.
pub fn drain_batch(metas: &[RequestMeta]) {
    let batch_audit = audit::end_batch();
    if !crate::enabled() || metas.is_empty() {
        return;
    }
    let worker = mf_telemetry::thread_rank().unwrap_or(0) as u32;
    let mut recs: Vec<SpanRec> = Vec::with_capacity(metas.len() * 5);
    ring::drain_thread(
        |r| metas.iter().any(|m| m.ctx.req == r.req),
        |r| recs.push(r),
    );
    // Older ones were left by batches solved while request tracing was off.
    let solve_start = recs.iter().find(|r| r.phase == Phase::Solve);
    let solve_start = solve_start.map_or(0, |r| r.start_us);
    let mut iters: Vec<Record> = Vec::new();
    mf_telemetry::drain_flight(
        |r| r.name == "mfp.iteration",
        |r| {
            if r.t_us >= solve_start && iters.len() < MAX_ITER_SPANS {
                iters.push(r);
            }
        },
    );

    let mut log = LOG.lock().unwrap();
    for (slot, meta) in metas.iter().enumerate() {
        let mut t = RequestTrace {
            req: meta.ctx.req,
            parent: meta.ctx.parent,
            sx: meta.sx,
            sy: meta.sy,
            batch: metas.len() as u32,
            worker,
            enqueued_us: meta.enqueued_us,
            total_us: meta.total_us,
            iterations: meta.iterations,
            converged: meta.converged,
            final_residual: meta.final_residual,
            ..RequestTrace::EMPTY
        };
        for rec in recs.iter().filter(|r| r.req == meta.ctx.req) {
            t.push_span(*rec);
        }
        if batch_audit.plan_compile_us > 0 {
            t.plan_compile_us += batch_audit.plan_compile_us;
        }
        if let Some(sa) = batch_audit.slots.get(slot) {
            t.evict_round = sa.evict_round;
            t.stale_halos = sa.stale_halos;
            if sa.iterations > 0 {
                t.iterations = sa.iterations;
            }
            if sa.final_residual.is_finite() {
                t.final_residual = sa.final_residual;
            }
            if sa.converged {
                t.converged = true;
            }
        }
        if t.evict_round == u32::MAX && t.converged {
            // Converged on the last iteration without an explicit
            // eviction mark: the eviction round is the iteration count.
            t.evict_round = t.iterations.saturating_sub(1);
        }
        log.consider_exemplar(&t, &iters);
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
    let mut log = LOG.lock().unwrap();
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
    LOG.lock()
        .unwrap()
        .ring
        .iter()
        .rev()
        .take(n)
        .copied()
        .collect()
}

fn fmt_residual(r: f64) -> String {
    if r.is_finite() {
        format!("{r:e}")
    } else {
        "null".to_string()
    }
}

fn trace_json(t: &RequestTrace) -> String {
    let mut spans = String::from("[");
    for i in 0..t.nspans as usize {
        let s = &t.spans[i];
        if i > 0 {
            spans.push(',');
        }
        spans.push_str(&format!(
            "{{\"phase\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
            s.phase.as_str(),
            s.start_us,
            s.dur_us
        ));
    }
    spans.push(']');
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
         \"final_residual\":{},\"stale_halos\":{},\"spans\":{spans}}}",
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
        t.stale_halos,
    )
}

/// Render the `GET /requests` body: completion count, ring-drop count,
/// and the recent request traces (newest first).
pub fn render_requests_json(n: usize) -> String {
    let traces = recent(n);
    let mut body = format!(
        "{{\"completed\":{},\"span_drops\":{},\"requests\":[",
        completed(),
        ring::dropped_records()
    );
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&trace_json(t));
    }
    body.push_str("]}");
    body
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
    for r in &e.iters {
        out.push(SpanEvent {
            name: format!("iteration {}", r.v[0]),
            depth: 2,
            ..SpanEvent::from_record(t.worker as usize, r)
        });
    }
}

/// Export the current exemplars (slowest + worst-residual request of
/// the current window, falling back to the previous window) as a Chrome
/// `trace_event` array — the same format mf-observe post-mortem bundles
/// use, loadable in Perfetto alongside them.
pub fn render_exemplar_trace() -> String {
    let log = LOG.lock().unwrap();
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

    fn meta(req: u64, total_us: u64, residual: f64) -> RequestMeta {
        RequestMeta {
            ctx: TraceContext { req, parent: 0 },
            sx: 2,
            sy: 1,
            enqueued_us: 1000,
            total_us,
            iterations: 5,
            converged: true,
            final_residual: residual,
        }
    }

    #[test]
    fn drain_assembles_traces_with_phase_sums() {
        let _g = crate::TEST_ENABLE_LOCK.read().unwrap();
        std::thread::spawn(|| {
            let m = meta(crate::next_id(), 400, 1e-5);
            let id = m.ctx.req;
            ring::record(id, Phase::Queue, 1000, 100);
            ring::record(id, Phase::BatchWait, 1100, 50);
            ring::record(id, Phase::Solve, 1150, 200);
            ring::record(id, Phase::ReplyWait, 1350, 30);
            ring::record(id, Phase::Serialize, 1380, 20);
            crate::audit::begin_batch(1);
            crate::audit::note_slot(0, 4, 1e-5, true);
            drain_batch(&[m]);
            let got = recent(RECENT_CAP)
                .into_iter()
                .find(|t| t.req == id)
                .expect("trace logged");
            assert_eq!(got.queue_us, 100);
            assert_eq!(got.batch_wait_us, 50);
            assert_eq!(got.solve_us, 200);
            assert_eq!(got.reply_wait_us, 30);
            assert_eq!(got.serialize_us, 20);
            assert_eq!(got.total_us, 400);
            assert_eq!(got.nspans, 5);
            assert_eq!(got.iterations, 5);
            assert_eq!(got.evict_round, 4);
            assert!(got.converged);
            let sum = got.queue_us
                + got.batch_wait_us
                + got.solve_us
                + got.reply_wait_us
                + got.serialize_us;
            assert_eq!(sum, got.total_us, "the five phases tile the request");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn late_serialize_extends_the_trace() {
        let _g = crate::TEST_ENABLE_LOCK.read().unwrap();
        std::thread::spawn(|| {
            let m = meta(crate::next_id(), 300, 2e-4);
            let id = m.ctx.req;
            ring::record(id, Phase::Queue, 1000, 300);
            crate::audit::begin_batch(1);
            drain_batch(&[m]);
            note_serialize(id, 1300, 80);
            let got = recent(RECENT_CAP)
                .into_iter()
                .find(|t| t.req == id)
                .unwrap();
            assert_eq!(got.serialize_us, 80);
            assert_eq!(got.total_us, 380);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn requests_json_parses_and_exemplar_trace_is_chrome_format() {
        let _g = crate::TEST_ENABLE_LOCK.read().unwrap();
        std::thread::spawn(|| {
            let m = meta(crate::next_id(), 900_000, 3e-2);
            let id = m.ctx.req;
            ring::record(id, Phase::Queue, 1000, 900_000);
            crate::audit::begin_batch(1);
            {
                mf_telemetry::span!("mfp.iteration", it = 0, active = 1);
            }
            drain_batch(&[m]);
            let body = render_requests_json(8);
            let v = mf_telemetry::JsonValue::parse(&body).expect("valid JSON");
            assert!(v.get("completed").and_then(|x| x.as_f64()).unwrap() >= 1.0);
            let trace = render_exemplar_trace();
            assert!(trace.contains("\"ph\":\"X\""), "chrome events: {trace}");
            assert!(trace.contains("iteration 0"), "iteration spans: {trace}");
            mf_telemetry::parse_chrome_trace(&trace).expect("parseable chrome trace");
        })
        .join()
        .unwrap();
    }
}

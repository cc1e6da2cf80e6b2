//! Ranks-as-threads cluster with MPI-flavored point-to-point and
//! collective operations, hardened by the `mf-faultsim` layer
//! ([`crate::fault`]): every link carries sequence numbers, receivers
//! deduplicate and reorder, lost messages are recovered from a
//! retransmit log, and rank death surfaces as a typed error instead of a
//! deadlock.

use crate::fault::{
    lock_robust, ClusterError, CommError, FaultBarrier, FaultCounters, FaultPlan, FaultState,
};
use crate::topology::NodeMap;
use crossbeam::channel::{unbounded, Receiver, Sender};
use mf_observe::flow_id;
use mf_telemetry::{
    counter, flow, gauge, histogram, span, Buckets, Counter, FlowPhase, Gauge, Histogram,
};
use std::collections::{BTreeMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval of blocked receives and barrier waits: how often a
/// waiter re-checks the rank-failure flags.
const TICK: Duration = Duration::from_millis(5);

/// A tagged, per-link-sequenced message between ranks.
#[derive(Clone, Debug)]
struct Message {
    src: usize,
    /// Position in the src→dst link's send order; receivers deliver in
    /// `seq` order and drop duplicates.
    seq: u64,
    tag: u64,
    payload: Vec<f64>,
    /// Injected-delay maturity: the receiver holds the message until this
    /// instant, modeling in-flight wire latency. `None` for undelayed
    /// transmissions and retransmit-log replays (replays travel the
    /// reliable control path and are never re-delayed).
    deliver_at: Option<Instant>,
}

/// Poll-able handle to a non-blocking send posted with
/// [`Communicator::isend`]. Completion means the receiver acknowledged
/// the transmission (it left the retransmit log); the send buffer is
/// copied at post time, so the caller never has to wait before reusing
/// its data.
#[derive(Clone, Copy, Debug)]
pub struct SendHandle {
    dst: usize,
    seq: u64,
}

/// Poll-able handle to a non-blocking receive posted with
/// [`Communicator::irecv`]. Complete it with
/// [`Communicator::try_complete`] (non-blocking),
/// [`Communicator::wait`] (blocking), or
/// [`Communicator::wait_deadline`] (bounded).
#[derive(Clone, Copy, Debug)]
pub struct RecvHandle {
    src: usize,
    tag: u64,
}

impl RecvHandle {
    /// Source rank this receive was posted against.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Tag this receive was posted against.
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// Per-source reorder window: messages are handed to tag matching in
/// exact send (`seq`) order, so fault recovery preserves the lossless
/// cluster's per-link FIFO semantics bit-for-bit.
struct Reorder {
    /// Next sequence number to deliver.
    next: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    held: BTreeMap<u64, Message>,
}

/// Communication counters for one rank.
///
/// `comm_seconds` is wall time spent inside blocking communication calls.
/// On a single-core host the interesting outputs are `msgs_*`/`bytes_*`,
/// which feed the [`PerfModel`](crate::PerfModel).
///
/// Counters track *logical* traffic: a send is counted once even if the
/// fault layer drops, duplicates, or retransmits it, so a run under
/// `drop_rate = 0` counts exactly like the lossless cluster. Injected
/// faults are visible in the `fault.*` telemetry counters instead.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point messages sent (collectives count their internal
    /// messages).
    pub msgs_sent: usize,
    /// Payload bytes sent.
    pub bytes_sent: usize,
    /// Messages received.
    pub msgs_recv: usize,
    /// Payload bytes received.
    pub bytes_recv: usize,
    /// Wall-clock seconds inside communication calls.
    pub comm_seconds: f64,
}

/// Handles into the `mf-telemetry` registry backing [`CommStats`].
///
/// All recording goes through these; [`Communicator::stats`] is a *view*
/// over the registry (current thread-local values minus the baseline
/// captured when the rank thread started or at the last
/// [`Communicator::reset_stats`]).
#[derive(Clone)]
struct CommCounters {
    msgs_sent: Counter,
    bytes_sent: Counter,
    msgs_recv: Counter,
    bytes_recv: Counter,
    comm_seconds: Gauge,
    allreduce_bytes: Histogram,
    exchange_bytes: Histogram,
}

impl CommCounters {
    fn new() -> Self {
        CommCounters {
            msgs_sent: counter("comm.msgs_sent"),
            bytes_sent: counter("comm.bytes_sent"),
            msgs_recv: counter("comm.msgs_recv"),
            bytes_recv: counter("comm.bytes_recv"),
            comm_seconds: gauge("comm.comm_seconds"),
            allreduce_bytes: histogram("comm.allreduce_bytes", Buckets::bytes()),
            exchange_bytes: histogram("comm.exchange_bytes", Buckets::bytes()),
        }
    }

    /// Raw registry values for the calling thread.
    fn raw(&self) -> CommStats {
        CommStats {
            msgs_sent: self.msgs_sent.get() as usize,
            bytes_sent: self.bytes_sent.get() as usize,
            msgs_recv: self.msgs_recv.get() as usize,
            bytes_recv: self.bytes_recv.get() as usize,
            comm_seconds: self.comm_seconds.get(),
        }
    }
}

/// One rank's endpoint of the simulated cluster.
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    pending: Vec<Message>,
    barrier: Arc<FaultBarrier>,
    faults: Arc<FaultState>,
    /// Per-source dedup/reorder windows.
    reorder: Vec<Reorder>,
    /// `(src, tag)` pairs abandoned by a deadline receive; late arrivals
    /// are acknowledged and discarded instead of polluting `pending`.
    tombstones: HashSet<(usize, u64)>,
    /// Delay-injected messages still "on the wire": pulled off the channel
    /// but not yet mature. They are not acknowledged until maturity, so a
    /// retry round can recover them early via the reliable replay path
    /// (dedup then discards the late original).
    immature: Vec<Message>,
    counters: CommCounters,
    fcounters: FaultCounters,
    /// Registry values at thread start / last `reset_stats`; `stats()`
    /// reports the delta since then.
    baseline: CommStats,
    /// Shared scratch for [`align_clocks`](Self::align_clocks): one slot
    /// per rank, written between two barriers. Deliberately *not* a link
    /// message — clock alignment must never perturb the per-link fault
    /// RNG streams or the message counters.
    clock_samples: Arc<Vec<AtomicU64>>,
}

/// Factory for simulated clusters.
pub struct Cluster;

impl Cluster {
    /// Run `f` on `size` ranks (threads) and collect the per-rank results
    /// in rank order.
    ///
    /// Panics in any rank propagate (the whole run fails), mirroring an
    /// MPI abort. Unlike a bare thread join, a panicking rank does *not*
    /// leave peers blocked in `recv` forever: the failure flag trips
    /// every blocked wait within a poll tick, and the resulting panic
    /// names the originating rank.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Communicator) -> T + Send + Sync,
    {
        match Self::try_run(size, FaultPlan::none(), f) {
            Ok(outs) => outs,
            Err(e) => panic!("cluster failed: {e}"),
        }
    }

    /// Run `f` on `size` ranks under a [`FaultPlan`], collecting per-rank
    /// results in rank order or a [`ClusterError`] naming every failed
    /// rank (origin first) if any rank panicked or was crash-injected.
    pub fn try_run<T, F>(size: usize, plan: FaultPlan, f: F) -> Result<Vec<T>, ClusterError>
    where
        T: Send,
        F: Fn(&mut Communicator) -> T + Send + Sync,
    {
        assert!(size >= 1, "Cluster::try_run: need at least one rank");
        // Full mesh of channels: channel[dst] receives from anyone.
        let mut senders_per_dst = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            senders_per_dst.push(tx);
            receivers.push(rx);
        }
        let barrier = Arc::new(FaultBarrier::new(size));
        let faults = Arc::new(FaultState::new(size, plan));
        let clock_samples: Arc<Vec<AtomicU64>> =
            Arc::new((0..size).map(|_| AtomicU64::new(0)).collect());

        let mut comms: Vec<Communicator> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Communicator {
                rank,
                size,
                senders: senders_per_dst.clone(),
                receiver,
                pending: Vec::new(),
                barrier: Arc::clone(&barrier),
                faults: Arc::clone(&faults),
                reorder: (0..size)
                    .map(|_| Reorder {
                        next: 0,
                        held: BTreeMap::new(),
                    })
                    .collect(),
                tombstones: HashSet::new(),
                immature: Vec::new(),
                counters: CommCounters::new(),
                fcounters: FaultCounters::new(),
                baseline: CommStats::default(),
                clock_samples: Arc::clone(&clock_samples),
            })
            .collect();
        drop(senders_per_dst);

        let f = &f;
        let outs: Vec<Option<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .iter_mut()
                .map(|comm| {
                    let faults = Arc::clone(&faults);
                    scope.spawn(move || {
                        // Metrics and spans are recorded into thread-local
                        // buffers; tag them with this rank and capture the
                        // stats baseline *on the rank thread* (the
                        // Communicator was built on the spawning thread).
                        mf_telemetry::set_thread_rank(comm.rank);
                        comm.baseline = comm.counters.raw();
                        let rank = comm.rank;
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(comm)));
                        // Flush after catch_unwind so a panicked rank's
                        // recent history (its last halo exchange, its last
                        // step) is preserved for the post-mortem bundle.
                        mf_telemetry::flush_thread();
                        match out {
                            Ok(v) => Some(v),
                            Err(payload) => {
                                faults.mark_failed(rank, panic_message(payload.as_ref()));
                                None
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(None))
                .collect()
        });

        let failed = std::mem::take(&mut *lock_robust(&faults.panics));
        if failed.is_empty() {
            Ok(outs.into_iter().map(|o| o.expect("rank result")).collect())
        } else {
            let err = ClusterError { failed };
            // Post-mortem: every rank's flight recorder was flushed on
            // thread exit above, so assemble the bundle now while the
            // evidence is fresh. `dump` self-gates on MF_OBSERVE /
            // set_dump_dir and never panics.
            mf_observe::postmortem::dump(
                &mf_observe::postmortem::DumpReason {
                    kind: "cluster-failure".to_string(),
                    detail: err.to_string(),
                    failing_rank: Some(err.origin()),
                },
                &format!("size = {size}\nfault plan = {:?}", faults.plan),
            );
            Err(err)
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// How long a receive is allowed to wait.
enum WaitMode {
    /// Wait indefinitely (lossless) or until the retry budget is spent
    /// (lossy plan), recovering dropped messages from the retransmit log.
    Block,
    /// Wait until the deadline only, with no retransmission — the
    /// degraded-halo path: if the data is not there in time, the caller
    /// uses stale values instead.
    Deadline(Instant),
}

impl Communicator {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Counters accumulated since the rank thread started (or the last
    /// [`reset_stats`](Self::reset_stats)). This is a view over the
    /// `mf-telemetry` registry for the calling thread.
    pub fn stats(&self) -> CommStats {
        let raw = self.counters.raw();
        CommStats {
            msgs_sent: raw.msgs_sent.saturating_sub(self.baseline.msgs_sent),
            bytes_sent: raw.bytes_sent.saturating_sub(self.baseline.bytes_sent),
            msgs_recv: raw.msgs_recv.saturating_sub(self.baseline.msgs_recv),
            bytes_recv: raw.bytes_recv.saturating_sub(self.baseline.bytes_recv),
            comm_seconds: (raw.comm_seconds - self.baseline.comm_seconds).max(0.0),
        }
    }

    /// Reset the counters (e.g. after warmup iterations). The underlying
    /// telemetry registry is monotone; this only moves the baseline that
    /// [`stats`](Self::stats) subtracts.
    pub fn reset_stats(&mut self) {
        self.baseline = self.counters.raw();
    }

    fn count_sent(&self, bytes: usize, t0: Instant) {
        self.counters.msgs_sent.incr();
        self.counters.bytes_sent.add(bytes as u64);
        self.counters.comm_seconds.add(t0.elapsed().as_secs_f64());
    }

    /// Send `payload` to `dst` with a user tag. Non-blocking (buffered).
    ///
    /// Under an active [`FaultPlan`] the transmission may be dropped,
    /// duplicated, or delayed; the message is always appended to the
    /// link's retransmit log first, so a receiver can recover it. Counted
    /// once as a logical send regardless of injected faults.
    pub fn send(&mut self, dst: usize, tag: u64, payload: &[f64]) {
        let _ = self.send_internal(dst, tag, payload);
    }

    /// Non-blocking send returning a poll-able [`SendHandle`].
    ///
    /// The wire protocol is identical to [`send`](Self::send) — sends are
    /// buffered and injected delays are imposed on the *receiver* side
    /// (the message matures in flight), so posting a send never blocks
    /// the caller. The handle exposes delivery state:
    /// [`send_complete`](Self::send_complete) turns true once the
    /// receiver has acknowledged the transmission.
    pub fn isend(&mut self, dst: usize, tag: u64, payload: &[f64]) -> SendHandle {
        let seq = self.send_internal(dst, tag, payload);
        SendHandle { dst, seq }
    }

    /// Whether the transmission behind `h` has been acknowledged by its
    /// receiver (i.e. left the retransmit log).
    pub fn send_complete(&self, h: &SendHandle) -> bool {
        !self
            .faults
            .link(self.rank, h.dst, self.size)
            .unacked
            .contains_key(&h.seq)
    }

    /// Post a receive for `(src, tag)` without blocking. Completion is
    /// polled with [`try_complete`](Self::try_complete) or awaited with
    /// [`wait`](Self::wait) / [`wait_deadline`](Self::wait_deadline).
    pub fn irecv(&mut self, src: usize, tag: u64) -> RecvHandle {
        assert!(src < self.size, "irecv: source {src} out of range");
        RecvHandle { src, tag }
    }

    fn send_internal(&mut self, dst: usize, tag: u64, payload: &[f64]) -> u64 {
        assert!(dst < self.size, "send: destination {dst} out of range");
        let t0 = Instant::now();
        if let Some(crash) = self.faults.plan.crash {
            if crash.rank == self.rank {
                let issued = self.faults.sends_issued[self.rank].fetch_add(1, Ordering::SeqCst);
                if issued >= crash.after_sends {
                    panic!(
                        "injected crash: rank {} after {} sends",
                        self.rank, crash.after_sends
                    );
                }
            }
        }
        let plan = &self.faults.plan;
        // Log the message and draw the link's fault decisions under the
        // link lock: the decision stream depends only on the seed and the
        // link's send count, never on thread scheduling. Exactly four
        // draws per send keep the stream aligned.
        let (seq, dropped, duplicated, delay_us) = {
            let mut link = self.faults.link(self.rank, dst, self.size);
            let seq = link.next_seq;
            link.next_seq += 1;
            link.unacked.insert(seq, (tag, payload.to_vec()));
            if plan.is_lossy() {
                let d_drop = link.rng.unit();
                let d_dup = link.rng.unit();
                let d_delay = link.rng.unit();
                let d_amount = link.rng.unit();
                (
                    seq,
                    d_drop < plan.drop_rate,
                    d_dup < plan.dup_rate,
                    (d_delay < plan.delay_rate)
                        .then_some((d_amount * plan.delay_max_us as f64) as u64),
                )
            } else {
                (seq, false, false, None)
            }
        };
        // Causal tracing: a flow *start* whose id packs (src→dst, seq),
        // stamped with the thread's (epoch, step). Purely local — no extra
        // messages, no RNG draws — so the per-link fault decision stream
        // and the pinned message counts are untouched.
        let fid = flow_id(self.rank, dst, seq);
        flow("comm.send", fid, FlowPhase::Start, payload.len() * 8);
        // Injected delays are imposed at the *receiver*: the message is
        // stamped with a maturity instant and held on arrival, so the
        // sender never blocks (a requirement for isend-based overlap).
        let deliver_at = match delay_us {
            Some(us) if us > 0 => {
                self.fcounters.delayed.incr();
                Some(Instant::now() + Duration::from_micros(us))
            }
            _ => None,
        };
        let msg = Message {
            src: self.rank,
            seq,
            tag,
            payload: payload.to_vec(),
            deliver_at,
        };
        if dropped {
            self.fcounters.dropped.incr();
        } else {
            if duplicated {
                self.fcounters.duplicated.incr();
                let _ = self.senders[dst].send(msg.clone());
            }
            let _ = self.senders[dst].send(msg);
        }
        self.count_sent(payload.len() * 8, t0);
        seq
    }

    /// Acknowledge, deduplicate, and reorder one arriving transmission,
    /// returning the messages that became deliverable (in `seq` order).
    fn accept(&mut self, m: Message) -> Vec<Message> {
        let src = m.src;
        // Ack: the transmission reached us, drop it from the sender's
        // retransmit log whether or not it turns out to be a duplicate.
        lock_robust(&self.faults.links[src * self.size + self.rank])
            .unacked
            .remove(&m.seq);
        let duplicate = {
            let ro = &self.reorder[src];
            m.seq < ro.next || ro.held.contains_key(&m.seq)
        };
        if duplicate {
            self.fcounters.dedup_discarded.incr();
            return Vec::new();
        }
        self.reorder[src].held.insert(m.seq, m);
        let mut out = Vec::new();
        loop {
            let msg = {
                let ro = &mut self.reorder[src];
                match ro.held.remove(&ro.next) {
                    Some(m) => {
                        ro.next += 1;
                        m
                    }
                    None => break,
                }
            };
            if self.tombstones.contains(&(src, msg.tag)) {
                continue;
            }
            self.counters.msgs_recv.incr();
            self.counters.bytes_recv.add((msg.payload.len() * 8) as u64);
            // Causal tracing: close the sender's flow on delivery so the
            // merged Chrome trace draws an arrow from the send site to
            // this rank's receive.
            let fid = flow_id(src, self.rank, msg.seq);
            flow("comm.recv", fid, FlowPhase::Finish, msg.payload.len() * 8);
            out.push(msg);
        }
        out
    }

    /// Replay the src→me retransmit log through the accept path (dedup
    /// makes this idempotent), returning the payload if the wanted
    /// message was among the recovered ones.
    fn replay_unacked(&mut self, src: usize, tag: u64) -> Option<Vec<f64>> {
        let entries: Vec<Message> = {
            let link = self.faults.link(src, self.rank, self.size);
            link.unacked
                .iter()
                .map(|(&seq, (t, p))| Message {
                    src,
                    seq,
                    tag: *t,
                    payload: p.clone(),
                    deliver_at: None,
                })
                .collect()
        };
        let mut found = None;
        for m in entries {
            for m in self.accept(m) {
                if found.is_none() && m.src == src && m.tag == tag {
                    found = Some(m.payload);
                } else {
                    self.pending.push(m);
                }
            }
        }
        found
    }

    /// Move delay-injected messages whose maturity instant has passed
    /// through the accept path. Returns the payload if one of them
    /// matches `(src, tag)`; the rest land in the out-of-order buffer.
    fn deliver_matured(&mut self, src: usize, tag: u64) -> Option<Vec<f64>> {
        if self.immature.is_empty() {
            return None;
        }
        let now = Instant::now();
        let mut matured = Vec::new();
        let mut i = 0;
        while i < self.immature.len() {
            if self.immature[i].deliver_at.is_none_or(|at| at <= now) {
                matured.push(self.immature.swap_remove(i));
            } else {
                i += 1;
            }
        }
        let mut found = None;
        for m in matured {
            for m in self.accept(m) {
                if found.is_none() && m.src == src && m.tag == tag {
                    found = Some(m.payload);
                } else {
                    self.pending.push(m);
                }
            }
        }
        found
    }

    /// Time until the earliest held delay-injected message matures.
    fn next_maturity(&self) -> Option<Duration> {
        let now = Instant::now();
        self.immature
            .iter()
            .filter_map(|m| m.deliver_at)
            .map(|at| at.saturating_duration_since(now))
            .min()
    }

    fn recv_inner(&mut self, src: usize, tag: u64, mode: WaitMode) -> Result<Vec<f64>, CommError> {
        // Check the out-of-order buffer first. `remove` (not
        // `swap_remove`): the buffer may hold several messages with the
        // same (src, tag) when a peer runs a collective ahead, and they
        // must keep arriving in seq order.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            return Ok(self.pending.remove(pos).payload);
        }
        let lossy = self.faults.plan.is_lossy();
        let retry = self.faults.plan.retry;
        let mut retries = 0usize;
        let mut round_deadline = Instant::now() + retry.timeout;
        loop {
            // Injected-delay maturities first: a held message whose
            // in-flight time has elapsed must be delivered before we
            // sleep on the channel again.
            if let Some(payload) = self.deliver_matured(src, tag) {
                return Ok(payload);
            }
            let wait = match mode {
                WaitMode::Block => TICK,
                WaitMode::Deadline(d) => {
                    let now = Instant::now();
                    if now >= d {
                        self.fcounters.timeouts.incr();
                        mf_observe::record("comm.timeout", src as u64, 0.0);
                        mf_telemetry::log!(Error, "comm.timeout", src = src, tag = tag);
                        return Err(CommError::Timeout { src, tag, retries });
                    }
                    TICK.min(d - now)
                }
            };
            let wait = match self.next_maturity() {
                Some(d) => wait.min(d),
                None => wait,
            };
            match self.receiver.recv_timeout(wait) {
                Ok(m) => {
                    // A delay-injected message that is still "on the
                    // wire": hold it unacknowledged until it matures.
                    if m.deliver_at.is_some_and(|at| Instant::now() < at) {
                        self.immature.push(m);
                        continue;
                    }
                    let mut found = None;
                    for m in self.accept(m) {
                        if found.is_none() && m.src == src && m.tag == tag {
                            found = Some(m.payload);
                        } else {
                            self.pending.push(m);
                        }
                    }
                    if let Some(payload) = found {
                        return Ok(payload);
                    }
                }
                Err(_) => {
                    // Idle tick (disconnection is unreachable while we hold
                    // a sender to ourselves): poll the failure flags, then
                    // the retry budget.
                    if let Some(rank) = self.faults.any_failed() {
                        mf_observe::record("comm.rank_failed", rank as u64, 0.0);
                        mf_telemetry::log!(Error, "comm.rank_failed", rank = rank);
                        return Err(CommError::RankFailed { rank });
                    }
                    if lossy && matches!(mode, WaitMode::Block) && Instant::now() >= round_deadline
                    {
                        if retries >= retry.max_retries {
                            self.fcounters.timeouts.incr();
                            mf_observe::record("comm.timeout", src as u64, retries as f64);
                            mf_telemetry::log!(
                                Error,
                                "comm.retry_budget_exhausted",
                                src = src,
                                tag = tag,
                                retries = retries
                            );
                            return Err(CommError::Timeout { src, tag, retries });
                        }
                        retries += 1;
                        self.fcounters.retries.incr();
                        mf_telemetry::log!(
                            Debug,
                            "comm.retry",
                            src = src,
                            tag = tag,
                            attempt = retries
                        );
                        if let Some(payload) = self.replay_unacked(src, tag) {
                            mf_telemetry::log!(
                                Debug,
                                "comm.replay_recovered",
                                src = src,
                                tag = tag,
                                attempt = retries
                            );
                            return Ok(payload);
                        }
                        round_deadline = Instant::now() + retry.timeout;
                    }
                }
            }
        }
    }

    /// Blocking receive of the message with the given source and tag.
    /// Other messages arriving first are buffered (MPI matching
    /// semantics). Panics on a communication fault — use
    /// [`recv_result`](Self::recv_result) to handle faults explicitly.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<f64> {
        match self.recv_result(src, tag) {
            Ok(payload) => payload,
            Err(e) => panic!("recv: {e}"),
        }
    }

    /// Blocking receive that surfaces faults as typed errors: a crashed
    /// peer yields [`CommError::RankFailed`]; under a lossy plan a
    /// message still missing after the retry budget yields
    /// [`CommError::Timeout`].
    pub fn recv_result(&mut self, src: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        let t0 = Instant::now();
        let result = self.recv_inner(src, tag, WaitMode::Block);
        self.counters.comm_seconds.add(t0.elapsed().as_secs_f64());
        result
    }

    /// Receive with an explicit deadline and *no* retransmission: if the
    /// message has not arrived when `timeout` expires, returns
    /// [`CommError::Timeout`] and leaves recovery policy to the caller.
    /// The slot is not tombstoned; a later identical `recv` can still
    /// match the message.
    pub fn recv_timeout(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f64>, CommError> {
        let t0 = Instant::now();
        let result = self.recv_inner(src, tag, WaitMode::Deadline(t0 + timeout));
        self.counters.comm_seconds.add(t0.elapsed().as_secs_f64());
        result
    }

    /// Non-blocking completion attempt for a posted receive: matures any
    /// held delay-injected messages, drains whatever is already queued on
    /// the channel, then checks the out-of-order buffer. Returns `None`
    /// if the message has not arrived yet.
    pub fn try_complete(&mut self, h: &RecvHandle) -> Option<Vec<f64>> {
        if let Some(payload) = self.deliver_matured(h.src, h.tag) {
            return Some(payload);
        }
        while let Some(m) = self.receiver.try_recv() {
            if m.deliver_at.is_some_and(|at| Instant::now() < at) {
                self.immature.push(m);
                continue;
            }
            let deliverable = self.accept(m);
            self.pending.extend(deliverable);
        }
        let pos = self
            .pending
            .iter()
            .position(|m| m.src == h.src && m.tag == h.tag)?;
        Some(self.pending.remove(pos).payload)
    }

    /// Block until the receive behind `h` completes. Identical semantics
    /// to [`recv`](Self::recv): panics on a communication fault.
    pub fn wait(&mut self, h: &RecvHandle) -> Vec<f64> {
        self.recv(h.src, h.tag)
    }

    /// Complete the receive behind `h` under a deadline with *no*
    /// retransmission — the degraded mode of the distributed MFP (§6.3).
    /// On timeout the `(src, tag)` slot is tombstoned: a late arrival is
    /// discarded, never delivered to a future iteration, and the caller
    /// reuses stale halo values instead. The tag must be unique per
    /// exchange round for tombstoning to be sound — the MFP uses its
    /// iteration index.
    pub fn wait_deadline(
        &mut self,
        h: &RecvHandle,
        timeout: Duration,
    ) -> Result<Vec<f64>, CommError> {
        let t0 = Instant::now();
        let result = self.recv_inner(h.src, h.tag, WaitMode::Deadline(t0 + timeout));
        if matches!(result, Err(CommError::Timeout { .. })) {
            self.tombstone(h.src, h.tag);
        }
        self.counters.comm_seconds.add(t0.elapsed().as_secs_f64());
        result
    }

    /// Abandon the `(src, tag)` receive slot: any queued or future
    /// arrival with this pair is acknowledged and discarded.
    fn tombstone(&mut self, src: usize, tag: u64) {
        self.tombstones.insert((src, tag));
        self.pending.retain(|m| !(m.src == src && m.tag == tag));
    }

    /// Synchronize all ranks. Panics with the failed rank id if a rank
    /// dies while others wait.
    pub fn barrier(&mut self) {
        let t0 = Instant::now();
        let result = self.barrier.wait(&self.faults, TICK);
        self.counters.comm_seconds.add(t0.elapsed().as_secs_f64());
        if let Err(e) = result {
            panic!("barrier: {e}");
        }
    }

    /// Align per-rank monotonic clocks at a barrier point and report each
    /// rank's offset relative to rank 0 as the `observe.clock_offset_us`
    /// gauge (plus a flight-recorder mark).
    ///
    /// All ranks share one telemetry epoch (`mf_telemetry::now_us` reads
    /// a process-wide `Instant`), so the offset measures residual barrier
    /// jitter rather than true clock skew — on a real deployment this is
    /// the hook where NTP-style skew would be estimated. Implemented with
    /// two barriers and a shared atomic slot per rank, deliberately *not*
    /// with link messages: alignment must never perturb the per-link
    /// fault RNG streams or the pinned message counters.
    pub fn align_clocks(&mut self) -> f64 {
        self.barrier();
        self.clock_samples[self.rank].store(mf_telemetry::now_us(), Ordering::SeqCst);
        self.barrier();
        let mine = self.clock_samples[self.rank].load(Ordering::SeqCst) as f64;
        let base = self.clock_samples[0].load(Ordering::SeqCst) as f64;
        let offset_us = mine - base;
        gauge("observe.clock_offset_us").set(offset_us);
        mf_observe::record("observe.align_clocks", self.rank as u64, offset_us);
        offset_us
    }

    /// Exchange buffers with a set of peers: send to every peer, then
    /// receive one buffer from each. This is the halo-exchange primitive
    /// of the distributed MFP (§4.2). Sends complete before any receive
    /// blocks, so the pattern is deadlock-free.
    pub fn exchange(&mut self, outgoing: &[(usize, Vec<f64>)], tag: u64) -> Vec<(usize, Vec<f64>)> {
        let bytes: usize = outgoing.iter().map(|(_, p)| p.len() * 8).sum();
        span!(
            "comm.exchange",
            peers = outgoing.len() as f64,
            bytes = bytes as f64
        );
        self.counters.exchange_bytes.record(bytes as f64);
        {
            mf_profile::zone!("halo_send");
            for (dst, payload) in outgoing {
                self.send(*dst, tag, payload);
            }
        }
        mf_profile::zone!("halo_recv");
        outgoing
            .iter()
            .map(|(peer, _)| (*peer, self.recv(*peer, tag)))
            .collect()
    }

    /// Asynchronous counterpart of [`exchange`](Self::exchange): post
    /// every halo send without blocking and return one [`RecvHandle`] per
    /// peer. The caller overlaps computation with the in-flight halos and
    /// completes each handle with [`try_complete`](Self::try_complete),
    /// [`wait`](Self::wait), or [`wait_deadline`](Self::wait_deadline).
    pub fn exchange_start(&mut self, outgoing: &[(usize, Vec<f64>)], tag: u64) -> Vec<RecvHandle> {
        let bytes: usize = outgoing.iter().map(|(_, p)| p.len() * 8).sum();
        self.counters.exchange_bytes.record(bytes as f64);
        mf_profile::zone!("halo_send");
        outgoing
            .iter()
            .map(|(dst, payload)| {
                let _ = self.isend(*dst, tag, payload);
                self.irecv(*dst, tag)
            })
            .collect()
    }

    /// In-place allreduce (sum), selecting the algorithm by world size
    /// and message size.
    ///
    /// Large buffers use the ring algorithm (reduce-scatter + allgather,
    /// 2(P−1) messages per rank) — the bandwidth-optimal choice used by
    /// MPI/NCCL and cited by the paper for gradient averaging. Buffers of
    /// at most [`ALLREDUCE_RD_MAX_ELEMS`] elements use latency-optimal
    /// recursive doubling (⌈log₂P⌉ rounds), matching MPI's small-message
    /// switch — except at [`TREE_MIN_RANKS`] ranks and above, where small
    /// messages take the hierarchical tree (node gather → binomial
    /// reduce/broadcast among node leaders → node fan-out), whose ~O(1)
    /// average messages per rank beats rd's log₂P latency term at scale.
    pub fn allreduce_sum(&mut self, buf: &mut [f64]) {
        let bytes = buf.len() * 8;
        span!(
            "comm.allreduce",
            bytes = bytes as f64,
            elems = buf.len() as f64
        );
        if self.size > 1 {
            if buf.is_empty() {
                self.barrier();
            } else if buf.len() <= ALLREDUCE_RD_MAX_ELEMS {
                if self.size >= TREE_MIN_RANKS {
                    self.allreduce_tree(buf);
                } else {
                    self.allreduce_rd(buf);
                }
            } else {
                self.allreduce_ring(buf);
            }
        }
        self.counters.allreduce_bytes.record(bytes as f64);
    }

    /// Hierarchical tree allreduce for small messages at large world
    /// sizes. Ranks within each [`NodeMap`] node send to their node
    /// leader, which sums the node's contributions in rank order; the
    /// leaders then run a binomial reduce onto leader 0 followed by a
    /// binomial broadcast, and each leader fans the finished sum back to
    /// its members. Every rank receives the same buffer (leader 0's
    /// reduction), so results are bit-identical across ranks.
    ///
    /// Cost: a member sends/receives 1 message each way; a leader handles
    /// node_size−1 gathers, ≤2·⌈log₂L⌉ leader-level messages, and
    /// node_size−1 fan-outs. At P=1024 with 8-rank nodes that averages
    /// ~2.7 messages per rank versus recursive doubling's 10 — the alpha
    /// (latency) term the `PerfModel` charges per message shrinks
    /// accordingly.
    fn allreduce_tree(&mut self, buf: &mut [f64]) {
        let nodes = NodeMap::new(self.size, TREE_NODE_SIZE);
        let me = self.rank;
        if !nodes.is_leader(me) {
            self.send(nodes.leader_of(me), TAG_TREE_GATHER, buf);
            let result = self.recv(nodes.leader_of(me), TAG_TREE_BCAST);
            buf.copy_from_slice(&result);
            return;
        }
        // Node-local gather: sum members onto the leader in rank order.
        let li = nodes.node_of(me);
        for src in nodes.members(li) {
            if src == me {
                continue;
            }
            let incoming = self.recv(src, TAG_TREE_GATHER);
            for (a, b) in buf.iter_mut().zip(incoming) {
                *a += b;
            }
        }
        // Binomial reduce among leaders onto leader 0 (leader index li,
        // physical rank li·node_size).
        let nl = nodes.num_nodes();
        let mut mask = 1usize;
        while mask < nl {
            if li & mask != 0 {
                self.send((li - mask) * TREE_NODE_SIZE, TAG_TREE_REDUCE, buf);
                break;
            }
            let src_li = li | mask;
            if src_li < nl {
                let incoming = self.recv(src_li * TREE_NODE_SIZE, TAG_TREE_REDUCE);
                for (a, b) in buf.iter_mut().zip(incoming) {
                    *a += b;
                }
            }
            mask <<= 1;
        }
        // Binomial broadcast of the total among leaders (same tree,
        // reversed flow).
        let mut mask = 1usize;
        while mask < nl {
            if li & mask != 0 {
                let incoming = self.recv((li - mask) * TREE_NODE_SIZE, TAG_TREE_FAN);
                buf.copy_from_slice(&incoming);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if li & (mask - 1) == 0 && li & mask == 0 {
                let dst_li = li | mask;
                if dst_li < nl {
                    self.send(dst_li * TREE_NODE_SIZE, TAG_TREE_FAN, buf);
                }
            }
            mask >>= 1;
        }
        // Fan the result back out to this node's members.
        for dst in nodes.members(li) {
            if dst != me {
                self.send(dst, TAG_TREE_BCAST, buf);
            }
        }
    }

    /// Ring allreduce: reduce-scatter followed by allgather.
    fn allreduce_ring(&mut self, buf: &mut [f64]) {
        let p = self.size;
        let n = buf.len();
        // Chunk boundaries: chunk c covers [starts[c], starts[c+1]).
        let starts: Vec<usize> = (0..=p).map(|c| c * n / p).collect();
        let right = (self.rank + 1) % p;
        let left = (self.rank + p - 1) % p;

        // Reduce-scatter: after step s, rank r holds the partial sum of
        // chunk (r - s) over ranks r-s..=r.
        for step in 0..p - 1 {
            let send_chunk = (self.rank + p - step) % p;
            let recv_chunk = (self.rank + p - step - 1) % p;
            let payload = buf[starts[send_chunk]..starts[send_chunk + 1]].to_vec();
            self.send(right, tag_ar(step, false), &payload);
            let incoming = self.recv(left, tag_ar(step, false));
            let dst = &mut buf[starts[recv_chunk]..starts[recv_chunk + 1]];
            for (d, v) in dst.iter_mut().zip(incoming) {
                *d += v;
            }
        }
        // Allgather the completed chunks around the ring.
        for step in 0..p - 1 {
            let send_chunk = (self.rank + 1 + p - step) % p;
            let recv_chunk = (self.rank + p - step) % p;
            let payload = buf[starts[send_chunk]..starts[send_chunk + 1]].to_vec();
            self.send(right, tag_ar(step, true), &payload);
            let incoming = self.recv(left, tag_ar(step, true));
            buf[starts[recv_chunk]..starts[recv_chunk + 1]].copy_from_slice(&incoming);
        }
    }

    /// Recursive-doubling allreduce with the MPICH fold/unfold scheme for
    /// non-power-of-two rank counts: the first `2·rem` ranks pair up
    /// (even sends its buffer to the odd neighbor, which joins the
    /// power-of-two group), the group runs log₂ pairwise exchange rounds,
    /// and the result is unfolded back to the idle even ranks.
    ///
    /// Pairwise exchanges compute `a + b` on one side and `b + a` on the
    /// other, so all ranks end bit-identical (IEEE addition commutes).
    fn allreduce_rd(&mut self, buf: &mut [f64]) {
        let p = self.size;
        let pof2 = prev_power_of_two(p);
        let rem = p - pof2;
        let me = self.rank;
        // Fold the surplus ranks into the power-of-two group.
        let newrank = if me < 2 * rem {
            if me.is_multiple_of(2) {
                self.send(me + 1, TAG_RD_FOLD, buf);
                None
            } else {
                let incoming = self.recv(me - 1, TAG_RD_FOLD);
                for (a, b) in buf.iter_mut().zip(incoming) {
                    *a += b;
                }
                Some(me / 2)
            }
        } else {
            Some(me - rem)
        };
        if let Some(nr) = newrank {
            let mut mask = 1usize;
            let mut step = 0u64;
            while mask < pof2 {
                let partner_new = nr ^ mask;
                let partner = if partner_new < rem {
                    partner_new * 2 + 1
                } else {
                    partner_new + rem
                };
                self.send(partner, tag_rd(step), buf);
                let incoming = self.recv(partner, tag_rd(step));
                for (a, b) in buf.iter_mut().zip(incoming) {
                    *a += b;
                }
                mask <<= 1;
                step += 1;
            }
        }
        // Unfold: hand the finished sum back to the idle even ranks.
        if me < 2 * rem {
            if me % 2 == 1 {
                self.send(me - 1, TAG_RD_UNFOLD, buf);
            } else {
                let incoming = self.recv(me + 1, TAG_RD_UNFOLD);
                buf.copy_from_slice(&incoming);
            }
        }
    }

    /// Allreduce-sum with a *canonical reduction order*: every element is
    /// summed over ranks 0, 1, …, P−1 left to right, on every rank.
    ///
    /// The ring and recursive-doubling paths of
    /// [`allreduce_sum`](Self::allreduce_sum) reduce in an order that
    /// depends on P, so the same per-rank contributions give slightly
    /// different floating-point totals at different rank counts. This
    /// variant (allgather + ordered local sum, P−1 messages each way)
    /// trades bandwidth optimality for a P-independent summation order —
    /// the basis of the cross-world-size determinism guarantee in
    /// training.
    pub fn allreduce_sum_ordered(&mut self, buf: &mut [f64]) {
        if self.size == 1 {
            return;
        }
        span!("comm.allreduce", bytes = (buf.len() * 8) as f64);
        let gathered = self.allgather(buf);
        for (i, slot) in buf.iter_mut().enumerate() {
            let mut acc = 0.0;
            for contribution in &gathered {
                acc += contribution[i];
            }
            *slot = acc;
        }
    }

    /// Average `buf` across all ranks (allreduce-sum then divide) — the
    /// gradient synchronization of Algorithm 1.
    pub fn allreduce_mean(&mut self, buf: &mut [f64]) {
        self.allreduce_sum(buf);
        let inv = 1.0 / self.size as f64;
        for v in buf.iter_mut() {
            *v *= inv;
        }
    }

    /// Rank-ordered mean: [`allreduce_sum_ordered`](Self::allreduce_sum_ordered)
    /// followed by the division, for reduction-order-independent gradient
    /// averaging.
    pub fn allreduce_mean_ordered(&mut self, buf: &mut [f64]) {
        self.allreduce_sum_ordered(buf);
        let inv = 1.0 / self.size as f64;
        for v in buf.iter_mut() {
            *v *= inv;
        }
    }

    /// Gather every rank's buffer on every rank, indexed by rank.
    /// Per-rank payload lengths may differ (ragged gather).
    pub fn allgather(&mut self, local: &[f64]) -> Vec<Vec<f64>> {
        span!("comm.allgather", bytes = (local.len() * 8) as f64);
        let mut out = vec![Vec::new(); self.size];
        for dst in 0..self.size {
            if dst != self.rank {
                self.send(dst, TAG_ALLGATHER, local);
            }
        }
        out[self.rank] = local.to_vec();
        let me = self.rank;
        for src in (0..self.size).filter(|&s| s != me) {
            out[src] = self.recv(src, TAG_ALLGATHER);
        }
        out
    }

    /// Sum a single scalar across ranks (used for global convergence
    /// tests in Algorithm 2).
    pub fn allreduce_scalar(&mut self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce_sum(&mut buf);
        buf[0]
    }

    /// Broadcast `buf` from `root` to all ranks (binomial tree: O(log P)
    /// rounds).
    pub fn broadcast(&mut self, root: usize, buf: &mut Vec<f64>) {
        assert!(root < self.size, "broadcast: root {root} out of range");
        span!("comm.broadcast", bytes = (buf.len() * 8) as f64);
        let p = self.size;
        if p == 1 {
            return;
        }
        // Re-index ranks so the root is virtual rank 0.
        let vrank = (self.rank + p - root) % p;
        let mut mask = 1usize;
        // Receive once (if not root), then forward down the tree.
        while mask < p {
            if vrank & mask != 0 {
                let src = (vrank - mask + root) % p;
                *buf = self.recv(src, TAG_BCAST);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank & (mask - 1) == 0 && vrank & mask == 0 {
                let vdst = vrank | mask;
                if vdst < p {
                    let dst = (vdst + root) % p;
                    self.send(dst, TAG_BCAST, buf);
                }
            }
            mask >>= 1;
        }
    }

    /// Reduce-sum `buf` onto `root` (other ranks' buffers are left as
    /// their partial sums; only the root holds the total).
    pub fn reduce_sum_to(&mut self, root: usize, buf: &mut [f64]) {
        assert!(root < self.size, "reduce_sum_to: root {root} out of range");
        let p = self.size;
        if p == 1 {
            return;
        }
        let vrank = (self.rank + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let dst = (vrank - mask + root) % p;
                self.send(dst, TAG_REDUCE, buf);
                return;
            } else {
                let vsrc = vrank | mask;
                if vsrc < p {
                    let src = (vsrc + root) % p;
                    let incoming = self.recv(src, TAG_REDUCE);
                    for (a, b) in buf.iter_mut().zip(incoming) {
                        *a += b;
                    }
                }
            }
            mask <<= 1;
        }
    }
}

/// Buffers of at most this many elements take the recursive-doubling
/// allreduce path; larger buffers use the bandwidth-optimal ring. 256 B
/// is latency-dominated on any fabric, and the bound covers the 22
/// doubles an accelerated MFP iteration reduces (stop-test sums plus the
/// mixing's Gram sums), which the ring would turn into 2(P−1) latency
/// steps per rank.
pub const ALLREDUCE_RD_MAX_ELEMS: usize = 32;

/// World size at which small-message allreduces switch from flat
/// recursive doubling to the hierarchical tree: below this, rd's
/// ⌈log₂P⌉ rounds are already cheap and the pinned small-world message
/// counts stay exact.
pub const TREE_MIN_RANKS: usize = 64;

/// Ranks per simulated node for the hierarchical allreduce. Under the
/// row-major rank order, a node is a contiguous row segment of the
/// processor grid, so intra-node traffic is topologically local.
pub const TREE_NODE_SIZE: usize = 8;

const TAG_ALLGATHER: u64 = u64::MAX - 1;
const TAG_BCAST: u64 = u64::MAX - 2;
const TAG_REDUCE: u64 = u64::MAX - 3;
const TAG_RD_FOLD: u64 = u64::MAX - 4;
const TAG_RD_UNFOLD: u64 = u64::MAX - 5;
const TAG_TREE_GATHER: u64 = u64::MAX - 6;
const TAG_TREE_BCAST: u64 = u64::MAX - 7;
const TAG_TREE_REDUCE: u64 = u64::MAX - 8;
const TAG_TREE_FAN: u64 = u64::MAX - 9;

/// Internal tags for ring-allreduce steps, kept far from user tags and
/// wide enough for large worlds: the ring uses `2(P−1)` distinct tags,
/// so the base must sit more than `2(P−1)` below the fixed collective
/// tags above (the old `u64::MAX − 1024` base overflowed into them from
/// P ≈ 510).
const TAG_AR_BASE: u64 = u64::MAX - (1 << 16);

fn tag_ar(step: usize, gather_phase: bool) -> u64 {
    TAG_AR_BASE + step as u64 * 2 + gather_phase as u64
}

/// Internal tags for recursive-doubling exchange rounds, below the ring
/// tag window.
const TAG_RD_BASE: u64 = u64::MAX - (1 << 17);

fn tag_rd(step: u64) -> u64 {
    TAG_RD_BASE + step
}

/// Largest power of two `<= p` (`p >= 1`).
fn prev_power_of_two(p: usize) -> usize {
    let mut v = 1usize;
    while v * 2 <= p {
        v *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn single_rank_cluster_runs() {
        let out = Cluster::run(1, |c| {
            assert_eq!(c.size(), 1);
            let mut v = vec![1.0, 2.0];
            c.allreduce_sum(&mut v);
            v
        });
        assert_eq!(out, vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = Cluster::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, &[1.0, 2.0, 3.0]);
                c.recv(1, 8)
            } else {
                let got = c.recv(0, 7);
                c.send(0, 8, &[got.iter().sum()]);
                got
            }
        });
        assert_eq!(out[0], vec![6.0]);
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = Cluster::run(2, |c| {
            if c.rank() == 0 {
                // Send tag 2 first, then tag 1.
                c.send(1, 2, &[20.0]);
                c.send(1, 1, &[10.0]);
                vec![]
            } else {
                // Receive in the opposite order.
                let a = c.recv(0, 1);
                let b = c.recv(0, 2);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![10.0, 20.0]);
    }

    #[test]
    fn allreduce_matches_sequential_sum() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for p in [2usize, 3, 4, 5, 8] {
            for n in [1usize, 3, 7, 64, 100] {
                let inputs: Vec<Vec<f64>> = (0..p)
                    .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                    .collect();
                let expect: Vec<f64> = (0..n).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
                let inputs_ref = &inputs;
                let outs = Cluster::run(p, move |c| {
                    let mut buf = inputs_ref[c.rank()].clone();
                    c.allreduce_sum(&mut buf);
                    buf
                });
                for (r, o) in outs.iter().enumerate() {
                    for (a, e) in o.iter().zip(&expect) {
                        assert!((a - e).abs() < 1e-9, "p={p} n={n} rank {r}: {a} vs {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_mean_averages() {
        let outs = Cluster::run(4, |c| {
            let mut buf = vec![c.rank() as f64; 3];
            c.allreduce_mean(&mut buf);
            buf
        });
        for o in outs {
            assert_eq!(o, vec![1.5, 1.5, 1.5]);
        }
    }

    #[test]
    fn allreduce_message_count_is_ring_optimal() {
        let outs = Cluster::run(4, |c| {
            let mut buf = vec![1.0; 2 * ALLREDUCE_RD_MAX_ELEMS];
            c.allreduce_sum(&mut buf);
            c.stats()
        });
        for s in outs {
            assert_eq!(s.msgs_sent, 2 * 3, "ring allreduce sends 2(P-1) messages");
            assert_eq!(s.msgs_recv, 2 * 3);
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let outs = Cluster::run(3, |c| c.allgather(&[c.rank() as f64, 1.0]));
        for o in outs {
            assert_eq!(o, vec![vec![0.0, 1.0], vec![1.0, 1.0], vec![2.0, 1.0]]);
        }
    }

    #[test]
    fn exchange_is_symmetric_and_deadlock_free() {
        // Every rank exchanges with every other rank simultaneously.
        let outs = Cluster::run(4, |c| {
            let peers: Vec<(usize, Vec<f64>)> = (0..4)
                .filter(|&p| p != c.rank())
                .map(|p| (p, vec![c.rank() as f64 * 10.0 + p as f64]))
                .collect();
            let mut got = c.exchange(&peers, 99);
            got.sort_by_key(|(p, _)| *p);
            got
        });
        // Rank 1 receives from peer p the value p*10 + 1.
        let r1 = &outs[1];
        assert_eq!(r1[0], (0, vec![1.0]));
        assert_eq!(r1[1], (2, vec![21.0]));
        assert_eq!(r1[2], (3, vec![31.0]));
    }

    #[test]
    fn allreduce_scalar_sums() {
        let outs = Cluster::run(5, |c| c.allreduce_scalar(c.rank() as f64));
        for o in outs {
            assert_eq!(o, 10.0);
        }
    }

    #[test]
    fn stats_count_bytes() {
        let outs = Cluster::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, &[0.0; 10]);
            } else {
                let _ = c.recv(0, 0);
            }
            c.stats()
        });
        assert_eq!(outs[0].bytes_sent, 80);
        assert_eq!(outs[1].bytes_recv, 80);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let outs = Cluster::run(4, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must see all increments.
            counter.load(Ordering::SeqCst)
        });
        for o in outs {
            assert_eq!(o, 4);
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for root in 0..5 {
            let outs = Cluster::run(5, move |c| {
                let mut buf = if c.rank() == root {
                    vec![7.0, 8.0, 9.0]
                } else {
                    Vec::new()
                };
                c.broadcast(root, &mut buf);
                buf
            });
            for (r, o) in outs.iter().enumerate() {
                assert_eq!(o, &vec![7.0, 8.0, 9.0], "root {root}, rank {r}");
            }
        }
    }

    #[test]
    fn reduce_sum_collects_on_root() {
        for root in [0usize, 2] {
            let outs = Cluster::run(4, move |c| {
                let mut buf = vec![c.rank() as f64 + 1.0; 3];
                c.reduce_sum_to(root, &mut buf);
                (c.rank(), buf)
            });
            let (_, root_buf) = outs.iter().find(|(r, _)| *r == root).unwrap();
            assert_eq!(root_buf, &vec![10.0; 3], "root {root}");
        }
    }

    #[test]
    fn reduce_then_broadcast_equals_allreduce() {
        let outs = Cluster::run(6, |c| {
            let mut a = vec![c.rank() as f64; 4];
            c.reduce_sum_to(0, &mut a);
            c.broadcast(0, &mut a);
            let mut b = vec![c.rank() as f64; 4];
            c.allreduce_sum(&mut b);
            (a, b)
        });
        for (a, b) in outs {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn allreduce_with_fewer_elements_than_ranks() {
        let outs = Cluster::run(6, |c| {
            let mut buf = vec![1.0, 2.0];
            c.allreduce_sum(&mut buf);
            buf
        });
        for o in outs {
            assert_eq!(o, vec![6.0, 12.0]);
        }
    }

    #[test]
    fn small_allreduce_uses_recursive_doubling() {
        // p=4 (power of two), n=2 ≤ ALLREDUCE_RD_MAX_ELEMS: exactly
        // log₂P = 2 rounds, each exchanging the full 16-byte buffer.
        let outs = Cluster::run(4, |c| {
            let mut buf = vec![c.rank() as f64, 1.0];
            c.allreduce_sum(&mut buf);
            (buf, c.stats())
        });
        for (r, (buf, s)) in outs.iter().enumerate() {
            assert_eq!(buf, &vec![6.0, 4.0], "rank {r}");
            assert_eq!(s.msgs_sent, 2, "rank {r}");
            assert_eq!(s.msgs_recv, 2, "rank {r}");
            assert_eq!(s.bytes_sent, 2 * 16, "rank {r}");
            assert_eq!(s.bytes_recv, 2 * 16, "rank {r}");
        }
        // Recursive doubling is bit-reproducible across ranks.
        for (buf, _) in &outs[1..] {
            assert_eq!(buf, &outs[0].0);
        }
    }

    #[test]
    fn non_power_of_two_recursive_doubling_message_counts() {
        // p=6 → pof2=4, rem=2. Ranks 0 and 2 fold out (1 send, 1 recv);
        // ranks 1 and 3 absorb a fold, run 2 rounds, then unfold
        // (3 sends, 3 recvs); ranks 4 and 5 just run the 2 rounds.
        let outs = Cluster::run(6, |c| {
            let mut buf = vec![1.0; 2];
            c.allreduce_sum(&mut buf);
            (buf, c.stats())
        });
        for (r, (buf, s)) in outs.iter().enumerate() {
            assert_eq!(buf, &vec![6.0; 2], "rank {r}");
            let expect = match r {
                0 | 2 => (1, 1),
                1 | 3 => (3, 3),
                _ => (2, 2),
            };
            assert_eq!((s.msgs_sent, s.msgs_recv), expect, "rank {r}");
        }
    }

    #[test]
    fn stats_view_is_exact_per_primitive() {
        // Ring allreduce: p=4, n=64 → 6 messages of one 16-element chunk.
        let outs = Cluster::run(4, |c| {
            let mut buf = vec![1.0; 64];
            c.allreduce_sum(&mut buf);
            c.stats()
        });
        for s in outs {
            assert_eq!(s.msgs_sent, 6);
            assert_eq!(s.msgs_recv, 6);
            assert_eq!(s.bytes_sent, 6 * 16 * 8);
            assert_eq!(s.bytes_recv, 6 * 16 * 8);
        }

        // The 22 doubles of an accelerated MFP iteration stay on
        // recursive doubling: log₂P messages of the whole buffer.
        let outs = Cluster::run(4, |c| {
            let mut buf = vec![1.0; 22];
            c.allreduce_sum(&mut buf);
            c.stats()
        });
        for s in outs {
            assert_eq!((s.msgs_sent, s.bytes_sent), (2, 2 * 22 * 8));
            assert_eq!((s.msgs_recv, s.bytes_recv), (2, 2 * 22 * 8));
        }

        // Allgather: p=3 → each rank sends its 5-element buffer twice.
        let outs = Cluster::run(3, |c| {
            let _ = c.allgather(&[0.0; 5]);
            c.stats()
        });
        for s in outs {
            assert_eq!((s.msgs_sent, s.bytes_sent), (2, 2 * 5 * 8));
            assert_eq!((s.msgs_recv, s.bytes_recv), (2, 2 * 5 * 8));
        }

        // Broadcast: p=5 → p−1 messages in total, one receive per
        // non-root rank.
        let outs = Cluster::run(5, |c| {
            let mut buf = if c.rank() == 0 {
                vec![1.0; 3]
            } else {
                Vec::new()
            };
            c.broadcast(0, &mut buf);
            c.stats()
        });
        let total_sent: usize = outs.iter().map(|s| s.msgs_sent).sum();
        assert_eq!(total_sent, 4);
        assert_eq!(outs[0].msgs_recv, 0);
        for s in &outs[1..] {
            assert_eq!((s.msgs_recv, s.bytes_recv), (1, 3 * 8));
        }

        // Exchange: two peers swap one 3-element buffer each.
        let outs = Cluster::run(2, |c| {
            let peer = 1 - c.rank();
            let _ = c.exchange(&[(peer, vec![0.0; 3])], 5);
            c.stats()
        });
        for s in outs {
            assert_eq!(
                (s.msgs_sent, s.bytes_sent, s.msgs_recv, s.bytes_recv),
                (1, 24, 1, 24)
            );
        }
    }

    #[test]
    fn reset_stats_zeroes_the_view() {
        let outs = Cluster::run(2, |c| {
            let peer = 1 - c.rank();
            c.send(peer, 1, &[0.0; 4]);
            let _ = c.recv(peer, 1);
            let before = c.stats();
            c.reset_stats();
            let zeroed = c.stats();
            c.send(peer, 2, &[0.0; 2]);
            let _ = c.recv(peer, 2);
            (before, zeroed, c.stats())
        });
        for (before, zeroed, after) in outs {
            assert_eq!((before.msgs_sent, before.bytes_sent), (1, 32));
            assert_eq!((before.msgs_recv, before.bytes_recv), (1, 32));
            assert_eq!(zeroed, CommStats::default());
            assert_eq!((after.msgs_sent, after.bytes_sent), (1, 16));
            assert_eq!((after.msgs_recv, after.bytes_recv), (1, 16));
        }
    }

    #[test]
    fn ordered_allreduce_matches_plain_sum_and_is_rank_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for p in [1usize, 2, 3, 5] {
            let inputs: Vec<Vec<f64>> = (0..p)
                .map(|_| (0..12).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let expect: Vec<f64> = (0..12).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
            let inputs_ref = &inputs;
            let outs = Cluster::run(p, move |c| {
                let mut buf = inputs_ref[c.rank()].clone();
                c.allreduce_sum_ordered(&mut buf);
                buf
            });
            for o in &outs {
                assert_eq!(o, &outs[0], "all ranks bit-identical");
                for (a, e) in o.iter().zip(&expect) {
                    assert!((a - e).abs() < 1e-12, "p={p}: {a} vs {e}");
                }
            }
        }
    }

    #[test]
    fn ordered_mean_divides() {
        let outs = Cluster::run(4, |c| {
            let mut buf = vec![c.rank() as f64; 3];
            c.allreduce_mean_ordered(&mut buf);
            buf
        });
        for o in outs {
            assert_eq!(o, vec![1.5; 3]);
        }
    }

    /// Regression: the out-of-order buffer must stay FIFO per (src, tag).
    /// A `swap_remove` there once let a consume for one peer move a
    /// later-seq message in front of an earlier one from another peer,
    /// so a rank running a collective ahead could get its step-N+1
    /// payload delivered in step N.
    #[test]
    fn pending_buffer_preserves_same_tag_message_order() {
        let outs = Cluster::run(4, |c| {
            if c.rank() == 0 {
                // Park in a recv from the slowest sender so the other
                // messages accumulate in the pending buffer in arrival
                // order: [1/tag7, 2/tag7 seq0, 2/tag7 seq1].
                assert_eq!(c.recv(3, 9), vec![99.0]);
                assert_eq!(c.recv(1, 7), vec![1.0]);
                let first = c.recv(2, 7);
                let second = c.recv(2, 7);
                (first, second)
            } else {
                match c.rank() {
                    1 => c.send(0, 7, &[1.0]),
                    2 => {
                        std::thread::sleep(Duration::from_millis(30));
                        c.send(0, 7, &[10.0]);
                        c.send(0, 7, &[20.0]);
                    }
                    _ => {
                        std::thread::sleep(Duration::from_millis(90));
                        c.send(0, 9, &[99.0]);
                    }
                }
                (Vec::new(), Vec::new())
            }
        });
        assert_eq!(outs[0], (vec![10.0], vec![20.0]));
    }

    /// Rank `r`'s contribution at element `i`: integer-valued, so every
    /// summation order produces the bit-identical total and results can
    /// be compared bitwise against the ordered reference.
    fn contribution(rank: usize, i: usize) -> f64 {
        (rank * 31 + i * 7 + 1) as f64
    }

    /// Left-to-right reference reduction over ranks 0..p.
    fn ordered_sum(p: usize, n: usize) -> Vec<f64> {
        let mut acc = vec![0.0f64; n];
        for r in 0..p {
            for (i, a) in acc.iter_mut().enumerate() {
                *a += contribution(r, i);
            }
        }
        acc
    }

    fn assert_bitwise(got: &[f64], want: &[f64], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx} elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn ring_allreduce_matches_ordered_reference_in_tiny_worlds() {
        // Non-power-of-two and degenerate world sizes, including p=1
        // (zero steps) and n not a multiple of p (ragged chunks).
        for p in [1usize, 3, 5, 6, 7] {
            for n in [16usize, 13] {
                let want = ordered_sum(p, n);
                let outs = Cluster::run(p, |c| {
                    let mut buf: Vec<f64> = (0..n).map(|i| contribution(c.rank(), i)).collect();
                    c.allreduce_ring(&mut buf);
                    buf
                });
                for (r, o) in outs.iter().enumerate() {
                    assert_bitwise(o, &want, &format!("ring p={p} n={n} rank={r}"));
                }
            }
        }
    }

    #[test]
    fn recursive_doubling_matches_ordered_reference_in_tiny_worlds() {
        for p in [1usize, 3, 5, 6, 7] {
            for n in [4usize, 7] {
                let want = ordered_sum(p, n);
                let outs = Cluster::run(p, |c| {
                    let mut buf: Vec<f64> = (0..n).map(|i| contribution(c.rank(), i)).collect();
                    c.allreduce_rd(&mut buf);
                    buf
                });
                for (r, o) in outs.iter().enumerate() {
                    assert_bitwise(o, &want, &format!("rd p={p} n={n} rank={r}"));
                }
            }
        }
    }

    #[test]
    fn allreduce_matches_ordered_reference_at_1024_ranks() {
        // Exercises the widened internal tag windows: the ring needs
        // 2(P−1) distinct step tags, which overflowed the old
        // u64::MAX − 1024 base into the fixed collective tags at P ≈ 510.
        let p = 1024;
        let n_ring = 1029; // not a multiple of p: ragged chunks
        let n_rd = 4;
        let want_ring = ordered_sum(p, n_ring);
        let want_rd = ordered_sum(p, n_rd);
        let outs = Cluster::run(p, |c| {
            let mut ring: Vec<f64> = (0..n_ring).map(|i| contribution(c.rank(), i)).collect();
            c.allreduce_ring(&mut ring);
            let mut rd: Vec<f64> = (0..n_rd).map(|i| contribution(c.rank(), i)).collect();
            c.allreduce_rd(&mut rd);
            (ring, rd)
        });
        for (r, (ring, rd)) in outs.iter().enumerate() {
            assert_bitwise(ring, &want_ring, &format!("ring p=1024 rank={r}"));
            assert_bitwise(rd, &want_rd, &format!("rd p=1024 rank={r}"));
        }
    }

    #[test]
    fn tree_allreduce_selected_at_64_ranks_matches_ordered_reference() {
        // p=64, small message → allreduce_sum takes the hierarchical
        // tree. Node members exchange exactly one message each way.
        let p = 64;
        let n = 2;
        let want = ordered_sum(p, n);
        let outs = Cluster::run(p, |c| {
            let mut buf: Vec<f64> = (0..n).map(|i| contribution(c.rank(), i)).collect();
            c.allreduce_sum(&mut buf);
            (buf, c.stats())
        });
        let mut total_msgs = 0usize;
        for (r, (buf, s)) in outs.iter().enumerate() {
            assert_bitwise(buf, &want, &format!("tree p=64 rank={r}"));
            if !r.is_multiple_of(TREE_NODE_SIZE) {
                assert_eq!((s.msgs_sent, s.msgs_recv), (1, 1), "member {r}");
            }
            total_msgs += s.msgs_sent;
        }
        // 56 member gathers + 56 leader fan-outs + 7 leader-reduce +
        // 7 leader-broadcast = 126 — well under rd's 64·log₂64 = 384.
        assert_eq!(total_msgs, 126);
    }

    #[test]
    fn isend_irecv_roundtrip_with_polling() {
        let outs = Cluster::run(2, |c| {
            if c.rank() == 0 {
                let h = c.isend(1, 7, &[1.0, 2.0]);
                let t0 = Instant::now();
                while !c.send_complete(&h) {
                    assert!(t0.elapsed() < Duration::from_secs(5), "ack never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Vec::new()
            } else {
                let h = c.irecv(0, 7);
                loop {
                    if let Some(p) = c.try_complete(&h) {
                        break p;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        assert_eq!(outs[1], vec![1.0, 2.0]);
    }

    #[test]
    fn injected_delay_is_receiver_side_and_never_blocks_the_sender() {
        let plan = FaultPlan {
            seed: 7,
            delay_rate: 1.0,
            delay_max_us: 50_000,
            ..FaultPlan::none()
        };
        let outs = Cluster::try_run(2, plan, |c| {
            if c.rank() == 0 {
                let t0 = Instant::now();
                c.send(1, 3, &[5.0]);
                let elapsed = t0.elapsed();
                assert!(
                    elapsed < Duration::from_millis(20),
                    "send blocked for {elapsed:?} — delays must mature on the receiver"
                );
                0.0
            } else {
                c.recv(0, 3)[0]
            }
        })
        .unwrap();
        assert_eq!(outs[1], 5.0);
    }

    #[test]
    fn exchange_start_overlaps_with_plain_exchange_peers() {
        // One side uses the asynchronous split API, the other the
        // blocking exchange — they interoperate on the same tag.
        let outs = Cluster::run(2, |c| {
            let peer = 1 - c.rank();
            let outgoing = vec![(peer, vec![c.rank() as f64 + 0.5; 3])];
            if c.rank() == 0 {
                let handles = c.exchange_start(&outgoing, 11);
                let busywork: f64 = (0..1000).map(|i| (i as f64).sqrt()).sum();
                assert!(busywork > 0.0);
                handles.into_iter().map(|h| c.wait(&h)).collect::<Vec<_>>()
            } else {
                c.exchange(&outgoing, 11)
                    .into_iter()
                    .map(|(_, p)| p)
                    .collect()
            }
        });
        assert_eq!(outs[0], vec![vec![1.5; 3]]);
        assert_eq!(outs[1], vec![vec![0.5; 3]]);
    }
}

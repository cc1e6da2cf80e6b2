//! Per-batch convergence audit collected inside `Mfp::run_many`.
//!
//! The MFP layer knows things the serve layer cannot see from outside:
//! which Schwarz iteration each request converged on, the final
//! residual, when the active set evicted a request, and how much of the
//! solve went to plan compilation. This module gives the solver cheap,
//! thread-local hooks to deposit those facts while a batch is in
//! flight; the serve worker merges the scope into its request traces
//! after replies are sent ([`crate::drain_batch`]).
//!
//! All storage is preallocated at scope creation (counted against
//! [`crate::warm_allocs`] if it happens post-warm), so the hooks are
//! alloc-free inside the iteration loop.

use std::cell::RefCell;

/// Largest batch the audit scope tracks per-slot state for. The serve
/// scheduler's point budget keeps real batches far below this.
pub const MAX_TRACKED: usize = 512;

/// Per-slot audit facts for one request in the batch.
#[derive(Clone, Copy, Debug)]
pub struct SlotAudit {
    /// Iterations this request ran before converging (or the full count
    /// if it never did).
    pub iterations: u32,
    /// Iteration index at which the active set evicted the request
    /// (`u32::MAX` = never evicted; ran to the end).
    pub evict_round: u32,
    /// Last residual (relative lattice delta) observed for the slot.
    pub final_residual: f64,
    /// Whether the slot hit the convergence tolerance.
    pub converged: bool,
    /// Halo exchanges that consumed a stale (previous-iteration) value;
    /// 0 on the sequential path.
    pub stale_halos: u32,
}

impl SlotAudit {
    const EMPTY: SlotAudit = SlotAudit {
        iterations: 0,
        evict_round: u32::MAX,
        final_residual: f64::NAN,
        converged: false,
        stale_halos: 0,
    };
}

struct Scope {
    slots: Vec<SlotAudit>,
    n: usize,
    plan_compile_us: u64,
    active: bool,
}

impl Scope {
    fn new() -> Self {
        Self {
            slots: vec![SlotAudit::EMPTY; MAX_TRACKED],
            n: 0,
            plan_compile_us: 0,
            active: false,
        }
    }
}

thread_local! {
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

fn with_scope<T>(f: impl FnOnce(&mut Scope) -> T) -> T {
    SCOPE.with(|s| {
        let mut s = s.borrow_mut();
        let scope = s.get_or_insert_with(|| {
            crate::ring::note_warm_alloc();
            Scope::new()
        });
        f(scope)
    })
}

/// Create the calling thread's scope now if it does not exist yet, so
/// the one-time allocation happens before [`crate::mark_warm`].
pub(crate) fn ensure_scope() {
    with_scope(|_| {});
}

/// Run `f` only if this thread already has an *open* scope: the note
/// hooks must never allocate one — `Mfp::run_many` calls them on every
/// path, including direct callers with no serve worker in sight.
fn with_active_scope(f: impl FnOnce(&mut Scope)) {
    if !crate::enabled() {
        return;
    }
    SCOPE.with(|s| {
        if let Some(sc) = s.borrow_mut().as_mut() {
            if sc.active {
                f(sc);
            }
        }
    })
}

/// Open an audit scope for a batch of `n` requests on the calling
/// thread. Resets all per-slot state; alloc-free after the thread's
/// first batch. Called by the serve worker just before the solve.
pub fn begin_batch(n: usize) {
    if !crate::enabled() {
        return;
    }
    with_scope(|sc| {
        let n = n.min(MAX_TRACKED);
        for slot in sc.slots[..n].iter_mut() {
            *slot = SlotAudit::EMPTY;
        }
        sc.n = n;
        sc.plan_compile_us = 0;
        sc.active = true;
    });
}

/// Whether the calling thread has an open batch audit scope. Cheap
/// enough to gate optional instrumentation in the solver.
#[inline]
pub fn batch_active() -> bool {
    if !crate::enabled() {
        return false;
    }
    SCOPE.with(|s| s.borrow().as_ref().map(|sc| sc.active).unwrap_or(false))
}

/// Record per-slot convergence state: the residual observed at
/// iteration `it`, and whether the slot converged there. The last call
/// for a slot wins; eviction round is latched on the first converged
/// call. Called from the residual check in `run_many`.
pub fn note_slot(slot: usize, it: u32, residual: f64, converged: bool) {
    with_active_scope(|sc| {
        if slot >= sc.n {
            return;
        }
        let s = &mut sc.slots[slot];
        s.iterations = it + 1;
        s.final_residual = residual;
        if converged && !s.converged {
            s.converged = true;
            s.evict_round = it;
        }
    });
}

/// Add one stale-halo exposure for `slot` (distributed path only).
pub fn note_stale_halo(slot: usize) {
    with_active_scope(|sc| {
        if slot < sc.n {
            sc.slots[slot].stale_halos += 1;
        }
    });
}

/// Attribute `[start_us, now]` to plan compilation inside the current
/// batch's solve. Called by `PlanSolver` when `get_or_compile` missed
/// its cache.
pub fn note_plan_compile(start_us: u64) {
    with_active_scope(|sc| {
        sc.plan_compile_us += mf_telemetry::now_us().saturating_sub(start_us);
    });
}

/// Snapshot of a drained audit scope.
pub struct BatchAudit {
    /// Per-slot facts, one per request in batch order.
    pub slots: Vec<SlotAudit>,
    /// Microseconds of the solve spent compiling inference plans.
    pub plan_compile_us: u64,
}

/// Close the calling thread's audit scope and return its contents
/// (empty audit if no scope was open). Off the hot path — allocates the
/// returned vectors.
pub fn end_batch() -> BatchAudit {
    SCOPE.with(|s| {
        let mut s = s.borrow_mut();
        match s.as_mut() {
            Some(sc) if sc.active => {
                sc.active = false;
                BatchAudit {
                    slots: sc.slots[..sc.n].to_vec(),
                    plan_compile_us: sc.plan_compile_us,
                }
            }
            _ => BatchAudit {
                slots: Vec::new(),
                plan_compile_us: 0,
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_collects_slot_state() {
        let _g = crate::TEST_ENABLE_LOCK.read().unwrap();
        std::thread::spawn(|| {
            begin_batch(3);
            assert!(batch_active());
            note_slot(0, 0, 0.5, false);
            note_slot(1, 0, 0.2, false);
            note_slot(0, 1, 0.05, true);
            note_slot(0, 1, 0.05, true); // idempotent: evict latches once
            note_slot(1, 1, 0.3, false);
            note_plan_compile(mf_telemetry::now_us());
            let audit = end_batch();
            assert!(!batch_active());
            assert_eq!(audit.slots.len(), 3);
            assert!(audit.slots[0].converged);
            assert_eq!(audit.slots[0].evict_round, 1);
            assert_eq!(audit.slots[0].iterations, 2);
            assert!(!audit.slots[1].converged);
            assert_eq!(audit.slots[1].evict_round, u32::MAX);
            assert!((audit.slots[1].final_residual - 0.3).abs() < 1e-12);
            assert_eq!(audit.slots[2].iterations, 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn hooks_outside_scope_are_noops() {
        let _g = crate::TEST_ENABLE_LOCK.read().unwrap();
        std::thread::spawn(|| {
            note_slot(0, 0, 1.0, true);
            let audit = end_batch();
            assert!(audit.slots.is_empty());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn second_batch_reuses_the_scope_without_warm_allocs() {
        let _g = crate::TEST_ENABLE_LOCK.read().unwrap();
        std::thread::spawn(|| {
            crate::mark_warm();
            begin_batch(2);
            note_slot(0, 0, 0.1, true);
            let _ = end_batch();
            crate::ring::record(1, crate::Phase::Queue, 0, 1);
            let after_setup = crate::ring::thread_warm_allocs();
            begin_batch(4);
            note_slot(3, 0, 0.2, false);
            let audit = end_batch();
            assert_eq!(audit.slots.len(), 4);
            assert!(!audit.slots[0].converged, "slot state must reset");
            assert_eq!(
                crate::ring::thread_warm_allocs(),
                after_setup,
                "reused scope must not alloc"
            );
        })
        .join()
        .unwrap();
    }
}

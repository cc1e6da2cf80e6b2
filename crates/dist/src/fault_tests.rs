//! Tests of the `mf-faultsim` layer: fail-fast failure detection,
//! deterministic fault streams, exactly-once recovery, and the
//! zero-fault equivalence guarantee (a `FaultPlan` with all rates at
//! zero is observationally identical to the lossless cluster).

use crate::fault::{CommError, CrashAt, FaultPlan, RetryPolicy};
use crate::{Cluster, Communicator};
use mf_telemetry::counter;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Tight retry budget so drop-recovery tests run in milliseconds.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        timeout: Duration::from_millis(20),
        max_retries: 100,
    }
}

#[test]
fn panicking_rank_fails_fast_and_names_the_rank() {
    let t0 = Instant::now();
    let err = Cluster::try_run(4, FaultPlan::none(), |c| {
        if c.rank() == 2 {
            panic!("boom at rank 2");
        }
        // Peers block on a message the dead rank never sends; the
        // failure flag must unblock them within a poll tick.
        c.recv(2, 9)
    })
    .unwrap_err();
    assert_eq!(err.origin(), 2, "{err}");
    assert!(err.failed[0].1.contains("boom"), "{err}");
    // Cascaded ranks report the failed peer, not themselves, as cause.
    for (rank, msg) in &err.failed[1..] {
        assert_ne!(*rank, 2);
        assert!(msg.contains("rank 2 failed"), "rank {rank}: {msg}");
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "failure detection took {:?}",
        t0.elapsed()
    );
}

#[test]
fn cluster_run_panic_message_names_origin_rank() {
    let result = std::panic::catch_unwind(|| {
        Cluster::run(3, |c| {
            if c.rank() == 1 {
                panic!("injected bug");
            }
            c.barrier();
        })
    });
    let payload = result.unwrap_err();
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("rank 1"), "panic message: {msg}");
    assert!(msg.contains("injected bug"), "panic message: {msg}");
}

#[test]
fn injected_crash_surfaces_typed_error_with_rank_id() {
    let plan = FaultPlan {
        crash: Some(CrashAt {
            rank: 1,
            after_sends: 3,
        }),
        ..FaultPlan::none()
    };
    let err = Cluster::try_run(4, plan, |c| {
        // Ring allreduce: every rank sends 6 messages, so rank 1 dies
        // mid-collective.
        let mut buf = vec![c.rank() as f64; 64];
        c.allreduce_sum(&mut buf);
        buf
    })
    .unwrap_err();
    assert_eq!(err.origin(), 1, "{err}");
    assert!(err.failed[0].1.contains("injected crash"), "{err}");
}

#[test]
fn recv_result_reports_failed_peer() {
    let outs = Cluster::try_run(3, FaultPlan::none(), |c| {
        if c.rank() == 0 {
            // Die without sending; peers must see RankFailed(0), then
            // return normally (no cascade).
            panic!("rank 0 dies");
        }
        c.recv_result(0, 1)
    });
    let err = outs.unwrap_err();
    assert_eq!(err.origin(), 0);
    // Only rank 0 actually failed: ranks 1 and 2 handled the error.
    assert_eq!(err.failed.len(), 1, "{err}");
}

#[test]
fn collectives_under_drops_recover_bitwise_identical_results() {
    let p = 4;
    let mk_inputs = || -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        (0..p)
            .map(|_| (0..24).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    };
    let body = |c: &mut Communicator, inputs: &[Vec<f64>]| {
        let mut buf = inputs[c.rank()].clone();
        c.allreduce_sum(&mut buf);
        let gathered = c.allgather(&buf[..4]);
        let mut bcast = if c.rank() == 2 {
            buf[..3].to_vec()
        } else {
            vec![]
        };
        c.broadcast(2, &mut bcast);
        (buf, gathered, bcast)
    };
    let inputs = mk_inputs();
    let clean = Cluster::run(p, |c| body(c, &inputs));
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan {
            retry: fast_retry(),
            ..FaultPlan::lossy(seed, 0.15)
        };
        let faulty = Cluster::try_run(p, plan, |c| body(c, &inputs)).unwrap();
        // Retransmission delivers the same payloads, so results are not
        // merely close — they are bitwise equal to the fault-free run.
        for (a, b) in clean.iter().zip(&faulty) {
            assert_eq!(a, b, "seed {seed}");
        }
    }
}

#[test]
fn fault_stream_is_seed_deterministic() {
    let run = || {
        let plan = FaultPlan {
            dup_rate: 0.1,
            retry: fast_retry(),
            ..FaultPlan::lossy(42, 0.2)
        };
        Cluster::try_run(3, plan, |c| {
            let mut buf = vec![c.rank() as f64; 32];
            c.allreduce_sum(&mut buf);
            let dropped = counter("fault.dropped").get();
            let duplicated = counter("fault.duplicated").get();
            (buf, dropped, duplicated)
        })
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give the same faults and results");
    let total_dropped: u64 = a.iter().map(|(_, d, _)| d).sum();
    assert!(total_dropped > 0, "20% drop over 24 sends should drop some");
}

#[test]
fn duplicates_are_discarded() {
    let plan = FaultPlan {
        seed: 5,
        dup_rate: 1.0,
        retry: fast_retry(),
        ..FaultPlan::none()
    };
    let outs = Cluster::try_run(2, plan, |c| {
        if c.rank() == 0 {
            for i in 0..10u64 {
                c.send(1, i, &[i as f64]);
            }
            // Final marker so the receiver can drain the last duplicate
            // (links deliver in sequence order).
            c.send(1, 100, &[0.0]);
            0
        } else {
            for i in 0..10u64 {
                assert_eq!(c.recv(0, i), vec![i as f64]);
            }
            let _ = c.recv(0, 100);
            counter("fault.dedup_discarded").get()
        }
    })
    .unwrap();
    // Every payload message was sent twice; exactly one copy of each
    // survived (the marker's own duplicate may still be in flight).
    assert!(outs[1] >= 10, "dedup_discarded = {}", outs[1]);
}

#[test]
fn wait_deadline_times_out_then_tombstones_the_slot() {
    let outs = Cluster::try_run(2, FaultPlan::none(), |c| {
        if c.rank() == 0 {
            // Miss the peer's round-1 deadline by an order of magnitude.
            std::thread::sleep(Duration::from_millis(120));
            c.send(1, 7, &[1.0]);
            let got1 = c.recv(1, 7);
            // Round 2 on a fresh tag proceeds normally.
            c.send(1, 8, &[2.0]);
            let got2 = c.recv(1, 8);
            (got1, got2)
        } else {
            let round1 = c.exchange_start(&[(0, vec![9.0])], 7);
            let r1 = c.wait_deadline(&round1[0], Duration::from_millis(15));
            assert!(
                matches!(r1, Err(CommError::Timeout { src: 0, tag: 7, .. })),
                "expected timeout, got {r1:?}"
            );
            assert!(counter("fault.timeouts").get() >= 1);
            // The late round-1 message must be discarded, not delivered
            // into round 2.
            let mut round2 = c.exchange(&[(0, vec![10.0])], 8);
            let (_, got2) = round2.pop().unwrap();
            (vec![9.0], got2)
        }
    })
    .unwrap();
    assert_eq!(outs[0].0, vec![9.0]);
    assert_eq!(outs[1].1, vec![2.0]);
}

#[test]
fn recv_timeout_is_soft_late_message_still_matches() {
    let outs = Cluster::try_run(2, FaultPlan::none(), |c| {
        if c.rank() == 0 {
            std::thread::sleep(Duration::from_millis(60));
            c.send(1, 3, &[4.0]);
            Vec::new()
        } else {
            // First attempt times out; unlike wait_deadline, the slot
            // is not tombstoned, so a retry sees the late arrival.
            let first = c.recv_timeout(0, 3, Duration::from_millis(5));
            assert!(first.is_err(), "{first:?}");
            c.recv(0, 3)
        }
    })
    .unwrap();
    assert_eq!(outs[1], vec![4.0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// With every fault rate at zero, the fault-wrapped cluster produces
    /// the exact per-rank message/byte counts of the plain cluster for
    /// arbitrary collectives — the counters-match-PR1 guarantee.
    #[test]
    fn zero_fault_plan_preserves_exact_counts(
        p in 2usize..6,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let body = move |c: &mut Communicator| {
            let mut buf = vec![c.rank() as f64; n];
            c.allreduce_sum(&mut buf);
            let _ = c.allgather(&buf[..1.min(n)]);
            // Symmetric ring exchange (each rank talks to both
            // neighbors, which coincide at p = 2).
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let _ = c.exchange(&[(right, vec![0.5; 3]), (left, vec![0.25; 2])], 1);
            c.stats()
        };
        let plain = Cluster::run(p, body);
        let plan = FaultPlan { seed, ..FaultPlan::none() };
        let wrapped = Cluster::try_run(p, plan, body).unwrap();
        for (a, b) in plain.iter().zip(&wrapped) {
            prop_assert_eq!(a.msgs_sent, b.msgs_sent);
            prop_assert_eq!(a.bytes_sent, b.bytes_sent);
            prop_assert_eq!(a.msgs_recv, b.msgs_recv);
            prop_assert_eq!(a.bytes_recv, b.bytes_recv);
        }
    }

    /// Under drops and duplication, retried point-to-point delivery is
    /// exactly-once and in order, for any seed.
    #[test]
    fn lossy_p2p_delivery_is_exactly_once(
        seed in 0u64..500,
        drop_pm in 0usize..350,
        dup_pm in 0usize..350,
    ) {
        let n_msgs = 20u64;
        let plan = FaultPlan {
            seed,
            drop_rate: drop_pm as f64 / 1000.0,
            dup_rate: dup_pm as f64 / 1000.0,
            retry: fast_retry(),
            ..FaultPlan::none()
        };
        let outs = Cluster::try_run(2, plan, move |c| {
            if c.rank() == 0 {
                for i in 0..n_msgs {
                    c.send(1, i, &[i as f64, i as f64 * 2.0]);
                }
                (Vec::new(), 0)
            } else {
                let got: Vec<Vec<f64>> =
                    (0..n_msgs).map(|i| c.recv(0, i)).collect();
                (got, c.stats().msgs_recv)
            }
        }).unwrap();
        let (got, msgs_recv) = &outs[1];
        for (i, m) in got.iter().enumerate() {
            prop_assert_eq!(m, &vec![i as f64, i as f64 * 2.0]);
        }
        // Logical receive count: one per sent message, despite dups and
        // retransmits.
        prop_assert_eq!(*msgs_recv, n_msgs as usize);
    }
}

//! Tests of the fault layer: fail-fast failure detection, per-link send
//! order under injected delays, and the zero-fault equivalence guarantee
//! (a `FaultPlan` with all rates at zero is observationally identical to
//! the plain cluster).

use crate::fault::{CrashAt, FaultPlan};
use crate::{Cluster, Communicator};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

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

    /// Under injected delays, point-to-point delivery is exactly-once
    /// and in send order per tag, for any seed and any receive order: a
    /// delayed message holds back every later one on its link (MPI's
    /// non-overtaking rule), and matured arrivals reach the receive
    /// through the one pending buffer.
    #[test]
    fn delayed_p2p_delivery_is_in_send_order(
        seed in 0u64..500,
        delay_pm in 0usize..=1000,
        perm_seed in 0u64..1000,
    ) {
        // Message i carries tag i % n_tags, so every tag has several.
        let (n_msgs, n_tags) = (20u64, 5u64);
        let plan = FaultPlan {
            seed,
            delay_rate: delay_pm as f64 / 1000.0,
            delay_max_us: 2_000,
            ..FaultPlan::none()
        };
        let outs = Cluster::try_run(2, plan, move |c| {
            if c.rank() == 0 {
                for i in 0..n_msgs {
                    c.send(1, i % n_tags, &[i as f64, i as f64 * 2.0]);
                }
                (Vec::new(), 0)
            } else {
                // Receive the tags in a random order.
                let mut order: Vec<u64> = (0..n_msgs).map(|i| i % n_tags).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(perm_seed);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                let got: Vec<(u64, Vec<f64>)> =
                    order.into_iter().map(|t| (t, c.recv(0, t))).collect();
                (got, c.stats().msgs_recv)
            }
        }).unwrap();
        let (got, msgs_recv) = &outs[1];
        // The k-th receive of tag t gets message t + k·n_tags.
        let mut taken = vec![0u64; n_tags as usize];
        for (t, m) in got {
            let i = (t + taken[*t as usize] * n_tags) as f64;
            taken[*t as usize] += 1;
            prop_assert_eq!(m, &vec![i, i * 2.0]);
        }
        // Receive count: one per sent message.
        prop_assert_eq!(*msgs_recv, n_msgs as usize);
    }
}

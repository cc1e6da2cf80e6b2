//! Property and stress tests of the simulated communicator: random
//! message schedules, interleaved collectives, and the invariants the
//! distributed MFP depends on (FIFO per channel, tag matching, collective
//! consistency under arbitrary rank counts).

use crate::{CartesianGrid, Cluster, Direction};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ring allreduce matches the sequential reduction for arbitrary rank
    /// counts and lengths (including len < P and len = 0 handled
    /// elsewhere).
    #[test]
    fn allreduce_random_shapes(p in 2usize..7, n in 1usize..80, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs: Vec<Vec<f64>> = (0..p)
            .map(|_| (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect())
            .collect();
        let expect: Vec<f64> =
            (0..n).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
        let inputs_ref = &inputs;
        let outs = Cluster::run(p, move |c| {
            let mut buf = inputs_ref[c.rank()].clone();
            c.allreduce_sum(&mut buf);
            buf
        });
        for o in outs {
            for (a, e) in o.iter().zip(&expect) {
                prop_assert!((a - e).abs() < 1e-9);
            }
        }
    }

    /// Messages with distinct tags can be received in any order; FIFO
    /// holds per (source, tag).
    #[test]
    fn tag_matching_is_order_independent(perm_seed in 0u64..1000) {
        let n_msgs = 6u64;
        let outs = Cluster::run(2, move |c| {
            if c.rank() == 0 {
                // Send messages tag 0..6, each carrying its tag twice.
                for t in 0..n_msgs {
                    c.send(1, t, &[t as f64, t as f64 + 0.5]);
                }
                Vec::new()
            } else {
                // Receive in a pseudo-random permutation.
                let mut order: Vec<u64> = (0..n_msgs).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(perm_seed);
                for i in (1..order.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                order
                    .iter()
                    .map(|&t| {
                        let m = c.recv(0, t);
                        (t, m)
                    })
                    .map(|(t, m)| {
                        assert_eq!(m, vec![t as f64, t as f64 + 0.5]);
                        t as f64
                    })
                    .collect()
            }
        });
        prop_assert_eq!(outs[1].len(), n_msgs as usize);
    }

    /// A reduction broadcast from a random root reaches every rank intact.
    #[test]
    fn broadcast_reduce_consistency(p in 2usize..7, root in 0usize..7, seed in 0u64..100) {
        let root = root % p;
        let outs = Cluster::run(p, move |c| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed + c.rank() as u64);
            let local: Vec<f64> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // Everyone contributes; root keeps the sum; root broadcasts.
            let mut acc = local.clone();
            c.allreduce_sum(&mut acc);
            let mut total = if c.rank() == root { acc } else { Vec::new() };
            c.broadcast(root, &mut total);
            (local, total)
        });
        // Reference sum.
        let expect: Vec<f64> = (0..5)
            .map(|i| outs.iter().map(|(l, _)| l[i]).sum())
            .collect();
        for (_, total) in &outs {
            for (a, e) in total.iter().zip(&expect) {
                prop_assert!((a - e).abs() < 1e-9, "{a} vs {e}");
            }
        }
    }
}

#[test]
fn interleaved_halo_and_collectives_many_rounds() {
    // The distributed MFP's traffic pattern, stress-tested: every rank
    // exchanges with its grid neighbors and joins an allreduce, 100
    // rounds, with payload sizes varying per round.
    let grid = CartesianGrid::new(3, 3);
    let grid_ref = &grid;
    let outs = Cluster::run(9, move |c| {
        let rank = c.rank();
        let neighbors = grid_ref.neighbors(rank);
        let mut checksum = 0.0;
        for round in 0..100u64 {
            let len = 1 + (round as usize % 7);
            let outgoing: Vec<(usize, Vec<f64>)> = neighbors
                .iter()
                .map(|&(_, nb)| (nb, vec![rank as f64 + round as f64; len]))
                .collect();
            let incoming = c.exchange(&outgoing, round);
            for ((_, nb), (peer, data)) in neighbors.iter().zip(&incoming) {
                assert_eq!(nb, peer);
                assert_eq!(data.len(), len);
                assert_eq!(data[0], *peer as f64 + round as f64);
                checksum += data[0];
            }
            let mut s = [1.0];
            c.allreduce_sum(&mut s);
            assert_eq!(s[0], 9.0);
        }
        checksum
    });
    // Symmetric pattern: total checksum is the same computed either way.
    let total: f64 = outs.iter().sum();
    assert!(total > 0.0);
}

#[test]
fn opposite_direction_band_identities() {
    // The halo protocol depends on: my neighbor in direction d sees me as
    // its neighbor in d.opposite(), for every rank and direction.
    let grid = CartesianGrid::new(4, 4);
    for rank in 0..grid.size() {
        for (d, nb) in grid.neighbors(rank) {
            assert_eq!(grid.neighbor(nb, d.opposite()), Some(rank));
        }
    }
}

#[test]
fn all_directions_have_unique_offsets() {
    let mut seen = std::collections::HashSet::new();
    for d in Direction::ALL {
        assert!(seen.insert(d.offset()), "duplicate offset for {d:?}");
    }
    assert_eq!(seen.len(), 8);
}

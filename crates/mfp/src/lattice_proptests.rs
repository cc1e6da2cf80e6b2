//! Property-based tests of the subdomain-lattice geometry over random
//! domain shapes: the structural invariants the MFP iteration silently
//! relies on must hold for *every* `(m, sx, sy)`, not just the sizes the
//! unit tests pick.

use crate::domain::{DomainSpec, Subdomain};
use mf_data::SubdomainSpec;
use proptest::prelude::*;

fn arb_domain() -> impl Strategy<Value = DomainSpec> {
    // m ∈ {5, 9, 13, 17} (odd, ≥5), sx/sy ∈ 1..=4.
    (0usize..4, 1usize..=4, 1usize..=4).prop_map(|(mi, sx, sy)| {
        let m = 5 + 4 * mi;
        DomainSpec::new(SubdomainSpec { m, spatial: 0.5 }, sx, sy)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every subdomain window fits inside the global grid.
    #[test]
    fn windows_stay_inside_the_grid(d in arb_domain()) {
        for sd in d.subdomains() {
            prop_assert!(sd.ox + d.sub.m <= d.nx());
            prop_assert!(sd.oy + d.sub.m <= d.ny());
        }
    }

    /// Subdomain and atomic counts match the closed forms of §4.3.
    #[test]
    fn subdomain_counts_match_formulas(d in arb_domain()) {
        prop_assert_eq!(d.subdomains().len(), (2 * d.sx - 1) * (2 * d.sy - 1));
        prop_assert_eq!(d.atomic_subdomains().len(), d.sx * d.sy);
    }

    /// The four sweep groups partition the subdomains, and no two members
    /// of a group overlap (this is what makes batching §4.1 exact).
    #[test]
    fn sweep_groups_partition_without_overlap(d in arb_domain()) {
        let sds = d.subdomains();
        let mut total = 0;
        for g in 0..4 {
            let group: Vec<Subdomain> =
                sds.iter().copied().filter(|sd| d.group_of(*sd) == g).collect();
            total += group.len();
            for i in 0..group.len() {
                for j in i + 1..group.len() {
                    let dx = group[i].ox.abs_diff(group[j].ox);
                    let dy = group[i].oy.abs_diff(group[j].oy);
                    prop_assert!(
                        dx >= d.sub.m - 1 || dy >= d.sub.m - 1,
                        "group {} members overlap", g
                    );
                }
            }
        }
        prop_assert_eq!(total, sds.len());
    }

    /// Center-cross writes cover exactly the interior lattice and nothing
    /// else — the MFP's state is closed under one sweep.
    #[test]
    fn cross_writes_cover_interior_lattice_exactly(d in arb_domain()) {
        let cross = d.center_cross_offsets();
        let mut written = std::collections::HashSet::new();
        for sd in d.subdomains() {
            for &(j, i) in &cross {
                written.insert((sd.oy + j, sd.ox + i));
            }
        }
        for j in 1..d.ny() - 1 {
            for i in 1..d.nx() - 1 {
                if d.on_lattice(j, i) {
                    prop_assert!(written.contains(&(j, i)), "({j},{i}) never written");
                }
            }
        }
        for &(j, i) in &written {
            prop_assert!(d.on_lattice(j, i));
            prop_assert!(j >= 1 && j < d.ny() - 1 && i >= 1 && i < d.nx() - 1);
        }
    }

    /// Atomic subdomains tile the grid: interiors are disjoint and their
    /// union plus the lattice covers everything.
    #[test]
    fn atomic_interiors_are_disjoint_and_cover(d in arb_domain()) {
        let interior = d.interior_offsets();
        let mut seen = std::collections::HashSet::new();
        for sd in d.atomic_subdomains() {
            for &(j, i) in &interior {
                prop_assert!(
                    seen.insert((sd.oy + j, sd.ox + i)),
                    "atomic interiors overlap at ({}, {})", sd.oy + j, sd.ox + i
                );
            }
        }
        // Every non-lattice point is some atomic interior point.
        for j in 0..d.ny() {
            for i in 0..d.nx() {
                if !d.on_lattice(j, i) {
                    prop_assert!(seen.contains(&(j, i)), "({j},{i}) uncovered");
                }
            }
        }
    }

    /// Window boundary reads and field reads have the expected lengths.
    #[test]
    fn window_read_shapes(d in arb_domain()) {
        let grid = mf_tensor::Tensor::zeros(d.ny(), d.nx());
        let sd = d.subdomains()[0];
        prop_assert_eq!(d.read_window_boundary(&grid, sd).numel(), 4 * (d.sub.m - 1));
        prop_assert_eq!(d.read_window_field(&grid, sd).numel(), d.sub.m * d.sub.m);
    }

    /// The coarse initializer touches only lattice points and preserves
    /// the boundary ring.
    #[test]
    fn coarse_initialize_preserves_boundary_and_non_lattice(d in arb_domain()) {
        use mf_numerics::boundary::{apply_boundary, boundary_from_fn};
        let bc = boundary_from_fn(d.ny(), d.nx(), |t| (2.0 * std::f64::consts::PI * t).sin());
        let mut grid = mf_tensor::Tensor::zeros(d.ny(), d.nx());
        apply_boundary(&mut grid, &bc);
        let before = grid.clone();
        d.coarse_initialize(&mut grid);
        for j in 0..d.ny() {
            for i in 0..d.nx() {
                let edge = j == 0 || i == 0 || j == d.ny() - 1 || i == d.nx() - 1;
                if edge {
                    prop_assert_eq!(grid.get(j, i), before.get(j, i), "boundary modified");
                } else if !d.on_lattice(j, i) {
                    prop_assert_eq!(grid.get(j, i), 0.0, "non-lattice point written");
                }
            }
        }
    }
}

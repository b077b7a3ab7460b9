//! Property-based tests of the tree layer (proptest).

#![cfg(test)]

use crate::htable::KeyTable;
use crate::moments::MassMoments;
use crate::tree::Tree;
use hot_base::{Aabb, Vec3};
use hot_morton::Key;
use proptest::prelude::*;

fn unit_points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec3>> {
    proptest::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tree structural invariants hold for arbitrary point sets and bucket
    /// sizes (including duplicates and tiny buckets).
    #[test]
    fn tree_validates_for_arbitrary_inputs(
        mut pts in unit_points(1..300),
        bucket in 1usize..40,
        dup in 0usize..5,
    ) {
        // Inject duplicates to stress the max-depth path.
        for k in 0..dup.min(pts.len()) {
            let p = pts[k];
            pts.push(p);
        }
        let masses = vec![1.0; pts.len()];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pts, &masses, bucket);
        prop_assert_eq!(tree.validate(), Ok(()));
        prop_assert_eq!(tree.n_particles(), pts.len());
        prop_assert!((tree.root().moments.mass - pts.len() as f64).abs() < 1e-9);
    }

    /// Groups partition the particles for any group bound.
    #[test]
    fn groups_partition(pts in unit_points(1..300), gs in 1usize..64) {
        let masses = vec![1.0; pts.len()];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pts, &masses, 8);
        let mut seen = vec![false; pts.len()];
        for gi in tree.groups(gs) {
            for i in tree.cells[gi as usize].span() {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Mass coverage: every sink sees total mass once, for arbitrary point
    /// sets, bucket sizes and angles — the treecode's fundamental
    /// conservation property, fuzzed.
    #[test]
    fn walk_mass_coverage(
        pts in unit_points(2..200),
        bucket in 1usize..24,
        theta in 0.2f64..1.2,
    ) {
        use crate::walk::{tests::Coverage, walk_lists};
        let masses = vec![1.0; pts.len()];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pts, &masses, bucket);
        let mut seen = vec![0.0; pts.len()];
        let mac = crate::Mac::BarnesHut { theta };
        walk_lists(&tree, &mac, &mut Coverage { seen: &mut seen, base: 0 });
        let n = pts.len() as f64;
        for &s in &seen {
            prop_assert!((s - n).abs() < 1e-9 * n, "saw {s}, want {n}");
        }
    }

    /// The KeyTable behaves exactly like a reference map under arbitrary
    /// operation sequences.
    #[test]
    fn keytable_model_check(ops in proptest::collection::vec((1u64..500, 0u32..100), 1..500)) {
        let mut table = KeyTable::with_capacity(4);
        let mut model = std::collections::HashMap::new();
        for (raw, val) in ops {
            let k = Key(raw);
            prop_assert_eq!(table.insert(k, val), model.insert(k, val));
            prop_assert_eq!(table.len(), model.len());
        }
        for (&k, &v) in &model {
            prop_assert_eq!(table.get(k), Some(v));
        }
        // Absent keys miss.
        for raw in 500..520 {
            prop_assert_eq!(table.get(Key(raw)), None);
        }
    }

    /// Cell bmax bounds are respected against brute force for arbitrary
    /// input (a tight invariant the MAC correctness rests on).
    #[test]
    fn bmax_really_bounds(pts in unit_points(1..150)) {
        let masses = vec![1.0; pts.len()];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pts, &masses, 6);
        for c in &tree.cells {
            for i in c.span() {
                let d = (tree.pos[i] - c.center).norm();
                prop_assert!(d <= c.bmax * (1.0 + 1e-12) + 1e-300);
            }
        }
    }
}

proptest! {
    // Each case spins up an np-rank simulated machine; keep the case count
    // moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The balance invariant, fuzzed: a forced rebalance (threshold 0)
    /// lands on body sets and `KeyIntervals` that are a pure function of
    /// the global (key, cost) multiset — bitwise the same from two
    /// different partitions of the same bodies (the aligned sample sort
    /// and the unaligned one), and equal to the serial exact cost cuts —
    /// for arbitrary positions, cost vectors and rank counts.
    #[test]
    fn incremental_rebalance_equals_from_scratch(
        pts in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 1u32..100_000),
            8..120,
        ),
        np in 1u32..6,
        dup in 0usize..6,
    ) {
        use crate::decomp::{
            body_cost, cost_cut_bounds_serial, decompose, decompose_unaligned, rebalance_traced, Body,
        };
        use hot_comm::RunConfig;
        use hot_trace::Ledger;

        // Duplicate a few entries so equal keys with different costs hit
        // the equal-key-group cut logic.
        let mut pts = pts;
        for k in 0..dup.min(pts.len()) {
            let p = pts[k];
            pts.push(p);
        }
        let pts_c = pts.clone();
        let out = RunConfig::builder().np(np).run(move |c| {
            let bodies: Vec<Body<f64>> = pts_c
                .iter()
                .enumerate()
                .filter(|(i, _)| *i as u32 % np == c.rank())
                .map(|(i, &(x, y, z, w))| {
                    let pos = Vec3::new(x, y, z);
                    Body {
                        key: Key::from_point(pos, &Aabb::unit()),
                        pos,
                        charge: 1.0,
                        work: w as f32,
                        id: i as u64,
                    }
                })
                .collect();
            let ids = |v: &[Body<f64>]| -> Vec<(u64, u64)> {
                v.iter().map(|b| (b.key.0, b.id)).collect()
            };
            let costs: Vec<(u64, u64)> = bodies.iter().map(|b| (b.key.0, body_cost(b))).collect();
            // Two starting partitions of the same bodies, each forced to
            // repartition from wherever it is.
            let (aligned, aligned_iv) = decompose(c, bodies.clone(), 16);
            let (unaligned, unaligned_iv) = decompose_unaligned(c, bodies, 16);
            let mut forced = |mine, iv| {
                let (b, iv, reb) = rebalance_traced(c, mine, iv, 0, &mut Ledger::scratch());
                assert!(reb.repartitioned, "threshold 0 must always repartition");
                (b, iv)
            };
            let (a_bodies, a_iv) = forced(aligned, aligned_iv);
            let (u_bodies, u_iv) = forced(unaligned, unaligned_iv);
            (ids(&a_bodies), ids(&u_bodies), a_iv, u_iv, c.allgather(costs))
        });
        let mut global: Vec<(u64, u64)> = out.results[0].4.iter().flatten().copied().collect();
        global.sort_unstable();
        let want = cost_cut_bounds_serial(&global, np as usize);
        for (a, u, a_iv, u_iv, _) in out.results {
            prop_assert_eq!(a, u, "body sets diverged");
            prop_assert_eq!(&a_iv, &u_iv, "intervals diverged");
            prop_assert_eq!(&a_iv.bounds, &want, "not the serial exact cost cuts");
        }
    }
}

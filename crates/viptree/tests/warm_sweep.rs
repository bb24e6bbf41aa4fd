//! The door-row sweep that fills the warm tier is bit-identical to the
//! per-cell kernels.
//!
//! Over seeded random multi-level venues, on vivid trees and on IP-trees
//! (whose `door_to_door` climbs level by level), with full and truncated
//! budgets and at 1/2/4 fill threads: every covered door cell equals
//! `door_dist_from(d, q)` and every node minimum equals
//! `min_dist_partition_to_node(p, n)`, bit for bit.

use ifls_indoor::Venue;
use ifls_rng::StdRng;
use ifls_venues::RandomVenueSpec;
use ifls_viptree::{NodeId, VipTree, VipTreeConfig, WarmTier, DEFAULT_WARM_BUDGET_BYTES};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn random_venue(rng: &mut StdRng) -> Venue {
    RandomVenueSpec {
        cells_x: rng.random_range(2u32..5),
        cells_y: rng.random_range(2u32..4),
        levels: rng.random_range(1u32..4),
        extra_door_prob: rng.random_range(0.0..0.8),
        cell_size: 10.0,
    }
    .build(rng.next_u64())
}

/// Checks every cell the tier holds against the per-cell kernels.
fn assert_matches_kernels(tree: &VipTree<'_>, tier: &WarmTier, label: &str) {
    let venue = tree.venue();
    let mut out = Vec::new();
    for &q in tier.targets() {
        assert!(tier.covers(q), "{label}: target {q} not covered");
        for p in venue.partition_ids() {
            tier.gather_into(venue, p, q, &mut out);
            let doors = venue.partition(p).doors();
            assert_eq!(out.len(), doors.len(), "{label}: gather length ({p}, {q})");
            for (&cell, &d) in out.iter().zip(doors) {
                assert_eq!(
                    cell.to_bits(),
                    tree.door_dist_from(d, q).to_bits(),
                    "{label}: door cell ({d}, {q})"
                );
            }
        }
    }
    if tier.has_node_mins() {
        for p in venue.partition_ids() {
            for i in 0..tree.num_nodes() {
                let n = NodeId::new(i as u32);
                assert_eq!(
                    tier.node_min(p, n).to_bits(),
                    tree.min_dist_partition_to_node(p, n).to_bits(),
                    "{label}: node min ({p}, node {i})"
                );
            }
        }
    }
}

#[test]
fn sweep_is_bit_identical_to_per_cell_kernels() {
    let mut rng = StdRng::seed_from_u64(0x5eeb_0001);
    for case_no in 0..6 {
        let venue = random_venue(&mut rng);
        let parts = venue.num_partitions();
        let per_column = venue.num_doors() * 8 + 4;
        let fixed = parts * 4;
        // Full, about half the columns, and a single column.
        let budgets = [
            DEFAULT_WARM_BUDGET_BYTES,
            fixed + parts.div_ceil(2) * per_column,
            fixed + per_column,
        ];
        for (config, mode) in [
            (VipTreeConfig::default(), "vivid"),
            (VipTreeConfig::ip_tree(), "ip-tree"),
        ] {
            let tree = VipTree::build(&venue, config);
            for budget in budgets {
                let serial = tree.build_warm_tier(budget, 1);
                let label = format!("case {case_no} {mode} budget {budget}");
                assert_matches_kernels(&tree, &serial, &label);
                if budget == DEFAULT_WARM_BUDGET_BYTES {
                    assert_eq!(serial.num_targets(), parts, "{label}: full coverage");
                    assert!(serial.has_node_mins(), "{label}: node minima present");
                } else {
                    assert!(serial.num_targets() < parts, "{label}: truncated");
                }
                for threads in THREAD_COUNTS {
                    let t = tree.build_warm_tier(budget, threads);
                    assert_eq!(
                        t.checksum(),
                        serial.checksum(),
                        "{label}: tier differs at {threads} threads"
                    );
                    assert_eq!(t, serial, "{label}: tier differs at {threads} threads");
                }
            }
        }
    }
}

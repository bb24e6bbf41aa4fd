//! Brute-force IFLS solver: the literal problem definition, used as the
//! correctness oracle and for exact objective evaluation.

use std::time::Instant;

use ifls_indoor::{IndoorPoint, PartitionId};
use ifls_viptree::VipTree;

use crate::budget::{record_degraded_obs, Budget, Resolution};
use crate::outcome::MinMaxOutcome;
use crate::stats::QueryStats;

/// Evaluates the exact MinMax objective of placing the new facility at
/// `candidate` (or of the status quo, when `None`):
/// `max_c iDist(c, NN(c, Fe ∪ candidate))`.
pub fn evaluate_objective(
    tree: &VipTree<'_>,
    clients: &[IndoorPoint],
    existing: &[PartitionId],
    candidate: Option<PartitionId>,
) -> f64 {
    let mut per_client = nearest_facility_dists(tree, clients, existing);
    if let Some(n) = candidate {
        min_with_partition_dists(tree, clients, n, &mut per_client);
    }
    ifls_viptree::kernels::max_fold(&per_client)
}

/// For every client, the distance to its nearest facility among `facilities`
/// (`+∞` when the set is empty). Clients in the same partition share the
/// per-door distance vectors, so the cost is
/// `O(#distinct partitions · |facilities|)` distance computations plus one
/// combination per client.
pub(crate) fn nearest_facility_dists(
    tree: &VipTree<'_>,
    clients: &[IndoorPoint],
    facilities: &[PartitionId],
) -> Vec<f64> {
    let mut out = vec![f64::INFINITY; clients.len()];
    for &f in facilities {
        min_with_partition_dists(tree, clients, f, &mut out);
    }
    out
}

/// Folds `min(current, iDist(c, facility))` into `acc` for every client.
///
/// Door vectors come warm-first ([`VipTree::door_dists_warm_first`]), so on a
/// tree carrying a warm tier the exact evaluators cost gathers, not
/// kernel runs — with identical bits.
pub(crate) fn min_with_partition_dists(
    tree: &VipTree<'_>,
    clients: &[IndoorPoint],
    facility: PartitionId,
    acc: &mut [f64],
) {
    // Group clients by partition: the door-to-facility distances are shared.
    let mut shared: Vec<Option<Vec<f64>>> = vec![None; tree.venue().num_partitions()];
    for (i, c) in clients.iter().enumerate() {
        if c.partition == facility {
            acc[i] = 0.0;
            continue;
        }
        let dists = shared[c.partition.index()]
            .get_or_insert_with(|| tree.door_dists_warm_first(c.partition, facility));
        let d = tree.dist_point_to_partition_via(c, dists);
        if d < acc[i] {
            acc[i] = d;
        }
    }
}

/// The brute-force solver: evaluates every candidate exhaustively.
///
/// Exponentially simpler than the paper's algorithms and the yardstick all
/// of them are tested against; costs
/// `O(|C| · (|Fe| + |Fn|))` client–facility distance combinations.
pub struct BruteForce<'t, 'v> {
    tree: &'t VipTree<'v>,
}

impl<'t, 'v> BruteForce<'t, 'v> {
    /// Creates a solver over the given index.
    pub fn new(tree: &'t VipTree<'v>) -> Self {
        Self { tree }
    }

    /// Top-k by exhaustive evaluation: every candidate's exact objective,
    /// sorted ascending (id on ties), truncated to `k`.
    pub fn run_topk(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
        k: usize,
    ) -> Vec<(PartitionId, f64)> {
        let nn_existing = nearest_facility_dists(self.tree, clients, existing);
        let mut scored: Vec<(PartitionId, f64)> = candidates
            .iter()
            .map(|&n| {
                let mut per = nn_existing.clone();
                min_with_partition_dists(self.tree, clients, n, &mut per);
                (n, ifls_viptree::kernels::max_fold(&per))
            })
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.dedup_by_key(|e| e.0);
        scored.truncate(k);
        scored
    }

    /// Answers the query by exhaustive evaluation.
    ///
    /// Returns the candidate with the minimum objective (smallest id on
    /// ties). The answer is `None` only when `candidates` is empty or no
    /// candidate strictly improves on the status quo.
    pub fn run(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
    ) -> MinMaxOutcome {
        self.run_budgeted(clients, existing, candidates, &Budget::unlimited())
    }

    /// [`run`](Self::run) under a cooperative [`Budget`], polled once per
    /// candidate. The oracle has no pruning bounds, so a degraded outcome
    /// reports the conservative gap `objective − 0` (an unevaluated
    /// candidate could in principle reach a zero objective).
    pub fn run_budgeted(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
        budget: &Budget,
    ) -> MinMaxOutcome {
        let start = Instant::now();
        let mut dist_computations = 0u64;
        let nn_existing = nearest_facility_dists(self.tree, clients, existing);
        dist_computations += (clients.len() * existing.len()) as u64;
        let status_quo = ifls_viptree::kernels::max_fold(&nn_existing);

        let mut best: Option<(PartitionId, f64)> = None;
        let mut interrupted = None;
        for &n in candidates {
            if let Some(reason) = budget.check(dist_computations) {
                interrupted = Some(reason);
                break;
            }
            let mut worst = 0.0f64;
            let mut per = nn_existing.clone();
            min_with_partition_dists(self.tree, clients, n, &mut per);
            dist_computations += clients.len() as u64;
            for d in per {
                if d > worst {
                    worst = d;
                }
            }
            let better = match best {
                None => true,
                Some((bn, bd)) => worst < bd || (worst == bd && n < bn),
            };
            if better {
                best = Some((n, worst));
            }
        }

        // `dist_computations` counts evaluations actually performed, so an
        // interrupted run reports truthful counters while an unbounded run
        // reports exactly `|C|·(|Fe| + |Fn|)` as before.
        let mut stats = QueryStats {
            dist_computations,
            facilities_retrieved: dist_computations,
            peak_bytes: clients.len() * 8 * 2,
            ..QueryStats::default()
        };
        stats.record_elapsed(start.elapsed());
        stats.record_query_obs();
        let resolution = match interrupted {
            Some(reason) => {
                let achieved = match best {
                    Some((_, obj)) if obj < status_quo => obj,
                    _ => status_quo,
                };
                let r = Resolution::Degraded {
                    gap: achieved.max(0.0),
                    reason,
                };
                record_degraded_obs(&r);
                r
            }
            None => Resolution::Exact,
        };
        match best {
            Some((n, obj)) if obj < status_quo => MinMaxOutcome {
                answer: Some(n),
                objective: obj,
                resolution,
                stats,
            },
            _ => MinMaxOutcome {
                answer: None,
                objective: status_quo,
                resolution,
                stats,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifls_venues::GridVenueSpec;
    use ifls_viptree::VipTreeConfig;
    use ifls_workloads::WorkloadBuilder;

    #[test]
    fn brute_answer_minimizes_evaluated_objective() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(60)
            .existing_uniform(3)
            .candidates_uniform(6)
            .seed(11)
            .build();
        let out = BruteForce::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        // The reported objective matches re-evaluation of the answer.
        let eval = evaluate_objective(&tree, &w.clients, &w.existing, out.answer);
        assert!((out.objective - eval).abs() < 1e-9);
        // No candidate does better.
        for &n in &w.candidates {
            let o = evaluate_objective(&tree, &w.clients, &w.existing, Some(n));
            assert!(o >= out.objective - 1e-9);
        }
    }

    #[test]
    fn empty_candidates_yield_status_quo() {
        let venue = GridVenueSpec::new("t", 1, 10).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(20)
            .existing_uniform(2)
            .candidates_uniform(0)
            .seed(1)
            .build();
        let out = BruteForce::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        assert_eq!(out.answer, None);
        let eval = evaluate_objective(&tree, &w.clients, &w.existing, None);
        assert!((out.objective - eval).abs() < 1e-9);
    }

    #[test]
    fn empty_existing_becomes_one_center_over_candidates() {
        let venue = GridVenueSpec::new("t", 1, 12).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(30)
            .existing_uniform(0)
            .candidates_uniform(5)
            .seed(3)
            .build();
        let out = BruteForce::new(&tree).run(&w.clients, &[], &w.candidates);
        assert!(out.answer.is_some());
        assert!(out.objective.is_finite());
    }

    #[test]
    fn clients_inside_facility_have_zero_distance() {
        let venue = GridVenueSpec::new("t", 1, 12).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let f = venue.partitions()[5].id();
        let clients = vec![ifls_indoor::IndoorPoint::new(
            f,
            venue.partition(f).center(),
        )];
        let d = nearest_facility_dists(&tree, &clients, &[f]);
        assert_eq!(d, vec![0.0]);
    }

    #[test]
    fn evaluate_with_candidate_never_exceeds_status_quo() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(40)
            .existing_uniform(4)
            .candidates_uniform(5)
            .seed(21)
            .build();
        let base = evaluate_objective(&tree, &w.clients, &w.existing, None);
        for &n in &w.candidates {
            let with = evaluate_objective(&tree, &w.clients, &w.existing, Some(n));
            assert!(with <= base + 1e-9);
        }
    }
}

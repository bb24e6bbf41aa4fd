//! The snapshot-shipped warm tier: a dense `door × partition` matrix of
//! precomputed door-distance kernels plus a dense `partition × node`
//! matrix of precomputed node minima.
//!
//! [`VipTree::door_dists_to_partition`]`(p, q)[i]` equals
//! `door_dist_from(doors(p)[i], q)` — per-*door*, not per-pair. So instead
//! of memoizing `(p, q)` vectors, the warm tier stores one column per
//! covered target partition `q` holding `door_dist_from(d, q)` for *every*
//! door `d` of the venue. Any source partition's vector is then a gather
//! of its doors' rows: hash-free O(doors(p)) lookup, and one column serves
//! all sources at once (doors shared between partitions are stored once).
//!
//! Target partitions are ranked by door fan-in (descending, ties by id) —
//! the partitions most often *reached* during candidate exploration — and
//! admitted until a byte budget is exhausted. Under the default budget
//! every named venue's full matrix fits (MZB, the largest, is ~15 MiB).
//!
//! The second matrix covers [`VipTree::min_dist_partition_to_node`], the
//! `iMinD(p, N)` pruning bound the solvers ask for on every queue
//! expansion. It has no per-door structure to share, but it is small
//! (`partitions × nodes`, ~4 MiB on MZB) and its kernel is the single
//! most expensive cache miss, so the whole matrix is precomputed
//! all-or-nothing from whatever budget the door columns leave over.
//!
//! Both matrices are filled by one door-row sweep (see
//! [`VipTree::build_warm_tier`]): each source door's `door_to_door` row is
//! computed once and every cell starting at that door is a min over it —
//! the same values, first argument and all, that the live miss path's
//! kernels ([`VipTree::door_dist_from`] /
//! [`VipTree::min_dist_partition_to_node`]) fold, so a warm hit is
//! bit-identical to a recomputation. Rows are pure and written to disjoint
//! slices, making the threaded build deterministic at any worker count.

use ifls_indoor::{DoorId, Fnv1a, PartitionId, Venue};

use crate::tree::VipTree;
use crate::NodeId;

/// Column marker for "partition not covered by the warm tier".
const NO_COLUMN: u32 = u32::MAX;

/// Default byte budget for [`VipTree::build_warm_tier`] — comfortably
/// holds the full matrix of every named venue.
pub const DEFAULT_WARM_BUDGET_BYTES: usize = 32 << 20;

/// A read-only dense tier of door-distance kernels, owned by the tree.
///
/// Probed by `DistCache::door_dists` before the mutable tiers; shipped as
/// the optional warm section of `ifls-index/v2` snapshots.
#[derive(Clone, Debug, PartialEq)]
pub struct WarmTier {
    /// Per-partition column index, or [`NO_COLUMN`]; empty when no
    /// partition is covered.
    cols: Vec<u32>,
    /// Covered target partitions in column order.
    targets: Vec<PartitionId>,
    /// Row count: one row per venue door.
    num_doors: usize,
    /// Column-major cells: `dists[col * num_doors + door.index()]`.
    dists: Vec<f64>,
    /// Node count behind `node_mins` (0 when that matrix is absent).
    num_nodes: usize,
    /// Row-major `partition × node` minima:
    /// `node_mins[p.index() * num_nodes + n.index()]`. Empty = absent;
    /// when present it always covers every (partition, node) pair.
    node_mins: Vec<f64>,
}

impl WarmTier {
    /// Whether target partition `q`'s column is present.
    #[inline]
    pub fn covers(&self, q: PartitionId) -> bool {
        self.cols.get(q.index()).is_some_and(|&c| c != NO_COLUMN)
    }

    /// Gathers the door-distance vector for `(p, q)` into `out` —
    /// bit-identical to [`VipTree::door_dists_to_partition`]`(p, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not covered (callers check [`Self::covers`]).
    #[inline]
    pub fn gather_into(&self, venue: &Venue, p: PartitionId, q: PartitionId, out: &mut Vec<f64>) {
        let col = self.cols[q.index()] as usize;
        let base = col * self.num_doors;
        let column = &self.dists[base..base + self.num_doors];
        out.clear();
        out.extend(
            venue
                .partition(p)
                .doors()
                .iter()
                .map(|&d| column[d.index()]),
        );
    }

    /// Covered target partitions, in column order.
    #[inline]
    pub fn targets(&self) -> &[PartitionId] {
        &self.targets
    }

    /// Number of covered target partitions (columns).
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.targets.len()
    }

    /// Total precomputed door cells (columns × doors).
    #[inline]
    pub fn entries(&self) -> usize {
        self.dists.len()
    }

    /// Whether the dense `partition × node` minima matrix is present.
    #[inline]
    pub fn has_node_mins(&self) -> bool {
        !self.node_mins.is_empty()
    }

    /// Precomputed `iMinD(p, n)` — bit-identical to
    /// [`VipTree::min_dist_partition_to_node`]`(p, n)`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is absent (callers check
    /// [`Self::has_node_mins`]).
    #[inline]
    pub fn node_min(&self, p: PartitionId, n: NodeId) -> f64 {
        self.node_mins[p.index() * self.num_nodes + n.index()]
    }

    /// Total precomputed node-min cells (partitions × nodes, or 0).
    #[inline]
    pub fn node_min_entries(&self) -> usize {
        self.node_mins.len()
    }

    /// Heap footprint: cells + column map + target list + node minima.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        self.dists.len() * std::mem::size_of::<f64>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<u32>()
            + self.node_mins.len() * std::mem::size_of::<f64>()
    }

    /// FNV-1a over the tier's shape and cell bits (targets, door cells,
    /// node minima): equal for bit-identical tiers, so a build can be
    /// compared across thread counts and snapshot round trips.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.targets.len() as u64);
        h.write_u64(self.node_mins.len() as u64);
        for q in &self.targets {
            h.write_u32(q.raw());
        }
        for &c in self.dists.iter().chain(&self.node_mins) {
            h.write_f64(c);
        }
        h.finish()
    }

    /// Raw door cells in column-major order (snapshot encoding).
    #[inline]
    pub(crate) fn cells(&self) -> &[f64] {
        &self.dists
    }

    /// Raw node-min cells in row-major order (snapshot encoding).
    #[inline]
    pub(crate) fn node_min_cells(&self) -> &[f64] {
        &self.node_mins
    }

    /// Reassembles a tier from snapshot-decoded parts, revalidating the
    /// shape (`SnapshotError::Corrupt` is raised by the caller on `Err`).
    pub(crate) fn from_parts(
        num_partitions: usize,
        num_doors: usize,
        num_nodes: usize,
        targets: Vec<PartitionId>,
        dists: Vec<f64>,
        node_mins: Vec<f64>,
    ) -> Result<Self, &'static str> {
        if dists.len() != targets.len() * num_doors {
            return Err("warm tier cell count does not match targets × doors");
        }
        if !node_mins.is_empty() && node_mins.len() != num_partitions * num_nodes {
            return Err("warm tier node-min count does not match partitions × nodes");
        }
        // A tier without columns carries no column map either, so an empty
        // tier costs nothing against its budget.
        let mut cols = if targets.is_empty() {
            Vec::new()
        } else {
            vec![NO_COLUMN; num_partitions]
        };
        for (j, &q) in targets.iter().enumerate() {
            let slot = cols
                .get_mut(q.index())
                .ok_or("warm tier target out of range")?;
            if *slot != NO_COLUMN {
                return Err("warm tier target listed twice");
            }
            *slot = j as u32;
        }
        Ok(Self {
            cols,
            targets,
            num_doors,
            dists,
            num_nodes,
            node_mins,
        })
    }
}

impl VipTree<'_> {
    /// The warm tier, if one was built or loaded with this tree.
    #[inline]
    pub fn warm_tier(&self) -> Option<&WarmTier> {
        self.warm.as_ref()
    }

    /// Attaches (or detaches) a warm tier.
    pub fn set_warm_tier(&mut self, warm: Option<WarmTier>) {
        self.warm = warm;
    }

    /// [`VipTree::door_dists_to_partition`]`(p, q)`, warm first: gathered
    /// from the warm tier when it covers `q`, computed by the kernel
    /// otherwise. Bit-identical either way.
    pub fn door_dists_warm_first(&self, p: PartitionId, q: PartitionId) -> Vec<f64> {
        match &self.warm {
            Some(warm) if warm.covers(q) => {
                let mut out = Vec::new();
                warm.gather_into(self.venue(), p, q, &mut out);
                out
            }
            _ => self.door_dists_to_partition(p, q),
        }
    }

    /// Precomputes a warm tier over this tree with up to `threads` fill
    /// workers (`0` = all available cores).
    ///
    /// Door-vector targets are every partition ranked by door fan-in
    /// (descending, ties by ascending id), truncated to `budget_bytes`
    /// (each column is charged its cells plus its target-list entry; the
    /// column map once, when any column is kept). The `partition × node`
    /// minima matrix is then added all-or-nothing if it fits in whatever
    /// budget the columns left over.
    ///
    /// The fill is a door-row sweep: each source door `d` computes its row
    /// `door_to_door(d, ·)` once — only at the doors some cell reads — and
    /// every cell that starts at `d` is a min over that row. A cell is
    /// therefore the min over exactly the `door_to_door(d, ·)` values the
    /// per-cell kernels ([`VipTree::door_dist_from`] /
    /// [`VipTree::min_dist_partition_to_node`]) fold, with `d` always the
    /// first argument; an f64 min over non-NaN values is exact and
    /// order-free, so the tier is bit-identical to those kernels and to
    /// itself at any thread count.
    pub fn build_warm_tier(&self, budget_bytes: usize, threads: usize) -> WarmTier {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let venue = self.venue();
        let num_doors = venue.num_doors();
        let num_parts = venue.num_partitions();
        let num_nodes = self.num_nodes();

        let mut targets: Vec<PartitionId> = venue.partition_ids().collect();
        targets.sort_by_key(|&q| (std::cmp::Reverse(venue.partition(q).doors().len()), q.raw()));
        let per_target = num_doors * std::mem::size_of::<f64>() + std::mem::size_of::<u32>();
        let fixed = num_parts * std::mem::size_of::<u32>();
        targets.truncate(budget_bytes.saturating_sub(fixed) / per_target);
        // Node minima ride in whatever budget the columns left over — the
        // matrix is all-or-nothing so `has_node_mins` implies full
        // coverage and the probe never needs a per-pair presence check.
        let spent = if targets.is_empty() {
            0
        } else {
            fixed + targets.len() * per_target
        };
        let node_min_bytes = num_parts * num_nodes * std::mem::size_of::<f64>();
        let with_node_mins = num_nodes > 0 && node_min_bytes <= budget_bytes.saturating_sub(spent);
        let row_nodes = if with_node_mins { num_nodes } else { 0 };

        // The doors any cell reads: those of the covered targets, plus
        // every node's access doors when the minima are built.
        let mut read = vec![false; num_doors];
        for &q in &targets {
            for &dt in venue.partition(q).doors() {
                read[dt.index()] = true;
            }
        }
        if with_node_mins {
            for n in self.node_ids() {
                for a in self.access_doors(n) {
                    read[a.index()] = true;
                }
            }
        }
        let read: Vec<DoorId> = venue.door_ids().filter(|d| read[d.index()]).collect();

        // Door-major sweep output: per source door, one cell per target
        // column followed by its per-node minima `m[d][n]`.
        let width = targets.len() + row_nodes;
        let mut by_door = vec![0.0f64; num_doors * width];
        let sweep_door = |d: DoorId, row: &mut [f64], out: &mut [f64]| {
            for &dt in &read {
                row[dt.index()] = self.door_to_door(d, dt);
            }
            let (cells, mins) = out.split_at_mut(targets.len());
            let door = venue.door(d);
            for (cell, &q) in cells.iter_mut().zip(&targets) {
                *cell = if door.partitions().any(|side| side == q) {
                    0.0
                } else {
                    min_over(row, venue.partition(q).doors().iter().copied())
                };
            }
            for (cell, n) in mins.iter_mut().zip(self.node_ids()) {
                *cell = min_over(row, self.access_doors(n));
            }
        };
        if width > 0 {
            sweep(threads, num_doors, width, &mut by_door, sweep_door);
        }

        let mut dists = vec![0.0f64; targets.len() * num_doors];
        for (col, column) in dists.chunks_mut(num_doors.max(1)).enumerate() {
            for (d, cell) in column.iter_mut().enumerate() {
                *cell = by_door[d * width + col];
            }
        }
        let mut node_mins = Vec::new();
        if with_node_mins {
            node_mins = vec![0.0f64; num_parts * num_nodes];
            for (p, row) in venue.partition_ids().zip(node_mins.chunks_mut(num_nodes)) {
                for (n, cell) in self.node_ids().zip(row.iter_mut()) {
                    *cell = if self.contains_partition(n, p) {
                        0.0
                    } else {
                        venue
                            .partition(p)
                            .doors()
                            .iter()
                            .map(|ds| by_door[ds.index() * width + targets.len() + n.index()])
                            .fold(f64::INFINITY, f64::min)
                    };
                }
            }
        }

        WarmTier::from_parts(num_parts, num_doors, num_nodes, targets, dists, node_mins)
            .expect("freshly built tier has a consistent shape")
    }
}

/// `min(row[d])` over `doors` (`+∞` when empty).
#[inline]
fn min_over(row: &[f64], doors: impl Iterator<Item = DoorId>) -> f64 {
    doors.map(|d| row[d.index()]).fold(f64::INFINITY, f64::min)
}

/// Source doors per work unit of the threaded sweep.
const SWEEP_BLOCK: usize = 8;

/// Runs `sweep_door(d, row, out)` for every door `d`, where `out` is `d`'s
/// `width`-cell slice of `by_door` and `row` is a per-worker scratch row of
/// `num_doors` cells. Blocks of doors are claimed from a shared iterator by
/// up to `threads` workers; each `out` is written exactly once from pure
/// inputs, so scheduling cannot affect the bytes produced.
fn sweep<F>(threads: usize, num_doors: usize, width: usize, by_door: &mut [f64], sweep_door: F)
where
    F: Fn(DoorId, &mut [f64], &mut [f64]) + Sync,
{
    let run_block = |block: usize, out: &mut [f64], row: &mut [f64]| {
        for (k, out) in out.chunks_mut(width).enumerate() {
            sweep_door(DoorId::from_index(block * SWEEP_BLOCK + k), row, out);
        }
    };
    let blocks = by_door.chunks_mut(SWEEP_BLOCK * width).enumerate();
    let workers = threads.min(num_doors.div_ceil(SWEEP_BLOCK));
    if workers <= 1 {
        let mut row = vec![0.0f64; num_doors];
        for (block, out) in blocks {
            run_block(block, out, &mut row);
        }
        return;
    }
    let blocks = std::sync::Mutex::new(blocks);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut row = vec![0.0f64; num_doors];
                loop {
                    let next = blocks.lock().expect("door sweep never panics").next();
                    let Some((block, out)) = next else {
                        return;
                    };
                    run_block(block, out, &mut row);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VipTreeConfig;
    use ifls_venues::GridVenueSpec;

    #[test]
    fn warm_gather_matches_kernel_bitwise() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let warm = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, 1);
        assert_eq!(warm.num_targets(), venue.num_partitions());
        let mut out = Vec::new();
        for p in venue.partition_ids() {
            for q in venue.partition_ids() {
                assert!(warm.covers(q));
                warm.gather_into(&venue, p, q, &mut out);
                let direct = tree.door_dists_to_partition(p, q);
                assert_eq!(out.len(), direct.len());
                for (a, b) in out.iter().zip(&direct) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        assert!(warm.has_node_mins());
        assert_eq!(
            warm.node_min_entries(),
            venue.num_partitions() * tree.num_nodes()
        );
        for p in venue.partition_ids() {
            for i in 0..tree.num_nodes() {
                let n = NodeId::new(i as u32);
                assert_eq!(
                    warm.node_min(p, n).to_bits(),
                    tree.min_dist_partition_to_node(p, n).to_bits(),
                    "node min bits ({p}, node {i})"
                );
            }
        }
    }

    #[test]
    fn warm_build_is_thread_invariant() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let serial = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, 1);
        for threads in [2, 4, 8] {
            let t = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, threads);
            assert_eq!(serial.targets(), t.targets());
            assert_eq!(serial.cells().len(), t.cells().len());
            for (a, b) in serial.cells().iter().zip(t.cells()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(serial.node_min_cells().len(), t.node_min_cells().len());
            for (a, b) in serial.node_min_cells().iter().zip(t.node_min_cells()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn budget_truncates_by_fan_in() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let full = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, 1);
        // Budget for roughly 3 columns.
        let budget = venue.num_partitions() * 4 + 3 * venue.num_doors() * 8;
        let small = tree.build_warm_tier(budget, 1);
        assert!(small.num_targets() <= 3);
        assert!(small.num_targets() < full.num_targets());
        assert_eq!(
            small.targets(),
            &full.targets()[..small.num_targets()],
            "truncation keeps the fan-in ranking prefix"
        );
        // Highest fan-in first.
        let fan = |q: PartitionId| venue.partition(q).doors().len();
        for w in full.targets().windows(2) {
            assert!(
                fan(w[0]) > fan(w[1]) || (fan(w[0]) == fan(w[1]) && w[0].raw() < w[1].raw()),
                "targets must be ranked by (fan-in desc, id asc)"
            );
        }
        // Uncovered partitions answer covers() = false.
        if small.num_targets() < venue.num_partitions() {
            let uncovered = venue
                .partition_ids()
                .find(|&q| !small.targets().contains(&q))
                .expect("some partition is uncovered");
            assert!(!small.covers(uncovered));
        }
        // A small-budget tier drops the node minima along with columns.
        assert!(!small.has_node_mins());
        // Zero budget → empty tier, still well-formed.
        let empty = tree.build_warm_tier(0, 1);
        assert_eq!(empty.num_targets(), 0);
        assert_eq!(empty.entries(), 0);
        assert!(!empty.has_node_mins());
        assert_eq!(empty.node_min_entries(), 0);
    }

    #[test]
    fn tier_footprint_never_exceeds_its_budget() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let full = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, 1);
        let per_column = venue.num_doors() * 8 + 4;
        let fixed = venue.num_partitions() * 4;
        let mut budgets = vec![0, 1, fixed - 1, fixed, fixed + per_column - 1];
        // Exact column boundaries (where a missing target-list charge
        // overshoots) and every step up to the full tier.
        budgets.extend((1..=venue.num_partitions()).map(|k| fixed + k * per_column));
        budgets.extend((1..=venue.num_partitions()).map(|k| fixed + k * per_column - 1));
        budgets.push(full.approx_bytes());
        budgets.push(full.approx_bytes() - 1);
        for budget in budgets {
            let tier = tree.build_warm_tier(budget, 2);
            assert!(
                tier.approx_bytes() <= budget,
                "budget {budget}: tier takes {} bytes",
                tier.approx_bytes()
            );
            for q in venue.partition_ids() {
                assert_eq!(
                    tier.covers(q),
                    tier.targets().contains(&q),
                    "budget {budget}"
                );
            }
        }
        assert_eq!(tree.build_warm_tier(full.approx_bytes(), 1), full);
    }

    #[test]
    fn from_parts_rejects_malformed_shapes() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let d = venue.num_doors();
        let np = venue.num_partitions();
        let p0 = venue.partition_ids().next().expect("venue has partitions");
        assert!(WarmTier::from_parts(np, d, 4, vec![p0], vec![0.0; d], Vec::new()).is_ok());
        assert!(WarmTier::from_parts(np, d, 4, vec![p0], vec![0.0; d], vec![0.0; np * 4]).is_ok());
        // Cell count mismatch.
        assert!(WarmTier::from_parts(np, d, 4, vec![p0], vec![0.0; d + 1], Vec::new()).is_err());
        // Node-min count mismatch.
        assert!(
            WarmTier::from_parts(np, d, 4, vec![p0], vec![0.0; d], vec![0.0; np * 4 + 1]).is_err()
        );
        // Duplicate target.
        assert!(
            WarmTier::from_parts(np, d, 4, vec![p0, p0], vec![0.0; 2 * d], Vec::new()).is_err()
        );
        // Out-of-range target.
        let bogus = PartitionId::new(np as u32);
        assert!(WarmTier::from_parts(np, d, 4, vec![bogus], vec![0.0; d], Vec::new()).is_err());
    }
}

//! Frontier lanes: K ≤ 64 concurrent traversal queries packed as one
//! `u64` lane-mask per vertex.
//!
//! A [`LaneFrontier`] is the multi-query generalisation of
//! [`FrontierMask`]: bit `q` of vertex `v`'s lane word says query `q`'s
//! frontier holds `v`. The *union* of all lanes is maintained as a plain
//! [`FrontierMask`], so everything built on masks — `PlanSkeleton`
//! pruning, `Planner::plan_for_delta`, the disk `IoPlan` translation,
//! cluster sharding — applies unchanged to the union plan: one scan of
//! the planned edge stream advances all K queries, and per-query
//! attribution is recovered from the lane words
//! (see [`LaneCounters`](crate::metrics::LaneCounters)).
//!
//! Per-lane set-bit counts are maintained on every mutation, so
//! [`LaneFrontier::lane_len`] — the per-iteration per-query frontier
//! size the fused drivers report — is O(1), exactly like
//! [`FrontierMask::len`].
//!
//! A single traversal is a one-lane run, so one lane is the common case.
//! With one lane the union *is* lane 0: the frontier keeps only its
//! union mask and no per-vertex lane words, so a one-lane round costs
//! what a plain [`FrontierMask`] costs.

use crate::exec::mask::FrontierMask;

/// Maximum queries one [`LaneFrontier`] can carry — the width of the
/// per-vertex lane word.
pub const MAX_LANES: usize = 64;

/// K concurrent per-query frontiers packed as a `u64` lane word per
/// vertex, with a maintained [`FrontierMask`] union and O(1) per-lane
/// popcounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneFrontier {
    /// Number of lanes (queries) in use; lane bits ≥ `k` are always zero.
    k: usize,
    /// One lane word per vertex (bit `q` = query `q` active here);
    /// empty with one lane, where `union` is lane 0.
    words: Vec<u64>,
    /// Vertices whose lane word is nonzero.
    union: FrontierMask,
    /// Per-lane set-bit counts (maintained, never recounted).
    counts: Vec<u64>,
}

impl LaneFrontier {
    /// An all-inactive lane frontier over `n` vertices and `k` queries.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ 64`.
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&k),
            "lane count {k} outside 1..={MAX_LANES}"
        );
        LaneFrontier {
            k,
            words: if k == 1 { Vec::new() } else { vec![0; n] },
            union: FrontierMask::new(n),
            counts: vec![0; k],
        }
    }

    /// A lane frontier with every lane active at every vertex (the WCC
    /// start state).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ 64`.
    #[must_use]
    pub fn full(n: usize, k: usize) -> Self {
        let mut lanes = LaneFrontier::new(n, k);
        let all = if k == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << k) - 1
        };
        if k > 1 {
            lanes.words.fill(all);
        }
        lanes.union = FrontierMask::full(n);
        lanes.counts.fill(n as u64);
        lanes
    }

    /// Builds a lane frontier from per-query masks (test/spec use; the
    /// drivers build theirs incrementally).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ masks.len() ≤ 64` and every mask ranges over
    /// the same vertex count.
    #[must_use]
    pub fn from_masks(masks: &[FrontierMask]) -> Self {
        assert!(!masks.is_empty(), "at least one lane mask required");
        let n = masks[0].num_vertices();
        let mut lanes = LaneFrontier::new(n, masks.len());
        for (q, mask) in masks.iter().enumerate() {
            assert_eq!(
                mask.num_vertices(),
                n,
                "lane {q} ranges over {} vertices, lane 0 over {n}",
                mask.num_vertices()
            );
            for v in mask.iter() {
                lanes.set(q, v);
            }
        }
        lanes
    }

    /// Number of lanes (queries).
    #[must_use]
    pub fn num_lanes(&self) -> usize {
        self.k
    }

    /// Vertices the frontier ranges over.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.union.num_vertices()
    }

    /// The lane word of vertex `v`: bit `q` set iff query `q` is active
    /// at `v` (0 for `v` past the end).
    #[must_use]
    pub fn vertex_lanes(&self, v: usize) -> u64 {
        if self.k == 1 {
            u64::from(self.union.get(v))
        } else {
            self.words.get(v).copied().unwrap_or(0)
        }
    }

    /// Whether query `lane` is active at vertex `v`.
    #[must_use]
    pub fn get(&self, lane: usize, v: usize) -> bool {
        debug_assert!(lane < self.k);
        self.vertex_lanes(v) >> lane & 1 == 1
    }

    /// Activates vertex `v` in `lane`; returns whether the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `v` is out of range.
    pub fn set(&mut self, lane: usize, v: usize) -> bool {
        assert!(lane < self.k, "lane {lane} out of range {}", self.k);
        self.or_lanes(v, 1u64 << lane)
    }

    /// Deactivates vertex `v` in `lane`; returns whether the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `v` is out of range.
    pub fn clear(&mut self, lane: usize, v: usize) -> bool {
        assert!(lane < self.k, "lane {lane} out of range {}", self.k);
        if self.k == 1 {
            if !self.union.clear(v) {
                return false;
            }
        } else {
            let bit = 1u64 << lane;
            if self.words[v] & bit == 0 {
                return false;
            }
            self.words[v] &= !bit;
            if self.words[v] == 0 {
                self.union.clear(v);
            }
        }
        self.counts[lane] -= 1;
        true
    }

    /// ORs a lane word into vertex `v` (the merge path: unit workers
    /// accumulate local lane words, merged in plan order); returns whether
    /// any bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `word` names lanes ≥ `k`.
    pub fn or_lanes(&mut self, v: usize, word: u64) -> bool {
        assert!(
            self.k == MAX_LANES || word >> self.k == 0,
            "lane word {word:#x} names lanes past {}",
            self.k
        );
        if self.k == 1 {
            let fresh = word != 0 && self.union.set(v);
            self.counts[0] += u64::from(fresh);
            return fresh;
        }
        let fresh = word & !self.words[v];
        if fresh == 0 {
            return false;
        }
        if self.words[v] == 0 {
            self.union.set(v);
        }
        self.words[v] |= fresh;
        let mut bits = fresh;
        while bits != 0 {
            let q = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.counts[q] += 1;
        }
        true
    }

    /// Number of active vertices in `lane` — O(1), the maintained count.
    #[must_use]
    pub fn lane_len(&self, lane: usize) -> u64 {
        self.counts[lane]
    }

    /// Whether `lane`'s frontier is empty.
    #[must_use]
    pub fn lane_is_empty(&self, lane: usize) -> bool {
        self.counts[lane] == 0
    }

    /// Whether every lane is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.union.is_empty()
    }

    /// The union frontier: active wherever *any* lane is. This is what
    /// the fused drivers plan from — the union plan covers every lane's
    /// needs, so the whole pruning/disk/cluster machinery applies
    /// unchanged.
    #[must_use]
    pub fn union(&self) -> &FrontierMask {
        &self.union
    }

    /// Materialises one lane as a plain [`FrontierMask`] (attribution
    /// and test use; the scan paths read lane words directly).
    #[must_use]
    pub fn lane(&self, lane: usize) -> FrontierMask {
        if self.k == 1 {
            return self.union.clone();
        }
        let mut mask = FrontierMask::new(self.num_vertices());
        let bit = 1u64 << lane;
        for v in self.union.iter() {
            if self.words[v] & bit != 0 {
                mask.set(v);
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_maintain_union_and_counts() {
        let mut lanes = LaneFrontier::new(100, 3);
        assert!(lanes.is_empty());
        assert!(lanes.set(0, 10));
        assert!(!lanes.set(0, 10), "re-set must report unchanged");
        assert!(lanes.set(2, 10));
        assert!(lanes.set(2, 99));
        assert_eq!(lanes.lane_len(0), 1);
        assert_eq!(lanes.lane_len(1), 0);
        assert_eq!(lanes.lane_len(2), 2);
        assert_eq!(lanes.vertex_lanes(10), 0b101);
        assert_eq!(lanes.union().len(), 2, "10 and 99");
        assert!(lanes.clear(0, 10));
        assert!(!lanes.clear(0, 10));
        assert!(lanes.union().get(10), "lane 2 still holds 10");
        assert!(lanes.clear(2, 10));
        assert!(!lanes.union().get(10));
        assert!(lanes.lane(2).get(99));
    }

    #[test]
    fn or_lanes_matches_bitwise_sets() {
        let mut a = LaneFrontier::new(50, 4);
        let mut b = LaneFrontier::new(50, 4);
        a.or_lanes(7, 0b1010);
        a.or_lanes(7, 0b0110);
        b.set(1, 7);
        b.set(3, 7);
        b.set(2, 7);
        assert_eq!(a, b);
        assert_eq!(a.lane_len(1), 1);
        assert_eq!(a.lane_len(2), 1);
    }

    #[test]
    fn full_activates_every_lane_everywhere() {
        let lanes = LaneFrontier::full(65, MAX_LANES);
        assert_eq!(lanes.vertex_lanes(64), u64::MAX);
        assert_eq!(lanes.union().len(), 65);
        for q in 0..MAX_LANES {
            assert_eq!(lanes.lane_len(q), 65);
        }
    }

    #[test]
    fn from_masks_round_trips() {
        let mut m0 = FrontierMask::new(30);
        m0.set(3);
        m0.set(29);
        let mut m1 = FrontierMask::new(30);
        m1.set(3);
        let lanes = LaneFrontier::from_masks(&[m0.clone(), m1.clone()]);
        assert_eq!(lanes.lane(0), m0);
        assert_eq!(lanes.lane(1), m1);
        assert_eq!(lanes.union().len(), 2);
    }

    #[test]
    fn one_lane_is_its_union_mask() {
        let mut lanes = LaneFrontier::new(200, 1);
        assert!(lanes.words.is_empty(), "one lane keeps no lane words");
        assert!(lanes.set(0, 7));
        assert!(!lanes.set(0, 7));
        assert!(lanes.or_lanes(150, 1));
        assert!(!lanes.or_lanes(150, 1));
        assert!(!lanes.or_lanes(3, 0));
        assert_eq!(lanes.vertex_lanes(7), 1);
        assert_eq!(lanes.vertex_lanes(8), 0);
        assert_eq!(lanes.vertex_lanes(500), 0, "past the end");
        assert_eq!(lanes.lane_len(0), 2);
        assert_eq!(&lanes.lane(0), lanes.union());
        assert!(lanes.clear(0, 7));
        assert!(!lanes.clear(0, 7));
        assert_eq!(lanes.lane_len(0), 1);
        assert_eq!(lanes.union().iter().collect::<Vec<_>>(), vec![150]);
        let full = LaneFrontier::full(200, 1);
        assert!(full.words.is_empty());
        assert_eq!(full.lane_len(0), 200);
        assert_eq!(full.vertex_lanes(199), 1);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn rejects_oversized_lane_counts() {
        let _ = LaneFrontier::new(10, 65);
    }
}

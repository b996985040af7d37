//! Property tests pinning [`FrontierMask`] to its executable
//! specification: a plain `Vec<bool>` mutated by the same operation
//! sequence. Every observation the stack makes of a mask — `get`, the
//! O(1) popcount `len`, the set-bit iterator, word-level range queries,
//! the summary level, and word deltas between two masks — must agree
//! with the dense reference bit for bit.
//!
//! [`FrontierMask`]: graphr_repro::core::exec::mask::FrontierMask

use graphr_repro::core::exec::lanes::{LaneFrontier, MAX_LANES};
use graphr_repro::core::exec::mask::{FrontierDelta, FrontierMask, SUMMARY_SPAN, WORD_BITS};
use proptest::prelude::*;

/// Applies one encoded op (0 = set, 1 = clear, 2 = set then clear — a
/// transient vertex) to both representations, checking the
/// changed-report on the way.
fn apply(mask: &mut FrontierMask, dense: &mut [bool], op: u8, v: usize) {
    let n = dense.len();
    if n == 0 {
        return;
    }
    let v = v % n;
    match op % 3 {
        0 => {
            let changed = mask.set(v);
            assert_eq!(changed, !dense[v], "set({v}) changed-report");
            dense[v] = true;
        }
        1 => {
            let changed = mask.clear(v);
            assert_eq!(changed, dense[v], "clear({v}) changed-report");
            dense[v] = false;
        }
        _ => {
            mask.set(v);
            mask.clear(v);
            dense[v] = false;
        }
    }
}

/// Every way the stack observes a mask, checked against the dense
/// reference.
fn assert_equivalent(mask: &FrontierMask, dense: &[bool]) {
    let n = dense.len();
    assert_eq!(mask.num_vertices(), n);
    assert_eq!(mask.to_vec(), dense);
    assert_eq!(mask.len(), dense.iter().filter(|&&a| a).count());
    assert_eq!(mask.is_empty(), dense.iter().all(|&a| !a));
    let iterated: Vec<usize> = mask.iter().collect();
    let expected: Vec<usize> = (0..n).filter(|&v| dense[v]).collect();
    assert_eq!(iterated, expected, "iter() must yield set bits ascending");
    // The summary level is exactly the nonzero-word map.
    for w in 0..mask.num_words() {
        let word_live = dense[w * WORD_BITS..((w + 1) * WORD_BITS).min(n)]
            .iter()
            .any(|&a| a);
        assert_eq!(mask.word(w) != 0, word_live, "word {w} liveness");
        assert_eq!(
            mask.summary_word(w / WORD_BITS) >> (w % WORD_BITS) & 1 == 1,
            word_live,
            "summary bit for word {w}"
        );
    }
    // Out-of-range reads are inert.
    assert!(!mask.get(n));
    assert_eq!(mask.word(mask.num_words()), 0);
    assert_eq!(mask.summary_word(n / SUMMARY_SPAN + 1), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of set/clear ops leaves mask and reference
    /// observationally identical, at every probe granularity.
    #[test]
    fn mask_tracks_dense_reference_under_random_ops(
        n in 0usize..600,
        ops in proptest::collection::vec((0u8..3, 0usize..600), 0..120),
    ) {
        let mut mask = FrontierMask::new(n);
        let mut dense = vec![false; n];
        for &(op, v) in &ops {
            apply(&mut mask, &mut dense, op, v);
        }
        assert_equivalent(&mask, &dense);
        prop_assert_eq!(FrontierMask::from_slice(&dense), mask);
    }

    /// Word-level range queries agree with dense slice scans for
    /// arbitrary (even degenerate or clamped) ranges.
    #[test]
    fn range_queries_match_dense_scans(
        n in 1usize..600,
        ops in proptest::collection::vec((0u8..3, 0usize..600), 0..80),
        lo in 0usize..700,
        len in 0usize..700,
    ) {
        let mut mask = FrontierMask::new(n);
        let mut dense = vec![false; n];
        for &(op, v) in &ops {
            apply(&mut mask, &mut dense, op, v);
        }
        let hi = lo + len;
        let slice = &dense[lo.min(n)..hi.min(n)];
        prop_assert_eq!(mask.any_in_range(lo, hi), slice.iter().any(|&a| a));
        let (any, words) = mask.any_in_range_counted(lo, hi);
        prop_assert_eq!(any, slice.iter().any(|&a| a));
        prop_assert!(words as usize <= len / WORD_BITS + 2, "word-level, not per-vertex");
        prop_assert_eq!(
            mask.count_range(lo, hi),
            slice.iter().filter(|&&a| a).count() as u64
        );
    }

    /// `FrontierDelta::between` names exactly the words where the masks
    /// differ — and patching the old mask at those words rebuilds the
    /// new one, which is the contract `plan_for_delta` leans on.
    #[test]
    fn delta_names_exactly_the_differing_words(
        n in 1usize..6000,
        old_ops in proptest::collection::vec((0u8..3, 0usize..6000), 0..60),
        new_ops in proptest::collection::vec((0u8..3, 0usize..6000), 0..60),
    ) {
        let mut old = FrontierMask::new(n);
        let mut old_dense = vec![false; n];
        for &(op, v) in &old_ops {
            apply(&mut old, &mut old_dense, op, v);
        }
        let mut new = old.clone();
        let mut new_dense = old_dense.clone();
        for &(op, v) in &new_ops {
            apply(&mut new, &mut new_dense, op, v);
        }
        let delta = FrontierDelta::between(&old, &new);
        prop_assert_eq!(delta.is_empty(), old == new);
        prop_assert_eq!(delta.len(), delta.activated.len() + delta.deactivated.len());
        for w in 0..old.num_words() {
            let (o, nw) = (old.word(w), new.word(w));
            prop_assert_eq!(
                delta.activated.contains(&(w as u32)),
                nw & !o != 0,
                "activated word {}", w
            );
            prop_assert_eq!(
                delta.deactivated.contains(&(w as u32)),
                o & !nw != 0,
                "deactivated word {}", w
            );
        }
        // touched_words is the sorted dedup merge...
        let touched = delta.touched_words().collect::<Vec<_>>();
        prop_assert!(touched.windows(2).all(|p| p[0] < p[1]), "ascending, distinct");
        // ...and patching exactly those word spans rebuilds `new`.
        let mut patched = old.clone();
        for &w in &touched {
            let lo = w as usize * WORD_BITS;
            for v in lo..(lo + WORD_BITS).min(n) {
                if new.get(v) {
                    patched.set(v);
                } else {
                    patched.clear(v);
                }
            }
        }
        prop_assert_eq!(&patched, &new);
        prop_assert_eq!(patched.len(), new.len());
    }
}

/// Applies one encoded lane op (0 = set, 1 = clear, 2 = or a lane word
/// into a vertex) to both representations, checking the changed-report
/// against the per-lane reference masks.
fn apply_lanes(lanes: &mut LaneFrontier, masks: &mut [FrontierMask], op: u8, q: usize, v: usize) {
    let (n, k) = (lanes.num_vertices(), lanes.num_lanes());
    if n == 0 {
        return;
    }
    let (q, v) = (q % k, v % n);
    match op % 3 {
        0 => {
            let changed = lanes.set(q, v);
            assert_eq!(changed, !masks[q].get(v), "set({q}, {v}) changed-report");
            masks[q].set(v);
        }
        1 => {
            let changed = lanes.clear(q, v);
            assert_eq!(changed, masks[q].get(v), "clear({q}, {v}) changed-report");
            masks[q].clear(v);
        }
        _ => {
            // A lane word touching every lane at once (the executors'
            // write-back path), derived from q so the stream stays
            // deterministic.
            let word =
                (0x9E37_79B9_7F4A_7C15u64.rotate_left(q as u32 * 7) ^ v as u64) & lane_mask_bits(k);
            lanes.or_lanes(v, word);
            for (lane, mask) in masks.iter_mut().enumerate() {
                if word >> lane & 1 == 1 {
                    mask.set(v);
                }
            }
        }
    }
}

/// The all-lanes bitmask for `k` lanes.
fn lane_mask_bits(k: usize) -> u64 {
    if k == MAX_LANES {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A [`LaneFrontier`] under any interleaving of per-lane set/clear
    /// and word-wide or ops is observationally identical to K
    /// independent [`FrontierMask`]s mutated the same way: per-lane
    /// bits, O(1) per-lane popcounts, the collapsed union mask, lane
    /// materialization, and per-lane deltas between two states.
    #[test]
    fn lane_frontier_tracks_k_independent_masks(
        n in 1usize..500,
        k in 1usize..=MAX_LANES,
        ops in proptest::collection::vec((0u8..3, 0usize..64, 0usize..500), 0..120),
        more in proptest::collection::vec((0u8..3, 0usize..64, 0usize..500), 0..60),
    ) {
        let mut lanes = LaneFrontier::new(n, k);
        let mut masks = vec![FrontierMask::new(n); k];
        for &(op, q, v) in &ops {
            apply_lanes(&mut lanes, &mut masks, op, q, v);
        }
        // Per-vertex lane words and per-lane observations.
        for v in 0..n {
            let expected = masks
                .iter()
                .enumerate()
                .fold(0u64, |acc, (q, m)| acc | u64::from(m.get(v)) << q);
            prop_assert_eq!(lanes.vertex_lanes(v), expected, "vertex {}", v);
            for (q, mask) in masks.iter().enumerate() {
                prop_assert_eq!(lanes.get(q, v), mask.get(v));
            }
        }
        for (q, mask) in masks.iter().enumerate() {
            prop_assert_eq!(lanes.lane_len(q), mask.len() as u64, "lane {} popcount", q);
            prop_assert_eq!(lanes.lane_is_empty(q), mask.is_empty());
            prop_assert_eq!(&lanes.lane(q), mask, "lane {} materialization", q);
        }
        // The union collapses to the OR of the lanes — the mask the
        // pruning/planner/disk/cluster machinery consumes unchanged.
        let mut union = FrontierMask::new(n);
        for mask in &masks {
            for v in mask.iter() {
                union.set(v);
            }
        }
        prop_assert_eq!(lanes.union(), &union);
        prop_assert_eq!(lanes.is_empty(), union.is_empty());
        // Reconstructing from the reference masks is the same frontier.
        let rebuilt = LaneFrontier::from_masks(&masks);
        for v in 0..n {
            prop_assert_eq!(rebuilt.vertex_lanes(v), lanes.vertex_lanes(v));
        }
        // Per-lane deltas between two states agree with the deltas of
        // the independent masks (what a fused driver hands the planner).
        let mut next = {
            let mut copy = LaneFrontier::new(n, k);
            for v in 0..n {
                copy.or_lanes(v, lanes.vertex_lanes(v));
            }
            copy
        };
        let mut next_masks = masks.clone();
        for &(op, q, v) in &more {
            apply_lanes(&mut next, &mut next_masks, op, q, v);
        }
        for q in 0..k {
            let lane_delta = FrontierDelta::between(&lanes.lane(q), &next.lane(q));
            let mask_delta = FrontierDelta::between(&masks[q], &next_masks[q]);
            prop_assert_eq!(lane_delta.activated, mask_delta.activated, "lane {}", q);
            prop_assert_eq!(lane_delta.deactivated, mask_delta.deactivated, "lane {}", q);
        }
    }
}

/// `LaneFrontier::full` agrees with K full masks at lane-word and
/// mask-word boundaries, where off-by-ones live.
#[test]
fn full_lane_frontier_covers_boundaries() {
    for n in [1, 63, 64, 65, 128] {
        for k in [1, 2, 63, 64] {
            let lanes = LaneFrontier::full(n, k);
            assert_eq!(lanes.union(), &FrontierMask::full(n), "full({n}, {k})");
            for q in 0..k {
                assert_eq!(lanes.lane_len(q), n as u64);
                assert_eq!(lanes.lane(q), FrontierMask::full(n));
            }
        }
    }
}

/// `full` and `from_slice` agree with the trivially-dense references at
/// word-boundary sizes, where off-by-ones live.
#[test]
fn constructors_cover_word_boundaries() {
    for n in [0, 1, 63, 64, 65, 127, 128, 4095, 4096, 4097] {
        let full = FrontierMask::full(n);
        assert_eq!(full.to_vec(), vec![true; n], "full({n})");
        assert_eq!(full.len(), n);
        assert_eq!(FrontierMask::from_slice(&vec![true; n]), full);
        assert_eq!(FrontierMask::new(n).to_vec(), vec![false; n]);
        assert!(FrontierDelta::between(&full, &full).is_empty());
        if n > 0 {
            let empty = FrontierMask::new(n);
            let delta = FrontierDelta::between(&empty, &full);
            assert_eq!(delta.activated.len(), full.num_words());
            assert!(delta.deactivated.is_empty());
        }
    }
}

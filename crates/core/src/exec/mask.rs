//! Hierarchical frontier masks: the one representation every activity
//! mask in the stack flows through.
//!
//! A [`FrontierMask`] is a packed bitset over vertices — `u64` words plus
//! a *summary* level with one bit per word (a summary bit is set iff its
//! word is nonzero), the summary-over-bitmap idiom of `vortex_mask::Mask`
//! applied to GraphR's frontier plumbing. The summary is what lets the
//! planner derive per-source-chunk activity without touching the dense
//! bits: a zero summary word proves 4096 consecutive vertices inactive in
//! one load. The set-bit count is maintained on every mutation, so
//! [`FrontierMask::len`] — the per-iteration `frontier_size` the drivers
//! report — is O(1) instead of the old O(|V|) recount.
//!
//! A [`FrontierDelta`] names the *words* whose set-bit population changed
//! between two masks. Drivers build one per iteration from the masks they
//! already maintain ([`FrontierDelta::between`] walks only words that are
//! nonzero in either mask, via the summaries) and hand it to
//! `ScanEngine::plan_with_delta`, so the planner re-derives activity for
//! exactly the chunks those words overlap — the driver's knowledge of
//! which vertices flipped finally reaches the planner instead of being
//! recovered from a full mask re-scan.

/// Bits per mask word.
pub const WORD_BITS: usize = 64;

/// Vertices covered by one summary bit's word — and by extension the
/// granularity of a [`FrontierDelta`].
pub const SUMMARY_SPAN: usize = WORD_BITS * WORD_BITS;

/// A hierarchical bitset over vertices: packed `u64` words, a summary
/// word level, and a maintained popcount.
///
/// The three levels are kept consistent by every mutating method;
/// equality compares the dense words (and therefore everything else).
#[derive(Debug, Clone)]
pub struct FrontierMask {
    /// Vertices the mask ranges over (bits past `n` are always zero).
    n: usize,
    /// Packed bits, little-endian within each word.
    words: Vec<u64>,
    /// Bit `w` of `summary[w / 64]` is set iff `words[w] != 0`.
    summary: Vec<u64>,
    /// Number of set bits (maintained, never recounted).
    count: usize,
}

impl PartialEq for FrontierMask {
    fn eq(&self, other: &Self) -> bool {
        // `summary` and `count` are derived from `words`; comparing them
        // again would only hide a consistency bug.
        self.n == other.n && self.words == other.words
    }
}

impl Eq for FrontierMask {}

impl FrontierMask {
    /// An all-inactive mask over `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(WORD_BITS);
        FrontierMask {
            n,
            words: vec![0; words],
            summary: vec![0; words.div_ceil(WORD_BITS)],
            count: 0,
        }
    }

    /// An all-active mask over `n` vertices.
    #[must_use]
    pub fn full(n: usize) -> Self {
        let mut mask = FrontierMask::new(n);
        for (w, word) in mask.words.iter_mut().enumerate() {
            let lo = w * WORD_BITS;
            *word = if lo + WORD_BITS <= n {
                u64::MAX
            } else {
                (1u64 << (n - lo)) - 1
            };
            if *word != 0 {
                mask.summary[w / WORD_BITS] |= 1u64 << (w % WORD_BITS);
            }
        }
        mask.count = n;
        mask
    }

    /// A mask with exactly the `true` entries of `slice` set.
    #[must_use]
    pub fn from_slice(slice: &[bool]) -> Self {
        let mut mask = FrontierMask::new(slice.len());
        for (v, &a) in slice.iter().enumerate() {
            if a {
                mask.set(v);
            }
        }
        mask
    }

    /// The dense `Vec<bool>` this mask represents (test/reference use).
    #[must_use]
    pub fn to_vec(&self) -> Vec<bool> {
        (0..self.n).map(|v| self.get(v)).collect()
    }

    /// Vertices the mask ranges over.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of active vertices — O(1), the maintained popcount.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no vertex is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether vertex `v` is active (`false` for `v >= n`).
    #[must_use]
    pub fn get(&self, v: usize) -> bool {
        v < self.n && self.words[v / WORD_BITS] >> (v % WORD_BITS) & 1 == 1
    }

    /// Activates vertex `v`; returns whether the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set(&mut self, v: usize) -> bool {
        assert!(v < self.n, "vertex {v} out of mask range {}", self.n);
        let (w, bit) = (v / WORD_BITS, 1u64 << (v % WORD_BITS));
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.summary[w / WORD_BITS] |= 1u64 << (w % WORD_BITS);
        self.count += 1;
        true
    }

    /// Deactivates vertex `v`; returns whether the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn clear(&mut self, v: usize) -> bool {
        assert!(v < self.n, "vertex {v} out of mask range {}", self.n);
        let (w, bit) = (v / WORD_BITS, 1u64 << (v % WORD_BITS));
        if self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        if self.words[w] == 0 {
            self.summary[w / WORD_BITS] &= !(1u64 << (w % WORD_BITS));
        }
        self.count -= 1;
        true
    }

    /// The packed words (read-only; little-endian bits within a word).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of packed words.
    #[must_use]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// One packed word (0 past the end — masks of different lengths can
    /// be walked with one loop bound).
    #[must_use]
    pub fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// One summary word (bit `i` set iff `words[64s + i] != 0`; 0 past
    /// the end).
    #[must_use]
    pub fn summary_word(&self, s: usize) -> u64 {
        self.summary.get(s).copied().unwrap_or(0)
    }

    /// Iterates the active vertices in ascending order, hopping over
    /// empty regions at summary granularity.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.summary
            .iter()
            .enumerate()
            .filter(|(_, &sw)| sw != 0)
            .flat_map(move |(s, &sw)| {
                BitIter(sw).flat_map(move |i| {
                    let w = s * WORD_BITS + i;
                    BitIter(self.words[w]).map(move |b| w * WORD_BITS + b)
                })
            })
    }

    /// Whether any vertex in `lo..hi` is active — the chunk/span
    /// activity test. Word-level: examines at most
    /// `⌈(hi-lo)/64⌉ + 1` words and nothing per-vertex.
    #[must_use]
    pub fn any_in_range(&self, lo: usize, hi: usize) -> bool {
        self.any_in_range_counted(lo, hi).0
    }

    /// [`FrontierMask::any_in_range`] plus the number of words examined,
    /// for the planner's `mask_words` accounting.
    #[must_use]
    pub fn any_in_range_counted(&self, lo: usize, hi: usize) -> (bool, u64) {
        let mut examined = 0u64;
        for (_, word) in range_words(&self.words, lo, hi.min(self.n)) {
            examined += 1;
            if word != 0 {
                return (true, examined);
            }
        }
        (false, examined)
    }

    /// Number of active vertices in `lo..hi` (word popcounts — the
    /// cluster exchange's per-unit update accounting).
    #[must_use]
    pub fn count_range(&self, lo: usize, hi: usize) -> u64 {
        range_words(&self.words, lo, hi.min(self.n))
            .map(|(_, word)| u64::from(word.count_ones()))
            .sum()
    }
}

/// The words of a packed bitset overlapping bits `lo..hi`, each masked to
/// that range, as `(word index, masked word)` in ascending order — shared
/// by the mask's range queries and the plan units' span bitsets.
#[inline]
pub(crate) fn range_words(
    words: &[u64],
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = (usize, u64)> + '_ {
    let span = if lo < hi {
        lo / WORD_BITS..(hi - 1) / WORD_BITS + 1
    } else {
        0..0
    };
    span.map(move |w| {
        let mut word = words[w];
        if w == lo / WORD_BITS {
            word &= u64::MAX << (lo % WORD_BITS);
        }
        if w == (hi - 1) / WORD_BITS && !hi.is_multiple_of(WORD_BITS) {
            word &= (1u64 << (hi % WORD_BITS)) - 1;
        }
        (w, word)
    })
}

/// The set bits of a packed bitset in `lo..hi`, ascending.
#[inline]
pub(crate) fn set_bits(words: &[u64], lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
    let (words, mut w) = if lo < hi {
        (&words[..hi.div_ceil(WORD_BITS)], lo / WORD_BITS)
    } else {
        (&[][..], 0)
    };
    let mut word = words
        .get(w)
        .map_or(0, |&word| word & (u64::MAX << (lo % WORD_BITS)));
    std::iter::from_fn(move || loop {
        if word != 0 {
            let bit = w * WORD_BITS + word.trailing_zeros() as usize;
            word &= word - 1;
            return (bit < hi).then_some(bit);
        }
        w += 1;
        word = *words.get(w)?;
    })
}

/// The maximal runs of set bits of a packed bitset in `lo..hi`, ascending.
pub(crate) fn set_runs(
    words: &[u64],
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    // The first bit from `from` on, below `hi`, that differs from `flip`'s.
    let next = move |from: usize, flip: u64| {
        let mut w = from / WORD_BITS;
        let mut word = (words.get(w)? ^ flip) & (u64::MAX << (from % WORD_BITS));
        while word == 0 && (w + 1) * WORD_BITS < hi {
            w += 1;
            word = words[w] ^ flip;
        }
        let bit = w * WORD_BITS + word.trailing_zeros() as usize;
        (bit < hi).then_some(bit)
    };
    let mut at = lo;
    std::iter::from_fn(move || {
        let start = next(at, 0)?;
        at = next(start, u64::MAX).unwrap_or(hi);
        Some(start..at)
    })
}

/// Iterates the set-bit positions of one `u64`, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// The words whose set-bit population changed between two frontiers —
/// what a driver hands `ScanEngine::plan_with_delta` instead of making
/// the planner re-derive it from the full mask.
///
/// Indices are *word* ordinals (vertex span `64w .. 64w + 64`), ascending
/// within each list; a word that both gained and lost bits appears in
/// both. Empty delta ⇒ identical masks ⇒ the previous plan is reusable
/// wholesale.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrontierDelta {
    /// Words that gained at least one set bit (`new & !old != 0`).
    pub activated: Vec<u32>,
    /// Words that lost at least one set bit (`old & !new != 0`).
    pub deactivated: Vec<u32>,
}

impl FrontierDelta {
    /// The word-level delta from `old` to `new`, walking only words that
    /// are nonzero in either mask (via the summary level).
    ///
    /// # Panics
    ///
    /// Panics if the masks range over different vertex counts.
    #[must_use]
    pub fn between(old: &FrontierMask, new: &FrontierMask) -> FrontierDelta {
        assert_eq!(
            old.n, new.n,
            "delta between masks over different vertex counts"
        );
        let mut delta = FrontierDelta::default();
        let summaries = old.summary.len().max(new.summary.len());
        for s in 0..summaries {
            let live = old.summary_word(s) | new.summary_word(s);
            if live == 0 {
                continue;
            }
            for i in BitIter(live) {
                let w = s * WORD_BITS + i;
                let (o, n) = (old.word(w), new.word(w));
                if n & !o != 0 {
                    delta.activated.push(w as u32);
                }
                if o & !n != 0 {
                    delta.deactivated.push(w as u32);
                }
            }
        }
        delta
    }

    /// Total word entries across both lists.
    #[must_use]
    pub fn len(&self) -> usize {
        self.activated.len() + self.deactivated.len()
    }

    /// Whether the two frontiers were identical.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.activated.is_empty() && self.deactivated.is_empty()
    }

    /// The distinct touched words, ascending: a merge of the two sorted
    /// lists that allocates nothing — the words whose chunk activity a
    /// delta patch re-derives.
    #[inline]
    pub fn touched_words(&self) -> impl Iterator<Item = u32> + '_ {
        let (mut a, mut d) = (&self.activated[..], &self.deactivated[..]);
        std::iter::from_fn(move || {
            let next = match (a.first(), d.first()) {
                (Some(&x), Some(&y)) => x.min(y),
                (Some(&x), None) | (None, Some(&x)) => x,
                (None, None) => return None,
            };
            if a.first() == Some(&next) {
                a = &a[1..];
            }
            if d.first() == Some(&next) {
                d = &d[1..];
            }
            Some(next)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(n: usize, seed: u64) -> Vec<bool> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33).is_multiple_of(3)
            })
            .collect()
    }

    #[test]
    fn from_slice_round_trips_and_counts() {
        for n in [0, 1, 63, 64, 65, 200, 4096, 4100] {
            let dense = reference(n, n as u64 + 1);
            let mask = FrontierMask::from_slice(&dense);
            assert_eq!(mask.to_vec(), dense, "n = {n}");
            assert_eq!(mask.len(), dense.iter().filter(|&&a| a).count());
            let iterated: Vec<usize> = mask.iter().collect();
            let expected: Vec<usize> = (0..n).filter(|&v| dense[v]).collect();
            assert_eq!(iterated, expected);
        }
    }

    #[test]
    fn full_mask_covers_everything() {
        for n in [1, 64, 100, 4097] {
            let mask = FrontierMask::full(n);
            assert_eq!(mask.len(), n);
            assert!(mask.get(n - 1));
            assert!(!mask.get(n));
            assert_eq!(mask.count_range(0, n), n as u64);
        }
    }

    #[test]
    fn set_clear_maintain_all_three_levels() {
        let mut mask = FrontierMask::new(200);
        assert!(mask.set(130));
        assert!(!mask.set(130), "re-set must report unchanged");
        assert_eq!(mask.len(), 1);
        assert_eq!(mask.summary_word(0), 1 << 2, "word 2 holds bit 130");
        assert!(mask.clear(130));
        assert!(!mask.clear(130), "re-clear must report unchanged");
        assert_eq!(mask.len(), 0);
        assert_eq!(mask.summary_word(0), 0);
    }

    #[test]
    fn range_queries_match_dense_scans() {
        let n = 300;
        let dense = reference(n, 7);
        let mask = FrontierMask::from_slice(&dense);
        for (lo, hi) in [(0, 300), (0, 4), (60, 70), (64, 128), (250, 999), (17, 17)] {
            let any = dense[lo.min(n)..hi.min(n)].iter().any(|&a| a);
            let count = dense[lo.min(n)..hi.min(n)].iter().filter(|&&a| a).count() as u64;
            assert_eq!(mask.any_in_range(lo, hi), any, "any {lo}..{hi}");
            assert_eq!(mask.count_range(lo, hi), count, "count {lo}..{hi}");
        }
    }

    #[test]
    fn delta_names_exactly_the_changed_words() {
        let n = 4200; // spans two summary words
        let mut old = FrontierMask::new(n);
        old.set(3);
        old.set(64);
        old.set(4100);
        let mut new = old.clone();
        new.clear(64); // word 1 loses its only bit
        new.set(65); // ... and gains another: in both lists
        new.set(4199); // word 65 gains a second bit alongside 4100's word
        let delta = FrontierDelta::between(&old, &new);
        assert_eq!(delta.activated, vec![1, 65]);
        assert_eq!(delta.deactivated, vec![1]);
        assert_eq!(delta.touched_words().collect::<Vec<_>>(), vec![1, 65]);
        assert!(FrontierDelta::between(&old, &old).is_empty());
    }

    #[test]
    fn delta_round_trip_rebuilds_the_new_mask() {
        let n = 500;
        let old = FrontierMask::from_slice(&reference(n, 11));
        let new = FrontierMask::from_slice(&reference(n, 12));
        let delta = FrontierDelta::between(&old, &new);
        // Patching `old`'s words at exactly the delta's words yields `new`.
        let mut patched = old.clone();
        for w in delta.touched_words() {
            let w = w as usize;
            for b in 0..WORD_BITS {
                let v = w * WORD_BITS + b;
                if v >= n {
                    break;
                }
                if new.get(v) {
                    patched.set(v);
                } else {
                    patched.clear(v);
                }
            }
        }
        assert_eq!(patched, new);
        assert_eq!(patched.len(), new.len());
    }

    /// `set_runs` yields exactly the maximal runs of set bits inside
    /// `lo..hi`, over sparse and dense words, runs that cross word
    /// boundaries and set bits on both sides of the range.
    #[test]
    fn set_runs_are_the_maximal_runs_in_range() {
        for (n, seed) in [(200, 3), (300, 5), (130, 9)] {
            let mut bits = reference(n, seed);
            bits[60..140.min(n)].fill(true);
            let words: Vec<u64> = bits
                .chunks(WORD_BITS)
                .map(|c| c.iter().rev().fold(0, |w, &b| w << 1 | u64::from(b)))
                .collect();
            for (lo, hi) in [(0, n), (1, n - 1), (63, 65), (64, 128), (70, 70), (5, 61)] {
                let mut expected = Vec::new();
                let mut v = lo;
                while v < hi {
                    let start = v;
                    while v < hi && bits[v] {
                        v += 1;
                    }
                    if v > start {
                        expected.push(start..v);
                    }
                    v += 1;
                }
                let runs: Vec<_> = set_runs(&words, lo, hi).collect();
                assert_eq!(runs, expected, "n = {n}, {lo}..{hi}");
            }
        }
    }
}

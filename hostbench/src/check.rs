//! Output checks and the statistics the report uses: simulated digests,
//! gold-reference comparisons, and nearest-rank percentiles.

use std::fmt::Debug;

use graphr_core::analyze::BottleneckReport;
use graphr_core::sim::TraversalRun;
use graphr_core::Metrics;
use graphr_units::Nanos;

/// FNV-1a over a stream of byte strings: the simulated digest of a round.
/// Only simulated facts enter it, so it repeats exactly across runs,
/// machines, and traced or untraced execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a value's `Debug` rendering in.
    pub fn debug(&mut self, value: &impl Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }

    /// Folds a run's metrics in — minus the host-clock planning time — and
    /// the bottleneck classification derived from them.
    pub fn metrics(&mut self, metrics: &Metrics) {
        let mut simulated = metrics.clone();
        simulated.plan.time = Nanos::ZERO;
        self.debug(&simulated);
        self.bytes(BottleneckReport::classify(metrics).bound.name().as_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile (`0 < p ≤ 100`) of unsorted samples: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether a traversal's distances equal the gold reference's exactly
/// (`None` = unreached on both sides) and its metrics are consistent.
pub fn traversal_ok(run: &TraversalRun, gold: &[Option<f64>]) -> bool {
    run.distances == gold && run.metrics.validate().is_ok()
}

/// Gold BFS hop counts as distances.
pub fn bfs_gold(csr: &graphr_graph::Csr, source: u32) -> Vec<Option<f64>> {
    graphr_graph::algorithms::bfs::bfs(csr, source)
        .levels
        .into_iter()
        .map(|l| l.map(f64::from))
        .collect()
}

/// Gold SSSP distances.
pub fn sssp_gold(csr: &graphr_graph::Csr, source: u32) -> Vec<Option<f64>> {
    graphr_graph::algorithms::sssp::dijkstra(csr, source).distances
}

/// Digests recorded for known seeds, one `workload seed digest` line each.
const RECORDED: &str = include_str!("../digests.txt");

/// The digest recorded for `workload` at `seed`, if any.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphr_core::sim::{run_bfs, TraversalOptions};
    use graphr_core::GraphRConfig;
    use graphr_graph::generators::structured::grid;

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 5.0);
        assert_eq!(percentile(&samples, 90.0), 9.0);
        assert_eq!(percentile(&samples, 91.0), 10.0);
        assert_eq!(percentile(&samples, 100.0), 10.0);
        assert_eq!(percentile(&samples, 1.0), 1.0);
        assert_eq!(percentile(&[7.5], 90.0), 7.5);
    }

    #[test]
    fn distance_check_catches_one_flipped_distance() {
        let g = grid(12, 12);
        let config = GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .build()
            .unwrap();
        let run = run_bfs(&g, &config, &TraversalOptions::default()).unwrap();
        let gold = bfs_gold(&g.to_csr(), 0);
        assert!(traversal_ok(&run, &gold));
        let mut flipped = run.clone();
        flipped.distances[77] = flipped.distances[77].map(|d| d + 1.0);
        assert!(!traversal_ok(&flipped, &gold));
        let mut unreached = run;
        unreached.distances[5] = None;
        assert!(!traversal_ok(&unreached, &gold));
    }

    #[test]
    fn digest_ignores_host_planning_time_only() {
        let mut a = Metrics::new();
        a.iterations = 3;
        let mut b = a.clone();
        b.plan.time = Nanos::from_micros(5.0);
        let (mut da, mut db) = (Digest::default(), Digest::default());
        da.metrics(&a);
        db.metrics(&b);
        assert_eq!(da, db);
        b.iterations = 4;
        let mut dc = Digest::default();
        dc.metrics(&b);
        assert_ne!(da, dc);
    }

    #[test]
    fn recorded_digests_parse() {
        assert_eq!(
            recorded_digest("traverse_grid", 1),
            Some(0x94f3_8a86_7553_479d)
        );
        assert_eq!(recorded_digest("no_such_workload", 1), None);
    }
}

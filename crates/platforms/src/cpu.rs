//! The CPU (GridGraph on dual Xeon) time/energy model.
//!
//! Per iteration, the engine either saturates memory (sequential edge
//! streaming + random vertex updates) or the cores (per-edge instruction
//! work), whichever is slower; on top sit the framework's fixed startup
//! cost (grid allocation, thread-pool spawn, mmap setup) and a
//! per-iteration synchronisation/dispatch cost. Those overheads are what
//! crush the CPU on tiny single-pass workloads — the paper's best case
//! (132.67× on SpMV/WikiVote, §5.3) is overhead-dominated, and its worst
//! case (2.40× on SSSP/Orkut) is the regime where GridGraph's selective
//! scheduling keeps the CPU competitive.

use graphr_gridgraph::WorkloadStats;
use graphr_units::{Joules, Nanos};

use crate::specs::CpuSpec;

/// Software-stack tuning constants for the GridGraph baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTuning {
    /// One-off framework startup (allocation, threads, partition setup).
    pub setup: Nanos,
    /// Per-iteration dispatch + barrier cost.
    pub per_iteration: Nanos,
    /// Core cycles of instruction work per streamed edge (decode record,
    /// compute contribution, index arithmetic, branch).
    pub cycles_per_edge: f64,
    /// Additional core cycles per applied update (atomic add / min to the
    /// destination chunk).
    pub cycles_per_update: f64,
    /// Cycles per edge streamed past with a failed active-source test
    /// (selective scheduling's cheap path).
    pub cycles_per_scanned_edge: f64,
    /// Fraction of the nominal thread throughput graph codes sustain
    /// (memory stalls already counted separately; this covers imbalance and
    /// synchronisation).
    pub thread_efficiency: f64,
}

impl Default for CpuTuning {
    fn default() -> Self {
        CpuTuning {
            setup: Nanos::from_millis(12.0),
            per_iteration: Nanos::from_millis(0.8),
            cycles_per_edge: 18.0,
            cycles_per_update: 10.0,
            cycles_per_scanned_edge: 2.0,
            thread_efficiency: 0.55,
        }
    }
}

/// The CPU platform model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Machine constants (Table 4).
    pub spec: CpuSpec,
    /// Software-stack constants.
    pub tuning: CpuTuning,
}

impl CpuModel {
    /// The paper's CPU platform with default tuning.
    #[must_use]
    pub fn paper_default() -> Self {
        CpuModel {
            spec: CpuSpec::table4(),
            tuning: CpuTuning::default(),
        }
    }

    /// Wall-clock time for a recorded workload.
    #[must_use]
    pub fn run_time(&self, stats: &WorkloadStats) -> Nanos {
        let mut total = self.tuning.setup;
        let thread_rate =
            self.spec.threads as f64 * self.spec.freq_ghz * self.tuning.thread_efficiency;
        for it in &stats.iterations {
            let compute_cycles = it.edges_processed as f64 * self.tuning.cycles_per_edge
                + it.updates_applied as f64 * self.tuning.cycles_per_update
                + it.edges_scanned as f64 * self.tuning.cycles_per_scanned_edge
                + it.extra_compute_cycles as f64;
            let compute = Nanos::new(compute_cycles / thread_rate);
            let memory = Nanos::new(
                it.sequential_bytes() as f64 / self.spec.seq_bandwidth_gbps
                    + it.random_bytes() as f64 / self.spec.rand_bandwidth_gbps,
            );
            total += self.tuning.per_iteration + compute.max(memory);
        }
        total
    }

    /// Energy for a recorded workload: platform power (socket TDPs + DRAM)
    /// over the *processing* time — the paper estimates CPU energy from
    /// Intel product specifications over measured execution, and (like its
    /// disk-I/O exclusion) we leave the one-off framework startup out of
    /// the energy bill.
    #[must_use]
    pub fn run_energy(&self, stats: &WorkloadStats) -> Joules {
        self.spec
            .platform_power()
            .over(self.run_time(stats) - self.tuning.setup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphr_gridgraph::IterationStats;

    fn stats_with(iterations: Vec<IterationStats>) -> WorkloadStats {
        WorkloadStats {
            num_vertices: 1000,
            num_edges: 10_000,
            iterations,
        }
    }

    #[test]
    fn empty_run_costs_setup_only() {
        let m = CpuModel::paper_default();
        let t = m.run_time(&stats_with(vec![]));
        assert_eq!(t, m.tuning.setup);
    }

    #[test]
    fn time_grows_with_edges() {
        let m = CpuModel::paper_default();
        let small = stats_with(vec![IterationStats {
            edges_processed: 1_000,
            vertex_reads: 1_000,
            updates_applied: 100,
            ..IterationStats::default()
        }]);
        let big = stats_with(vec![IterationStats {
            edges_processed: 100_000_000,
            vertex_reads: 100_000_000,
            updates_applied: 10_000_000,
            ..IterationStats::default()
        }]);
        assert!(m.run_time(&big) > m.run_time(&small));
    }

    #[test]
    fn small_iterations_are_overhead_dominated() {
        let m = CpuModel::paper_default();
        let tiny = stats_with(vec![IterationStats {
            edges_processed: 1_000,
            vertex_reads: 1_000,
            ..IterationStats::default()
        }]);
        let t = m.run_time(&tiny);
        // Work time for 1000 edges is microseconds; total must be dominated
        // by the ~12.8 ms of overheads.
        assert!(t.as_millis() > 10.0);
        assert!(t.as_millis() < 20.0);
    }

    #[test]
    fn memory_bound_at_scale() {
        let m = CpuModel::paper_default();
        // 1e9 random bytes at 8 GB/s ≈ 125 ms — must dominate the compute
        // term for an update-heavy iteration.
        let it = IterationStats {
            edges_processed: 10_000_000,
            vertex_reads: 10_000_000,
            updates_applied: 115_000_000,
            ..IterationStats::default()
        };
        let t = m.run_time(&stats_with(vec![it]));
        assert!(t.as_millis() > 100.0, "expected memory-bound: {t}");
    }

    #[test]
    fn energy_is_power_times_processing_time() {
        let m = CpuModel::paper_default();
        let s = stats_with(vec![IterationStats {
            edges_processed: 1_000_000,
            vertex_reads: 1_000_000,
            ..IterationStats::default()
        }]);
        let t = m.run_time(&s) - m.tuning.setup;
        let e = m.run_energy(&s);
        assert!((e.as_joules() - 190.0 * t.as_secs()).abs() < 1e-9);
    }
}

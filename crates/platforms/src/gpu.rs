//! The GPU (Gunrock / CuMF_SGD on a Tesla K40c) time/energy model.
//!
//! Structure mirrors the CPU model with three GPU-specific effects the
//! paper calls out (§5.5): the host→device transfer of the graph is charged
//! to the GPU ("an overhead GraphR does not incur"); massive thread-level
//! parallelism hides random-access latency, so the random-access penalty is
//! far milder than the CPU's; and a cache-less streaming datapath sustains
//! a large fraction of the 288 GB/s device bandwidth.

use graphr_gridgraph::{IterationStats, WorkloadStats};
use graphr_units::{Joules, Nanos};

use crate::specs::GpuSpec;

/// Software-stack tuning constants for the GPU baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuTuning {
    /// One-off context/framework initialisation.
    pub setup: Nanos,
    /// Per-iteration kernel-launch + synchronisation overhead (a Gunrock
    /// iteration launches several kernels).
    pub per_iteration: Nanos,
    /// Instructions per streamed edge across the SIMT machine.
    pub ops_per_edge: f64,
    /// Achieved instruction throughput per core per cycle.
    pub ipc_per_core: f64,
    /// Random accesses still waste part of a 32-byte memory transaction;
    /// effective random bandwidth = device bandwidth / this factor.
    pub random_penalty: f64,
}

impl Default for GpuTuning {
    fn default() -> Self {
        GpuTuning {
            setup: Nanos::from_millis(5.0),
            per_iteration: Nanos::from_micros(60.0),
            ops_per_edge: 12.0,
            ipc_per_core: 0.4,
            random_penalty: 3.0,
        }
    }
}

/// The GPU platform model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Card constants (Table 5).
    pub spec: GpuSpec,
    /// Software-stack constants.
    pub tuning: GpuTuning,
}

impl GpuModel {
    /// The paper's GPU platform with default tuning.
    #[must_use]
    pub fn paper_default() -> Self {
        GpuModel {
            spec: GpuSpec::table5(),
            tuning: GpuTuning::default(),
        }
    }

    /// Host→device transfer time for the graph (edges + vertex arrays),
    /// charged once per run as the paper does.
    #[must_use]
    pub fn transfer_time(&self, stats: &WorkloadStats) -> Nanos {
        let bytes = stats.num_edges * 12 + stats.num_vertices * 8;
        Nanos::new(bytes as f64 / self.spec.pcie_bandwidth_gbps)
    }

    fn iteration_time(&self, it: &IterationStats) -> Nanos {
        let core_rate = self.spec.cuda_cores as f64
            * (self.spec.base_clock_mhz / 1000.0)
            * self.tuning.ipc_per_core;
        let compute = Nanos::new(
            ((it.edges_processed + it.updates_applied) as f64 * self.tuning.ops_per_edge
                + it.edges_scanned as f64
                + it.extra_compute_cycles as f64)
                / core_rate,
        );
        let eff_bw = self.spec.memory_bandwidth_gbps * self.spec.bandwidth_efficiency;
        let memory = Nanos::new(
            it.sequential_bytes() as f64 / eff_bw
                + it.random_bytes() as f64 * self.tuning.random_penalty / eff_bw,
        );
        self.tuning.per_iteration + compute.max(memory)
    }

    /// Wall-clock time for a recorded workload, including the transfer.
    #[must_use]
    pub fn run_time(&self, stats: &WorkloadStats) -> Nanos {
        let mut total = self.tuning.setup + self.transfer_time(stats);
        for it in &stats.iterations {
            total += self.iteration_time(it);
        }
        total
    }

    /// Energy: board power over the run time (the paper reads the board
    /// power from `nvidia-smi`).
    #[must_use]
    pub fn run_energy(&self, stats: &WorkloadStats) -> Joules {
        self.spec.board_power.over(self.run_time(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(iterations: Vec<IterationStats>) -> WorkloadStats {
        WorkloadStats {
            num_vertices: 10_000,
            num_edges: 100_000,
            iterations,
        }
    }

    fn heavy_iteration() -> IterationStats {
        IterationStats {
            edges_processed: 100_000,
            vertex_reads: 100_000,
            updates_applied: 50_000,
            ..IterationStats::default()
        }
    }

    #[test]
    fn transfer_is_charged_once() {
        let m = GpuModel::paper_default();
        let s1 = stats_with(vec![heavy_iteration()]);
        let s2 = stats_with(vec![heavy_iteration(), heavy_iteration()]);
        let t1 = m.run_time(&s1);
        let t2 = m.run_time(&s2);
        // Two iterations cost less than twice one run (setup+transfer are
        // amortised).
        assert!(t2 < t1 * 2.0);
        let transfer = m.transfer_time(&s1);
        assert!((transfer.as_nanos() - (100_000.0 * 12.0 + 10_000.0 * 8.0) / 12.0).abs() < 1e-6);
    }

    #[test]
    fn gpu_iterations_beat_cpu_iterations_at_scale() {
        // Same heavy workload through both models, ignoring fixed costs:
        // GPU bandwidth should win per iteration.
        let gpu = GpuModel::paper_default();
        let cpu = crate::cpu::CpuModel::paper_default();
        let many = vec![heavy_iteration(); 50];
        let s = stats_with(many);
        let tg = gpu.run_time(&s);
        let tc = cpu.run_time(&s);
        assert!(tg < tc, "gpu {tg} should beat cpu {tc} on 50 iterations");
    }

    #[test]
    fn energy_uses_board_power() {
        let m = GpuModel::paper_default();
        let s = stats_with(vec![heavy_iteration()]);
        let e = m.run_energy(&s);
        let t = m.run_time(&s);
        assert!((e.as_joules() - 235.0 * t.as_secs()).abs() < 1e-12);
    }
}

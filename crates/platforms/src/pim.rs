//! The PIM (Tesseract-style) time/energy model.
//!
//! Tesseract \[4\] drops an in-order core into each of 512 HMC vaults and
//! maps vertex programs onto them with message-passing `put` operations for
//! remote edges. Its strength is the enormous internal bandwidth; its
//! weakness — the one GraphR exploits (Table 1) — is that every edge is
//! still processed by *instructions* on a simple core, and roughly half the
//! edges cross cube boundaries and pay the interconnect.

use graphr_gridgraph::{IterationStats, WorkloadStats};
use graphr_units::{Joules, Nanos, Watts};

use crate::specs::PimSpec;

/// Software/runtime tuning for the Tesseract-style model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimTuning {
    /// One-off setup (graph distribution across vaults).
    pub setup: Nanos,
    /// Per-iteration barrier across 512 cores.
    pub per_iteration: Nanos,
    /// In-order-core cycles per local edge, end to end: record decode,
    /// property work, and the vault-runtime overhead of issuing/receiving
    /// the `put` messages that carry updates.
    pub cycles_per_edge: f64,
    /// Load-imbalance factor across vaults (power-law graphs leave many
    /// vaults idle while hub vaults grind).
    pub imbalance: f64,
    /// Cycles an in-order vault core spends streaming past an inactive
    /// edge (load + test + branch, no property work).
    pub cycles_per_scanned_edge: f64,
}

impl Default for PimTuning {
    fn default() -> Self {
        PimTuning {
            setup: Nanos::from_millis(2.0),
            per_iteration: Nanos::from_micros(15.0),
            cycles_per_edge: 48.0,
            imbalance: 2.4,
            cycles_per_scanned_edge: 4.0,
        }
    }
}

/// The Tesseract-style PIM platform model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimModel {
    /// Hardware constants.
    pub spec: PimSpec,
    /// Runtime constants.
    pub tuning: PimTuning,
}

impl PimModel {
    /// The reference Tesseract configuration with default tuning.
    #[must_use]
    pub fn paper_default() -> Self {
        PimModel {
            spec: PimSpec::tesseract(),
            tuning: PimTuning::default(),
        }
    }

    fn iteration_time(&self, it: &IterationStats) -> Nanos {
        // Instruction term: edges spread over the vault cores, with the
        // remote fraction paying the interconnect penalty and the whole
        // thing stretched by load imbalance. Work is bound to the vault
        // owning the source vertex, so an iteration with a small active
        // frontier runs on at most `active_vertices` cores — the
        // frontier-serialisation weakness of vertex-partitioned PIM
        // (active_vertices == 0 means "no active list": all vaults busy).
        let edge_cost = self.tuning.cycles_per_edge
            * (1.0 + self.spec.remote_fraction * (self.spec.remote_penalty - 1.0));
        // Source-side work is bound to the vaults owning active vertices;
        // scanning, update reception and auxiliary compute spread over all
        // vaults.
        let src_cycles = it.edges_processed as f64 * edge_cost * self.tuning.imbalance;
        let wide_cycles = (it.updates_applied as f64 * edge_cost
            + it.edges_scanned as f64 * self.tuning.cycles_per_scanned_edge
            + it.extra_compute_cycles as f64)
            * self.tuning.imbalance;
        let src_parallelism = if it.active_vertices == 0 {
            self.spec.vaults as f64
        } else {
            (it.active_vertices.min(self.spec.vaults as u64)) as f64
        };
        let compute = Nanos::new(
            src_cycles / (src_parallelism * self.spec.core_freq_ghz)
                + wide_cycles / (self.spec.vaults as f64 * self.spec.core_freq_ghz),
        );
        // Bandwidth term: HMC internal bandwidth is huge; random accesses
        // stay inside a vault (that is the whole point of PIM).
        let memory = Nanos::new(
            (it.sequential_bytes() + it.random_bytes()) as f64 / self.spec.internal_bandwidth_gbps,
        );
        self.tuning.per_iteration + compute.max(memory)
    }

    /// Wall-clock time for a recorded workload.
    #[must_use]
    pub fn run_time(&self, stats: &WorkloadStats) -> Nanos {
        let mut total = self.tuning.setup;
        for it in &stats.iterations {
            total += self.iteration_time(it);
        }
        total
    }

    /// Energy: DRAM-movement energy (pJ/bit over all touched bytes) plus
    /// logic power over the runtime.
    #[must_use]
    pub fn run_energy(&self, stats: &WorkloadStats) -> Joules {
        let bits = (stats.total_sequential_bytes() + stats.total_random_bytes()) * 8;
        let movement = Joules::from_picojoules(bits as f64 * self.spec.energy_per_bit_pj);
        let logic = self.logic_power().over(self.run_time(stats));
        movement + logic
    }

    /// Static+dynamic logic power of the vault cores and controllers.
    #[must_use]
    pub fn logic_power(&self) -> Watts {
        self.spec.logic_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModel;

    fn stats_with(iterations: Vec<IterationStats>) -> WorkloadStats {
        WorkloadStats {
            num_vertices: 100_000,
            num_edges: 1_000_000,
            iterations,
        }
    }

    fn heavy_iteration() -> IterationStats {
        IterationStats {
            edges_processed: 1_000_000,
            vertex_reads: 1_000_000,
            updates_applied: 500_000,
            ..IterationStats::default()
        }
    }

    #[test]
    fn pim_beats_cpu_at_scale() {
        let pim = PimModel::paper_default();
        let cpu = CpuModel::paper_default();
        let s = stats_with(vec![heavy_iteration(); 20]);
        assert!(
            pim.run_time(&s) < cpu.run_time(&s),
            "Tesseract should outrun the Xeon on big iterations"
        );
    }

    #[test]
    fn remote_fraction_slows_things_down() {
        let mut local = PimModel::paper_default();
        local.spec.remote_fraction = 0.0;
        let remote = PimModel::paper_default();
        let s = stats_with(vec![heavy_iteration(); 5]);
        assert!(local.run_time(&s) < remote.run_time(&s));
    }

    #[test]
    fn energy_has_movement_and_logic_terms() {
        let pim = PimModel::paper_default();
        let s = stats_with(vec![heavy_iteration()]);
        let e = pim.run_energy(&s);
        let logic_only = pim.logic_power().over(pim.run_time(&s));
        assert!(e > logic_only, "movement energy must be nonzero");
    }

    #[test]
    fn empty_run_costs_setup_only() {
        let pim = PimModel::paper_default();
        let s = stats_with(vec![]);
        assert_eq!(pim.run_time(&s), pim.tuning.setup);
    }
}

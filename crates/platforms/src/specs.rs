//! Machine constants: the paper's Tables 4 and 5, plus Tesseract's HMC
//! parameters.

use graphr_units::Watts;

/// Table 4: the CPU platform (two Intel Xeon E5-2630 v3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Processor model string.
    pub model: &'static str,
    /// Sockets.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Hardware threads total ("a total number of 32 threads").
    pub threads: usize,
    /// Base clock, GHz.
    pub freq_ghz: f64,
    /// L3 cache per socket, MiB.
    pub l3_mib: usize,
    /// Main memory, GiB.
    pub memory_gib: usize,
    /// TDP per socket, watts (E5-2630 v3: 85 W).
    pub tdp_per_socket: Watts,
    /// DRAM subsystem power under load, watts.
    pub dram_power: Watts,
    /// Sustained sequential DRAM bandwidth, GB/s (4×DDR4-2133 per socket,
    /// stream-benchmark-level efficiency across two sockets).
    pub seq_bandwidth_gbps: f64,
    /// Effective bandwidth for random 8-byte accesses, GB/s (a DRAM row
    /// activation delivers a whole 64 B line for 8 useful bytes — the
    /// bandwidth-waste effect of §1).
    pub rand_bandwidth_gbps: f64,
}

impl CpuSpec {
    /// The Table 4 machine.
    #[must_use]
    pub fn table4() -> Self {
        CpuSpec {
            model: "Intel Xeon E5-2630 v3",
            sockets: 2,
            cores_per_socket: 8,
            threads: 32,
            freq_ghz: 2.4,
            l3_mib: 20,
            memory_gib: 128,
            tdp_per_socket: Watts::new(85.0),
            dram_power: Watts::new(20.0),
            seq_bandwidth_gbps: 50.0,
            rand_bandwidth_gbps: 8.0,
        }
    }

    /// Total socket + DRAM power (the paper estimates CPU energy from Intel
    /// product specifications, i.e. TDP-class numbers).
    #[must_use]
    pub fn platform_power(&self) -> Watts {
        Watts::new(
            self.tdp_per_socket.as_watts() * self.sockets as f64 + self.dram_power.as_watts(),
        )
    }
}

/// Table 5: the GPU platform (NVIDIA Tesla K40c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Card model string.
    pub model: &'static str,
    /// Architecture name.
    pub architecture: &'static str,
    /// CUDA cores.
    pub cuda_cores: usize,
    /// Base clock, MHz.
    pub base_clock_mhz: f64,
    /// Device memory, GiB.
    pub memory_gib: usize,
    /// Device memory bandwidth, GB/s (Table 5: 288).
    pub memory_bandwidth_gbps: f64,
    /// Host↔device PCIe bandwidth, GB/s (PCIe 3.0 ×16 effective).
    pub pcie_bandwidth_gbps: f64,
    /// Board power, watts (K40c: 235 W).
    pub board_power: Watts,
    /// Fraction of peak memory bandwidth graph kernels sustain (Gunrock on
    /// Kepler lands near half of peak).
    pub bandwidth_efficiency: f64,
}

impl GpuSpec {
    /// The Table 5 card.
    #[must_use]
    pub fn table5() -> Self {
        GpuSpec {
            model: "NVIDIA Tesla K40c",
            architecture: "Kepler",
            cuda_cores: 2880,
            base_clock_mhz: 745.0,
            memory_gib: 12,
            memory_bandwidth_gbps: 288.0,
            pcie_bandwidth_gbps: 12.0,
            board_power: Watts::new(235.0),
            bandwidth_efficiency: 0.5,
        }
    }
}

/// Tesseract-style PIM parameters (16 HMCs, 512 vaults, one in-order core
/// per vault at 2 GHz — the configuration of \[4\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimSpec {
    /// HMC cubes.
    pub cubes: usize,
    /// Vaults (and in-order cores) total.
    pub vaults: usize,
    /// Core clock, GHz.
    pub core_freq_ghz: f64,
    /// Aggregate internal memory bandwidth across all cubes, GB/s
    /// (Tesseract: 8 TB/s internal).
    pub internal_bandwidth_gbps: f64,
    /// Energy per bit moved inside an HMC, pJ/bit (~3.7 in HMC literature).
    pub energy_per_bit_pj: f64,
    /// Power of the in-order cores + logic layers, watts.
    pub logic_power: Watts,
    /// Fraction of edges whose destination lives in a remote cube (message
    /// over the inter-cube network).
    pub remote_fraction: f64,
    /// Relative cost multiplier of a remote edge versus a local one.
    pub remote_penalty: f64,
}

impl PimSpec {
    /// The Tesseract configuration of \[4\].
    #[must_use]
    pub fn tesseract() -> Self {
        PimSpec {
            cubes: 16,
            vaults: 512,
            core_freq_ghz: 2.0,
            internal_bandwidth_gbps: 8000.0,
            energy_per_bit_pj: 3.7,
            logic_power: Watts::new(40.0),
            remote_fraction: 0.5,
            remote_penalty: 3.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper() {
        let c = CpuSpec::table4();
        assert_eq!(c.sockets * c.cores_per_socket, 16);
        assert_eq!(c.threads, 32);
        assert_eq!(c.freq_ghz, 2.4);
        assert_eq!(c.l3_mib, 20);
        assert_eq!(c.memory_gib, 128);
        assert_eq!(c.platform_power().as_watts(), 190.0);
    }

    #[test]
    fn table5_matches_paper() {
        let g = GpuSpec::table5();
        assert_eq!(g.cuda_cores, 2880);
        assert_eq!(g.base_clock_mhz, 745.0);
        assert_eq!(g.memory_bandwidth_gbps, 288.0);
        assert_eq!(g.memory_gib, 12);
        assert_eq!(g.architecture, "Kepler");
    }

    #[test]
    fn tesseract_matches_reference_configuration() {
        let p = PimSpec::tesseract();
        assert_eq!(p.cubes, 16);
        assert_eq!(p.vaults, 512);
        assert_eq!(p.core_freq_ghz, 2.0);
        assert!(p.remote_fraction <= 1.0);
    }
}

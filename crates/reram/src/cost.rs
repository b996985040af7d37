//! Event-count → time/energy conversion.
//!
//! The paper's evaluation is an event-count model: NVSim-derived scalars per
//! cell access, ADC survey numbers per conversion, CACTI numbers per
//! register access, multiplied by how often the architecture performs each
//! operation. [`CostModel`] holds the per-event scalars; the architecture
//! simulator (graphr-core) counts events and calls in here.
//! [`CostBreakdown`] accumulates energy by component so the harness can
//! report where the picojoules go.

use std::fmt;
use std::ops::{Add, AddAssign};

use graphr_units::{Joules, Nanos};

use crate::params::{DeviceParams, PeripheryParams};

/// Per-event cost scalars for a ReRAM compute fabric.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostModel {
    device: DeviceParams,
    periphery: PeripheryParams,
}

impl CostModel {
    /// Creates a cost model from device and periphery parameters.
    #[must_use]
    pub fn new(device: DeviceParams, periphery: PeripheryParams) -> Self {
        CostModel { device, periphery }
    }

    /// The paper's parameter set.
    #[must_use]
    pub fn paper_default() -> Self {
        CostModel {
            device: DeviceParams::paper_default(),
            periphery: PeripheryParams::paper_default(),
        }
    }

    /// Device parameters in use.
    #[must_use]
    pub fn device(&self) -> &DeviceParams {
        &self.device
    }

    /// Periphery parameters in use.
    #[must_use]
    pub fn periphery(&self) -> &PeripheryParams {
        &self.periphery
    }

    // ---- latency ----

    /// Latency to program a tile whose rows are written in
    /// `serial_row_writes` sequential array accesses (each access programs
    /// one wordline's cells in parallel through the write drivers; every
    /// crossbar in a GE has its own driver, so tiles program concurrently).
    #[must_use]
    pub fn program_latency(&self, serial_row_writes: usize) -> Nanos {
        self.device.write_latency * serial_row_writes as f64
    }

    /// Latency of one in-situ MVM evaluation (one array read access).
    #[must_use]
    pub fn mvm_latency(&self) -> Nanos {
        self.device.read_latency
    }

    /// Latency for `conversions` ADC conversions sharing `adcs` converters.
    ///
    /// # Panics
    ///
    /// Panics if `adcs` is zero.
    #[must_use]
    pub fn adc_latency(&self, conversions: u64, adcs: usize) -> Nanos {
        assert!(adcs > 0, "at least one ADC required");
        self.periphery.adc_time(conversions.div_ceil(adcs as u64))
    }

    /// Latency of one sALU reduction pass over `ops` sequential operations.
    #[must_use]
    pub fn salu_latency(&self, ops: u64) -> Nanos {
        self.periphery.salu_latency * ops as f64
    }

    /// Latency to stream `bytes` sequentially from memory ReRAM to the GEs.
    #[must_use]
    pub fn memory_stream_latency(&self, bytes: u64) -> Nanos {
        Nanos::new(bytes as f64 / self.periphery.memory_bandwidth_gbps)
    }

    // ---- energy ----

    /// Energy to program `nonzero_cells` cells. Cells left at level 0 cost
    /// nothing beyond the bulk reset folded into the per-cell figure — the
    /// paper calls its per-cell write energy "conservative".
    #[must_use]
    pub fn program_energy(&self, nonzero_cells: u64) -> Joules {
        self.device.write_energy_per_cell * nonzero_cells as f64
    }

    /// Energy for an MVM that passes current through `active_cells` cells
    /// (nonzero cells on driven wordlines).
    #[must_use]
    pub fn mvm_energy(&self, active_cells: u64) -> Joules {
        self.device.read_energy_per_cell * active_cells as f64
    }

    /// Energy to drive `rows` wordlines (driver + DAC).
    #[must_use]
    pub fn driver_energy(&self, rows: u64) -> Joules {
        self.periphery.driver_energy_per_row * rows as f64
    }

    /// Energy for `conversions` ADC conversions.
    #[must_use]
    pub fn adc_energy(&self, conversions: u64) -> Joules {
        self.periphery.adc_energy_per_conversion * conversions as f64
    }

    /// Energy for `samples` sample-and-hold captures.
    #[must_use]
    pub fn sample_hold_energy(&self, samples: u64) -> Joules {
        self.periphery.sample_hold_energy * samples as f64
    }

    /// Energy for `ops` shift-and-add recombination steps.
    #[must_use]
    pub fn shift_add_energy(&self, ops: u64) -> Joules {
        self.periphery.shift_add_energy_per_op * ops as f64
    }

    /// Energy for `ops` sALU operations.
    #[must_use]
    pub fn salu_energy(&self, ops: u64) -> Joules {
        self.periphery.salu_energy_per_op * ops as f64
    }

    /// Energy for `accesses` RegI/RegO register-file accesses.
    #[must_use]
    pub fn register_energy(&self, accesses: u64) -> Joules {
        self.periphery.register_energy_per_access * accesses as f64
    }

    /// Energy to stream `bytes` from memory ReRAM.
    #[must_use]
    pub fn memory_stream_energy(&self, bytes: u64) -> Joules {
        self.periphery.memory_read_energy_per_byte * bytes as f64
    }
}

/// Energy accumulated per architectural component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Crossbar programming (edge loading).
    pub program: Joules,
    /// In-situ MVM cell reads.
    pub mvm: Joules,
    /// Wordline drivers / DACs.
    pub driver: Joules,
    /// Analog-to-digital conversion.
    pub adc: Joules,
    /// Sample-and-hold.
    pub sample_hold: Joules,
    /// Shift-and-add recombination.
    pub shift_add: Joules,
    /// sALU reductions.
    pub salu: Joules,
    /// RegI/RegO register accesses.
    pub registers: Joules,
    /// Memory-ReRAM edge streaming.
    pub memory: Joules,
}

impl CostBreakdown {
    /// Sum of all components.
    #[must_use]
    pub fn total(&self) -> Joules {
        self.program
            + self.mvm
            + self.driver
            + self.adc
            + self.sample_hold
            + self.shift_add
            + self.salu
            + self.registers
            + self.memory
    }

    /// The dominant component as a `(name, energy)` pair, or `None` when
    /// everything is zero.
    #[must_use]
    pub fn dominant(&self) -> Option<(&'static str, Joules)> {
        let items = self.components();
        items
            .into_iter()
            .filter(|(_, e)| !e.is_zero())
            .max_by(|a, b| a.1.as_joules().total_cmp(&b.1.as_joules()))
    }

    /// All components as `(name, energy)` pairs, in declaration order.
    #[must_use]
    pub fn components(&self) -> [(&'static str, Joules); 9] {
        [
            ("program", self.program),
            ("mvm", self.mvm),
            ("driver", self.driver),
            ("adc", self.adc),
            ("sample_hold", self.sample_hold),
            ("shift_add", self.shift_add),
            ("salu", self.salu),
            ("registers", self.registers),
            ("memory", self.memory),
        ]
    }
}

impl Add for CostBreakdown {
    type Output = CostBreakdown;
    fn add(mut self, rhs: CostBreakdown) -> CostBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for CostBreakdown {
    fn add_assign(&mut self, rhs: CostBreakdown) {
        self.program += rhs.program;
        self.mvm += rhs.mvm;
        self.driver += rhs.driver;
        self.adc += rhs.adc;
        self.sample_hold += rhs.sample_hold;
        self.shift_add += rhs.shift_add;
        self.salu += rhs.salu;
        self.registers += rhs.registers;
        self.memory += rhs.memory;
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "energy breakdown (total {}):", self.total())?;
        for (name, e) in self.components() {
            writeln!(f, "  {name:<12} {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::paper_default()
    }

    #[test]
    fn latency_pieces_scale_with_counts() {
        let m = model();
        assert_eq!(m.program_latency(1).as_nanos(), 50.88);
        assert_eq!(m.program_latency(8).as_nanos(), 8.0 * 50.88);
        assert_eq!(m.mvm_latency().as_nanos(), 29.31);
        // 256 conversions on 4 ADCs at 1 GSps → 64 ns.
        assert_eq!(m.adc_latency(256, 4).as_nanos(), 64.0);
        assert_eq!(m.salu_latency(10).as_nanos(), 10.0);
    }

    #[test]
    fn memory_stream_matches_bandwidth() {
        let m = model();
        // 100 GB/s = 100 bytes/ns.
        assert!((m.memory_stream_latency(1000).as_nanos() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn energy_pieces_scale_with_counts() {
        let m = model();
        assert!((m.program_energy(1000).as_joules() - 3.91e-6).abs() < 1e-12);
        assert!((m.mvm_energy(1000).as_joules() - 1.08e-9).abs() < 1e-15);
        assert!((m.adc_energy(64).as_picojoules() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_total_and_dominant() {
        let m = model();
        let mut b = CostBreakdown::default();
        b.program += m.program_energy(100);
        b.adc += m.adc_energy(10);
        assert_eq!(b.total(), b.program + b.adc);
        assert_eq!(b.dominant().unwrap().0, "program");
        let mut c = CostBreakdown::default();
        c.mvm += m.mvm_energy(5);
        let sum = b + c;
        assert_eq!(sum.total(), b.total() + c.total());
    }

    #[test]
    fn empty_breakdown_has_no_dominant() {
        assert_eq!(CostBreakdown::default().dominant(), None);
        assert!(CostBreakdown::default().total().is_zero());
    }

    #[test]
    fn display_lists_every_component() {
        let s = CostBreakdown::default().to_string();
        for name in [
            "program",
            "mvm",
            "driver",
            "adc",
            "sample_hold",
            "shift_add",
            "salu",
            "registers",
            "memory",
        ] {
            assert!(s.contains(name), "missing {name} in {s}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one ADC")]
    fn zero_adcs_panics() {
        let _ = model().adc_latency(10, 0);
    }
}

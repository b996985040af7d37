//! Physical parameter sets.
//!
//! The paper does not run NVSim as part of its artifact; it consumes scalar
//! outputs from published sources and plugs them into an event-count model.
//! We reproduce exactly those scalars:
//!
//! * §5.2: HRS/LRS = 25 MΩ / 50 kΩ, `Vr` = 0.7 V, `Vw` = 2 V, LRS/HRS read
//!   currents 40 µA / 2 µA, 4-bit cells.
//! * Niu et al. \[44\] (cross-point ReRAM design): read/write latency
//!   29.31 ns / 50.88 ns, read/write energy 1.08 pJ / 3.91 nJ per cell.
//! * Periphery: ADC figures from the Murmann ADC survey the paper cites,
//!   register/sALU figures from CACTI-class small-array estimates.

use graphr_units::{Joules, Nanos};

/// Cell- and array-level ReRAM device constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// High-resistance (OFF) state, ohms. §5.2: 25 MΩ.
    pub hrs_ohm: f64,
    /// Low-resistance (ON) state, ohms. §5.2: 50 kΩ.
    pub lrs_ohm: f64,
    /// Read voltage, volts. §5.2: 0.7 V.
    pub read_voltage: f64,
    /// Write voltage, volts. §5.2: 2 V.
    pub write_voltage: f64,
    /// Latency of one array read access (an MVM evaluation). \[44\]: 29.31 ns.
    pub read_latency: Nanos,
    /// Latency of one array write access (programming one wordline's cells
    /// in parallel through the crossbar's write drivers). \[44\]: 50.88 ns.
    pub write_latency: Nanos,
    /// Energy to read (pass current through) one cell. \[44\]: 1.08 pJ.
    pub read_energy_per_cell: Joules,
    /// Energy to program one cell. \[44\]: 3.91 nJ. The paper calls this
    /// estimate "conservative" for 4-bit multi-level programming.
    pub write_energy_per_cell: Joules,
    /// Bits stored per cell. §3.2: 4 (conservative vs the 5-bit
    /// demonstration in \[26\]).
    pub cell_bits: u8,
}

impl DeviceParams {
    /// The paper's parameter set (§5.2 + \[44\]).
    #[must_use]
    pub fn paper_default() -> Self {
        DeviceParams {
            hrs_ohm: 25e6,
            lrs_ohm: 50e3,
            read_voltage: 0.7,
            write_voltage: 2.0,
            read_latency: Nanos::new(29.31),
            write_latency: Nanos::new(50.88),
            read_energy_per_cell: Joules::from_picojoules(1.08),
            write_energy_per_cell: Joules::from_nanojoules(3.91),
            cell_bits: 4,
        }
    }

    /// Number of distinct conductance levels a cell resolves.
    #[must_use]
    pub fn levels(&self) -> u32 {
        1 << self.cell_bits
    }

    /// ON/OFF conductance ratio — a sanity metric; must comfortably exceed
    /// the level count for the cell resolution to be physical.
    #[must_use]
    pub fn on_off_ratio(&self) -> f64 {
        self.hrs_ohm / self.lrs_ohm
    }
}

impl Default for DeviceParams {
    fn default() -> Self {
        DeviceParams::paper_default()
    }
}

/// Peripheral circuit constants: converters, sample-and-hold, shift-add,
/// simple ALU, and registers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeripheryParams {
    /// ADC sample rate in giga-samples per second. §3.2 sizes one 1.0 GSps
    /// ADC to drain eight 8-bitline crossbars in a 64 ns GE cycle.
    pub adc_rate_gsps: f64,
    /// Energy per ADC conversion. 8-bit ≈1 GSps converters in the Murmann
    /// survey land around 2 pJ/conversion at 32 nm-class nodes.
    pub adc_energy_per_conversion: Joules,
    /// ADC resolution in bits (8 suffices for 8-row 4-bit-cell bitlines:
    /// worst-case bitline sum is 8 × 15 × 15 < 2^11, but partial sums are
    /// rescaled per slice; the paper does not model ADC clipping and
    /// neither do we by default).
    pub adc_bits: u8,
    /// Energy to drive one wordline for one MVM (driver + DAC).
    pub driver_energy_per_row: Joules,
    /// Energy per sample-and-hold capture.
    pub sample_hold_energy: Joules,
    /// Energy per shift-and-add recombination step (one slice folded in).
    pub shift_add_energy_per_op: Joules,
    /// Energy per sALU operation (16-bit add/min/compare).
    pub salu_energy_per_op: Joules,
    /// Latency of one sALU operation.
    pub salu_latency: Nanos,
    /// Energy per 16-bit register-file access (RegI/RegO, CACTI-class).
    pub register_energy_per_access: Joules,
    /// Energy per byte streamed from memory ReRAM into the GEs.
    pub memory_read_energy_per_byte: Joules,
    /// Sustained internal bandwidth between memory ReRAM and GEs, GB/s.
    /// Sequential by construction (§3.4 preprocessing), so high.
    pub memory_bandwidth_gbps: f64,
}

impl PeripheryParams {
    /// Defaults consistent with the paper's component choices (§5.2).
    #[must_use]
    pub fn paper_default() -> Self {
        PeripheryParams {
            adc_rate_gsps: 1.0,
            adc_energy_per_conversion: Joules::from_picojoules(2.0),
            adc_bits: 8,
            driver_energy_per_row: Joules::from_picojoules(1.0),
            sample_hold_energy: Joules::from_picojoules(0.01),
            shift_add_energy_per_op: Joules::from_picojoules(0.2),
            salu_energy_per_op: Joules::from_picojoules(0.5),
            salu_latency: Nanos::new(1.0),
            register_energy_per_access: Joules::from_picojoules(1.0),
            memory_read_energy_per_byte: Joules::from_picojoules(2.0),
            memory_bandwidth_gbps: 100.0,
        }
    }

    /// Time for `conversions` ADC conversions on one converter.
    #[must_use]
    pub fn adc_time(&self, conversions: u64) -> Nanos {
        Nanos::new(conversions as f64 / self.adc_rate_gsps)
    }
}

impl Default for PeripheryParams {
    fn default() -> Self {
        PeripheryParams::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_section_5_2() {
        let d = DeviceParams::paper_default();
        assert_eq!(d.hrs_ohm, 25e6);
        assert_eq!(d.lrs_ohm, 50e3);
        assert_eq!(d.read_voltage, 0.7);
        assert_eq!(d.write_voltage, 2.0);
        assert_eq!(d.read_latency.as_nanos(), 29.31);
        assert_eq!(d.write_latency.as_nanos(), 50.88);
        assert!((d.read_energy_per_cell.as_picojoules() - 1.08).abs() < 1e-9);
        assert!((d.write_energy_per_cell.as_picojoules() - 3910.0).abs() < 1e-6);
        assert_eq!(d.cell_bits, 4);
    }

    #[test]
    fn levels_and_ratio() {
        let d = DeviceParams::paper_default();
        assert_eq!(d.levels(), 16);
        assert_eq!(d.on_off_ratio(), 500.0);
        assert!(d.on_off_ratio() > f64::from(d.levels()));
    }

    #[test]
    fn adc_timing_matches_paper_sizing() {
        // §3.2: one 1.0 GSps ADC drains eight 8-bitline crossbars (64
        // conversions) in one 64 ns GE cycle.
        let p = PeripheryParams::paper_default();
        assert_eq!(p.adc_time(64).as_nanos(), 64.0);
    }
}

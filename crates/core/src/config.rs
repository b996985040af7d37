//! Architectural configuration of a GraphR node.
//!
//! §3.4 names the knobs: `C` (crossbar size), `N` (crossbars per GE), `G`
//! (GEs per node), `B` (vertices per out-of-core block). §5.2 fixes the
//! evaluation point at `C = 8, N = 32, G = 64`. We spell the names out
//! (`crossbar_size`, `crossbars_per_ge`, `num_ges`, `block_vertices`) since
//! §5.2 confusingly reuses `C` for crossbars-per-GE.
//!
//! Derived geometry: with 16-bit data on 4-bit cells, every *logical* tile
//! gangs `num_slices` physical crossbars (×2 in differential mode), so one
//! GE exposes `crossbars_per_ge / (slices × sign)` logical tiles and one
//! subgraph (the §3.3 sliding window) spans
//! `crossbar_size × (crossbar_size × logical_tiles × num_ges)` of the
//! adjacency matrix.

use std::error::Error;
use std::fmt;

use graphr_reram::{AdcModel, CostModel, NoiseModel, SignMode};
use graphr_units::{BitSlicer, FixedSpec, Nanos};

/// Column- or row-major subgraph streaming (§3.3, Figure 11).
///
/// Column-major (the paper's choice) finishes all subgraphs sharing a
/// destination strip before moving on, so RegO holds one strip and is
/// written back once; row-major reads RegI once per source chunk but needs
/// RegO space for *every* destination strip at once and rewrites it per
/// chunk — the paper rejects it because ReRAM writes cost more than reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamingOrder {
    /// Destination-major: GraphR's choice.
    #[default]
    ColumnMajor,
    /// Source-major: the rejected alternative, kept for the ablation.
    RowMajor,
}

/// Functional fidelity of the simulation.
///
/// Both modes produce *identical event counts* (hence identical time and
/// energy); they differ only in how values are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Full crossbar emulation: per-slice bitline sums, ADC conversion,
    /// shift-add recombination, programming noise. The ground truth.
    Analog,
    /// Fixed-point arithmetic without per-slice emulation. Exactly equal to
    /// `Analog` when noise is ideal and the ADC is ideal; orders of
    /// magnitude faster on big graphs.
    #[default]
    Fast,
}

/// Error constructing a [`GraphRConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid GraphR configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// Complete architectural parameter set of one GraphR node.
///
/// Construct via [`GraphRConfig::builder`]; the §5.2 evaluation point is the
/// default.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRConfig {
    /// Crossbar dimension `C` (paper §5.2: 8 → 8×8 crossbars).
    pub crossbar_size: usize,
    /// Physical crossbars per graph engine (§5.2: 32).
    pub crossbars_per_ge: usize,
    /// Graph engines per node (§5.2: 64).
    pub num_ges: usize,
    /// Vertices per out-of-core block `B`; `None` means the whole (padded)
    /// graph forms a single block, the in-memory case of §5.
    pub block_vertices: Option<usize>,
    /// Fixed-point format of vertex properties and edge values.
    pub spec: FixedSpec,
    /// Magnitude slicing across cells (§3.2: four 4-bit slices).
    pub slicer: BitSlicer,
    /// Unsigned (graph algorithms) or differential (CF) storage.
    pub sign_mode: SignMode,
    /// ADCs per GE. §3.2 provisions *one* 1 GSps ADC per graph engine
    /// (sized there for eight 8-bitline crossbars = one 64 ns cycle); with
    /// the §5.2 configuration of 32 crossbars per GE the same single ADC
    /// needs 256 conversions, making the default GE cycle 256 ns.
    pub adcs_per_ge: usize,
    /// Sequential array-write accesses to program one tile (1 = each
    /// crossbar's driver writes the whole tile in one access; `C` = one
    /// wordline at a time).
    pub program_row_serialization: usize,
    /// Overlap tile programming with the previous subgraph's compute
    /// (double-buffered drivers).
    pub pipelined: bool,
    /// Skip subgraphs with no edges (§3.3) — and, for add-op algorithms,
    /// subgraphs with no active source.
    pub skip_empty: bool,
    /// Streaming order (§3.3).
    pub order: StreamingOrder,
    /// Functional fidelity.
    pub fidelity: Fidelity,
    /// Programming noise model.
    pub noise: NoiseModel,
    /// ADC transfer model.
    pub adc: AdcModel,
    /// Device/periphery cost scalars.
    pub cost: CostModel,
}

impl GraphRConfig {
    /// Starts a builder at the paper's §5.2 evaluation point.
    #[must_use]
    pub fn builder() -> GraphRConfigBuilder {
        GraphRConfigBuilder::default()
    }

    /// Physical crossbars ganged per logical tile (slices × sign arrays).
    #[must_use]
    pub fn arrays_per_tile(&self) -> usize {
        let sign = match self.sign_mode {
            SignMode::Unsigned => 1,
            SignMode::Differential => 2,
        };
        usize::from(self.slicer.num_slices()) * sign
    }

    /// Logical tiles per GE.
    #[must_use]
    pub fn tiles_per_ge(&self) -> usize {
        self.crossbars_per_ge / self.arrays_per_tile()
    }

    /// Destination vertices covered by one GE per subgraph.
    #[must_use]
    pub fn cols_per_ge(&self) -> usize {
        self.tiles_per_ge() * self.crossbar_size
    }

    /// Destination vertices covered by one subgraph (the §3.3 sliding
    /// window width): `C × tiles_per_ge × G`.
    #[must_use]
    pub fn strip_width(&self) -> usize {
        self.cols_per_ge() * self.num_ges
    }

    /// Source vertices per subgraph (= crossbar rows).
    #[must_use]
    pub fn chunk_height(&self) -> usize {
        self.crossbar_size
    }

    /// Physical bitlines per GE needing conversion per MVM.
    #[must_use]
    pub fn bitlines_per_ge(&self) -> usize {
        self.crossbars_per_ge * self.crossbar_size
    }

    /// The GE cycle: the paper's 64 ns at the default point. Maximum of the
    /// crossbar read latency and the shared-ADC drain time
    /// (`bitlines_per_ge / (adcs × rate)`).
    #[must_use]
    pub fn ge_cycle(&self) -> Nanos {
        let adc = self
            .cost
            .adc_latency(self.bitlines_per_ge() as u64, self.adcs_per_ge);
        self.cost.mvm_latency().max(adc)
    }

    /// Latency to program one subgraph's tiles (all GEs and tiles in
    /// parallel through their drivers).
    #[must_use]
    pub fn program_latency(&self) -> Nanos {
        self.cost.program_latency(self.program_row_serialization)
    }

    /// Checks every rule a configuration must satisfy: positive
    /// dimensions; a crossbar of at most the 256 × 256 a byte-wide tile
    /// entry can address; `crossbars_per_ge` a nonzero multiple of the
    /// arrays per logical tile; a configured block size that is a positive
    /// multiple of the strip width; at least one ADC per GE;
    /// `program_row_serialization` in `1..=crossbar_size`; and a slicer
    /// that carries the spec's magnitude bits.
    /// [`GraphRConfigBuilder::build`] runs it, and so does
    /// [`TiledGraph::preprocess`](crate::TiledGraph::preprocess), because
    /// the fields are public and a struct-literal configuration skips the
    /// builder.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first violated rule.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.crossbar_size == 0 || self.crossbars_per_ge == 0 || self.num_ges == 0 {
            return Err(ConfigError::new("dimensions must be positive"));
        }
        if self.crossbar_size > 256 {
            return Err(ConfigError::new("crossbar_size must be at most 256"));
        }
        if self.tiles_per_ge() == 0 {
            return Err(ConfigError::new(format!(
                "crossbars_per_ge ({}) holds no logical tile of {} arrays",
                self.crossbars_per_ge,
                self.arrays_per_tile()
            )));
        }
        if let Some(b) = self.block_vertices {
            if b == 0 || b % self.strip_width() != 0 {
                return Err(ConfigError::new(format!(
                    "block_vertices ({b}) must be a positive multiple of the strip width ({})",
                    self.strip_width()
                )));
            }
        }
        if self.adcs_per_ge == 0 {
            return Err(ConfigError::new("at least one ADC per GE required"));
        }
        if self.program_row_serialization == 0
            || self.program_row_serialization > self.crossbar_size
        {
            return Err(ConfigError::new(format!(
                "program_row_serialization must be in 1..={}",
                self.crossbar_size
            )));
        }
        let magnitude_bits = self.spec.total_bits() - 1; // sign carried separately
        if self.slicer.total_bits() < magnitude_bits {
            return Err(ConfigError::new(format!(
                "slicer carries {} bits but the spec needs {} magnitude bits",
                self.slicer.total_bits(),
                magnitude_bits
            )));
        }
        let arrays = self.arrays_per_tile();
        if !self.crossbars_per_ge.is_multiple_of(arrays) {
            return Err(ConfigError::new(format!(
                "crossbars_per_ge ({}) must be a multiple of arrays per logical tile ({arrays})",
                self.crossbars_per_ge
            )));
        }
        Ok(())
    }

    /// The effective block size: configured `block_vertices`, or the whole
    /// graph padded up to a multiple of the strip width.
    #[must_use]
    pub fn effective_block_vertices(&self, num_vertices: usize) -> usize {
        match self.block_vertices {
            Some(b) => b,
            None => num_vertices
                .div_ceil(self.strip_width())
                .max(1)
                .saturating_mul(self.strip_width()),
        }
    }
}

impl Default for GraphRConfig {
    fn default() -> Self {
        GraphRConfig::builder()
            .build()
            .expect("default configuration is valid")
    }
}

/// Builder for [`GraphRConfig`]. Defaults to the §5.2 evaluation point.
#[derive(Debug, Clone)]
pub struct GraphRConfigBuilder {
    config: GraphRConfig,
}

impl Default for GraphRConfigBuilder {
    fn default() -> Self {
        GraphRConfigBuilder {
            config: GraphRConfig {
                crossbar_size: 8,
                crossbars_per_ge: 32,
                num_ges: 64,
                block_vertices: None,
                spec: FixedSpec::paper_default(),
                slicer: BitSlicer::paper_default(),
                sign_mode: SignMode::Unsigned,
                adcs_per_ge: 1,
                program_row_serialization: 1,
                pipelined: true,
                skip_empty: true,
                order: StreamingOrder::ColumnMajor,
                fidelity: Fidelity::Fast,
                noise: NoiseModel::Ideal,
                adc: AdcModel::Ideal,
                cost: CostModel::paper_default(),
            },
        }
    }
}

impl GraphRConfigBuilder {
    /// Sets the crossbar dimension `C`.
    #[must_use]
    pub fn crossbar_size(mut self, c: usize) -> Self {
        self.config.crossbar_size = c;
        self
    }

    /// Sets the number of physical crossbars per GE.
    #[must_use]
    pub fn crossbars_per_ge(mut self, n: usize) -> Self {
        self.config.crossbars_per_ge = n;
        self
    }

    /// Sets the number of GEs.
    #[must_use]
    pub fn num_ges(mut self, g: usize) -> Self {
        self.config.num_ges = g;
        self
    }

    /// Sets the out-of-core block size in vertices.
    #[must_use]
    pub fn block_vertices(mut self, b: usize) -> Self {
        self.config.block_vertices = Some(b);
        self
    }

    /// Sets the fixed-point format.
    #[must_use]
    pub fn spec(mut self, spec: FixedSpec) -> Self {
        self.config.spec = spec;
        self
    }

    /// Sets the bit slicing.
    #[must_use]
    pub fn slicer(mut self, slicer: BitSlicer) -> Self {
        self.config.slicer = slicer;
        self
    }

    /// Sets signed/unsigned storage.
    #[must_use]
    pub fn sign_mode(mut self, mode: SignMode) -> Self {
        self.config.sign_mode = mode;
        self
    }

    /// Sets ADCs per GE.
    #[must_use]
    pub fn adcs_per_ge(mut self, adcs: usize) -> Self {
        self.config.adcs_per_ge = adcs;
        self
    }

    /// Sets programming serialisation (1 = whole tile per access).
    #[must_use]
    pub fn program_row_serialization(mut self, rows: usize) -> Self {
        self.config.program_row_serialization = rows;
        self
    }

    /// Enables/disables program-compute pipelining.
    #[must_use]
    pub fn pipelined(mut self, on: bool) -> Self {
        self.config.pipelined = on;
        self
    }

    /// Enables/disables empty-subgraph skipping.
    #[must_use]
    pub fn skip_empty(mut self, on: bool) -> Self {
        self.config.skip_empty = on;
        self
    }

    /// Sets the streaming order.
    #[must_use]
    pub fn order(mut self, order: StreamingOrder) -> Self {
        self.config.order = order;
        self
    }

    /// Sets the functional fidelity.
    #[must_use]
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.config.fidelity = fidelity;
        self
    }

    /// Sets the programming-noise model.
    #[must_use]
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.config.noise = noise;
        self
    }

    /// Sets the ADC model.
    #[must_use]
    pub fn adc(mut self, adc: AdcModel) -> Self {
        self.config.adc = adc;
        self
    }

    /// Sets the cost scalars.
    #[must_use]
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.config.cost = cost;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first rule of
    /// [`GraphRConfig::check`] the configuration violates.
    pub fn build(self) -> Result<GraphRConfig, ConfigError> {
        self.config.check()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        let c = GraphRConfig::default();
        assert_eq!(c.crossbar_size, 8);
        assert_eq!(c.crossbars_per_ge, 32);
        assert_eq!(c.num_ges, 64);
        assert_eq!(c.arrays_per_tile(), 4); // 4 slices, unsigned
        assert_eq!(c.tiles_per_ge(), 8);
        assert_eq!(c.cols_per_ge(), 64);
        assert_eq!(c.strip_width(), 4096);
        assert_eq!(c.bitlines_per_ge(), 256);
        // One shared 1 GSps ADC drains 256 bitlines in 256 ns.
        assert_eq!(c.ge_cycle().as_nanos(), 256.0);
        // §3.2's literal sizing statement: a GE of eight 8-bitline
        // crossbars drains through the same ADC in one 64 ns cycle.
        let small = GraphRConfig::builder().crossbars_per_ge(8).build().unwrap();
        assert_eq!(small.ge_cycle().as_nanos(), 64.0);
        assert_eq!(c.program_latency().as_nanos(), 50.88);
    }

    #[test]
    fn differential_mode_halves_tiles() {
        let c = GraphRConfig::builder()
            .sign_mode(SignMode::Differential)
            .build()
            .unwrap();
        assert_eq!(c.arrays_per_tile(), 8);
        assert_eq!(c.tiles_per_ge(), 4);
        assert_eq!(c.strip_width(), 2048);
    }

    #[test]
    fn effective_block_pads_to_strip_width() {
        let c = GraphRConfig::default();
        assert_eq!(c.effective_block_vertices(7_000), 8192);
        assert_eq!(c.effective_block_vertices(4096), 4096);
        assert_eq!(c.effective_block_vertices(1), 4096);
        let blocked = GraphRConfig::builder()
            .block_vertices(8192)
            .build()
            .unwrap();
        assert_eq!(blocked.effective_block_vertices(1_000_000), 8192);
    }

    #[test]
    fn builder_rejects_bad_shapes() {
        assert!(GraphRConfig::builder().crossbar_size(0).build().is_err());
        // Tile entries address rows and columns in a byte.
        assert!(GraphRConfig::builder().crossbar_size(256).build().is_ok());
        assert!(GraphRConfig::builder().crossbar_size(257).build().is_err());
        assert!(GraphRConfig::builder().crossbars_per_ge(6).build().is_err());
        assert!(GraphRConfig::builder().block_vertices(100).build().is_err());
        assert!(GraphRConfig::builder()
            .program_row_serialization(9)
            .build()
            .is_err());
        assert!(GraphRConfig::builder().adcs_per_ge(0).build().is_err());
        // 2 slices × 4 bits carry only 8 magnitude bits < 15 needed.
        let thin = BitSlicer::new(4, 2).unwrap();
        assert!(GraphRConfig::builder().slicer(thin).build().is_err());
        // A struct literal skips the builder; the same check still
        // rejects it.
        let no_tile = GraphRConfig {
            crossbars_per_ge: 2,
            ..GraphRConfig::default()
        };
        assert!(no_tile.check().is_err());
        let no_adc = GraphRConfig {
            adcs_per_ge: 0,
            ..GraphRConfig::default()
        };
        assert!(no_adc.check().is_err());
    }

    #[test]
    fn error_message_is_informative() {
        let err = GraphRConfig::builder()
            .block_vertices(100)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("strip width"));
    }

    #[test]
    fn smaller_node_geometry() {
        // The Figure 12 walk-through: C=4, N=2, G=2, B=32 with 4-bit data
        // (1 slice of 4 bits).
        let c = GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(2)
            .num_ges(2)
            .spec(FixedSpec::new(5, 0).unwrap())
            .slicer(BitSlicer::new(4, 1).unwrap())
            .block_vertices(32)
            .build()
            .unwrap();
        assert_eq!(c.arrays_per_tile(), 1);
        assert_eq!(c.strip_width(), 16); // C × N × G = 4 × 2 × 2
        assert_eq!(c.chunk_height(), 4);
    }
}

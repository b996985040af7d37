//! Foundational numeric types shared by every crate in the GraphR
//! reproduction.
//!
//! The GraphR accelerator (HPCA 2018) computes with *analog* ReRAM crossbars:
//! values are quantised to a small number of bits per cell (4 in the paper),
//! higher precision is recovered by bit slicing, and all architectural
//! bookkeeping is done in physical units (nanoseconds, picojoules).
//! This crate provides exactly those primitives:
//!
//! * [`fixed`] — fixed-point quantisation ([`FixedSpec`]) and bit slicing
//!   ([`BitSlicer`]) used by the crossbar model,
//! * [`time`] / [`energy`] — strongly-typed [`Nanos`], [`Joules`] and
//!   [`Watts`] so a latency is never accidentally added to an energy,
//! * [`stats`] — the geometric mean used by the evaluation harness.
//!
//! # Examples
//!
//! ```
//! use graphr_units::{FixedSpec, Nanos, Joules};
//!
//! // The paper's 16-bit fixed point, built from four 4-bit ReRAM cells.
//! let spec = FixedSpec::new(16, 12)?;
//! let q = spec.quantize(0.8125);
//! assert_eq!(spec.dequantize(q), 0.8125);
//!
//! let cycle = Nanos::new(64.0);           // one graph-engine cycle
//! let energy = Joules::from_picojoules(1.08);
//! assert!(energy.averaged_over(cycle).as_watts() > 0.0);
//! # Ok::<(), graphr_units::FixedSpecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod fixed;
pub mod stats;
pub mod time;

pub use energy::{Joules, Watts};
pub use fixed::{BitSlicer, FixedSpec, FixedSpecError};
pub use stats::GeoMean;
pub use time::Nanos;

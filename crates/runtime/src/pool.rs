//! The scoped worker pool, re-exported from
//! [`graphr_core::exec::pool`] where the executor uses it.

pub use graphr_core::exec::pool::{available_threads, run_indexed};

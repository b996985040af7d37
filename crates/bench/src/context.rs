//! Shared experiment context: dataset scaling/caching, the standard
//! accelerator configuration, and scale-consistent platform models.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use graphr_core::GraphRConfig;
use graphr_graph::{DatasetSpec, EdgeList};
use graphr_platforms::{CpuModel, GpuModel, PimModel};

/// Environment variable overriding the dataset scale.
pub const SCALE_ENV: &str = "GRAPHR_SCALE";

/// Default linear dataset scale (1/32 of Table 3 sizes).
pub const DEFAULT_SCALE: f64 = 1.0 / 32.0;

/// Shared state for one harness process.
pub struct ExperimentContext {
    scale: f64,
    config: GraphRConfig,
    cache: Mutex<HashMap<&'static str, Arc<EdgeList>>>,
}

impl ExperimentContext {
    /// Creates a context at the scale given by `GRAPHR_SCALE` (default
    /// 1/32) with the paper's §5.2 accelerator configuration.
    #[must_use]
    pub fn from_env() -> Self {
        let scale = std::env::var(SCALE_ENV)
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0 && *s <= 1.0)
            .unwrap_or(DEFAULT_SCALE);
        ExperimentContext::with_scale(scale)
    }

    /// Creates a context at an explicit scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is outside `(0, 1]`.
    #[must_use]
    pub fn with_scale(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        ExperimentContext {
            scale,
            config: GraphRConfig::default(),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The linear dataset scale in effect.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The accelerator configuration (paper §5.2 evaluation point).
    #[must_use]
    pub fn config(&self) -> &GraphRConfig {
        &self.config
    }

    /// A mutable copy of the configuration for ablations.
    #[must_use]
    pub fn config_clone(&self) -> GraphRConfig {
        self.config.clone()
    }

    /// The scaled clone of a dataset, cached per tag.
    #[must_use]
    pub fn graph(&self, spec: &DatasetSpec) -> Arc<EdgeList> {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(g) = cache.get(spec.tag) {
            return Arc::clone(g);
        }
        let g = Arc::new(spec.generate(self.scale));
        cache.insert(spec.tag, Arc::clone(&g));
        g
    }

    /// The scaled bipartite split of a dataset (Netflix), if any.
    #[must_use]
    pub fn bipartite(&self, spec: &DatasetSpec) -> Option<(usize, usize)> {
        spec.scaled_bipartite(self.scale)
    }

    /// The CPU model with software overheads scaled to the dataset scale
    /// (see the crate docs for the rationale).
    #[must_use]
    pub fn cpu_model(&self) -> CpuModel {
        let mut m = CpuModel::paper_default();
        m.tuning.setup = m.tuning.setup * self.scale;
        m.tuning.per_iteration = m.tuning.per_iteration * self.scale;
        m
    }

    /// The GPU model with software overheads scaled.
    #[must_use]
    pub fn gpu_model(&self) -> GpuModel {
        let mut m = GpuModel::paper_default();
        m.tuning.setup = m.tuning.setup * self.scale;
        m.tuning.per_iteration = m.tuning.per_iteration * self.scale;
        m
    }

    /// The PIM model with software overheads scaled.
    #[must_use]
    pub fn pim_model(&self) -> PimModel {
        let mut m = PimModel::paper_default();
        m.tuning.setup = m.tuning.setup * self.scale;
        m.tuning.per_iteration = m.tuning.per_iteration * self.scale;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_and_override() {
        let ctx = ExperimentContext::with_scale(0.01);
        assert_eq!(ctx.scale(), 0.01);
    }

    #[test]
    fn graph_cache_returns_same_instance() {
        let ctx = ExperimentContext::with_scale(0.002);
        let spec = DatasetSpec::wiki_vote();
        let a = ctx.graph(&spec);
        let b = ctx.graph(&spec);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.num_edges(), spec.scaled_dimensions(0.002).1);
    }

    #[test]
    fn platform_overheads_scale() {
        let full = ExperimentContext::with_scale(1.0);
        let small = ExperimentContext::with_scale(0.1);
        assert!(
            small.cpu_model().tuning.setup < full.cpu_model().tuning.setup,
            "setup overhead must shrink with scale"
        );
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn bad_scale_panics() {
        let _ = ExperimentContext::with_scale(0.0);
    }
}

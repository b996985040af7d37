//! Dataset catalog mirroring the paper's Table 3.
//!
//! The SNAP datasets and the Netflix Prize data cannot ship with this
//! repository, so each entry is cloned synthetically: directed graphs with
//! R-MAT (Graph500 skew, which reproduces the heavy-tailed degree
//! distributions of social/web graphs), and Netflix with the planted
//! low-rank bipartite generator. Clones match the original vertex and edge
//! counts exactly at scale 1.0.
//!
//! A uniform linear `scale` shrinks both `|V|` and `|E|`, preserving mean
//! degree; density then grows by `1/scale` *uniformly across datasets*, so
//! the cross-dataset density ordering that drives the paper's Figure 21 is
//! preserved at any scale. The benchmark harness reads the scale from the
//! `GRAPHR_SCALE` environment variable (default 1/32) so the full grid runs
//! in seconds.

use std::collections::HashMap;
use std::sync::Arc;

use crate::coo::EdgeList;
use crate::generators::bipartite::RatingMatrix;
use crate::generators::rmat::Rmat;

/// What kind of graph a dataset is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// A directed graph (the six SNAP datasets).
    Directed,
    /// A bipartite user → item rating graph (Netflix).
    Bipartite {
        /// Number of user vertices.
        users: usize,
        /// Number of item vertices.
        items: usize,
    },
}

/// One row of Table 3: a named dataset with its full-scale dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Full dataset name as printed in the paper.
    pub name: &'static str,
    /// The paper's two-letter tag (WV, SD, …).
    pub tag: &'static str,
    /// Full-scale vertex count.
    pub vertices: usize,
    /// Full-scale edge count.
    pub edges: usize,
    /// Directed or bipartite.
    pub kind: DatasetKind,
    /// Generator seed, fixed per dataset so every run sees the same clone.
    pub seed: u64,
}

impl DatasetSpec {
    /// WikiVote: 7.0 K vertices, 103 K edges — the densest of the six.
    #[must_use]
    pub fn wiki_vote() -> Self {
        DatasetSpec {
            name: "WikiVote",
            tag: "WV",
            vertices: 7_000,
            edges: 103_000,
            kind: DatasetKind::Directed,
            seed: seeds::WV,
        }
    }

    /// Slashdot: 82 K vertices, 948 K edges.
    #[must_use]
    pub fn slashdot() -> Self {
        DatasetSpec {
            name: "Slashdot",
            tag: "SD",
            vertices: 82_000,
            edges: 948_000,
            kind: DatasetKind::Directed,
            seed: seeds::SD,
        }
    }

    /// Amazon: 262 K vertices, 1.2 M edges.
    #[must_use]
    pub fn amazon() -> Self {
        DatasetSpec {
            name: "Amazon",
            tag: "AZ",
            vertices: 262_000,
            edges: 1_200_000,
            kind: DatasetKind::Directed,
            seed: seeds::AZ,
        }
    }

    /// WebGoogle: 0.88 M vertices, 5.1 M edges.
    #[must_use]
    pub fn web_google() -> Self {
        DatasetSpec {
            name: "WebGoogle",
            tag: "WG",
            vertices: 880_000,
            edges: 5_100_000,
            kind: DatasetKind::Directed,
            seed: seeds::WG,
        }
    }

    /// LiveJournal: 4.8 M vertices, 69 M edges — the sparsest.
    #[must_use]
    pub fn live_journal() -> Self {
        DatasetSpec {
            name: "LiveJournal",
            tag: "LJ",
            vertices: 4_800_000,
            edges: 69_000_000,
            kind: DatasetKind::Directed,
            seed: seeds::LJ,
        }
    }

    /// Orkut: 3.0 M vertices, 106 M edges.
    #[must_use]
    pub fn orkut() -> Self {
        DatasetSpec {
            name: "Orkut",
            tag: "OK",
            vertices: 3_000_000,
            edges: 106_000_000,
            kind: DatasetKind::Directed,
            seed: seeds::OK,
        }
    }

    /// Netflix: 480 K users × 17.8 K movies, 99 M ratings.
    #[must_use]
    pub fn netflix() -> Self {
        DatasetSpec {
            name: "Netflix",
            tag: "NF",
            vertices: 480_000 + 17_800,
            edges: 99_000_000,
            kind: DatasetKind::Bipartite {
                users: 480_000,
                items: 17_800,
            },
            seed: seeds::NF,
        }
    }

    /// The full Table 3 catalog, in the paper's order.
    #[must_use]
    pub fn catalog() -> Vec<DatasetSpec> {
        vec![
            Self::wiki_vote(),
            Self::slashdot(),
            Self::amazon(),
            Self::web_google(),
            Self::live_journal(),
            Self::orkut(),
            Self::netflix(),
        ]
    }

    /// The six directed datasets used by PR/BFS/SSSP/SpMV.
    #[must_use]
    pub fn directed_catalog() -> Vec<DatasetSpec> {
        Self::catalog()
            .into_iter()
            .filter(|d| d.kind == DatasetKind::Directed)
            .collect()
    }

    /// Looks a dataset up by tag (case-insensitive).
    #[must_use]
    pub fn by_tag(tag: &str) -> Option<DatasetSpec> {
        Self::catalog()
            .into_iter()
            .find(|d| d.tag.eq_ignore_ascii_case(tag))
    }

    /// Full-scale density `|E| / |V|²`.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.edges as f64 / (self.vertices as f64 * self.vertices as f64)
    }

    /// The dimensions after applying a linear `scale` (vertex and edge
    /// counts both multiplied by `scale`, minimum 16 vertices / 16 edges).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    #[must_use]
    pub fn scaled_dimensions(&self, scale: f64) -> (usize, usize) {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        let v = ((self.vertices as f64 * scale) as usize).max(16);
        let e = ((self.edges as f64 * scale) as usize).max(16);
        (v, e)
    }

    /// Generates the synthetic clone at the given linear scale.
    ///
    /// Directed datasets use R-MAT with Graph500 skew and integer weights
    /// in `\[1, 64\]` (so SSSP is exercised with non-trivial weights that are
    /// exact in 16-bit fixed point). Netflix uses the planted low-rank
    /// bipartite generator; users and items scale proportionally.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    #[must_use]
    pub fn generate(&self, scale: f64) -> EdgeList {
        let (v, e) = self.scaled_dimensions(scale);
        match self.kind {
            DatasetKind::Directed => Rmat::new(v, e)
                .seed(self.seed)
                .max_weight(64)
                .self_loops(false)
                .generate(),
            DatasetKind::Bipartite { users, items } => {
                let su = ((users as f64 * scale) as usize).max(8);
                let si = ((items as f64 * scale) as usize).max(8);
                RatingMatrix::new(su, si, e)
                    .seed(self.seed)
                    .generate()
                    .into_graph()
            }
        }
    }

    /// The cache/registry name of this dataset at `scale` — tag and scale
    /// together, so different scales never collide.
    #[must_use]
    pub fn scaled_name(&self, scale: f64) -> String {
        format!("{}@{scale}", self.tag)
    }

    /// The scaled user/item split for bipartite datasets, `None` otherwise.
    #[must_use]
    pub fn scaled_bipartite(&self, scale: f64) -> Option<(usize, usize)> {
        match self.kind {
            DatasetKind::Bipartite { users, items } => Some((
                ((users as f64 * scale) as usize).max(8),
                ((items as f64 * scale) as usize).max(8),
            )),
            DatasetKind::Directed => None,
        }
    }
}

/// A stable graph identity: a human-readable name plus a content
/// fingerprint. Hashable and cheap to clone, so service layers (the
/// `graphr-runtime` session) can key preprocessed-graph caches on it
/// without re-hashing edge lists on every lookup.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId {
    name: String,
    fingerprint: u64,
}

impl GraphId {
    /// The human-readable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The content fingerprint (FNV-1a over dimensions and edges).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl std::fmt::Display for GraphId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{:016x}", self.name, self.fingerprint)
    }
}

/// A registered graph: shared edge list plus its [`GraphId`] and optional
/// bipartite split. This is the unit the runtime's job API passes around —
/// cloning is an `Arc` bump, and the id survives as a cache key after the
/// graph itself is dropped.
#[derive(Debug, Clone)]
pub struct GraphHandle {
    id: GraphId,
    graph: Arc<EdgeList>,
    bipartite: Option<(usize, usize)>,
}

impl GraphHandle {
    /// Wraps a graph under `name`, fingerprinting its content.
    #[must_use]
    pub fn new(name: impl Into<String>, graph: EdgeList) -> Self {
        Self::build(name.into(), graph, None)
    }

    /// Wraps a bipartite (rating) graph with its user/item split.
    ///
    /// # Panics
    ///
    /// Panics if `users + items` does not match the vertex count.
    #[must_use]
    pub fn bipartite(name: impl Into<String>, graph: EdgeList, users: usize, items: usize) -> Self {
        assert_eq!(
            users + items,
            graph.num_vertices(),
            "bipartite split must cover all vertices"
        );
        Self::build(name.into(), graph, Some((users, items)))
    }

    /// Generates and wraps a Table 3 dataset clone at `scale`; the name
    /// encodes tag and scale so different scales never collide in caches.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    #[must_use]
    pub fn from_spec(spec: &DatasetSpec, scale: f64) -> Self {
        let graph = spec.generate(scale);
        Self::build(spec.scaled_name(scale), graph, spec.scaled_bipartite(scale))
    }

    fn build(name: String, graph: EdgeList, bipartite: Option<(usize, usize)>) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |word: u64| {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(graph.num_vertices() as u64);
        mix(graph.num_edges() as u64);
        for e in graph.iter() {
            mix(u64::from(e.src) << 32 | u64::from(e.dst));
            mix(u64::from(e.weight.to_bits()));
        }
        GraphHandle {
            id: GraphId {
                name,
                fingerprint: h,
            },
            graph: Arc::new(graph),
            bipartite,
        }
    }

    /// The graph's stable identity.
    #[must_use]
    pub fn id(&self) -> &GraphId {
        &self.id
    }

    /// The edge list.
    #[must_use]
    pub fn graph(&self) -> &EdgeList {
        &self.graph
    }

    /// The shared edge list.
    #[must_use]
    pub fn shared(&self) -> Arc<EdgeList> {
        Arc::clone(&self.graph)
    }

    /// The `(users, items)` split for bipartite graphs.
    #[must_use]
    pub fn bipartite_dims(&self) -> Option<(usize, usize)> {
        self.bipartite
    }
}

/// A name-keyed collection of [`GraphHandle`]s — the dataset registry a
/// long-lived service hangs its loaded graphs on.
#[derive(Debug, Default)]
pub struct GraphRegistry {
    handles: HashMap<String, GraphHandle>,
}

impl GraphRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        GraphRegistry::default()
    }

    /// Registers a handle under its id name, returning the previous holder
    /// of the name, if any.
    pub fn insert(&mut self, handle: GraphHandle) -> Option<GraphHandle> {
        self.handles.insert(handle.id().name().to_owned(), handle)
    }

    /// Looks a handle up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&GraphHandle> {
        self.handles.get(name)
    }

    /// Generates, registers, and returns a Table 3 dataset clone (no-op if
    /// the same name is already registered).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn load_spec(&mut self, spec: &DatasetSpec, scale: f64) -> &GraphHandle {
        self.handles
            .entry(spec.scaled_name(scale))
            .or_insert_with(|| GraphHandle::from_spec(spec, scale))
    }

    /// Number of registered graphs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Iterates over the registered handles in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &GraphHandle> {
        self.handles.values()
    }
}

/// Per-dataset generator seeds (the dataset tag in ASCII), fixed so every
/// run of the harness sees the identical clone.
mod seeds {
    pub const WV: u64 = 0x5756;
    pub const SD: u64 = 0x5344;
    pub const AZ: u64 = 0x415A;
    pub const WG: u64 = 0x5747;
    pub const LJ: u64 = 0x4C4A;
    pub const OK: u64 = 0x4F4B;
    pub const NF: u64 = 0x4E46;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table3() {
        let c = DatasetSpec::catalog();
        assert_eq!(c.len(), 7);
        let wv = DatasetSpec::by_tag("wv").unwrap();
        assert_eq!(wv.vertices, 7_000);
        assert_eq!(wv.edges, 103_000);
        let nf = DatasetSpec::by_tag("NF").unwrap();
        assert_eq!(nf.edges, 99_000_000);
        assert!(matches!(
            nf.kind,
            DatasetKind::Bipartite {
                users: 480_000,
                items: 17_800
            }
        ));
        assert!(DatasetSpec::by_tag("zz").is_none());
    }

    #[test]
    fn density_ordering_matches_paper_figure21() {
        // WV is densest; LJ sparsest of the PR/SSSP line-up.
        let d = |tag: &str| DatasetSpec::by_tag(tag).unwrap().density();
        assert!(d("WV") > d("SD"));
        assert!(d("SD") > d("AZ"));
        assert!(d("AZ") > d("WG"));
        assert!(d("WG") > d("LJ"));
    }

    #[test]
    fn scaled_generation_matches_dimensions() {
        let spec = DatasetSpec::wiki_vote();
        let g = spec.generate(0.01);
        let (v, e) = spec.scaled_dimensions(0.01);
        assert_eq!(g.num_vertices(), v);
        assert_eq!(g.num_edges(), e);
        assert_eq!(v, 70);
        assert_eq!(e, 1030);
    }

    #[test]
    fn scaling_preserves_density_ordering() {
        let scale = 0.005;
        let mut densities: Vec<f64> = DatasetSpec::directed_catalog()
            .iter()
            .map(|s| s.generate(scale).density())
            .collect();
        // Catalog order is WV, SD, AZ, WG, LJ, OK; the first five must be
        // strictly decreasing (OK sits between AZ and WG in density).
        let first_five = &densities[..5];
        let mut sorted = first_five.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(first_five, sorted.as_slice());
        densities.truncate(5);
    }

    #[test]
    fn bipartite_clone_has_user_item_structure() {
        let spec = DatasetSpec::netflix();
        let (users, items) = spec.scaled_bipartite(0.001).unwrap();
        let g = spec.generate(0.001);
        assert_eq!(g.num_vertices(), users + items);
        assert!(g
            .iter()
            .all(|e| (e.src as usize) < users && (e.dst as usize) >= users));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::slashdot();
        assert_eq!(spec.generate(0.002), spec.generate(0.002));
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_zero_scale() {
        let _ = DatasetSpec::wiki_vote().scaled_dimensions(0.0);
    }

    #[test]
    fn handles_fingerprint_content() {
        let spec = DatasetSpec::wiki_vote();
        let a = GraphHandle::from_spec(&spec, 0.01);
        let b = GraphHandle::from_spec(&spec, 0.01);
        // Same content → same id (usable as a cache key across loads).
        assert_eq!(a.id(), b.id());
        let c = GraphHandle::from_spec(&spec, 0.02);
        assert_ne!(a.id(), c.id());
        // Same dimensions but different content → different fingerprint.
        let d1 = GraphHandle::new(
            "x",
            crate::generators::rmat::Rmat::new(64, 128)
                .seed(1)
                .generate(),
        );
        let d2 = GraphHandle::new(
            "x",
            crate::generators::rmat::Rmat::new(64, 128)
                .seed(2)
                .generate(),
        );
        assert_eq!(d1.id().name(), d2.id().name());
        assert_ne!(d1.id().fingerprint(), d2.id().fingerprint());
    }

    #[test]
    fn bipartite_handles_carry_the_split() {
        let spec = DatasetSpec::netflix();
        let h = GraphHandle::from_spec(&spec, 0.001);
        let (users, items) = h.bipartite_dims().unwrap();
        assert_eq!(users + items, h.graph().num_vertices());
        assert!(GraphHandle::new("d", EdgeList::new(4))
            .bipartite_dims()
            .is_none());
    }

    #[test]
    fn registry_loads_specs_once() {
        let mut reg = GraphRegistry::new();
        assert!(reg.is_empty());
        let id = reg.load_spec(&DatasetSpec::wiki_vote(), 0.01).id().clone();
        let again = reg.load_spec(&DatasetSpec::wiki_vote(), 0.01).id().clone();
        assert_eq!(id, again);
        assert_eq!(reg.len(), 1);
        reg.load_spec(&DatasetSpec::slashdot(), 0.01);
        assert_eq!(reg.len(), 2);
        assert!(reg.get("WV@0.01").is_some());
        assert!(reg.get("nope").is_none());
        assert_eq!(reg.iter().count(), 2);
    }
}

//! Time/energy/event accounting for a GraphR run.
//!
//! The paper's performance model is event-count based (§5.2: NVSim scalars
//! for ReRAM, CACTI for registers, an ADC survey for converters, "system
//! performance is modeled by code instrumentation"). [`Metrics`] is that
//! instrumentation: the executor counts architectural events and charges
//! time and energy through `graphr-reram`'s [`CostModel`]
//! (re-exported scalars of the same published sources).
//!
//! [`CostModel`]: graphr_reram::CostModel

use std::fmt;

use graphr_reram::CostBreakdown;
use graphr_units::{Joules, Nanos};
use serde::{Deserialize, Serialize};

use crate::json::JsonObject;

/// How a counter composes when two runs' metrics merge, and what its
/// per-iteration delta means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeRule {
    /// Counts add; a delta is the plain difference.
    Sum,
    /// A running maximum; a delta carries the maximum observed so far.
    Max,
    /// Host-measured wall-clock: adds like [`MergeRule::Sum`], but is
    /// left out of equality (the determinism contract covers simulated
    /// values only) and its JSON key carries a `host_` prefix.
    Host,
}

/// One counter's value, tagged with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CounterValue {
    /// An event count.
    Count(u64),
    /// A duration.
    Time(Nanos),
    /// An energy.
    Energy(Joules),
}

impl From<u64> for CounterValue {
    fn from(n: u64) -> Self {
        CounterValue::Count(n)
    }
}

impl From<Nanos> for CounterValue {
    fn from(t: Nanos) -> Self {
        CounterValue::Time(t)
    }
}

impl From<Joules> for CounterValue {
    fn from(e: Joules) -> Self {
        CounterValue::Energy(e)
    }
}

/// The JSON number: the count, nanoseconds, or joules.
impl fmt::Display for CounterValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterValue::Count(n) => write!(f, "{n}"),
            CounterValue::Time(t) => write!(f, "{}", t.as_nanos()),
            CounterValue::Energy(e) => write!(f, "{}", e.as_joules()),
        }
    }
}

/// One field of a counter family, as the family's `fields()` visitor
/// yields it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterField {
    /// The Rust field name.
    pub name: &'static str,
    /// How the field merges.
    pub rule: MergeRule,
    /// The field's value.
    pub value: CounterValue,
}

impl CounterField {
    /// The field's JSON key: the field name, plus `_ns` for a time and
    /// `_j` for an energy, with a `host_` prefix on a host-measured
    /// field.
    #[must_use]
    pub fn json_key(&self) -> String {
        let host = if self.rule == MergeRule::Host {
            "host_"
        } else {
            ""
        };
        let unit = match self.value {
            CounterValue::Count(_) => "",
            CounterValue::Time(_) => "_ns",
            CounterValue::Energy(_) => "_j",
        };
        format!("{host}{}{unit}", self.name)
    }
}

/// Writes one counter family as a JSON object keyed by
/// [`CounterField::json_key`], in declaration order.
pub(crate) fn write_counters(out: &mut String, fields: impl IntoIterator<Item = CounterField>) {
    let mut obj = JsonObject::open(out);
    for field in fields {
        obj.raw(&field.json_key(), field.value);
    }
    obj.close();
}

/// Test-only values for a counter of each unit: `n` for a count, `n / 4`
/// for a time or an energy (exact in `f64`, and not all integers).
#[cfg(test)]
pub(crate) trait TestValue {
    fn test_value(n: u64) -> Self;
}

#[cfg(test)]
impl TestValue for u64 {
    fn test_value(n: u64) -> Self {
        n
    }
}

#[cfg(test)]
impl TestValue for Nanos {
    fn test_value(n: u64) -> Self {
        Nanos::new(n as f64 / 4.0)
    }
}

#[cfg(test)]
impl TestValue for Joules {
    fn test_value(n: u64) -> Self {
        Joules::new(n as f64 / 4.0)
    }
}

/// Declares a counter family once: the struct exactly as written (minus
/// each field's `=> Rule`), plus `merge`, `delta_since` and the `fields()`
/// visitor, all generated from the one field list. Each field names its
/// [`MergeRule`]. The generated `merge` is straight-line field
/// arithmetic: the executors call it once per planned unit.
macro_rules! counter_family {
    (
        $(#[$attr:meta])*
        pub struct $family:ident {
            $(
                $(#[$doc:meta])*
                pub $field:ident: $ty:ty => $rule:ident,
            )*
        }
    ) => {
        $(#[$attr])*
        pub struct $family {
            $(
                $(#[$doc])*
                pub $field: $ty,
            )*
        }

        impl $family {
            /// Folds `other` into `self`: `Sum` and `Host` fields add, a
            /// `Max` field keeps the larger value.
            #[inline]
            pub fn merge(&mut self, other: &$family) {
                $( counter_family!(@merge $rule, self.$field, other.$field); )*
            }

            /// What accumulated on top of `prev`, an earlier snapshot of
            /// the same run — the inverse of [`merge`](Self::merge):
            /// `Sum` and `Host` fields are plain differences, a `Max`
            /// field carries the maximum observed so far.
            #[must_use]
            pub fn delta_since(&self, prev: &$family) -> $family {
                $family {
                    $( $field: counter_family!(@delta $rule, self.$field, prev.$field), )*
                }
            }

            /// Every field in declaration order, with its merge rule.
            pub fn fields(&self) -> impl Iterator<Item = CounterField> {
                [$(
                    CounterField {
                        name: stringify!($field),
                        rule: MergeRule::$rule,
                        value: self.$field.into(),
                    },
                )*]
                .into_iter()
            }

            /// A value with field `i` (in declaration order) set from the
            /// `i`-th call of `next`, through [`TestValue`].
            #[cfg(test)]
            pub(crate) fn from_counts(mut next: impl FnMut() -> u64) -> $family {
                $family {
                    $( $field: TestValue::test_value(next()), )*
                }
            }
        }
    };
    (@merge Max, $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    (@merge $rule:ident, $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@delta Max, $now:expr, $prev:expr) => { $now };
    (@delta $rule:ident, $now:expr, $prev:expr) => { $now - $prev };
}

counter_family! {
    /// Raw architectural event counts.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
    pub struct EventCounters {
        /// Subgraphs actually streamed through the GEs.
        pub subgraphs_processed: u64 => Sum,
        /// Subgraph slots skipped because they contain no edges (§3.3).
        pub subgraphs_skipped_empty: u64 => Sum,
        /// Subgraph slots with edges but no active source (add-op only).
        pub subgraphs_skipped_inactive: u64 => Sum,
        /// Nonempty subgraphs a pruned [`ScanPlan`] excluded before any
        /// streaming happened — the source-range index let the controller seek
        /// past them entirely (§4.2 taken to its logical end).
        ///
        /// [`ScanPlan`]: crate::exec::plan::ScanPlan
        pub subgraphs_pruned: u64 => Sum,
        /// Edges inside pruned subgraphs: never streamed, never charged.
        pub edges_pruned: u64 => Sum,
        /// Logical tiles programmed.
        pub tiles_loaded: u64 => Sum,
        /// Edge values programmed into tiles (one per edge per programming
        /// pass).
        pub edges_loaded: u64 => Sum,
        /// Tile-level MVM evaluations.
        pub mvm_scans: u64 => Sum,
        /// Serial wordline activations (add-op pattern).
        pub rows_activated: u64 => Sum,
        /// ADC conversions.
        pub adc_conversions: u64 => Sum,
        /// sALU operations.
        pub salu_ops: u64 => Sum,
        /// RegI/RegO reads.
        pub register_reads: u64 => Sum,
        /// RegI/RegO writes.
        pub register_writes: u64 => Sum,
        /// Bytes streamed from memory ReRAM into GEs.
        pub bytes_streamed: u64 => Sum,
        /// RegO capacity the run required, in entries (the §3.3 column- vs
        /// row-major argument).
        pub rego_capacity_required: u64 => Max,
    }
}

counter_family! {
    /// Incremental-planner accounting: how each iteration's [`ScanPlan`] was
    /// obtained, filled in by the engines'
    /// [`Planner`](crate::exec::planner::Planner) (all-zero for runs that
    /// never plan from a mask).
    ///
    /// A *full rebuild* walks the whole span table (`O(units)`); a *delta
    /// patch* re-derives only the strip units the frontier delta touched,
    /// carrying the rest into the new plan as shared `Arc`s
    /// (`units_reused`). The two paths produce bit-identical plans — these
    /// counters report the planning *cost*, not the plan.
    ///
    /// `time` is **host** wall-clock spent planning (the quantity the delta
    /// path exists to shrink), measured on whatever machine ran the
    /// simulation. It is deliberately excluded from equality: the
    /// determinism contract covers simulated results and accounting, which
    /// must not depend on host timing jitter. It is the **only** host-measured
    /// field inside the otherwise fully simulated [`Metrics`]; the trace
    /// subsystem mirrors the same split — host-side timestamps live in
    /// [`HostTimes`](crate::trace::HostTimes) and are likewise excluded from
    /// [`TraceEvent`](crate::trace::TraceEvent) equality.
    ///
    /// [`ScanPlan`]: crate::exec::plan::ScanPlan
    #[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
    pub struct PlanCounters {
        /// Plans built by walking the whole span table (first mask, or a
        /// delta too dense to be worth patching).
        pub full_rebuilds: u64 => Sum,
        /// Plans produced by patching the previous plan with the frontier
        /// delta.
        pub delta_patches: u64 => Sum,
        /// Planned units carried between consecutive plans as shared `Arc`s
        /// (cumulative over delta patches).
        pub units_reused: u64 => Sum,
        /// Units re-derived by delta patches (cumulative).
        pub units_patched: u64 => Sum,
        /// Frontier-mask words examined while deriving per-chunk activity
        /// (full derivations and delta re-checks alike).
        pub mask_words: u64 => Sum,
        /// Word spans proven inactive wholesale through the mask's summary
        /// level — regions whose chunks were settled without reading a
        /// single dense word.
        pub summary_skips: u64 => Sum,
        /// Driver-supplied [`FrontierDelta`](crate::exec::mask::FrontierDelta)
        /// word entries consumed by `plan_with_delta` — the planner's input
        /// size on the incremental path.
        pub delta_words: u64 => Sum,
        /// Host wall-clock spent planning (excluded from equality; see the
        /// type docs).
        pub time: Nanos => Host,
    }
}

/// Compares every simulated field: [`MergeRule::Host`] fields are host
/// jitter, so two runs that planned identically are equal.
impl PartialEq for PlanCounters {
    fn eq(&self, other: &Self) -> bool {
        self.fields()
            .zip(other.fields())
            .all(|(a, b)| a.rule == MergeRule::Host || a.value == b.value)
    }
}

counter_family! {
    /// Wall-clock decomposition (raw per-phase sums; with pipelining the
    /// effective total is less than the sum of parts).
    #[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
    pub struct TimeBreakdown {
        /// Tile programming (edge loading through drivers).
        pub program: Nanos => Sum,
        /// MVM + ADC drain (GE cycles).
        pub compute: Nanos => Sum,
        /// Memory-ReRAM streaming of edge data.
        pub memory: Nanos => Sum,
        /// Strip write-back / apply.
        pub apply: Nanos => Sum,
    }
}

impl TimeBreakdown {
    /// Sum of the raw phases (the unpipelined upper bound).
    #[must_use]
    pub fn serial_total(&self) -> Nanos {
        self.program + self.compute + self.memory + self.apply
    }
}

counter_family! {
    /// Plan-aware out-of-core disk accounting, filled in only when a run
    /// executes under a [`DiskModel`] (all-zero otherwise).
    ///
    /// Every executed [`ScanPlan`] contributes its
    /// [`IoPlan`](crate::outofcore::IoPlan) — planned bytes loaded
    /// sequentially, pruned blocks seeked past — and each iteration's loads
    /// are overlapped against that iteration's compute. Under a prefetching
    /// model ([`DiskModel::prefetch`]) the
    /// [`ScanDriver`](crate::outofcore::driver::ScanDriver) additionally
    /// reads ahead during compute-bound iterations' idle I/O-lane time:
    /// `bytes_loaded`, `blocks_*`, `io_segments`, and `time` still describe
    /// the *full* per-scan [`IoPlan`](crate::outofcore::IoPlan)s
    /// (bit-identical with prefetch off),
    /// while `demand_time` and `overlapped` describe what the compute lane
    /// actually waited on after prefetched segments were served from the
    /// read-ahead buffer. See
    /// [`DiskAccountant`](crate::outofcore::DiskAccountant).
    ///
    /// [`DiskModel`]: crate::outofcore::DiskModel
    /// [`DiskModel::prefetch`]: crate::outofcore::DiskModel::prefetch
    /// [`ScanPlan`]: crate::exec::plan::ScanPlan
    #[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
    pub struct DiskCounters {
        /// Bytes of edge data loaded from disk (planned subgraphs only).
        pub bytes_loaded: u64 => Sum,
        /// On-disk blocks loaded (cumulative across iterations).
        pub blocks_loaded: u64 => Sum,
        /// On-disk blocks seeked past — pruned or empty, charged only the
        /// per-block latency (cumulative across iterations).
        pub blocks_seeked: u64 => Sum,
        /// Sequential-read segments issued (cumulative across iterations).
        pub io_segments: u64 => Sum,
        /// Total disk-load time across all iterations, priced from the full
        /// per-scan [`IoPlan`]s (what a driver without read-ahead services;
        /// unchanged by prefetch).
        ///
        /// [`IoPlan`]: crate::outofcore::IoPlan
        pub time: Nanos => Sum,
        /// Disk time the compute lane actually waited on: the synchronous
        /// *demand* fetches after prefetched segments were served at zero
        /// marginal latency. Equal to [`DiskCounters::time`] whenever
        /// nothing was prefetched; never above it (the driver falls back to
        /// the full sequential walk when targeted fetching would cost more).
        pub demand_time: Nanos => Sum,
        /// Out-of-core total with per-iteration double buffering:
        /// `Σ_iterations max(compute, demand disk)`.
        pub overlapped: Nanos => Sum,
        /// Bytes read ahead by the I/O lane during idle windows (speculative
        /// loads of previously-planned segments; a subset of `bytes_loaded`
        /// byte-ranges, so never above it).
        pub bytes_prefetched: u64 => Sum,
        /// Prefetched segments at least partly consumed by a later scan
        /// (each counts once, when first served).
        pub prefetch_hits: u64 => Sum,
        /// Prefetched bytes the consuming iteration never asked for
        /// (discarded when its window closed).
        pub prefetch_wasted: u64 => Sum,
    }
}

impl DiskCounters {
    /// Whether any disk activity was accounted (a [`DiskModel`] was
    /// attached to the run's engine).
    ///
    /// [`DiskModel`]: crate::outofcore::DiskModel
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.blocks_loaded + self.blocks_seeked > 0
    }

    /// The disk pressure the compute lane experienced: `demand_time`
    /// when the accountant filled it in, falling back to the full
    /// `time` for counters assembled without demand accounting (all
    /// pre-prefetch producers, and hand-built test fixtures).
    #[must_use]
    pub fn demand_pressure(&self) -> Nanos {
        if self.demand_time.is_zero() {
            self.time
        } else {
            self.demand_time
        }
    }

    /// Whether the disk, not the accelerator, bounds the deployment
    /// (`compute` is the run's [`Metrics::total_time`]). Judged on the
    /// *demand* pressure, so a run whose prefetcher hides its loads
    /// classifies compute-bound even though the full load time exceeds
    /// compute.
    #[must_use]
    pub fn is_disk_bound(&self, compute: Nanos) -> bool {
        self.demand_pressure() > compute
    }

    /// These counters with every prefetch-dependent field normalized
    /// away: the read-ahead counters zeroed, `demand_time` collapsed to
    /// the full load time, and `overlapped` (a function of demand)
    /// cleared. Two runs differing only in [`DiskModel::prefetch`] must
    /// agree on everything this keeps — the prefetch side of the
    /// determinism contract, pinned by `tests/disk_prefetch.rs`.
    ///
    /// [`DiskModel::prefetch`]: crate::outofcore::DiskModel::prefetch
    #[must_use]
    pub fn sans_prefetch(&self) -> DiskCounters {
        DiskCounters {
            demand_time: self.time,
            overlapped: Nanos::ZERO,
            bytes_prefetched: 0,
            prefetch_hits: 0,
            prefetch_wasted: 0,
            ..*self
        }
    }
}

counter_family! {
    /// Plan-aware multi-node interconnect accounting, filled in only when a
    /// run executes on a [`ClusterExecutor`](crate::multinode::ClusterExecutor)
    /// with more than one node (all-zero otherwise — a one-node cluster has no
    /// interconnect, which is what keeps it bit-identical to the single-node
    /// engine).
    ///
    /// Each iteration's property exchange is charged only for the vertices the
    /// iteration's planned subgraphs actually touched: the `updated` frontier
    /// delta for the add-op applications (BFS, SSSP, WCC), the planned units'
    /// destination coverage for the MAC applications (PageRank, SpMV, CF).
    /// The dense `|V| × 2`-byte all-gather of
    /// [`estimate_pagerank_scaling`](crate::multinode::estimate_pagerank_scaling)
    /// is the documented upper bound these counters never exceed.
    #[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
    pub struct NetCounters {
        /// Property bytes exchanged between nodes (16-bit properties of
        /// touched vertices, cumulative across iterations).
        pub bytes_exchanged: u64 => Sum,
        /// Property exchanges performed (iterations that updated anything).
        pub exchanges: u64 => Sum,
        /// Total exchange time across all iterations (latency + transfer).
        pub time: Nanos => Sum,
        /// Composed cluster total: `Σ_iterations max(per-node scan [+ disk
        /// overlap]) + exchange` — the cluster's effective wall-clock.
        pub overlapped: Nanos => Sum,
        /// Interconnect energy (per-byte link crossings over all nodes).
        pub energy: Joules => Sum,
    }
}

impl NetCounters {
    /// Whether any interconnect activity was accounted (the run executed
    /// on a cluster with more than one node).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.exchanges > 0
    }

    /// Whether the interconnect, not the bottleneck node, bounds the
    /// cluster. `compute` is the run's compute time *excluding* exchange
    /// — for a cluster run's composed [`Metrics`] that is
    /// `total_time() - net.time`, since the composed elapsed already
    /// includes each iteration's exchange.
    #[must_use]
    pub fn is_network_bound(&self, compute: Nanos) -> bool {
        self.time > compute
    }
}

counter_family! {
    /// Per-query attribution of a traversal run: one row per frontier lane,
    /// recovered from the lane masks by the `sim` drivers (see
    /// [`LaneFrontier`](crate::exec::lanes::LaneFrontier)).
    ///
    /// A fused K-query run carries K rows; the single-query traversal
    /// drivers fill exactly one, so a fused run's attribution is comparable
    /// row-for-row against K independent runs — that equality is part of the
    /// fusion determinism contract. Machine-level accounting (time, energy,
    /// events) stays *fused*: the point of lane fusion is that one scan of
    /// the edge stream serves every query, so those costs are charged once
    /// and only the per-query frontier statistics are attributed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
    pub struct LaneCounters {
        /// Iterations in which this lane's frontier was active going in (for
        /// a single-query run this equals [`Metrics::iterations`]; a fused
        /// lane may settle earlier than the batch).
        pub iterations: u64 => Sum,
        /// Sum of the lane's post-iteration frontier populations.
        pub frontier_total: u64 => Sum,
        /// Largest post-iteration frontier population the lane reached.
        pub frontier_peak: u64 => Max,
        /// Vertices settled by the query: reached for BFS/SSSP (labelled
        /// below the format maximum), relabelled below their own id for WCC.
        pub settled: u64 => Sum,
    }
}

/// Complete accounting of one GraphR run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Iterations (vertex-program supersteps, epochs for CF).
    pub iterations: usize,
    /// Effective wall-clock (pipelining applied).
    pub elapsed: Nanos,
    /// Raw per-phase time sums.
    pub time_breakdown: TimeBreakdown,
    /// Energy by component.
    pub energy: CostBreakdown,
    /// Raw event counts.
    pub events: EventCounters,
    /// Plan-aware out-of-core disk accounting (zero unless the engine ran
    /// under a disk model).
    pub disk: DiskCounters,
    /// Plan-aware multi-node interconnect accounting (zero unless the run
    /// executed on a cluster with more than one node).
    pub net: NetCounters,
    /// Incremental-planner accounting (zero unless the run planned from
    /// activity masks).
    pub plan: PlanCounters,
    /// Per-query lane attribution (empty unless a traversal driver ran —
    /// single-query drivers fill one row, fused drivers one per lane).
    pub lanes: Vec<LaneCounters>,
}

impl Metrics {
    /// Creates zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Effective wall-clock time of the run.
    #[must_use]
    pub fn total_time(&self) -> Nanos {
        self.elapsed
    }

    /// Total energy of the run: the node components plus any interconnect
    /// energy (nonzero only for multi-node cluster runs).
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.energy.total() + self.net.energy
    }

    /// Average power over the run.
    ///
    /// # Panics
    ///
    /// Panics (via division semantics: returns non-finite) only when the
    /// run has zero elapsed time; callers report runs that did work.
    #[must_use]
    pub fn average_power(&self) -> graphr_units::Watts {
        self.total_energy().averaged_over(self.elapsed)
    }

    /// Fraction of subgraph slots skipped (empty + inactive + plan-pruned)
    /// out of all slots considered.
    #[must_use]
    pub fn skip_fraction(&self) -> f64 {
        let skipped = self.events.subgraphs_skipped_empty
            + self.events.subgraphs_skipped_inactive
            + self.events.subgraphs_pruned;
        let total = skipped + self.events.subgraphs_processed;
        if total == 0 {
            0.0
        } else {
            skipped as f64 / total as f64
        }
    }

    /// Internal-consistency check of the accounting, so tests can make
    /// bookkeeping bugs fail loudly instead of silently skewing results.
    ///
    /// Checked invariants (all context-free — they must hold for any
    /// engine, serial, parallel, or cluster-composed):
    ///
    /// * [`Metrics::skip_fraction`] lies in `[0, 1]`,
    /// * every loaded edge was streamed past the scanner
    ///   (`bytes_streamed ≥ edges_loaded × BYTES_PER_EDGE`; add-op scans
    ///   stream inactive subgraphs without loading them, so `≥` not `=`),
    /// * planner counters are consistent: patched/reused units imply at
    ///   least one delta patch,
    /// * disk: an inactive model left every disk counter zero; the
    ///   double-buffered overlap is never less than the demand time it
    ///   overlaps (`overlapped = Σ max(compute, demand) ≥ Σ demand`,
    ///   and `≥ time` when nothing was prefetched, since demand then
    ///   equals the full load time); prefetch stays within what was
    ///   planned (`demand_time ≤ time`, `bytes_prefetched ≤
    ///   bytes_loaded`, `prefetch_hits ≤ io_segments`,
    ///   `prefetch_wasted ≤ bytes_prefetched`),
    /// * net: zero exchanges left every interconnect counter zero, and
    ///   the composed overlap is never less than the exchange time,
    /// * lane attribution rows are self-consistent: at most
    ///   [`MAX_LANES`](crate::exec::lanes::MAX_LANES) rows, each lane
    ///   active for no more iterations than the run had, its peak within
    ///   its total, its total within `iterations × peak` (a settled lane
    ///   stops accumulating frontier populations — so a never-active lane
    ///   has no frontier accounting at all), and `settled` within
    ///   `frontier_total + 1` (every settled vertex except the source
    ///   appeared in at least one post-iteration frontier).
    ///
    /// Partition checks that need plan context (planned + pruned = graph
    /// totals) live in the integration tests, which hold the plans.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        // Nanos sums of per-window maxima are compared against sums of
        // the window terms; float accumulation order may differ, so the
        // ordering checks tolerate a relative epsilon.
        fn not_less(bigger: Nanos, smaller: Nanos) -> bool {
            bigger.as_nanos() >= smaller.as_nanos() * (1.0 - 1e-9) - f64::EPSILON
        }
        let sf = self.skip_fraction();
        if !(0.0..=1.0).contains(&sf) {
            return Err(format!("skip_fraction {sf} outside [0, 1]"));
        }
        let ev = &self.events;
        let loaded_bytes = ev.edges_loaded * graphr_graph::BYTES_PER_EDGE;
        if ev.bytes_streamed < loaded_bytes {
            return Err(format!(
                "streamed {} bytes but loaded {} edge bytes: loads must stream",
                ev.bytes_streamed, loaded_bytes
            ));
        }
        let p = &self.plan;
        if (p.units_patched > 0 || p.units_reused > 0) && p.delta_patches == 0 {
            return Err(format!(
                "planner touched units without any delta patch: {p:?}"
            ));
        }
        if (p.mask_words > 0 || p.summary_skips > 0 || p.delta_words > 0)
            && p.full_rebuilds + p.delta_patches == 0
        {
            return Err(format!(
                "planner examined mask words without producing any plan: {p:?}"
            ));
        }
        let d = &self.disk;
        if !d.is_active() && (d.bytes_loaded > 0 || d.io_segments > 0 || d.time > Nanos::ZERO) {
            return Err(format!(
                "disk counters nonzero without block activity: {d:?}"
            ));
        }
        if d.bytes_prefetched == 0 && !not_less(d.overlapped, d.time) {
            return Err(format!(
                "disk overlap {} below the disk time {} it overlaps",
                d.overlapped, d.time
            ));
        }
        if !not_less(d.overlapped, d.demand_time) {
            return Err(format!(
                "disk overlap {} below the demand time {} it overlaps",
                d.overlapped, d.demand_time
            ));
        }
        if !not_less(d.time, d.demand_time) {
            return Err(format!(
                "disk demand time {} above the full load time {}: the \
                 driver may serve prefetched segments, never invent work",
                d.demand_time, d.time
            ));
        }
        if d.bytes_prefetched > d.bytes_loaded {
            return Err(format!(
                "prefetched {} bytes but only {} were ever planned: \
                 read-ahead must stay within planned spans",
                d.bytes_prefetched, d.bytes_loaded
            ));
        }
        if d.prefetch_hits > d.io_segments {
            return Err(format!(
                "{} prefetch hits exceed the {} segments ever issued",
                d.prefetch_hits, d.io_segments
            ));
        }
        if d.prefetch_wasted > d.bytes_prefetched {
            return Err(format!(
                "wasted {} prefetched bytes but only {} were prefetched",
                d.prefetch_wasted, d.bytes_prefetched
            ));
        }
        // `net.overlapped` composes the per-window bottleneck even when
        // nothing crossed the wire, so only the exchange-side counters
        // must be zero without exchanges.
        let n = &self.net;
        if !n.is_active() && (n.bytes_exchanged > 0 || n.time > Nanos::ZERO) {
            return Err(format!("net counters nonzero without exchanges: {n:?}"));
        }
        if !not_less(n.overlapped, n.time) {
            return Err(format!(
                "net overlap {} below the exchange time {} it includes",
                n.overlapped, n.time
            ));
        }
        if self.lanes.len() > crate::exec::lanes::MAX_LANES {
            return Err(format!(
                "{} lane rows exceed the {}-lane word width",
                self.lanes.len(),
                crate::exec::lanes::MAX_LANES
            ));
        }
        for (q, lane) in self.lanes.iter().enumerate() {
            if lane.iterations > self.iterations as u64 {
                return Err(format!(
                    "lane {q} claims {} iterations, run had {}",
                    lane.iterations, self.iterations
                ));
            }
            if lane.frontier_peak > lane.frontier_total {
                return Err(format!(
                    "lane {q} peak {} above its total {}",
                    lane.frontier_peak, lane.frontier_total
                ));
            }
            // ≤ iterations post-iteration populations were recorded, each
            // ≤ peak; with iterations == 0 this pins the whole frontier
            // accounting (and, via peak ≤ total, the peak) to zero.
            if lane.frontier_total > lane.frontier_peak.saturating_mul(lane.iterations) {
                return Err(format!(
                    "lane {q} total {} exceeds its {} active iterations x peak {}",
                    lane.frontier_total, lane.iterations, lane.frontier_peak
                ));
            }
            if lane.settled > lane.frontier_total + 1 {
                return Err(format!(
                    "lane {q} settled {} vertices but only {} frontier appearances \
                     (+1 for the source) account for them",
                    lane.settled, lane.frontier_total
                ));
            }
        }
        Ok(())
    }

    /// Charges the end of one algorithm iteration: bumps the counter and
    /// adds the controller's convergence check (one GE cycle). Shared by
    /// every executor so serial and parallel accounting cannot drift.
    pub fn charge_iteration(&mut self, ge_cycle: Nanos) {
        self.iterations += 1;
        self.elapsed += ge_cycle;
    }

    /// Charges one executed plan's pruning outcome: the subgraphs and
    /// edges the plan excluded before any streaming happened. Called once
    /// per scan by every executor, so serial and parallel accounting
    /// cannot drift.
    pub fn charge_plan(&mut self, stats: &crate::exec::plan::PlanStats) {
        self.events.subgraphs_pruned += stats.subgraphs_pruned;
        self.events.edges_pruned += stats.edges_pruned;
    }

    /// Merges another run's metrics into this one (used by multi-scan
    /// algorithms like CF).
    pub fn merge(&mut self, other: &Metrics) {
        self.iterations += other.iterations;
        self.elapsed += other.elapsed;
        self.time_breakdown.merge(&other.time_breakdown);
        self.energy += other.energy;
        self.events.merge(&other.events);
        self.disk.merge(&other.disk);
        self.net.merge(&other.net);
        self.plan.merge(&other.plan);
        if self.lanes.len() < other.lanes.len() {
            self.lanes
                .resize(other.lanes.len(), LaneCounters::default());
        }
        for (mine, theirs) in self.lanes.iter_mut().zip(&other.lanes) {
            mine.merge(theirs);
        }
    }

    /// Serialises the full aggregate as one JSON object. Each counter
    /// family is an object keyed by [`CounterField::json_key`] — the
    /// trace JSONL exporter writes its per-iteration deltas the same
    /// way. `plan.host_time_ns` is the only host-measured field.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut obj = JsonObject::open(&mut out);
        obj.raw("iterations", self.iterations)
            .raw("elapsed_ns", self.elapsed.as_nanos())
            .raw("total_time_ns", self.total_time().as_nanos())
            .raw("total_energy_j", self.total_energy().as_joules())
            .raw("skip_fraction", self.skip_fraction());
        write_counters(obj.key("time"), self.time_breakdown.fields());
        let mut energy = JsonObject::open(obj.key("energy"));
        for (name, joules) in self.energy.components() {
            energy.raw(&format!("{name}_j"), joules.as_joules());
        }
        energy.close();
        write_counters(obj.key("events"), self.events.fields());
        write_counters(obj.key("disk"), self.disk.fields());
        write_counters(obj.key("net"), self.net.fields());
        write_counters(obj.key("plan"), self.plan.fields());
        let lanes = obj.key("lanes");
        lanes.push('[');
        for (q, lane) in self.lanes.iter().enumerate() {
            if q > 0 {
                lanes.push(',');
            }
            write_counters(lanes, lane.fields());
        }
        lanes.push(']');
        obj.close();
        out
    }
}

/// A [`Metrics`] whose every counter-family field holds a distinct nonzero
/// value (`n` counts up in declaration order, through [`TestValue`]), with
/// two lane rows — the fixture the exact-bytes JSON tests pin.
#[cfg(test)]
pub(crate) fn distinct_fixture() -> Metrics {
    let mut n = 0;
    let mut next = || {
        n += 1;
        n
    };
    let time_breakdown = TimeBreakdown::from_counts(&mut next);
    let mut j = || Joules::test_value(next());
    let energy = CostBreakdown {
        program: j(),
        mvm: j(),
        driver: j(),
        adc: j(),
        sample_hold: j(),
        shift_add: j(),
        salu: j(),
        registers: j(),
        memory: j(),
    };
    Metrics {
        iterations: 3,
        elapsed: Nanos::test_value(1000),
        time_breakdown,
        energy,
        events: EventCounters::from_counts(&mut next),
        disk: DiskCounters::from_counts(&mut next),
        net: NetCounters::from_counts(&mut next),
        plan: PlanCounters::from_counts(&mut next),
        lanes: vec![
            LaneCounters::from_counts(&mut next),
            LaneCounters::from_counts(&mut next),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeroed_by_default() {
        let m = Metrics::new();
        assert_eq!(m.iterations, 0);
        assert!(m.total_time().is_zero());
        assert!(m.total_energy().is_zero());
        assert_eq!(m.skip_fraction(), 0.0);
    }

    #[test]
    fn skip_fraction_counts_both_kinds() {
        let mut m = Metrics::new();
        m.events.subgraphs_processed = 6;
        m.events.subgraphs_skipped_empty = 3;
        m.events.subgraphs_skipped_inactive = 1;
        assert_eq!(m.skip_fraction(), 0.4);
    }

    #[test]
    fn merge_accumulates_and_maxes_capacity() {
        let mut a = Metrics::new();
        a.iterations = 2;
        a.elapsed = Nanos::new(100.0);
        a.energy.program = Joules::new(1.0);
        a.events.edges_loaded = 10;
        a.events.rego_capacity_required = 64;
        let mut b = Metrics::new();
        b.iterations = 3;
        b.elapsed = Nanos::new(50.0);
        b.energy.adc = Joules::new(0.5);
        b.events.edges_loaded = 5;
        b.events.rego_capacity_required = 128;
        a.merge(&b);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.elapsed.as_nanos(), 150.0);
        assert_eq!(a.total_energy().as_joules(), 1.5);
        assert_eq!(a.events.edges_loaded, 15);
        assert_eq!(a.events.rego_capacity_required, 128);
    }

    #[test]
    fn merge_accumulates_disk_counters() {
        let mut a = Metrics::new();
        a.disk.bytes_loaded = 100;
        a.disk.blocks_loaded = 2;
        a.disk.time = Nanos::new(5.0);
        a.disk.overlapped = Nanos::new(9.0);
        let mut b = Metrics::new();
        b.disk.bytes_loaded = 50;
        b.disk.blocks_seeked = 3;
        b.disk.io_segments = 4;
        b.disk.time = Nanos::new(2.0);
        b.disk.overlapped = Nanos::new(2.5);
        a.merge(&b);
        assert_eq!(a.disk.bytes_loaded, 150);
        assert_eq!(a.disk.blocks_loaded, 2);
        assert_eq!(a.disk.blocks_seeked, 3);
        assert_eq!(a.disk.io_segments, 4);
        assert_eq!(a.disk.time.as_nanos(), 7.0);
        assert_eq!(a.disk.overlapped.as_nanos(), 11.5);
        assert!(a.disk.is_active());
        assert!(a.disk.is_disk_bound(Nanos::new(1.0)));
        assert!(!Metrics::new().disk.is_active());
    }

    #[test]
    fn merge_accumulates_prefetch_counters_and_demand_drives_the_bound() {
        let mut a = Metrics::new();
        a.disk.blocks_loaded = 2;
        a.disk.time = Nanos::new(10.0);
        a.disk.demand_time = Nanos::new(3.0);
        a.disk.bytes_prefetched = 40;
        a.disk.prefetch_hits = 2;
        let mut b = Metrics::new();
        b.disk.time = Nanos::new(4.0);
        b.disk.demand_time = Nanos::new(4.0);
        b.disk.prefetch_wasted = 8;
        a.merge(&b);
        assert_eq!(a.disk.demand_time.as_nanos(), 7.0);
        assert_eq!(a.disk.bytes_prefetched, 40);
        assert_eq!(a.disk.prefetch_hits, 2);
        assert_eq!(a.disk.prefetch_wasted, 8);
        // Demand, not the full load time, decides the regime: 14 ns of
        // loads but only 7 ns waited on → compute-bound at 8 ns compute.
        assert_eq!(a.disk.demand_pressure(), Nanos::new(7.0));
        assert!(!a.disk.is_disk_bound(Nanos::new(8.0)));
        assert!(a.disk.is_disk_bound(Nanos::new(6.0)));
        // Counters without demand accounting fall back to the full time.
        let legacy = DiskCounters {
            time: Nanos::new(5.0),
            ..DiskCounters::default()
        };
        assert_eq!(legacy.demand_pressure(), Nanos::new(5.0));
    }

    #[test]
    fn sans_prefetch_normalizes_only_the_prefetch_dependent_fields() {
        let d = DiskCounters {
            bytes_loaded: 100,
            io_segments: 6,
            time: Nanos::new(9.0),
            demand_time: Nanos::new(2.0),
            overlapped: Nanos::new(11.0),
            bytes_prefetched: 60,
            prefetch_hits: 3,
            prefetch_wasted: 5,
            ..DiskCounters::default()
        };
        let n = d.sans_prefetch();
        assert_eq!(n.bytes_loaded, 100);
        assert_eq!(n.io_segments, 6);
        assert_eq!(n.time, d.time);
        assert_eq!(n.demand_time, d.time);
        assert_eq!(n.overlapped, Nanos::ZERO);
        assert_eq!(n.bytes_prefetched + n.prefetch_hits + n.prefetch_wasted, 0);
    }

    #[test]
    fn validate_checks_prefetch_invariants() {
        let base = || {
            let mut m = Metrics::new();
            m.disk.blocks_loaded = 4;
            m.disk.bytes_loaded = 100;
            m.disk.io_segments = 4;
            m.disk.time = Nanos::new(10.0);
            m.disk.demand_time = Nanos::new(10.0);
            m.disk.overlapped = Nanos::new(10.0);
            m
        };
        base().validate().expect("consistent disk counters");
        // Prefetch legitimately drops the overlap below the full time…
        let mut m = base();
        m.disk.bytes_prefetched = 50;
        m.disk.prefetch_hits = 2;
        m.disk.demand_time = Nanos::new(4.0);
        m.disk.overlapped = Nanos::new(6.0);
        m.validate().expect("prefetch may hide loads");
        // …but never below demand, and never without prefetched bytes.
        let mut m = base();
        m.disk.overlapped = Nanos::new(6.0);
        assert!(m.validate().is_err(), "overlap < time needs prefetch");
        let mut m = base();
        m.disk.demand_time = Nanos::new(12.0);
        assert!(m.validate().is_err(), "demand above the full load time");
        let mut m = base();
        m.disk.bytes_prefetched = 200;
        assert!(m.validate().is_err(), "prefetched more than planned");
        let mut m = base();
        m.disk.bytes_prefetched = 50;
        m.disk.prefetch_hits = 5;
        assert!(m.validate().is_err(), "more hits than segments");
        let mut m = base();
        m.disk.bytes_prefetched = 50;
        m.disk.prefetch_wasted = 60;
        assert!(m.validate().is_err(), "wasted more than prefetched");
    }

    #[test]
    fn merge_accumulates_net_counters() {
        let mut a = Metrics::new();
        a.net.bytes_exchanged = 200;
        a.net.exchanges = 2;
        a.net.time = Nanos::new(3.0);
        a.net.energy = Joules::new(0.25);
        let mut b = Metrics::new();
        b.net.bytes_exchanged = 50;
        b.net.exchanges = 1;
        b.net.time = Nanos::new(1.0);
        b.net.overlapped = Nanos::new(9.0);
        a.merge(&b);
        assert_eq!(a.net.bytes_exchanged, 250);
        assert_eq!(a.net.exchanges, 3);
        assert_eq!(a.net.time.as_nanos(), 4.0);
        assert_eq!(a.net.overlapped.as_nanos(), 9.0);
        assert!(a.net.is_active());
        assert!(a.net.is_network_bound(Nanos::new(1.0)));
        assert!(!Metrics::new().net.is_active());
        // Interconnect energy counts towards the run total.
        assert_eq!(a.total_energy().as_joules(), 0.25);
    }

    #[test]
    fn merge_accumulates_plan_counters_and_equality_ignores_host_time() {
        let mut a = Metrics::new();
        a.plan.full_rebuilds = 1;
        a.plan.delta_patches = 5;
        a.plan.units_reused = 40;
        a.plan.time = Nanos::new(100.0);
        a.plan.mask_words = 12;
        a.plan.summary_skips = 2;
        let mut b = Metrics::new();
        b.plan.delta_patches = 2;
        b.plan.units_patched = 3;
        b.plan.mask_words = 5;
        b.plan.delta_words = 4;
        b.plan.time = Nanos::new(7.0);
        a.merge(&b);
        assert_eq!(a.plan.full_rebuilds, 1);
        assert_eq!(a.plan.delta_patches, 7);
        assert_eq!(a.plan.units_reused, 40);
        assert_eq!(a.plan.units_patched, 3);
        assert_eq!(a.plan.mask_words, 17);
        assert_eq!(a.plan.summary_skips, 2);
        assert_eq!(a.plan.delta_words, 4);
        assert_eq!(a.plan.time.as_nanos(), 107.0);
        // Host planning time is observability, not part of the
        // determinism contract: equality must ignore it.
        let mut c = a.clone();
        c.plan.time = Nanos::ZERO;
        assert_eq!(a, c);
        c.plan.delta_patches += 1;
        assert_ne!(a, c);
        // The mask statistics are simulated-deterministic and compared.
        let mut d = a.clone();
        d.plan.mask_words += 1;
        assert_ne!(a, d);
    }

    #[test]
    fn serial_total_sums_phases() {
        let tb = TimeBreakdown {
            program: Nanos::new(1.0),
            compute: Nanos::new(2.0),
            memory: Nanos::new(3.0),
            apply: Nanos::new(4.0),
        };
        assert_eq!(tb.serial_total().as_nanos(), 10.0);
    }

    #[test]
    fn merge_pads_and_combines_lane_rows() {
        let mut a = Metrics::new();
        a.iterations = 3;
        a.lanes.push(LaneCounters {
            iterations: 2,
            frontier_total: 10,
            frontier_peak: 6,
            settled: 4,
        });
        let mut b = Metrics::new();
        b.iterations = 1;
        b.lanes = vec![
            LaneCounters {
                iterations: 1,
                frontier_total: 3,
                frontier_peak: 3,
                settled: 2,
            },
            LaneCounters {
                iterations: 1,
                frontier_total: 7,
                frontier_peak: 7,
                settled: 5,
            },
        ];
        a.merge(&b);
        assert_eq!(a.lanes.len(), 2);
        assert_eq!(a.lanes[0].iterations, 3);
        assert_eq!(a.lanes[0].frontier_total, 13);
        assert_eq!(a.lanes[0].frontier_peak, 6);
        assert_eq!(a.lanes[0].settled, 6);
        assert_eq!(a.lanes[1].frontier_total, 7);
        a.validate().expect("merged lane rows stay consistent");
    }

    #[test]
    fn validate_rejects_inconsistent_lane_rows() {
        let mut m = Metrics::new();
        m.iterations = 1;
        m.lanes.push(LaneCounters {
            iterations: 5,
            frontier_total: 5,
            frontier_peak: 1,
            settled: 0,
        });
        assert!(m.validate().is_err(), "lane iterations exceed the run's");
        let mut m = Metrics::new();
        m.iterations = 2;
        m.lanes.push(LaneCounters {
            iterations: 1,
            frontier_total: 1,
            frontier_peak: 2,
            settled: 0,
        });
        assert!(m.validate().is_err(), "peak above total");
        let mut m = Metrics::new();
        m.iterations = 2;
        m.lanes.push(LaneCounters {
            iterations: 1,
            frontier_total: 5,
            frontier_peak: 4,
            settled: 0,
        });
        assert!(m.validate().is_err(), "total above iterations x peak");
        let mut m = Metrics::new();
        m.iterations = 2;
        m.lanes.push(LaneCounters {
            iterations: 0,
            frontier_total: 1,
            frontier_peak: 1,
            settled: 0,
        });
        assert!(
            m.validate().is_err(),
            "a never-active lane cannot have frontier accounting"
        );
        let mut m = Metrics::new();
        m.iterations = 2;
        m.lanes.push(LaneCounters {
            iterations: 2,
            frontier_total: 3,
            frontier_peak: 2,
            settled: 5,
        });
        assert!(
            m.validate().is_err(),
            "settled must be within frontier_total + 1"
        );
    }

    #[test]
    fn to_json_bytes_are_pinned() {
        // Recorded from the hand-written per-family writers this JSON
        // layout started with; every key and number must stay put.
        let expected = concat!(
            r#"{"iterations":3,"elapsed_ns":250,"total_time_ns":250,"total_energy_j":31"#,
            r#","skip_fraction":0.7741935483870968,"time":{"program_ns":0.25"#,
            r#","compute_ns":0.5,"memory_ns":0.75,"apply_ns":1}"#,
            r#","energy":{"program_j":1.25,"mvm_j":1.5,"driver_j":1.75,"adc_j":2"#,
            r#","sample_hold_j":2.25,"shift_add_j":2.5,"salu_j":2.75,"registers_j":3"#,
            r#","memory_j":3.25},"events":{"subgraphs_processed":14"#,
            r#","subgraphs_skipped_empty":15,"subgraphs_skipped_inactive":16"#,
            r#","subgraphs_pruned":17,"edges_pruned":18,"tiles_loaded":19"#,
            r#","edges_loaded":20,"mvm_scans":21,"rows_activated":22"#,
            r#","adc_conversions":23,"salu_ops":24,"register_reads":25"#,
            r#","register_writes":26,"bytes_streamed":27,"rego_capacity_required":28}"#,
            r#","disk":{"bytes_loaded":29,"blocks_loaded":30,"blocks_seeked":31"#,
            r#","io_segments":32,"time_ns":8.25,"demand_time_ns":8.5"#,
            r#","overlapped_ns":8.75,"bytes_prefetched":36,"prefetch_hits":37"#,
            r#","prefetch_wasted":38},"net":{"bytes_exchanged":39,"exchanges":40"#,
            r#","time_ns":10.25,"overlapped_ns":10.5,"energy_j":10.75}"#,
            r#","plan":{"full_rebuilds":44,"delta_patches":45,"units_reused":46"#,
            r#","units_patched":47,"mask_words":48,"summary_skips":49,"delta_words":50"#,
            r#","host_time_ns":12.75},"lanes":[{"iterations":52,"frontier_total":53"#,
            r#","frontier_peak":54,"settled":55},{"iterations":56,"frontier_total":57"#,
            r#","frontier_peak":58,"settled":59}]}"#
        );
        assert_eq!(distinct_fixture().to_json(), expected);
    }

    /// For each family: after `a.merge(&b)`, `a.delta_since(&a0)` gives
    /// back `b` field by field (host fields included), except that a `Max`
    /// field's delta carries the running maximum `max(a0, b)`. Times and
    /// energies are multiples of 1/4 below 2^38, so the f64 round trip is
    /// exact.
    macro_rules! merge_then_delta_is_identity {
        ($($test:ident: $family:ident),* $(,)?) => {
            proptest! {
                $(
                    #[test]
                    fn $test(
                        a0 in proptest::collection::vec(0u64..1 << 40, 16),
                        b in proptest::collection::vec(0u64..1 << 40, 16),
                    ) {
                        let (mut a0, mut b) = (a0.into_iter(), b.into_iter());
                        let a0 = $family::from_counts(|| a0.next().unwrap());
                        let b = $family::from_counts(|| b.next().unwrap());
                        let mut a = a0;
                        a.merge(&b);
                        let delta = a.delta_since(&a0);
                        for ((d, b), a0) in delta.fields().zip(b.fields()).zip(a0.fields()) {
                            let expected = match (d.rule, b.value, a0.value) {
                                (MergeRule::Max, CounterValue::Count(b), CounterValue::Count(a0)) => {
                                    CounterValue::Count(b.max(a0))
                                }
                                _ => b.value,
                            };
                            prop_assert_eq!(d.value, expected, "{}", d.name);
                        }
                    }
                )*
            }
        };
    }

    merge_then_delta_is_identity! {
        event_merge_then_delta: EventCounters,
        plan_merge_then_delta: PlanCounters,
        time_merge_then_delta: TimeBreakdown,
        disk_merge_then_delta: DiskCounters,
        net_merge_then_delta: NetCounters,
        lane_merge_then_delta: LaneCounters,
    }

    #[test]
    fn average_power_is_energy_over_time() {
        let mut m = Metrics::new();
        m.elapsed = Nanos::from_secs(2.0);
        m.energy.mvm = Joules::new(10.0);
        assert_eq!(m.average_power().as_watts(), 5.0);
    }
}

//! Bottleneck attribution: *why* was a run as slow as it was?
//!
//! Every run already carries the raw material in its
//! [`crate::metrics::Metrics`] — accelerator time, the disk
//! layer's per-iteration overlapped total
//! ([`DiskCounters`](crate::metrics::DiskCounters)), the cluster layer's
//! composed wall-clock ([`NetCounters`](crate::metrics::NetCounters)) —
//! and the regime predicates ([`DiskCounters::is_disk_bound`],
//! [`NetCounters::is_network_bound`]) have existed since the layers were
//! built. [`BottleneckReport::classify`] folds them into one answer: the
//! **dominant resource** plus per-resource utilization and
//! overlap-efficiency fractions, rendered as the `bound:` row of a job
//! report and a nested object of its JSON form.
//!
//! Host-measured planning time ([`PlanCounters::time`]) is deliberately
//! *not* a classification candidate: it is the only non-simulated
//! quantity in the metrics and would make the attribution
//! machine-dependent. The classification is a pure function of the
//! simulated accounting, so it inherits the determinism contract —
//! serial ≡ parallel ≡ one-node-cluster runs classify identically.
//!
//! [`DiskCounters::is_disk_bound`]: crate::metrics::DiskCounters::is_disk_bound
//! [`NetCounters::is_network_bound`]: crate::metrics::NetCounters::is_network_bound
//! [`PlanCounters::time`]: crate::metrics::PlanCounters::time

use std::fmt;

use graphr_units::Nanos;

use crate::json::JsonObject;
use crate::metrics::Metrics;

/// The resource that bounds a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The accelerator itself: scans dominate; disk and interconnect (if
    /// any) hide behind compute.
    Compute,
    /// The storage layer: out-of-core loads exceed the compute they
    /// overlap with.
    Disk,
    /// The cluster interconnect: property exchanges exceed the
    /// bottleneck node's compute.
    Network,
}

impl Resource {
    /// Short lowercase name, as printed in the `bound:` row.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Resource::Compute => "compute",
            Resource::Disk => "disk",
            Resource::Network => "network",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Bottleneck attribution of one run, derived entirely from its
/// [`Metrics`] (see the module docs for the classification rules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottleneckReport {
    /// The dominant resource.
    pub bound: Resource,
    /// The run's effective wall-clock: the cluster's composed total when
    /// the run exchanged over an interconnect, the disk layer's
    /// overlapped total in the single-node out-of-core regime, plain
    /// accelerator time otherwise.
    pub wall: Nanos,
    /// Accelerator time. On a cluster this excludes exchange time (the
    /// composed elapsed already contains each iteration's exchange).
    pub compute: Nanos,
    /// Disk time compute actually waited on: the post-prefetch
    /// [`demand_pressure`](crate::metrics::DiskCounters::demand_pressure)
    /// — equal to the total load time without a prefetching I/O lane
    /// (summed over cluster nodes when both layers are active).
    pub disk: Nanos,
    /// Total interconnect exchange time.
    pub net: Nanos,
    /// `compute / wall`.
    pub compute_utilization: f64,
    /// `disk / wall`. Zero when no disk model priced the run. On a
    /// cluster this divides a *summed-over-nodes* disk time by the
    /// composed wall, so values above 1 are possible (N nodes loading in
    /// parallel).
    pub disk_utilization: f64,
    /// `net / wall`. Zero off-cluster.
    pub net_utilization: f64,
    /// How much of the possible resource overlap the run realized, in
    /// `[0, 1]`: `(Σ parts − wall) / (Σ parts − max part)` over the
    /// active resources — `1.0` when the wall collapses to the dominant
    /// part alone (perfect hiding, or only one resource active), `0.0`
    /// when the parts executed back-to-back.
    pub overlap_efficiency: f64,
}

impl BottleneckReport {
    /// Classifies a run. A pure function of the simulated accounting:
    /// deterministic across engines, and calling it never mutates or
    /// depends on anything outside `metrics`.
    #[must_use]
    pub fn classify(metrics: &Metrics) -> Self {
        let disk_active = metrics.disk.is_active();
        let net_active = metrics.net.is_active();
        // The disk part is what compute actually waited on: with the
        // pipelined I/O lane reading ahead, that's the post-prefetch
        // demand time, so a run the drive no longer stalls classifies
        // as compute-bound even though the full load time is unchanged.
        let disk = metrics.disk.demand_pressure();
        let net = metrics.net.time;
        let (bound, wall, compute) = if net_active {
            // Composed cluster run: elapsed = Σ max(per-node scan) +
            // exchange, so the exchange-free compute is the difference;
            // the effective wall additionally composes per-node disk
            // overlap.
            let compute = metrics.total_time() - net;
            let bound = if metrics.net.is_network_bound(compute) {
                Resource::Network
            } else if disk_active && disk > compute {
                Resource::Disk
            } else {
                Resource::Compute
            };
            (bound, metrics.net.overlapped, compute)
        } else if disk_active {
            let compute = metrics.total_time();
            let bound = if metrics.disk.is_disk_bound(compute) {
                Resource::Disk
            } else {
                Resource::Compute
            };
            (bound, metrics.disk.overlapped, compute)
        } else {
            (
                Resource::Compute,
                metrics.total_time(),
                metrics.total_time(),
            )
        };
        let frac = |part: Nanos| {
            if wall.is_zero() {
                0.0
            } else {
                part.ratio(wall)
            }
        };
        let mut parts = vec![compute];
        if disk_active {
            parts.push(disk);
        }
        if net_active {
            parts.push(net);
        }
        let serial: Nanos = parts.iter().copied().sum();
        let ideal = parts
            .iter()
            .copied()
            .fold(Nanos::ZERO, |a, b| if b > a { b } else { a });
        let headroom = serial - ideal;
        let overlap_efficiency = if headroom.is_zero() {
            1.0
        } else {
            ((serial.as_nanos() - wall.as_nanos()) / headroom.as_nanos()).clamp(0.0, 1.0)
        };
        BottleneckReport {
            bound,
            wall,
            compute,
            disk,
            net,
            compute_utilization: frac(compute),
            disk_utilization: frac(disk),
            net_utilization: frac(net),
            overlap_efficiency,
        }
    }

    /// One-line human rendering, used as the `bound:` report row (after
    /// the `bound:` label): dominant resource first, then the
    /// utilization fractions of whichever resources were active and the
    /// realized overlap.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{}-bound; wall {}; compute {:.1}%",
            self.bound,
            self.wall,
            self.compute_utilization * 100.0
        );
        if !self.disk.is_zero() {
            out.push_str(&format!(" / disk {:.1}%", self.disk_utilization * 100.0));
        }
        if !self.net.is_zero() {
            out.push_str(&format!(" / net {:.1}%", self.net_utilization * 100.0));
        }
        out.push_str(&format!(
            " of wall, overlap efficiency {:.0}%",
            self.overlap_efficiency * 100.0
        ));
        out
    }

    /// The JSON object form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut obj = JsonObject::open(&mut out);
        obj.str("bound", self.bound.name())
            .raw("wall_ns", self.wall.as_nanos())
            .raw("compute_ns", self.compute.as_nanos())
            .raw("disk_ns", self.disk.as_nanos())
            .raw("net_ns", self.net.as_nanos())
            .raw("compute_utilization", self.compute_utilization)
            .raw("disk_utilization", self.disk_utilization)
            .raw("net_utilization", self.net_utilization)
            .raw("overlap_efficiency", self.overlap_efficiency);
        obj.close();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_core_runs_are_compute_bound() {
        let mut m = Metrics::new();
        m.elapsed = Nanos::new(100.0);
        let b = BottleneckReport::classify(&m);
        assert_eq!(b.bound, Resource::Compute);
        assert_eq!(b.wall, Nanos::new(100.0));
        assert_eq!(b.compute_utilization, 1.0);
        assert_eq!(b.disk_utilization, 0.0);
        assert_eq!(b.overlap_efficiency, 1.0);
    }

    #[test]
    fn slow_disk_flips_to_disk_bound() {
        let mut m = Metrics::new();
        m.elapsed = Nanos::new(100.0);
        m.disk.blocks_loaded = 10;
        m.disk.time = Nanos::new(400.0);
        m.disk.overlapped = Nanos::new(400.0); // fully hidden compute
        let b = BottleneckReport::classify(&m);
        assert_eq!(b.bound, Resource::Disk);
        assert_eq!(b.wall, Nanos::new(400.0));
        assert_eq!(b.disk_utilization, 1.0);
        assert_eq!(b.overlap_efficiency, 1.0);
        // The same run on a faster drive is compute-bound again.
        m.disk.time = Nanos::new(30.0);
        m.disk.overlapped = Nanos::new(110.0);
        let b = BottleneckReport::classify(&m);
        assert_eq!(b.bound, Resource::Compute);
        assert!(b.overlap_efficiency > 0.0 && b.overlap_efficiency < 1.0);
    }

    #[test]
    fn heavy_exchange_flips_to_network_bound() {
        let mut m = Metrics::new();
        m.elapsed = Nanos::new(100.0); // includes exchange
        m.net.exchanges = 5;
        m.net.time = Nanos::new(60.0); // compute excl exchange = 40
        m.net.overlapped = Nanos::new(100.0);
        let b = BottleneckReport::classify(&m);
        assert_eq!(b.bound, Resource::Network);
        assert_eq!(b.compute, Nanos::new(40.0));
        assert_eq!(b.wall, Nanos::new(100.0));
        // Balance it the other way: exchange hides behind compute.
        m.net.time = Nanos::new(20.0);
        let b = BottleneckReport::classify(&m);
        assert_eq!(b.bound, Resource::Compute);
    }

    #[test]
    fn summary_names_the_dominant_resource() {
        let mut m = Metrics::new();
        m.elapsed = Nanos::new(100.0);
        m.disk.blocks_loaded = 1;
        m.disk.time = Nanos::new(400.0);
        m.disk.overlapped = Nanos::new(400.0);
        let b = BottleneckReport::classify(&m);
        let s = b.summary();
        assert!(s.starts_with("disk-bound"), "{s}");
        assert!(s.contains("disk 100.0%"), "{s}");
        let json = b.to_json();
        assert!(json.contains("\"bound\":\"disk\""), "{json}");
    }
}

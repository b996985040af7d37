//! The simulated I/O lane: cross-iteration prefetch for the out-of-core
//! model.
//!
//! [`ScanDriver`] owns one node's dedicated I/O lane on the simulated
//! clock. The per-iteration overlap model
//! ([`DiskAccountant`](super::DiskAccountant)) leaves that lane idle
//! whenever an iteration is compute-bound: the window lasts
//! `max(compute, demand)` but the drive only works for `demand` of it.
//! The driver spends exactly that idle tail reading ahead.
//!
//! The pipeline, window by window:
//!
//! 1. **Candidate export.** When a window commits, the driver keeps the
//!    window's planned subgraph ordinals as *candidates* for the next
//!    round. The ordinals come out of the accountant's per-unit cache,
//!    which is keyed by the incremental planner's `Arc<PlanUnit>`
//!    identity — a unit the planner carried over pointer-equal costs
//!    nothing to re-export, which is what makes the export free for the
//!    stable bulk of consecutive plans.
//! 2. **Speculative issue.** At the start of the next window the driver
//!    issues double-buffered segment reads for a greedy prefix of the
//!    candidate runs (contiguous ordinal ranges, in disk order),
//!    stopping at the first run the committed window's idle time cannot
//!    fund. The reads land in the read-ahead buffer while — on the
//!    simulated clock — the *previous* window's compute was still
//!    running; they are charged to that idle tail, never to a window's
//!    critical path.
//! 3. **Demand split.** Each scan the window executes is served against
//!    the buffer: planned ordinals already resident are *hot* and cost
//!    zero marginal latency; the rest form the **demand** plan the
//!    compute lane synchronously waits for. A block whose planned
//!    subgraphs are all hot drops out of the demand walk entirely (the
//!    driver seeks over it in one hop); partially-hot and unplanned
//!    blocks charge as before. Demand is capped at the full plan's
//!    price — the driver falls back to the plain sequential walk rather
//!    than ever paying more than a prefetch-free drive would.
//! 4. **Waste.** Whatever the window's scans never asked for is
//!    discarded when the window commits and counted as
//!    `prefetch_wasted` — on a static frontier replay (identical plans
//!    round over round) it is exactly zero.
//!
//! Serving is by *ordinal*, not by plan-unit identity: a prefetched byte
//! range of the static on-disk edge list satisfies any later plan that
//! wants it, so a BFS wavefront that patches its `PlanUnit`s while
//! sweeping the same tiles still hits. Arc identity is the cheap
//! *export* path, not an extra serving condition.
//!
//! Everything here is a pure function of the executed plans and the
//! [`DiskModel`], so the driver inherits the determinism contract:
//! serial, parallel, and one-node-cluster runs (each node owns its own
//! driver) produce bit-identical counters, windows, and traces.

use std::collections::HashMap;

use graphr_units::Nanos;

use super::{DiskModel, IoPlan, PlannedSet, RequestGranularity};

/// What [`ScanDriver::commit_window`] drains for the window that just
/// closed: the read-ahead issued on its behalf and how it fared.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct DriverCommit {
    /// Simulated time the speculative reads occupied the I/O lane (all
    /// inside the previous window's idle tail).
    pub issued_time: Nanos,
    /// Where on the simulated clock the speculative reads began (the
    /// previous window's demand stream had just finished).
    pub issued_start: Nanos,
    /// Bytes read ahead for this window.
    pub bytes_prefetched: u64,
    /// Prefetched runs at least partly consumed by the window's scans.
    pub hits: u64,
    /// Prefetched bytes the window never asked for (discarded).
    pub wasted: u64,
}

/// Candidate ordinals exported from one window for the next window's
/// speculative reads.
enum Candidates {
    /// Nothing exported yet.
    None,
    /// A full-restream plan was seen: every ordinal is a candidate.
    Full,
    /// Sorted planned ordinals (union over the window's scans is
    /// deferred to issue time: concatenated here, sorted + deduped
    /// once).
    Sparse(Vec<u32>),
}

/// The read-ahead buffer: which ordinals are resident, and which issued
/// run each belongs to (for hit counting).
struct Buffer {
    /// Resident ordinal → the issued run holding it; served ordinals
    /// are removed, so whatever remains at commit is waste.
    hot: HashMap<u32, u32>,
    /// Per issued run: has any of its ordinals been served yet?
    consumed: Vec<bool>,
    /// Bytes of the resident ordinals: issued, not yet served.
    resident: u64,
}

/// One node's simulated I/O lane: candidate export at window commit,
/// double-buffered speculative segment reads funded by the committed
/// window's idle time, and ordinal-level demand splitting for the next
/// window's scans. Owned by a [`DiskAccountant`](super::DiskAccountant)
/// whose [`DiskModel::prefetch`] flag is set; see the module docs for
/// the full pipeline.
pub struct ScanDriver {
    /// Candidates exported by the last committed window.
    candidates: Candidates,
    /// Idle I/O-lane time of the last committed window — the budget for
    /// the next speculative issue.
    budget: Nanos,
    /// Simulated clock position where that idle tail began.
    idle_start: Nanos,
    /// The live read-ahead buffer (`Some` once the current window's
    /// first scan triggered issuance, even if nothing fit the budget).
    buffer: Option<Buffer>,
    /// Candidates accumulating from the current window's scans.
    accum: Candidates,
    /// Telemetry for the current window's issuance.
    issued_time: Nanos,
    issued_start: Nanos,
    issued_bytes: u64,
    hits: u64,
}

impl ScanDriver {
    pub(crate) fn new() -> Self {
        ScanDriver {
            candidates: Candidates::None,
            budget: Nanos::ZERO,
            idle_start: Nanos::ZERO,
            buffer: None,
            accum: Candidates::None,
            issued_time: Nanos::ZERO,
            issued_start: Nanos::ZERO,
            issued_bytes: 0,
            hits: 0,
        }
    }

    /// Issues the speculative reads for the current window if its first
    /// scan hasn't already: a greedy prefix of the candidate runs, in
    /// disk order, while the previous window's idle time still funds
    /// the next run in full.
    fn maybe_issue(&mut self, bytes: &impl Fn(u32) -> u64, block_of: &[u32], model: &DiskModel) {
        if self.buffer.is_some() {
            return;
        }
        let ordinals: Vec<u32> = match std::mem::replace(&mut self.candidates, Candidates::None) {
            Candidates::None => Vec::new(),
            Candidates::Full => (0..block_of.len() as u32).collect(),
            Candidates::Sparse(mut v) => {
                v.sort_unstable();
                v.dedup();
                v
            }
        };
        let mut buffer = Buffer {
            hot: HashMap::new(),
            consumed: Vec::new(),
            resident: 0,
        };
        let mut spent = Nanos::ZERO;
        let mut i = 0usize;
        // The batch prices exactly like an [`IoPlan`] of the issued set:
        // under per-block requests each distinct block is paid once
        // across the whole batch (runs sharing a block add only their
        // transfer), under segment granularity each run is one request —
        // the same rates the demand stream pays for the same spans.
        let mut last_block: Option<u32> = None;
        while i < ordinals.len() {
            // One candidate run: maximal range of consecutive ordinals.
            let mut j = i + 1;
            let mut run_bytes = bytes(ordinals[i]);
            let mut run_blocks = u64::from(last_block != Some(block_of[ordinals[i] as usize]));
            while j < ordinals.len() && ordinals[j] == ordinals[j - 1] + 1 {
                run_bytes += bytes(ordinals[j]);
                if block_of[ordinals[j] as usize] != block_of[ordinals[j - 1] as usize] {
                    run_blocks += 1;
                }
                j += 1;
            }
            let requests = match model.granularity {
                RequestGranularity::Block => run_blocks as f64,
                RequestGranularity::Segment => 1.0,
            };
            let cost = Nanos::new(run_bytes as f64 / model.sequential_gbps)
                + model.per_block_latency * requests;
            if spent + cost > self.budget {
                break; // greedy prefix: stop at the first unaffordable run
            }
            last_block = Some(block_of[ordinals[j - 1] as usize]);
            let run = buffer.consumed.len() as u32;
            for &ord in &ordinals[i..j] {
                buffer.hot.insert(ord, run);
            }
            buffer.consumed.push(false);
            buffer.resident += run_bytes;
            spent += cost;
            self.issued_bytes += run_bytes;
            i = j;
        }
        self.issued_time = spent;
        self.issued_start = self.idle_start;
        self.buffer = Some(buffer);
    }

    /// Serves one scan against the read-ahead buffer: issues the
    /// window's speculative reads first if this is the window's first
    /// scan, then splits `planned` into hot (resident, zero marginal
    /// latency) and demand (synchronously fetched) ordinals. Returns
    /// the demand-side [`IoPlan`]; `io` is the scan's full plan,
    /// returned unchanged when nothing is resident.
    ///
    /// `bytes` sizes each ordinal's subgraph; `block_of` is the
    /// accountant's streamed-order index of owning blocks (one per
    /// ordinal, non-decreasing).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve(
        &mut self,
        planned: &PlannedSet,
        io: &IoPlan,
        bytes: impl Fn(u32) -> u64,
        block_of: &[u32],
        total_blocks: usize,
        total_bytes: u64,
        model: &DiskModel,
    ) -> IoPlan {
        self.maybe_issue(&bytes, block_of, model);
        let mut buffer = self.buffer.take().expect("issued above");
        if buffer.hot.is_empty() {
            self.buffer = Some(buffer);
            return *io;
        }
        let mut demand = IoPlan::default();
        let mut new_hits = 0u64;
        let mut hot_bytes = 0u64;
        let mut fully_hot_blocks = 0usize;
        let mut prev_demand: Option<u32> = None;
        let mut prev_demand_block: Option<u32> = None;
        let mut cur_block: Option<u32> = None;
        let mut cur_block_has_demand = false;
        let mut walk = |ord: u32| {
            let block = block_of[ord as usize];
            if cur_block != Some(block) {
                if cur_block.is_some() && !cur_block_has_demand {
                    fully_hot_blocks += 1;
                }
                cur_block = Some(block);
                cur_block_has_demand = false;
            }
            if let Some(run) = buffer.hot.remove(&ord) {
                hot_bytes += bytes(ord);
                if !buffer.consumed[run as usize] {
                    buffer.consumed[run as usize] = true;
                    new_hits += 1;
                }
            } else {
                cur_block_has_demand = true;
                demand.bytes_loaded += bytes(ord);
                if prev_demand != Some(ord.wrapping_sub(1)) {
                    demand.segments += 1;
                }
                if prev_demand_block != Some(block) {
                    demand.blocks_loaded += 1;
                }
                prev_demand = Some(ord);
                prev_demand_block = Some(block);
            }
        };
        match planned {
            PlannedSet::Full => {
                for ord in 0..block_of.len() as u32 {
                    walk(ord);
                }
            }
            PlannedSet::Sparse(ordinals) => {
                for &ord in ordinals {
                    walk(ord);
                }
            }
        }
        if cur_block.is_some() && !cur_block_has_demand {
            fully_hot_blocks += 1;
        }
        self.hits += new_hits;
        buffer.resident -= hot_bytes;
        self.buffer = Some(buffer);
        // Every planned byte resident: no demand stream is issued at
        // all, so there is no sweep to charge seeks against either.
        if demand.bytes_loaded == 0 {
            return IoPlan::default();
        }
        // Fully-hot blocks leave the demand walk entirely; partially-hot
        // and unplanned blocks charge exactly as without prefetch.
        demand.blocks_seeked = total_blocks - demand.blocks_loaded - fully_hot_blocks;
        demand.bytes_skipped = total_bytes - demand.bytes_loaded - hot_bytes;
        demand
    }

    /// Records one served scan's planned set as candidates for the
    /// *next* window's speculative reads.
    pub(crate) fn note_candidates(&mut self, planned: PlannedSet) {
        match (&mut self.accum, planned) {
            (Candidates::Full, _) | (_, PlannedSet::Full) => self.accum = Candidates::Full,
            (Candidates::Sparse(acc), PlannedSet::Sparse(v)) => acc.extend_from_slice(&v),
            (Candidates::None, PlannedSet::Sparse(v)) => self.accum = Candidates::Sparse(v),
        }
    }

    /// Closes the window on the driver side: discards (and counts) the
    /// unconsumed remainder of the read-ahead buffer, promotes the
    /// window's planned sets to candidates, and banks the window's idle
    /// tail — `duration − demand`, starting at `window_start + demand`
    /// on the simulated clock — as the next issue's budget.
    pub(crate) fn commit_window(
        &mut self,
        window_start: Nanos,
        demand: Nanos,
        duration: Nanos,
    ) -> DriverCommit {
        let wasted = self.buffer.take().map_or(0, |b| b.resident);
        let commit = DriverCommit {
            issued_time: self.issued_time,
            issued_start: self.issued_start,
            bytes_prefetched: self.issued_bytes,
            hits: self.hits,
            wasted,
        };
        self.candidates = std::mem::replace(&mut self.accum, Candidates::None);
        self.budget = duration - demand;
        self.idle_start = window_start + demand;
        self.issued_time = Nanos::ZERO;
        self.issued_start = Nanos::ZERO;
        self.issued_bytes = 0;
        self.hits = 0;
        commit
    }

    /// Forgets everything — for executors whose metrics were just taken
    /// (the accompanying counters were zeroed, so banked budget and
    /// candidates must not leak into the next run's accounting).
    pub(crate) fn reset(&mut self) {
        *self = ScanDriver::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four ordinals in blocks [0,0,1,1], 10 bytes each.
    const BLOCK_OF: [u32; 4] = [0, 0, 1, 1];

    fn ten_bytes(_: u32) -> u64 {
        10
    }

    fn model(gbps: f64, lat: f64) -> DiskModel {
        DiskModel {
            sequential_gbps: gbps,
            per_block_latency: Nanos::new(lat),
            granularity: RequestGranularity::Block,
            prefetch: true,
        }
    }

    #[test]
    fn greedy_prefix_respects_the_budget_and_serving_clears_waste() {
        let m = model(1.0, 1.0);
        let mut driver = ScanDriver::new();
        // Window 1 charged ordinals {0, 1, 3}; commit exports them with
        // a budget that funds the first run (20 bytes @1B/ns + 1 block
        // latency = 21 ns) but not the second (11 ns more).
        driver.note_candidates(PlannedSet::Sparse(vec![0, 1, 3]));
        driver.commit_window(Nanos::ZERO, Nanos::new(4.0), Nanos::new(29.0));
        // Window 2 plans the same set: run {0,1} is hot, 3 is demand.
        let io = IoPlan {
            bytes_loaded: 30,
            bytes_skipped: 10,
            segments: 2,
            blocks_loaded: 2,
            blocks_seeked: 0,
        };
        let demand = driver.serve(
            &PlannedSet::Sparse(vec![0, 1, 3]),
            &io,
            ten_bytes,
            &BLOCK_OF,
            2,
            40,
            &m,
        );
        assert_eq!(demand.bytes_loaded, 10, "only ordinal 3 hits the disk");
        assert_eq!(demand.segments, 1);
        // Block 0 is fully hot → seeked past for free; block 1 loads.
        assert_eq!(demand.blocks_loaded, 1);
        assert_eq!(demand.blocks_seeked, 0);
        let c = driver.commit_window(Nanos::new(29.0), Nanos::new(11.0), Nanos::new(11.0));
        assert_eq!(c.bytes_prefetched, 20);
        assert_eq!(c.hits, 1, "one issued run, consumed once");
        assert_eq!(c.wasted, 0, "everything prefetched was served");
        assert_eq!(c.issued_time, Nanos::new(21.0));
        assert_eq!(c.issued_start, Nanos::new(4.0), "after window 1's demand");
    }

    #[test]
    fn unconsumed_prefetch_counts_as_waste() {
        let m = model(1.0, 0.0);
        let mut driver = ScanDriver::new();
        driver.note_candidates(PlannedSet::Sparse(vec![0, 1]));
        driver.commit_window(Nanos::ZERO, Nanos::ZERO, Nanos::new(100.0));
        let io = IoPlan {
            bytes_loaded: 10,
            segments: 1,
            blocks_loaded: 1,
            blocks_seeked: 1,
            ..IoPlan::default()
        };
        // The next window wants only ordinal 1; ordinal 0 goes stale.
        let demand = driver.serve(
            &PlannedSet::Sparse(vec![1]),
            &io,
            ten_bytes,
            &BLOCK_OF,
            2,
            40,
            &m,
        );
        assert_eq!(demand.bytes_loaded, 0);
        let c = driver.commit_window(Nanos::ZERO, Nanos::ZERO, Nanos::ZERO);
        assert_eq!(c.bytes_prefetched, 20);
        assert_eq!(c.hits, 1);
        assert_eq!(c.wasted, 10, "ordinal 0 was never asked for");
    }

    #[test]
    fn zero_budget_issues_nothing() {
        let m = model(1.0, 1.0);
        let mut driver = ScanDriver::new();
        driver.note_candidates(PlannedSet::Sparse(vec![0, 1, 2, 3]));
        // Disk-bound window: duration == demand, no idle tail.
        driver.commit_window(Nanos::ZERO, Nanos::new(50.0), Nanos::new(50.0));
        let io = IoPlan {
            bytes_loaded: 40,
            segments: 1,
            blocks_loaded: 2,
            ..IoPlan::default()
        };
        let demand = driver.serve(
            &PlannedSet::Sparse(vec![0, 1, 2, 3]),
            &io,
            ten_bytes,
            &BLOCK_OF,
            2,
            40,
            &m,
        );
        assert_eq!(demand, io, "no budget → the full plan is all demand");
        let c = driver.commit_window(Nanos::ZERO, Nanos::ZERO, Nanos::ZERO);
        assert_eq!(c.bytes_prefetched, 0);
        assert_eq!(c.hits + c.wasted, 0);
    }
}

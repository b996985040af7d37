//! The vertex-program registry — paper Table 2 as data.
//!
//! GraphR accelerates any vertex program expressible in SpMV form. Table 2
//! catalogues the evaluated ones: their vertex property, `processEdge` and
//! `reduce` functions, whether they need an active-vertex list, and which
//! mapping pattern (§4) they use. The registry drives the `table2`
//! benchmark target and keeps the simulator's algorithm set honest.

use crate::engine::salu::ReduceOp;

/// The two algorithm-mapping patterns of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// §4.1: `processEdge` is a multiplication performed in every crossbar
    /// cell; parallelism ≈ `C² × N × G`.
    ParallelMac,
    /// §4.2: `processEdge` is an addition performed one crossbar row at a
    /// time; parallelism ≈ `C × N × G`.
    ParallelAddOp,
}

impl Pattern {
    /// The sALU reduction the pattern pairs with.
    #[must_use]
    pub fn reduce_op(self) -> ReduceOp {
        match self {
            Pattern::ParallelMac => ReduceOp::Add,
            Pattern::ParallelAddOp => ReduceOp::Min,
        }
    }
}

/// One row of Table 2 (plus CF, which §5.1 evaluates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplicationSpec {
    /// Application name.
    pub name: &'static str,
    /// The vertex property being computed.
    pub property: &'static str,
    /// The `processEdge` function, as printed in Table 2.
    pub process_edge: &'static str,
    /// The `reduce` function, as printed in Table 2.
    pub reduce: &'static str,
    /// Whether an active-vertex list is required.
    pub active_list: bool,
    /// The mapping pattern.
    pub pattern: Pattern,
}

/// The application catalog: Table 2's four rows plus the two extensions
/// this reproduction implements (WCC label propagation, §5.1's CF).
#[must_use]
pub fn applications() -> Vec<ApplicationSpec> {
    vec![
        ApplicationSpec {
            name: "SpMV",
            property: "Multiplication Value",
            process_edge: "E.value = V.prop / V.outdegree * E.weight",
            reduce: "V.prop = sum(E.value)",
            active_list: false,
            pattern: Pattern::ParallelMac,
        },
        ApplicationSpec {
            name: "PageRank",
            property: "Page Rank Value",
            process_edge: "E.value = r * V.prop / V.outdegree",
            reduce: "V.prop = sum(E.value) + (1-r) / Num_Vertex",
            active_list: false,
            pattern: Pattern::ParallelMac,
        },
        ApplicationSpec {
            name: "BFS",
            property: "Level",
            process_edge: "E.value = 1 + V.prop",
            reduce: "V.prop = min(V.prop, E.value)",
            active_list: true,
            pattern: Pattern::ParallelAddOp,
        },
        ApplicationSpec {
            name: "SSSP",
            property: "Path Length",
            process_edge: "E.value = E.weight + V.prop",
            reduce: "V.prop = min(V.prop, E.value)",
            active_list: true,
            pattern: Pattern::ParallelAddOp,
        },
        ApplicationSpec {
            name: "WCC",
            property: "Component Label",
            process_edge: "E.value = V.prop",
            reduce: "V.prop = min(V.prop, E.value)",
            active_list: true,
            pattern: Pattern::ParallelAddOp,
        },
        ApplicationSpec {
            name: "CF",
            property: "Latent Feature Vector",
            process_edge: "E.value = (E.rating - P.u . Q.i) [error term]",
            reduce: "V.prop = sum(E.value * factor)",
            active_list: false,
            pattern: Pattern::ParallelMac,
        },
    ]
}

/// Looks up an application by name (case-insensitive).
#[must_use]
pub fn application(name: &str) -> Option<ApplicationSpec> {
    applications()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_four_rows_plus_extensions() {
        let apps = applications();
        assert_eq!(apps.len(), 6);
        assert_eq!(apps[0].name, "SpMV");
        assert_eq!(apps[3].name, "SSSP");
        assert_eq!(apps[4].name, "WCC");
    }

    #[test]
    fn active_list_requirements_match_table2() {
        assert!(!application("SpMV").unwrap().active_list);
        assert!(!application("PageRank").unwrap().active_list);
        assert!(application("BFS").unwrap().active_list);
        assert!(application("SSSP").unwrap().active_list);
    }

    #[test]
    fn patterns_pair_with_the_right_reduce() {
        assert_eq!(
            application("pagerank").unwrap().pattern.reduce_op(),
            ReduceOp::Add
        );
        assert_eq!(
            application("sssp").unwrap().pattern.reduce_op(),
            ReduceOp::Min
        );
    }

    #[test]
    fn unknown_application_is_none() {
        assert!(application("quicksort").is_none());
    }
}

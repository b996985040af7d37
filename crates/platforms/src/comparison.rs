//! Table 1 as data: the qualitative comparison of graph-processing
//! architectures.

/// One column of the paper's Table 1 (one architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchitectureRow {
    /// Architecture name.
    pub name: &'static str,
    /// How `processEdge` executes.
    pub process_edge: &'static str,
    /// How `reduce` executes.
    pub reduce: &'static str,
    /// Synchronous/asynchronous processing model.
    pub processing_model: &'static str,
    /// Dominant data movement.
    pub data_movement: &'static str,
    /// Memory-access character.
    pub memory_access: &'static str,
    /// Programmability / generality.
    pub generality: &'static str,
}

/// The six architectures of Table 1, in the paper's order.
#[must_use]
pub fn architecture_comparison() -> Vec<ArchitectureRow> {
    vec![
        ArchitectureRow {
            name: "CPU",
            process_edge: "Instruction",
            reduce: "Instruction",
            processing_model: "Sync/Async",
            data_movement: "Disk to memory (out-of-core); memory hierarchy",
            memory_access: "Random: vertex access; sequential: edge list",
            generality: "All algorithms",
        },
        ArchitectureRow {
            name: "GPU",
            process_edge: "Instruction",
            reduce: "Instruction",
            processing_model: "Sync",
            data_movement: "Disk to memory; CPU/GPU memory; GPU memory hierarchy",
            memory_access: "Random: vertex access; sequential: edge list",
            generality: "Vertex program",
        },
        ArchitectureRow {
            name: "Tesseract",
            process_edge: "Instruction",
            reduce: "Instruction and inter-cube communication",
            processing_model: "Sync",
            data_movement: "Between cubes (in-memory only)",
            memory_access: "Random: vertex access; sequential: edge list",
            generality: "Vertex program",
        },
        ArchitectureRow {
            name: "GAA",
            process_edge: "Specialized AU",
            reduce: "Specialized APU/SCU",
            processing_model: "Async",
            data_movement: "Between memory and accelerator (in-memory only)",
            memory_access: "Random: vertex access; sequential: edge list",
            generality: "Vertex program",
        },
        ArchitectureRow {
            name: "Graphicionado",
            process_edge: "Specialized unit",
            reduce: "Specialized unit",
            processing_model: "Sync",
            data_movement: "Between modules in memory pipeline; memory to SPM",
            memory_access: "Reduced random with SPM; pipelined memory access",
            generality: "Vertex program",
        },
        ArchitectureRow {
            name: "GraphR",
            process_edge: "ReRAM crossbar",
            reduce: "ReRAM crossbar or sALU",
            processing_model: "Sync",
            data_movement: "Disk to memory (out-of-core); memory ReRAM to GEs",
            memory_access: "Sequential edge list (preprocessed)",
            generality: "Vertex program in SpMV",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_architectures_in_order() {
        let rows = architecture_comparison();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].name, "CPU");
        assert_eq!(rows[5].name, "GraphR");
    }

    #[test]
    fn graphr_is_the_only_analog_one() {
        let rows = architecture_comparison();
        let analog: Vec<_> = rows
            .iter()
            .filter(|r| r.process_edge.contains("ReRAM"))
            .collect();
        assert_eq!(analog.len(), 1);
        assert_eq!(analog[0].name, "GraphR");
        // And the only one with purely sequential memory access.
        assert!(analog[0].memory_access.starts_with("Sequential"));
    }
}

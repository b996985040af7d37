//! The simple ALU (sALU) — Figure 8's configurable reduction unit.
//!
//! The sALU performs the `reduce` of the vertex-programming model on values
//! the crossbars cannot reduce themselves: it is configured as `add` for
//! parallel-MAC algorithms (PageRank partial sums across subgraphs) and as
//! `min` for parallel-add-op algorithms (SSSP relaxation), exactly
//! Figure 15(a)/(b).

/// The reduction operation an sALU is configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Accumulate (`reduce = sum`): PageRank, SpMV, CF.
    Add,
    /// Minimise (`reduce = min`): BFS, SSSP.
    Min,
}

impl ReduceOp {
    /// The identity element: 0 for `Add`, `+∞`-like `max_value` for `Min`
    /// (callers pass their format's reserved maximum, the paper's `M`).
    #[must_use]
    pub fn identity(self, max_value: f64) -> f64 {
        match self {
            ReduceOp::Add => 0.0,
            ReduceOp::Min => max_value,
        }
    }

    /// Applies the reduction to two operands.
    #[must_use]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Add => a + b,
            ReduceOp::Min => a.min(b),
        }
    }
}

/// A counting sALU: applies a [`ReduceOp`] elementwise between a register
/// row and incoming values, tracking operation counts for the energy model
/// (compare Figure 15's register-vs-new-value examples).
#[derive(Debug, Clone, PartialEq)]
pub struct SAlu {
    op: ReduceOp,
    ops_performed: u64,
}

impl SAlu {
    /// Creates an sALU configured for `op`.
    #[must_use]
    pub fn new(op: ReduceOp) -> Self {
        SAlu {
            op,
            ops_performed: 0,
        }
    }

    /// The configured operation.
    #[must_use]
    pub fn op(&self) -> ReduceOp {
        self.op
    }

    /// Reduces `incoming` into `register` elementwise.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn reduce_into(&mut self, register: &mut [f64], incoming: &[f64]) {
        assert_eq!(
            register.len(),
            incoming.len(),
            "sALU operands must have equal length"
        );
        for (r, &x) in register.iter_mut().zip(incoming) {
            *r = self.op.apply(*r, x);
        }
        self.ops_performed += incoming.len() as u64;
    }

    /// Reduces one scalar into one register slot, returning whether the
    /// register changed (drives SSSP's active-vertex marking). The slot is
    /// written only when it changes, so a caller that tracks the reported
    /// changes knows every slot the reduction touched.
    pub fn reduce_one(&mut self, register: &mut f64, incoming: f64) -> bool {
        self.ops_performed += 1;
        let updated = self.op.apply(*register, incoming);
        let changed = updated != *register;
        if changed {
            *register = updated;
        }
        changed
    }

    /// Operations performed since construction.
    #[must_use]
    pub fn ops_performed(&self) -> u64 {
        self.ops_performed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure15a_add_example() {
        // reg(old) = [7,2,3,1], incoming = [2,4,5,3] → reg(new) = [9,6,8,4].
        let mut salu = SAlu::new(ReduceOp::Add);
        let mut reg = vec![7.0, 2.0, 3.0, 1.0];
        salu.reduce_into(&mut reg, &[2.0, 4.0, 5.0, 3.0]);
        assert_eq!(reg, vec![9.0, 6.0, 8.0, 4.0]);
        assert_eq!(salu.ops_performed(), 4);
    }

    #[test]
    fn figure15b_min_example() {
        // reg(old) = [5,6,4,7], incoming = [3,9,4,2] → reg(new) = [3,6,4,2].
        let mut salu = SAlu::new(ReduceOp::Min);
        let mut reg = vec![5.0, 6.0, 4.0, 7.0];
        salu.reduce_into(&mut reg, &[3.0, 9.0, 4.0, 2.0]);
        assert_eq!(reg, vec![3.0, 6.0, 4.0, 2.0]);
    }

    #[test]
    fn identities_are_neutral() {
        assert_eq!(ReduceOp::Add.identity(99.0), 0.0);
        assert_eq!(ReduceOp::Min.identity(99.0), 99.0);
        assert_eq!(ReduceOp::Add.apply(0.0, 5.0), 5.0);
        assert_eq!(ReduceOp::Min.apply(99.0, 5.0), 5.0);
    }

    #[test]
    fn reduce_one_reports_changes() {
        let mut salu = SAlu::new(ReduceOp::Min);
        let mut reg = 10.0;
        assert!(salu.reduce_one(&mut reg, 4.0));
        assert_eq!(reg, 4.0);
        assert!(!salu.reduce_one(&mut reg, 7.0));
        assert_eq!(reg, 4.0);
        assert_eq!(salu.ops_performed(), 2);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let mut salu = SAlu::new(ReduceOp::Add);
        let mut reg = vec![0.0; 2];
        salu.reduce_into(&mut reg, &[1.0]);
    }
}

//! RegI/RegO register files with access counting.
//!
//! §3.3's column-major vs row-major argument is entirely about these
//! registers: column-major needs RegO capacity for one destination strip
//! and writes it back once per strip; row-major needs capacity for *all*
//! strips of a block (or must spill per chunk) but reads RegI once per
//! source chunk. [`RegFile`] counts reads and writes so the ablation can
//! show the trade-off quantitatively.

/// A register file of 16-bit-class entries holding `f64` shadow values,
/// with read/write accounting.
///
/// # Examples
///
/// ```
/// use graphr_core::engine::RegFile;
///
/// let mut rego = RegFile::new(4, 0.0);
/// rego.write(1, 7.5);
/// assert_eq!(rego.read(1), 7.5);
/// assert_eq!(rego.reads(), 1);
/// assert_eq!(rego.writes(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegFile {
    values: Vec<f64>,
    reads: u64,
    writes: u64,
}

impl RegFile {
    /// Creates a register file of `capacity` entries initialised to `init`.
    #[must_use]
    pub fn new(capacity: usize, init: f64) -> Self {
        RegFile {
            values: vec![init; capacity],
            reads: 0,
            writes: 0,
        }
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.values.len()
    }

    /// Reads one entry.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn read(&mut self, idx: usize) -> f64 {
        self.reads += 1;
        self.values[idx]
    }

    /// Writes one entry.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn write(&mut self, idx: usize, value: f64) {
        self.writes += 1;
        self.values[idx] = value;
    }

    /// Bulk-loads the file from a slice (counted as one write per entry).
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds capacity.
    pub fn load(&mut self, data: &[f64]) {
        assert!(data.len() <= self.values.len(), "load exceeds capacity");
        self.values[..data.len()].copy_from_slice(data);
        self.writes += data.len() as u64;
    }

    /// Fills the whole file with `value` (counted as writes).
    pub fn fill(&mut self, value: f64) {
        self.values.fill(value);
        self.writes += self.values.len() as u64;
    }

    /// Snapshot of the contents (counted as one read per entry).
    pub fn dump(&mut self) -> Vec<f64> {
        self.reads += self.values.len() as u64;
        self.values.clone()
    }

    /// Borrow the raw values without touching the counters (simulator
    /// plumbing, not architectural traffic).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Reads performed.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes performed.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_reads_and_writes() {
        let mut r = RegFile::new(8, 0.0);
        r.load(&[1.0, 2.0, 3.0]);
        assert_eq!(r.writes(), 3);
        assert_eq!(r.read(0), 1.0);
        assert_eq!(r.read(2), 3.0);
        assert_eq!(r.reads(), 2);
        let snap = r.dump();
        assert_eq!(snap.len(), 8);
        assert_eq!(r.reads(), 10);
    }

    #[test]
    fn fill_counts_every_entry() {
        let mut r = RegFile::new(4, 0.0);
        r.fill(9.0);
        assert_eq!(r.writes(), 4);
        assert_eq!(r.values(), &[9.0; 4]);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn overflow_load_panics() {
        let mut r = RegFile::new(2, 0.0);
        r.load(&[1.0; 3]);
    }
}

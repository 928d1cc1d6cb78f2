//! Fixture: the flat outcome table, one append per pair.

/// A table of cells shared by every pair.
#[derive(Debug, Default)]
pub struct Table {
    cells: Vec<u32>,
    starts: Vec<usize>,
}

impl Table {
    /// Appends one pair's cells.
    pub fn push(&mut self, at: usize, cells: &[u32]) {
        self.skip_to(at);
        self.cells.extend_from_slice(cells);
        self.starts.push(self.cells.len());
    }

    fn skip_to(&mut self, at: usize) {
        while self.starts.len() < at {
            self.starts.push(self.cells.len());
        }
    }
}

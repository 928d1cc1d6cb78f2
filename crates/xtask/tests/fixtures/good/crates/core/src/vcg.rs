//! Fixture: the centralized prices, written straight into the table.

/// Appends each pair's prices to the table.
pub fn from_parts(prices: &[u64], table: &mut Vec<u64>) {
    table.extend(prices.iter().map(|p| p + 1));
}

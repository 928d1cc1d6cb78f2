//! Traffic matrices `[T_ij]`.

use crate::graph::AsGraph;
use crate::id::AsId;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The traffic matrix of the paper: `T_ij` is the intensity (number of
/// packets) of traffic originating at AS `i` destined for AS `j`.
///
/// Theorem 1 shows the per-packet prices are independent of the traffic
/// matrix; the matrix only weights payment totals
/// `p_k = Σ_ij T_ij · p^k_ij` (Sect. 6.4), so any synthetic matrix exercises
/// the accounting path. Diagonal entries are always zero — an AS does not
/// send transit traffic to itself.
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::{AsId, TrafficMatrix};
///
/// let mut t = TrafficMatrix::zero(3);
/// t.set(AsId::new(0), AsId::new(2), 10);
/// assert_eq!(t.demand(AsId::new(0), AsId::new(2)), 10);
/// assert_eq!(t.total_packets(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    n: usize,
    /// Row-major `n × n` intensities.
    demand: Vec<u64>,
}

impl TrafficMatrix {
    /// An all-zero matrix over `n` ASs.
    pub fn zero(n: usize) -> Self {
        TrafficMatrix {
            n,
            demand: vec![0; n * n],
        }
    }

    /// The uniform matrix: one packet between every ordered pair of distinct
    /// ASs. Under this matrix payment totals equal sums of per-packet
    /// prices, which is convenient for tests.
    pub fn uniform(n: usize, packets: u64) -> Self {
        let mut t = TrafficMatrix::zero(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    t.demand[i * n + j] = packets;
                }
            }
        }
        t
    }

    /// A random matrix with independent uniform intensities in
    /// `[lo, hi]` for every ordered pair.
    pub fn random<R: Rng + ?Sized>(n: usize, lo: u64, hi: u64, rng: &mut R) -> Self {
        assert!(lo <= hi, "lo must not exceed hi");
        let dist = Uniform::new_inclusive(lo, hi);
        let mut t = TrafficMatrix::zero(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    t.demand[i * n + j] = dist.sample(rng);
                }
            }
        }
        t
    }

    /// A gravity-model matrix: each AS `i` gets a random "mass" `m_i ∈
    /// [1, max_mass]` and `T_ij = m_i · m_j / scale` (rounded, min 1).
    /// Gravity models are the standard synthetic stand-in for real
    /// interdomain traffic, which is proprietary.
    pub fn gravity<R: Rng + ?Sized>(n: usize, max_mass: u64, rng: &mut R) -> Self {
        assert!(max_mass >= 1, "max_mass must be at least 1");
        let dist = Uniform::new_inclusive(1, max_mass);
        let masses: Vec<u64> = (0..n).map(|_| dist.sample(rng)).collect();
        let scale = max_mass.max(1);
        let mut t = TrafficMatrix::zero(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    t.demand[i * n + j] = (masses[i] * masses[j] / scale).max(1);
                }
            }
        }
        t
    }

    /// Number of ASs the matrix covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The intensity `T_ij`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn demand(&self, i: AsId, j: AsId) -> u64 {
        assert!(
            i.index() < self.n && j.index() < self.n,
            "index out of range"
        );
        self.demand[i.index() * self.n + j.index()]
    }

    /// Sets `T_ij`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range, or if `i == j` with a
    /// non-zero intensity (self-traffic is not transit traffic).
    pub fn set(&mut self, i: AsId, j: AsId, packets: u64) {
        assert!(
            i.index() < self.n && j.index() < self.n,
            "index out of range"
        );
        assert!(i != j || packets == 0, "self-traffic must be zero");
        self.demand[i.index() * self.n + j.index()] = packets;
    }

    /// Iterates over all `(source, destination, intensity)` triples with
    /// non-zero intensity.
    pub fn flows(&self) -> impl Iterator<Item = (AsId, AsId, u64)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n).filter_map(move |j| {
                let d = self.demand[i * self.n + j];
                if d > 0 {
                    Some((AsId::new(i as u32), AsId::new(j as u32), d))
                } else {
                    None
                }
            })
        })
    }

    /// Total number of packets in the matrix.
    pub fn total_packets(&self) -> u64 {
        self.demand.iter().sum()
    }

    /// Checks the matrix is compatible with a graph (same node count).
    pub fn matches(&self, graph: &AsGraph) -> bool {
        self.n == graph.node_count()
    }
}

impl fmt::Display for TrafficMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TrafficMatrix ({} ASs):", self.n)?;
        for i in 0..self.n {
            let row: Vec<String> = (0..self.n)
                .map(|j| self.demand[i * self.n + j].to_string())
                .collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_matrix_is_empty() {
        let t = TrafficMatrix::zero(4);
        assert_eq!(t.total_packets(), 0);
        assert_eq!(t.flows().count(), 0);
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn uniform_matrix_covers_all_ordered_pairs() {
        let t = TrafficMatrix::uniform(4, 2);
        assert_eq!(t.total_packets(), 4 * 3 * 2);
        assert_eq!(t.demand(AsId::new(0), AsId::new(3)), 2);
        assert_eq!(t.demand(AsId::new(2), AsId::new(2)), 0);
    }

    #[test]
    fn set_and_get() {
        let mut t = TrafficMatrix::zero(3);
        t.set(AsId::new(1), AsId::new(2), 7);
        assert_eq!(t.demand(AsId::new(1), AsId::new(2)), 7);
        assert_eq!(t.demand(AsId::new(2), AsId::new(1)), 0, "asymmetric");
    }

    #[test]
    #[should_panic(expected = "self-traffic")]
    fn set_rejects_self_traffic() {
        let mut t = TrafficMatrix::zero(3);
        t.set(AsId::new(1), AsId::new(1), 1);
    }

    #[test]
    fn set_allows_zero_self_traffic() {
        let mut t = TrafficMatrix::zero(3);
        t.set(AsId::new(1), AsId::new(1), 0);
        assert_eq!(t.demand(AsId::new(1), AsId::new(1)), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn demand_bounds_checked() {
        let t = TrafficMatrix::zero(2);
        let _ = t.demand(AsId::new(5), AsId::new(0));
    }

    #[test]
    fn random_matrix_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = TrafficMatrix::random(5, 2, 9, &mut rng);
        for (i, j, d) in t.flows() {
            assert!(i != j);
            assert!((2..=9).contains(&d));
        }
        // Every off-diagonal pair present because lo >= 1.
        assert_eq!(t.flows().count(), 5 * 4);
    }

    #[test]
    fn gravity_matrix_is_positive_off_diagonal() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = TrafficMatrix::gravity(6, 10, &mut rng);
        assert_eq!(t.flows().count(), 6 * 5);
    }

    #[test]
    fn flows_iterates_in_row_major_order() {
        let t = TrafficMatrix::uniform(3, 1);
        let flows: Vec<(u32, u32)> = t.flows().map(|(i, j, _)| (i.raw(), j.raw())).collect();
        assert_eq!(flows, vec![(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
    }
}

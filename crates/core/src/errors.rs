//! Typed errors for the mechanism runners.
//!
//! The protocol hot paths are panic-free by policy (enforced by
//! `cargo xtask lint`): conditions that used to be `expect(...)` calls in
//! the runners are reported as [`MechanismError`] values instead, so a
//! caller embedding the mechanism in a larger system can observe — rather
//! than crash on — a graph that lost biconnectivity or an outcome assembled
//! before prices converged.

use bgpvcg_bgp::forwarding::ForwardingError;
use bgpvcg_netgraph::{AsId, Cost, GraphError};
use std::error::Error;
use std::fmt;

/// Why a mechanism run could not produce a routing outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MechanismError {
    /// The input graph failed validation (size, connectivity,
    /// biconnectivity, …).
    Graph(GraphError),
    /// A selected route's transit node carried no converged price entry —
    /// the outcome was read before the pricing fixpoint was reached.
    MissingPrice {
        /// Source AS of the priced route.
        source: AsId,
        /// Destination AS of the priced route.
        destination: AsId,
        /// The transit node whose price entry is absent.
        transit: AsId,
    },
    /// A converged price is below its transit node's declared cost, which
    /// no Theorem-1 price can be (`p^k = c_k + margin`, `margin ≥ 0`): the
    /// nodes rest on a stale or corrupted fixpoint.
    PriceBelowCost {
        /// Source AS of the priced route.
        source: AsId,
        /// Destination AS of the priced route.
        destination: AsId,
        /// The underpriced transit node.
        transit: AsId,
        /// Its extracted price.
        price: Cost,
        /// Its declared cost on the selected route.
        cost: Cost,
    },
    /// Traffic was demanded between a pair no selected route serves.
    UnroutedPair {
        /// Source AS of the demanded flow.
        source: AsId,
        /// Destination AS of the demanded flow.
        destination: AsId,
    },
    /// Data-plane forwarding across the converged tables failed or diverged
    /// from the priced control-plane route.
    Forwarding(ForwardingError),
}

impl fmt::Display for MechanismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MechanismError::Graph(e) => write!(f, "graph error: {e}"),
            MechanismError::MissingPrice {
                source,
                destination,
                transit,
            } => write!(
                f,
                "no converged price for transit {transit} on route {source}->{destination}"
            ),
            MechanismError::PriceBelowCost {
                source,
                destination,
                transit,
                price,
                cost,
            } => write!(
                f,
                "converged price {price} of transit {transit} on route {source}->{destination} \
                 is below its declared cost {cost}"
            ),
            MechanismError::UnroutedPair {
                source,
                destination,
            } => write!(
                f,
                "traffic demanded for unrouted pair {source}->{destination}"
            ),
            MechanismError::Forwarding(e) => write!(f, "forwarding error: {e}"),
        }
    }
}

impl Error for MechanismError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MechanismError::Graph(e) => Some(e),
            MechanismError::Forwarding(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for MechanismError {
    fn from(e: GraphError) -> Self {
        MechanismError::Graph(e)
    }
}

impl From<ForwardingError> for MechanismError {
    fn from(e: ForwardingError) -> Self {
        MechanismError::Forwarding(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_errors_wrap_and_chain() {
        let err: MechanismError = GraphError::NotBiconnected.into();
        assert!(matches!(err, MechanismError::Graph(_)));
        assert!(Error::source(&err).is_some());
        assert!(err.to_string().contains("graph error"));
    }

    #[test]
    fn missing_price_names_the_route() {
        let err = MechanismError::MissingPrice {
            source: AsId::new(1),
            destination: AsId::new(2),
            transit: AsId::new(3),
        };
        let text = err.to_string();
        assert!(text.contains("1") && text.contains("2") && text.contains("3"));
        assert!(Error::source(&err).is_none());
    }
}

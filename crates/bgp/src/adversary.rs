//! Seeded Byzantine adversary models and the engine-side audit hooks.
//!
//! The paper's Sect. 7 closes on an unresolved trust gap: the mechanism is
//! strategyproof about *declared costs*, but the very ASes that benefit
//! from higher prices also run the distributed computation — "what is to
//! stop them from running a different algorithm that computes prices more
//! favorable to them?" This module gives that question a concrete shape:
//! an [`Adversary`] wraps an honest node at the *wire* layer. The wrapped
//! node ingests its inbox and evolves its internal state honestly; only
//! its outgoing advertisements are perturbed, per receiving neighbor, as
//! they are queued onto links. Every strategy is a deterministic function
//! of one `u64` seed (plus the destination and receiving neighbor), so
//! adversarial runs replay bit-identically.
//!
//! Detection is the other half: a [`WireAuditor`] attached to an engine
//! observes every link-level delivery and, per stage, accuses nodes whose
//! wire behavior diverges from what the honest protocol — fed the same
//! inbox — would have produced. The reference implementation lives in
//! `bgpvcg-core::audit::OnlineAuditor` (it needs the pricing node type);
//! this module only defines the engine-facing contract so the BGP crate
//! stays free of a dependency cycle.

use crate::dynamics::{LocalEvent, TopologyEvent};
use crate::message::{RouteAdvertisement, RouteInfo, Update};
use bgpvcg_netgraph::{AsId, Cost};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The five Byzantine strategies of the threat model (see
/// `docs/ROBUSTNESS.md` for the taxonomy and what catches each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// Add a seed-derived margin to every finite advertised price — the
    /// paper's own worry: prices "more favorable to them".
    PriceInflate,
    /// Advertise route costs cheaper than true to attract traffic.
    CostUnderstate,
    /// Send different advertisements to different neighbors. Invisible to
    /// any single-neighborhood replay; only cross-neighbor comparison
    /// catches it.
    Equivocate,
    /// Freeze each destination's first advertisement and re-send that
    /// stale route forever — suppressing every later revision and
    /// withdrawal.
    Replay,
    /// Advertise withdrawals for routes the node actually selected.
    PhantomWithdraw,
}

impl Strategy {
    /// Every strategy, in matrix order.
    pub const ALL: [Strategy; 5] = [
        Strategy::PriceInflate,
        Strategy::CostUnderstate,
        Strategy::Equivocate,
        Strategy::Replay,
        Strategy::PhantomWithdraw,
    ];

    /// Stable display name (used by experiment tables and docs).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::PriceInflate => "price-inflate",
            Strategy::CostUnderstate => "cost-understate",
            Strategy::Equivocate => "equivocate",
            Strategy::Replay => "replay",
            Strategy::PhantomWithdraw => "phantom-withdraw",
        }
    }

    /// Stable numeric code for the `AdversaryInjected` trace event.
    pub fn code(self) -> u32 {
        match self {
            Strategy::PriceInflate => 0,
            Strategy::CostUnderstate => 1,
            Strategy::Equivocate => 2,
            Strategy::Replay => 3,
            Strategy::PhantomWithdraw => 4,
        }
    }
}

/// A Byzantine wire-layer wrapper around one honest node.
///
/// Engines consult the adversary on every outgoing delivery (broadcast
/// copies and session full-table unicasts alike): [`Adversary::perturb`]
/// either returns a corrupted copy for that specific neighbor or `None`
/// to let the honest payload through unchanged. Perturbed advertisements
/// stay well-formed (`RouteSelector` drops malformed ones silently), so
/// the corruption actually lands in receivers' tables.
#[derive(Debug, Clone)]
pub struct Adversary {
    strategy: Strategy,
    seed: u64,
    /// Seed-derived margin added/subtracted by the pricing strategies.
    margin: u64,
    /// Replay memory: the first advertisement ever sent per destination,
    /// frozen and re-sent in place of every later revision.
    frozen: BTreeMap<AsId, RouteInfo>,
    /// Perturbed advertisements emitted so far (over all neighbors).
    injected: u64,
}

impl Adversary {
    /// Creates an adversary playing `strategy`, fully determined by `seed`.
    pub fn new(strategy: Strategy, seed: u64) -> Self {
        Adversary {
            strategy,
            seed,
            margin: 1 + (seed % 7),
            frozen: BTreeMap::new(),
            injected: 0,
        }
    }

    /// The strategy being played.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The seed the behavior is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of perturbed advertisements emitted so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Perturbs `update` as delivered to neighbor `to`, where `rank` is
    /// the neighbor's position in the sender's (sorted) adjacency list.
    /// Returns `None` when this delivery passes through honestly.
    ///
    /// The perturbation is per-(destination, neighbor) deterministic, so
    /// the adversary is *self-consistent*: full-table session resends
    /// corrupt the same entries the same way, and runs replay exactly.
    pub fn perturb(&mut self, _to: AsId, rank: usize, update: &Update) -> Option<Update> {
        let mut advertisements = Vec::with_capacity(update.advertisements.len());
        let mut changed = 0u64;
        for ad in &update.advertisements {
            let info = match self.strategy {
                Strategy::PriceInflate => inflate_prices(&ad.info, self.margin),
                Strategy::CostUnderstate => understate_cost(&ad.info, self.margin),
                Strategy::Equivocate => equivocate(&ad.info, rank, self.margin),
                Strategy::Replay => replay(&mut self.frozen, ad),
                Strategy::PhantomWithdraw => phantom_withdraw(ad, self.seed),
            };
            match info {
                Some(info) => {
                    changed += 1;
                    advertisements.push(RouteAdvertisement {
                        destination: ad.destination,
                        info,
                    });
                }
                None => advertisements.push(ad.clone()),
            }
        }
        if changed == 0 {
            return None;
        }
        self.injected += changed;
        Some(Update {
            from: update.from,
            sender_costs: update.sender_costs.clone(),
            advertisements,
            id: update.id,
        })
    }
}

/// Price-inflate: every finite price entry gains `margin`.
fn inflate_prices(info: &RouteInfo, margin: u64) -> Option<RouteInfo> {
    let RouteInfo::Reachable {
        path,
        path_cost,
        prices,
    } = info
    else {
        return None;
    };
    if !prices.iter().any(|p| p.is_finite()) {
        return None;
    }
    let prices = prices
        .iter()
        .map(|&p| match p.finite() {
            Some(v) => Cost::new(v + margin),
            None => p,
        })
        .collect();
    Some(RouteInfo::Reachable {
        path: path.clone(),
        path_cost: *path_cost,
        prices,
    })
}

/// Cost-understate: a positive path cost shrinks by `margin` (floored at
/// zero), making the route look cheaper than it is.
fn understate_cost(info: &RouteInfo, margin: u64) -> Option<RouteInfo> {
    let RouteInfo::Reachable {
        path,
        path_cost,
        prices,
    } = info
    else {
        return None;
    };
    let true_cost = path_cost.finite()?;
    if true_cost == 0 {
        return None;
    }
    Some(RouteInfo::Reachable {
        path: path.clone(),
        path_cost: Cost::new(true_cost.saturating_sub(margin)),
        prices: prices.clone(),
    })
}

/// Equivocate: the first neighbor (rank 0) hears the truth, every other
/// neighbor hears the path cost inflated by `margin` — two neighbors of a
/// biconnected node are thus guaranteed to hear different stories about
/// the same destination.
fn equivocate(info: &RouteInfo, rank: usize, margin: u64) -> Option<RouteInfo> {
    if rank == 0 {
        return None;
    }
    let RouteInfo::Reachable {
        path,
        path_cost,
        prices,
    } = info
    else {
        return None;
    };
    Some(RouteInfo::Reachable {
        path: path.clone(),
        path_cost: path_cost.saturating_add(Cost::new(margin)),
        prices: prices.clone(),
    })
}

/// Replay: the first advertisement per destination is frozen; every later
/// revision or withdrawal is replaced by the frozen original.
fn replay(frozen: &mut BTreeMap<AsId, RouteInfo>, ad: &RouteAdvertisement) -> Option<RouteInfo> {
    match frozen.get(&ad.destination) {
        Some(stale) if *stale != ad.info => Some(stale.clone()),
        Some(_) => None,
        None => {
            frozen.insert(ad.destination, ad.info.clone());
            None
        }
    }
}

/// Phantom-withdraw: routes toward seed-selected destinations (about half
/// of them) are advertised as withdrawn even though the node selected and
/// uses them.
fn phantom_withdraw(ad: &RouteAdvertisement, seed: u64) -> Option<RouteInfo> {
    if !matches!(ad.info, RouteInfo::Reachable { .. }) {
        return None;
    }
    if (u64::from(ad.destination.index() as u32) + seed).is_multiple_of(2) {
        Some(RouteInfo::Withdrawn)
    } else {
        None
    }
}

/// What a [`WireAuditor`] concluded about one diverging destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFinding {
    /// The destination whose advertisement diverged.
    pub destination: AsId,
    /// What the honest replay says the node should be advertising
    /// (`None` = a withdrawal / silence).
    pub expected: Option<RouteInfo>,
    /// What the wire actually carried (`None` = a withdrawal / silence).
    pub advertised: Option<RouteInfo>,
    /// `true` when the divergence is two neighbors hearing different
    /// stories (equivocation) rather than a divergence from the honest
    /// replay.
    pub equivocation: bool,
}

/// One per-stage accusation: a node whose wire behavior diverged from the
/// honest protocol, with the specific destinations and expected-vs-seen
/// values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accusation {
    /// The accused AS.
    pub node: AsId,
    /// The stage at which the divergence was established.
    pub stage: u64,
    /// Every diverging destination, in ascending order.
    pub findings: Vec<WireFinding>,
}

/// An engine-attached watchdog observing link-level deliveries.
///
/// The [`Engine`](crate::engine::Engine) calls [`on_wire`] for every copy
/// its wire tap lets out (broadcast copies and unicasts alike, in its
/// deterministic ascending-sender order), [`on_delivery`] with the batch
/// each node is about to handle (ascending receivers, once per handle
/// pass), [`on_topology`] / [`on_local_event`] when topology events or
/// session changes reach the nodes, and [`end_stage`] after the stage-0
/// reaction broadcasts and after every executed stage. Accusations
/// returned from `end_stage` drive the engine's quarantine machinery.
///
/// What was sent and what was delivered are told apart, so an auditor
/// never has to guess when a copy arrives: under lock-step the two are a
/// stage apart, under sessions a copy may be delayed or lost in between.
///
/// [`on_wire`]: WireAuditor::on_wire
/// [`on_delivery`]: WireAuditor::on_delivery
/// [`on_topology`]: WireAuditor::on_topology
/// [`on_local_event`]: WireAuditor::on_local_event
/// [`end_stage`]: WireAuditor::end_stage
pub trait WireAuditor: Send {
    /// A payload left `from` on the link toward `to`.
    fn on_wire(&mut self, from: AsId, to: AsId, update: &Arc<Update>);

    /// Node `to` is about to handle `batch`, exactly what the engine
    /// delivered to it this stage, in delivery order. Default: nothing, for
    /// an auditor that reads only the wire.
    fn on_delivery(&mut self, _to: AsId, _batch: &[Arc<Update>]) {}

    /// A topology event is about to mutate the network (quarantines
    /// included), or a node is about to crash silently (told as a
    /// `NodeDown`). Auditors drop state for downed nodes here.
    fn on_topology(&mut self, event: &TopologyEvent);

    /// Node `node` is about to apply `event` as its local view of a
    /// topology change or a session going up or down.
    fn on_local_event(&mut self, node: AsId, event: &LocalEvent);

    /// The engine finished delivering stage `stage`; cross-check and
    /// return any accusations (empty when everyone behaved).
    fn end_stage(&mut self, stage: u64) -> Vec<Accusation>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{PathEntry, SharedPath};

    fn reachable(dest: u32, cost: u64, prices: &[u64]) -> RouteAdvertisement {
        let path: SharedPath = vec![
            PathEntry {
                node: AsId::new(9),
                cost: Cost::new(1),
            },
            PathEntry {
                node: AsId::new(7),
                cost: Cost::new(2),
            },
            PathEntry {
                node: AsId::new(dest),
                cost: Cost::new(1),
            },
        ]
        .into();
        RouteAdvertisement {
            destination: AsId::new(dest),
            info: RouteInfo::Reachable {
                path,
                path_cost: Cost::new(cost),
                prices: prices.iter().map(|&p| Cost::new(p)).collect(),
            },
        }
    }

    fn update_with(ads: Vec<RouteAdvertisement>) -> Update {
        Update {
            from: AsId::new(9),
            sender_costs: Vec::new(),
            advertisements: ads,
            id: 1,
        }
    }

    #[test]
    fn strategies_are_deterministic_in_the_seed() {
        for strategy in Strategy::ALL {
            let update = update_with(vec![reachable(3, 5, &[2, 4])]);
            let a = Adversary::new(strategy, 11).perturb(AsId::new(7), 1, &update);
            let b = Adversary::new(strategy, 11).perturb(AsId::new(7), 1, &update);
            assert_eq!(a, b, "{}", strategy.name());
        }
    }

    #[test]
    fn price_inflate_raises_only_finite_prices() {
        let update = update_with(vec![reachable(3, 5, &[2])]);
        let mut adv = Adversary::new(Strategy::PriceInflate, 0);
        let perturbed = adv.perturb(AsId::new(7), 0, &update).expect("perturbs");
        let RouteInfo::Reachable { prices, .. } = &perturbed.advertisements[0].info else {
            panic!("stays reachable");
        };
        assert_eq!(prices[0], Cost::new(2 + 1));
        assert_eq!(adv.injected(), 1);
        // All-infinite price arrays pass through untouched.
        let inf = update_with(vec![RouteAdvertisement {
            destination: AsId::new(3),
            info: RouteInfo::Reachable {
                path: reachable(3, 5, &[]).info.path().unwrap().iter().collect(),
                path_cost: Cost::new(5),
                prices: vec![Cost::INFINITE],
            },
        }]);
        assert!(adv.perturb(AsId::new(7), 0, &inf).is_none());
    }

    #[test]
    fn cost_understate_floors_at_zero() {
        let update = update_with(vec![reachable(3, 2, &[])]);
        let mut adv = Adversary::new(Strategy::CostUnderstate, 6); // margin 7
        let perturbed = adv.perturb(AsId::new(7), 0, &update).expect("perturbs");
        assert_eq!(
            perturbed.advertisements[0].info.path_cost(),
            Some(Cost::ZERO)
        );
        // Zero-cost routes cannot be understated further.
        let free = update_with(vec![reachable(3, 0, &[])]);
        assert!(adv.perturb(AsId::new(7), 0, &free).is_none());
    }

    #[test]
    fn equivocate_spares_the_first_neighbor() {
        let update = update_with(vec![reachable(3, 5, &[])]);
        let mut adv = Adversary::new(Strategy::Equivocate, 0);
        assert!(adv.perturb(AsId::new(2), 0, &update).is_none());
        let other = adv.perturb(AsId::new(7), 1, &update).expect("perturbs");
        assert_eq!(
            other.advertisements[0].info.path_cost(),
            Some(Cost::new(5 + 1))
        );
    }

    #[test]
    fn replay_freezes_the_first_advertisement() {
        let mut adv = Adversary::new(Strategy::Replay, 0);
        let first = update_with(vec![reachable(3, 5, &[])]);
        assert!(
            adv.perturb(AsId::new(7), 0, &first).is_none(),
            "first passes"
        );
        let revised = update_with(vec![reachable(3, 4, &[])]);
        let replayed = adv.perturb(AsId::new(7), 0, &revised).expect("replays");
        assert_eq!(
            replayed.advertisements[0].info, first.advertisements[0].info,
            "the stale original is re-sent"
        );
        // Withdrawals are suppressed the same way.
        let withdrawn = update_with(vec![RouteAdvertisement {
            destination: AsId::new(3),
            info: RouteInfo::Withdrawn,
        }]);
        let replayed = adv.perturb(AsId::new(7), 0, &withdrawn).expect("replays");
        assert_eq!(
            replayed.advertisements[0].info,
            first.advertisements[0].info
        );
    }

    #[test]
    fn phantom_withdraw_hits_seed_selected_destinations() {
        let mut adv = Adversary::new(Strategy::PhantomWithdraw, 0);
        let even = update_with(vec![reachable(4, 5, &[])]);
        let perturbed = adv.perturb(AsId::new(7), 0, &even).expect("perturbs");
        assert_eq!(perturbed.advertisements[0].info, RouteInfo::Withdrawn);
        let odd = update_with(vec![reachable(5, 5, &[])]);
        assert!(adv.perturb(AsId::new(7), 0, &odd).is_none());
    }
}

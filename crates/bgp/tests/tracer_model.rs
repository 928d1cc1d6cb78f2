//! Differential model test for [`UpdateTracer`].
//!
//! The production tracer keeps its shadow of the last traced routes and
//! prices in dense rows indexed by AS number, holds advertised paths by
//! pointer, and delivers one update's events in a single sink call. The
//! tracer it replaced kept two ordered maps and a `Vec` copy of every path
//! and recorded event by event — slower, and for exactly that reason easy
//! to believe. It lives on here, test-only, as the oracle: random update
//! streams go through both and the event streams and counters must be
//! identical.

use bgpvcg_bgp::telemetry::{cost_raw, metric, UpdateTracer};
use bgpvcg_bgp::{PathEntry, RouteAdvertisement, RouteInfo, SharedPath, Update};
use bgpvcg_netgraph::{AsId, Cost};
use bgpvcg_telemetry::{RingBufferSink, TeeSink, Telemetry, TraceEvent, TraceSink, INFINITE};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The map-based tracer, as it was before the dense shadow.
#[derive(Debug, Default)]
struct MapTracer {
    /// Last price value traced per `(node, dest, transit)` — absent = `∞`.
    prices: BTreeMap<(u32, u32, u32), u64>,
    /// Last path traced per `(node, dest)` — absent = none, or withdrawn.
    routes: BTreeMap<(u32, u32), Vec<(u32, u64)>>,
    events: Vec<TraceEvent>,
    selected: u64,
    withdrawn: u64,
    relaxations: u64,
}

impl MapTracer {
    fn relax(&mut self, key: (u32, u32, u32), price: Cost, stage: u64) {
        let new = cost_raw(price);
        let old = self.prices.get(&key).copied().unwrap_or(INFINITE);
        if new != old {
            self.prices.insert(key, new);
            self.relaxations += 1;
            self.events.push(TraceEvent::PriceRelaxed {
                node: key.0,
                dest: key.1,
                k: key.2,
                stage,
                old,
                new,
            });
        }
    }

    fn observe_update(&mut self, update: &Update, stage: u64) {
        let node = update.from.raw();
        for ad in &update.advertisements {
            let dest = ad.destination.raw();
            match &ad.info {
                RouteInfo::Reachable {
                    path,
                    path_cost,
                    prices,
                } => {
                    let shadow: Vec<(u32, u64)> = path
                        .iter()
                        .map(|e| (e.node.raw(), cost_raw(e.cost)))
                        .collect();
                    if self.routes.get(&(node, dest)) != Some(&shadow) {
                        self.routes.insert((node, dest), shadow);
                        self.selected += 1;
                        self.events.push(TraceEvent::RouteSelected {
                            node,
                            dest,
                            stage,
                            hops: path.len() as u32,
                            path_cost: cost_raw(*path_cost),
                        });
                    }
                    if path.len() >= 3 {
                        for (entry, price) in path.transit().zip(prices) {
                            let key = (node, dest, entry.node.raw());
                            self.relax(key, *price, stage);
                        }
                    }
                }
                RouteInfo::PriceDelta { entries, .. } => {
                    let Some(shadow) = self.routes.get(&(node, dest)).cloned() else {
                        continue;
                    };
                    for &(index, price) in entries {
                        let Some(&(transit, _)) = shadow.get(usize::from(index) + 1) else {
                            continue;
                        };
                        self.relax((node, dest, transit), price, stage);
                    }
                }
                RouteInfo::Withdrawn => {
                    self.routes.remove(&(node, dest));
                    self.withdrawn += 1;
                    self.events
                        .push(TraceEvent::Withdrawn { node, dest, stage });
                }
            }
        }
    }
}

/// AS numbers the streams draw advertisers, destinations and transits from.
const UNIVERSE: u32 = 6;

/// `None` is `∞`.
type Price = Option<u64>;

fn cost(price: Price) -> Cost {
    price.map_or(Cost::INFINITE, Cost::new)
}

#[derive(Debug, Clone)]
enum AdSpec {
    /// A full advertisement `from → middle… → dest`; `shared` re-uses the
    /// interned path of an earlier equal advertisement (pointer-equal)
    /// instead of building an equal copy.
    Full {
        dest: u32,
        middle: Vec<u32>,
        hop_cost: u64,
        prices: Vec<Price>,
        shared: bool,
    },
    Delta {
        dest: u32,
        entries: Vec<(u16, Price)>,
    },
    Withdraw {
        dest: u32,
    },
}

#[derive(Debug, Clone)]
enum Op {
    Send {
        from: u32,
        ads: Vec<AdSpec>,
    },
    /// The previous update again, verbatim.
    Repeat,
}

fn price() -> impl Strategy<Value = Price> {
    prop_oneof![1 => Just(None), 3 => (0u64..4).prop_map(Some)]
}

fn ad_spec() -> impl Strategy<Value = AdSpec> {
    // Few transit ids, so a changed path usually keeps one; repeats allowed
    // (the price memory is keyed by id wherever the id sits). The price
    // list may be shorter or longer than the transit list.
    let full = (
        0..UNIVERSE,
        proptest::collection::vec(0..UNIVERSE, 0..4),
        1u64..3,
        proptest::collection::vec(price(), 0..5),
        any::<bool>(),
    )
        .prop_map(|(dest, middle, hop_cost, prices, shared)| AdSpec::Full {
            dest,
            middle,
            hop_cost,
            prices,
            shared,
        });
    let delta = (
        0..UNIVERSE,
        proptest::collection::vec((0u16..6, price()), 1..4),
    )
        .prop_map(|(dest, entries)| AdSpec::Delta { dest, entries });
    let withdraw = (0..UNIVERSE).prop_map(|dest| AdSpec::Withdraw { dest });
    prop_oneof![5 => full, 4 => delta, 1 => withdraw]
}

fn op() -> impl Strategy<Value = Op> {
    let send = (0u32..3, proptest::collection::vec(ad_spec(), 0..4))
        .prop_map(|(from, ads)| Op::Send { from, ads });
    prop_oneof![8 => send, 1 => Just(Op::Repeat)]
}

/// Turns op streams into updates, interning paths so `shared` full
/// advertisements hand the tracer the very same `Arc`.
#[derive(Default)]
struct Wire {
    interned: BTreeMap<Vec<(u32, u64)>, SharedPath>,
    last: Option<Update>,
}

impl Wire {
    fn advertisement(&mut self, from: u32, spec: &AdSpec) -> RouteAdvertisement {
        let (dest, info) = match spec {
            AdSpec::Withdraw { dest } => (*dest, RouteInfo::Withdrawn),
            AdSpec::Delta { dest, entries } => (
                *dest,
                RouteInfo::PriceDelta {
                    base_path_hash: 0,
                    entries: entries.iter().map(|&(i, p)| (i, cost(p))).collect(),
                },
            ),
            AdSpec::Full {
                dest,
                middle,
                hop_cost,
                prices,
                shared,
            } => {
                let hops: Vec<(u32, u64)> = std::iter::once(from)
                    .chain(middle.iter().copied())
                    .chain(std::iter::once(*dest))
                    .map(|node| (node, *hop_cost))
                    .collect();
                let build = || -> SharedPath {
                    hops.iter()
                        .map(|&(node, c)| PathEntry {
                            node: AsId::new(node),
                            cost: Cost::new(c),
                        })
                        .collect()
                };
                let path = match self.interned.get(&hops) {
                    Some(path) if *shared => path.clone(),
                    _ => build(),
                };
                self.interned.insert(hops.clone(), path.clone());
                (
                    *dest,
                    RouteInfo::Reachable {
                        path,
                        path_cost: Cost::new(hop_cost * middle.len() as u64),
                        prices: prices.iter().map(|&p| cost(p)).collect(),
                    },
                )
            }
        };
        RouteAdvertisement {
            destination: AsId::new(dest),
            info,
        }
    }

    fn update(&mut self, op: &Op) -> Option<Update> {
        let update = match op {
            Op::Repeat => self.last.clone()?,
            Op::Send { from, ads } => Update {
                from: AsId::new(*from),
                sender_costs: Vec::new(),
                advertisements: ads
                    .iter()
                    .map(|spec| self.advertisement(*from, spec))
                    .collect(),
                id: 0,
            },
        };
        self.last = Some(update.clone());
        Some(update)
    }
}

/// One production tracer under test with the sinks it records into.
struct Traced {
    tracer: UpdateTracer,
    telemetry: Telemetry,
    rings: Vec<Arc<RingBufferSink>>,
}

impl Traced {
    /// A tracer sized to the universe recording into one ring.
    fn one_ring() -> Traced {
        let (telemetry, ring) = Telemetry::ring(1 << 16);
        Traced {
            tracer: UpdateTracer::with_node_count(&telemetry, UNIVERSE as usize),
            telemetry,
            rings: vec![ring],
        }
    }

    /// A tracer sized to the universe recording into a tee of two rings.
    fn tee() -> Traced {
        let rings = vec![
            Arc::new(RingBufferSink::new(1 << 16)),
            Arc::new(RingBufferSink::new(1 << 16)),
        ];
        let telemetry = Telemetry::new(Arc::new(TeeSink::new(
            Arc::clone(&rings[0]) as Arc<dyn TraceSink>,
            Arc::clone(&rings[1]) as Arc<dyn TraceSink>,
        )));
        Traced {
            tracer: UpdateTracer::with_node_count(&telemetry, UNIVERSE as usize),
            telemetry,
            rings,
        }
    }

    fn check(&self, oracle: &MapTracer) -> Result<(), TestCaseError> {
        for ring in &self.rings {
            prop_assert_eq!(&ring.events(), &oracle.events);
        }
        let counters = self.telemetry.snapshot().counters;
        prop_assert_eq!(counters[metric::ROUTES_SELECTED], oracle.selected);
        prop_assert_eq!(counters[metric::ROUTES_WITHDRAWN], oracle.withdrawn);
        prop_assert_eq!(counters[metric::PRICE_RELAXATIONS], oracle.relaxations);
        Ok(())
    }
}

/// Feeds the stream to the oracle and to both production tracers, checking
/// the whole event history after every update.
fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut wire = Wire::default();
    let mut oracle = MapTracer::default();
    let mut traced = [Traced::one_ring(), Traced::tee()];
    for (step, op) in ops.iter().enumerate() {
        let Some(update) = wire.update(op) else {
            continue;
        };
        let stage = step as u64 / 3;
        oracle.observe_update(&update, stage);
        for t in &mut traced {
            t.tracer.observe_update(&update, stage);
            t.check(&oracle)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same events, in the same order in every sink, with the same `old`
    /// values, and the same three counters.
    fn dense_tracer_matches_map_oracle(ops in proptest::collection::vec(op(), 1..40)) {
        run(&ops)?;
    }
}

/// The cases the shadow layout could plausibly get wrong, spelled out, so
/// each is exercised whatever the generator happens to draw.
#[test]
fn named_shadow_cases_match_the_oracle() {
    let full = |dest, middle: &[u32], prices: &[Price], shared| AdSpec::Full {
        dest,
        middle: middle.to_vec(),
        hop_cost: 1,
        prices: prices.to_vec(),
        shared,
    };
    let delta = |dest, entries: &[(u16, Price)]| AdSpec::Delta {
        dest,
        entries: entries.to_vec(),
    };
    let send = |ads: Vec<AdSpec>| Op::Send { from: 0, ads };
    let ops = [
        // A delta before any full advertisement: skipped.
        send(vec![delta(5, &[(0, Some(3))])]),
        // ∞ → finite → ∞ on transit 2; transit 3 stays ∞ (never traced).
        send(vec![full(5, &[2, 3], &[None, None], false)]),
        send(vec![full(5, &[2, 3], &[Some(4), None], true)]),
        send(vec![delta(5, &[(0, None)])]),
        // Repeated identical advertisements, by pointer and by content.
        send(vec![full(5, &[2, 3], &[Some(1), Some(2)], true)]),
        Op::Repeat,
        send(vec![full(5, &[2, 3], &[Some(1), Some(2)], false)]),
        // The path changes but keeps transit 3, now at index 0: its old
        // value is the one traced at index 1 above.
        send(vec![full(5, &[3, 4], &[Some(2), Some(9)], false)]),
        // Delta indices: in range, the destination's own entry, past the path.
        send(vec![delta(5, &[(1, Some(8)), (2, Some(7)), (3, Some(6))])]),
        // Withdraw, then re-advertise the first path: a delta in between is
        // skipped, and the price memory of transits 2 and 3 survives both.
        send(vec![AdSpec::Withdraw { dest: 5 }]),
        send(vec![delta(5, &[(0, Some(0))])]),
        send(vec![full(5, &[2, 3], &[Some(1), Some(2)], true)]),
        // More prices than transits, a transit repeated, and no transit.
        send(vec![full(4, &[2, 2], &[Some(1), Some(2), Some(3)], false)]),
        send(vec![full(3, &[], &[Some(1)], false)]),
    ];
    run(&ops).expect("dense tracer and map oracle agree");
}

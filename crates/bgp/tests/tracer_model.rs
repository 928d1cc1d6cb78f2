//! Differential model test for [`UpdateTracer`].
//!
//! The production tracer keeps the last traced path of each
//! `(node, destination)` pair in dense rows indexed by AS number, holds it
//! by pointer, and delivers one update's events in a single sink call. The
//! oracle here keeps a `Vec` copy of every path in an ordered map and
//! records event by event — slower, and for exactly that reason easy to
//! believe. Random update streams go through both and the event streams
//! and counters must be identical. Both narrate prices as advertised: every
//! finite entry of a full row, and every entry of a delta whose index names
//! a transit node of the last traced path.

use bgpvcg_bgp::telemetry::{cost_raw, metric, UpdateTracer};
use bgpvcg_bgp::{PathEntry, RouteAdvertisement, RouteInfo, SharedPath, Update};
use bgpvcg_netgraph::{AsId, Cost};
use bgpvcg_telemetry::{RingBufferSink, TeeSink, Telemetry, TraceEvent, TraceSink, INFINITE};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The map-based tracer.
#[derive(Debug, Default)]
struct MapTracer {
    /// Last path traced per `(node, dest)` — absent = none, or withdrawn.
    routes: BTreeMap<(u32, u32), Vec<(u32, u64)>>,
    events: Vec<TraceEvent>,
    selected: u64,
    withdrawn: u64,
    relaxations: u64,
}

impl MapTracer {
    fn relax(&mut self, (node, dest, k): (u32, u32, u32), new: u64, stage: u64) {
        self.relaxations += 1;
        self.events.push(TraceEvent::PriceRelaxed {
            node,
            dest,
            k,
            stage,
            new,
        });
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
                    let hops: Vec<(u32, u64)> = path
                        .iter()
                        .map(|e| (e.node.raw(), cost_raw(e.cost)))
                        .collect();
                    if self.routes.get(&(node, dest)) != Some(&hops) {
                        self.selected += 1;
                        self.events.push(TraceEvent::RouteSelected {
                            node,
                            dest,
                            stage,
                            hops: path.len() as u32,
                            path_cost: cost_raw(*path_cost),
                        });
                    }
                    let transit = hops.get(1..hops.len().saturating_sub(1)).unwrap_or(&[]);
                    for (&(k, _), price) in transit.iter().zip(prices) {
                        if let Some(new) = price.finite() {
                            self.relax((node, dest, k), new, stage);
                        }
                    }
                    self.routes.insert((node, dest), hops);
                }
                RouteInfo::PriceDelta { entries, .. } => {
                    let Some(hops) = self.routes.get(&(node, dest)).cloned() else {
                        continue;
                    };
                    let transit = hops.get(1..hops.len().saturating_sub(1)).unwrap_or(&[]);
                    for &(index, price) in entries {
                        let Some(&(k, _)) = transit.get(usize::from(index)) else {
                            continue;
                        };
                        self.relax((node, dest, k), cost_raw(price), stage);
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
    // Few transit ids, so a changed path usually keeps one; repeats
    // allowed. The price list may be shorter or longer than the transit
    // list.
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
/// the whole event history after every update. Returns the events.
fn run(ops: &[Op]) -> Result<Vec<TraceEvent>, TestCaseError> {
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
    Ok(oracle.events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same events, in the same order in every sink, and the same three
    /// counters.
    fn dense_tracer_matches_map_oracle(ops in proptest::collection::vec(op(), 1..40)) {
        run(&ops)?;
    }
}

fn full(dest: u32, middle: &[u32], prices: &[Price], shared: bool) -> AdSpec {
    AdSpec::Full {
        dest,
        middle: middle.to_vec(),
        hop_cost: 1,
        prices: prices.to_vec(),
        shared,
    }
}

fn delta(dest: u32, entries: &[(u16, Price)]) -> AdSpec {
    AdSpec::Delta {
        dest,
        entries: entries.to_vec(),
    }
}

fn send(ad: AdSpec) -> Op {
    Op::Send {
        from: 0,
        ads: vec![ad],
    }
}

/// The `(k, new)` of every `PriceRelaxed` both tracers narrate for `ops`,
/// and how many routes they selected.
fn prices(ops: &[Op]) -> (Vec<(u32, u64)>, usize) {
    let events = run(ops).expect("dense tracer and map oracle agree");
    let selected = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RouteSelected { .. }))
        .count();
    let relaxed = events.iter().filter_map(|e| match *e {
        TraceEvent::PriceRelaxed { k, new, .. } => Some((k, new)),
        _ => None,
    });
    (relaxed.collect(), selected)
}

#[test]
fn an_infinite_entry_of_a_full_row_is_silent() {
    let ops = [send(full(5, &[2, 3], &[None, Some(4)], false))];
    assert_eq!(prices(&ops), (vec![(3, 4)], 1));
}

#[test]
fn an_infinite_entry_of_a_delta_traces() {
    let ops = [
        send(full(5, &[2, 3], &[Some(1), Some(2)], false)),
        send(delta(5, &[(0, None)])),
    ];
    assert_eq!(prices(&ops), (vec![(2, 1), (3, 2), (2, INFINITE)], 1));
}

#[test]
fn a_repeated_full_advertisement_retraces_its_finite_prices() {
    // By pointer, verbatim, and by content: one route, three rows.
    let ops = [
        send(full(5, &[2, 3], &[Some(1), None], true)),
        Op::Repeat,
        send(full(5, &[2, 3], &[Some(1), None], false)),
    ];
    assert_eq!(prices(&ops), (vec![(2, 1); 3], 1));
}

#[test]
fn a_delta_without_a_traced_path_or_past_the_transit_is_skipped() {
    let ops = [
        // Before any full advertisement.
        send(delta(5, &[(0, Some(3))])),
        send(full(5, &[2, 3], &[Some(4), Some(5)], false)),
        // The destination's own index and one past the path; then an index
        // that goes back, which restarts the walk.
        send(delta(5, &[(1, Some(2)), (2, Some(7)), (3, Some(6))])),
        send(delta(5, &[(1, Some(1)), (0, Some(0))])),
        // After a withdrawal.
        send(AdSpec::Withdraw { dest: 5 }),
        send(delta(5, &[(0, Some(0))])),
    ];
    let traced = vec![(2, 4), (3, 5), (3, 2), (3, 1), (2, 0)];
    assert_eq!(prices(&ops), (traced, 1));
}

#[test]
fn odd_paths_match_the_oracle() {
    // More prices than transits, a transit repeated, and no transit.
    let ops = [
        send(full(4, &[2, 2], &[Some(1), Some(2), Some(3)], false)),
        send(full(3, &[], &[Some(1)], false)),
    ];
    assert_eq!(prices(&ops), (vec![(2, 1), (2, 2)], 2));
}

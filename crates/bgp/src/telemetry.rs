//! Telemetry glue: turning protocol [`Update`]s into typed trace events
//! and shared-registry metrics.
//!
//! Both engines drive the same [`UpdateTracer`]: it watches every broadcast
//! UPDATE and narrates it as [`TraceEvent`]s — `RouteSelected` / `Withdrawn`
//! per advertisement, and `PriceRelaxed` per price-entry change, diffed
//! against a shadow copy of the last value traced per
//! `(node, destination, transit)` cell (absent cells read as `∞`, matching
//! the paper's "prices start at ∞ and relax downward").

use crate::message::{RouteInfo, SharedPath, Update};
use bgpvcg_netgraph::Cost;
use bgpvcg_telemetry::{dense_cell, Counter, Telemetry, TraceEvent, INFINITE};

/// Canonical metric names shared by the engines and every experiment
/// binary, so `--metrics-out` expositions are comparable across runs.
pub mod metric {
    /// UPDATE broadcasts (one per advertising node per change, not per
    /// link).
    pub const UPDATES_SENT: &str = "bgp_updates_sent_total";
    /// Messages delivered (one update crossing one link).
    pub const MESSAGES: &str = "bgp_messages_total";
    /// Routing-table entries carried by all delivered messages.
    pub const ENTRIES: &str = "bgp_entries_total";
    /// Bytes under the [`wire`](crate::wire) model.
    pub const BYTES: &str = "bgp_bytes_total";
    /// Reachable-route advertisements (route newly selected or changed).
    pub const ROUTES_SELECTED: &str = "bgp_routes_selected_total";
    /// Withdrawal advertisements (routes flapped away).
    pub const ROUTES_WITHDRAWN: &str = "bgp_routes_withdrawn_total";
    /// Price-entry relaxations applied (one per changed `p^k` cell).
    pub const PRICE_RELAXATIONS: &str = "bgp_price_relaxations_total";
    /// Gauge: last stage with advertised-state changes in the most recent
    /// synchronous run (the quantity the paper bounds by `max(d, d′)`).
    pub const STAGES_TO_QUIESCENCE: &str = "bgp_stages_to_quiescence";
    /// Histogram: wall nanoseconds per executed synchronous stage.
    pub const STAGE_WALL_NANOS: &str = "bgp_stage_wall_nanos";
}

/// Raw trace encoding of a cost: the finite value, or `u64::MAX` for `∞`.
pub fn cost_raw(cost: Cost) -> u64 {
    cost.finite().unwrap_or(INFINITE)
}

/// Diffs a stream of broadcast [`Update`]s into trace events and event
/// counters. One tracer observes one run; engines create it internally when
/// telemetry is attached.
#[derive(Debug)]
pub struct UpdateTracer {
    telemetry: Telemetry,
    /// Advertisements naming an AS at or beyond this index are not traced:
    /// the node count for a sized tracer, unbounded for one that grows on
    /// demand.
    bound: usize,
    /// `shadow[node][dest]`: what `node` last advertised for `dest`. A
    /// node's row is allocated at its first advertisement.
    shadow: Vec<Vec<ShadowCell>>,
    /// One update's events, delivered to the sink in a single call.
    events: Vec<TraceEvent>,
    routes_selected: Counter,
    routes_withdrawn: Counter,
    price_relaxations: Counter,
}

/// The tracer's memory of one `(advertiser, destination)` pair.
#[derive(Debug, Default)]
struct ShadowCell {
    /// Last path traced (a pointer clone of the advertised one) — `None` =
    /// no route advertised, or the last advertisement was a withdrawal.
    route: Option<SharedPath>,
    /// Last value traced per transit node `k` — absent = `∞`. Keyed by the
    /// transit's *id*, so an entry outlives both a withdrawal and a path
    /// change; kept in the order of the last traced path, so the price at
    /// index `i` of an unchanged path is found at position `i`.
    prices: Vec<(u32, u64)>,
}

/// Stores `new` in `traced` as the value last traced for transit `k`, which
/// the advertised path carries at price index `i`, and returns the value it
/// replaces if that differs. `k`'s entry moves to position `i`, where the
/// next advertisement over the same path finds it without a search.
fn relax(traced: &mut Vec<(u32, u64)>, i: usize, k: u32, new: u64) -> Option<u64> {
    let mut at = i;
    if traced.get(i).is_none_or(|&(id, _)| id != k) {
        at = traced
            .iter()
            .position(|&(id, _)| id == k)
            .unwrap_or(traced.len());
        if at == traced.len() {
            traced.push((k, INFINITE));
        }
        if i < traced.len() {
            traced.swap(i, at);
            at = i;
        }
    }
    let (_, old) = traced.get_mut(at)?;
    (*old != new).then(|| std::mem::replace(old, new))
}

impl UpdateTracer {
    /// Creates a tracer recording through `telemetry`'s sink and registry
    /// whose shadow grows to the largest AS number an update names — for
    /// trusted streams only; an engine, which knows its node count, builds
    /// one [`with_node_count`](Self::with_node_count).
    pub fn new(telemetry: &Telemetry) -> Self {
        Self::with_node_count(telemetry, usize::MAX)
    }

    /// Creates a tracer for an `n`-node network: an advertisement from or
    /// for an AS outside `0..n` is not traced, so no update can make the
    /// tracer allocate by the value of an id it carries.
    pub fn with_node_count(telemetry: &Telemetry, n: usize) -> Self {
        UpdateTracer {
            routes_selected: telemetry.counter(metric::ROUTES_SELECTED),
            routes_withdrawn: telemetry.counter(metric::ROUTES_WITHDRAWN),
            price_relaxations: telemetry.counter(metric::PRICE_RELAXATIONS),
            bound: n,
            shadow: Vec::new(),
            events: Vec::new(),
            telemetry: telemetry.clone(),
        }
    }

    /// Narrates one broadcast UPDATE at the given stage (or async delivery
    /// sequence). Callers must only feed *change* advertisements (broadcast
    /// updates), not full-table session syncs. A pricing node re-advertises
    /// a destination's entry whenever its route **or any price** for it
    /// changed, so both event streams are diffed against shadow copies of
    /// the last traced value: `RouteSelected` fires only when the advertised
    /// path (hops or costs) changed, `PriceRelaxed` only when the `p^k` cell
    /// changed. `Withdrawn` is unconditional — the protocol only withdraws
    /// previously-advertised routes.
    pub fn observe_update(&mut self, update: &Update, stage: u64) {
        let node = update.from.raw();
        let effect = update.id;
        let Some(row) = dense_cell(&mut self.shadow, node, self.bound) else {
            return;
        };
        let events = &mut self.events;
        events.clear();
        let (mut selected, mut withdrawn) = (0u64, 0u64);
        for (i, ad) in update.advertisements.iter().enumerate() {
            let dest = ad.destination.raw();
            let Some(ShadowCell {
                route,
                prices: traced,
            }) = dense_cell(row, dest, self.bound)
            else {
                continue;
            };
            let cause = update.cause_of(i);
            let price_relaxed = |k: u32, old: u64, new: u64| TraceEvent::PriceRelaxed {
                node,
                dest,
                k,
                stage,
                old,
                new,
                cause,
                effect,
            };
            match &ad.info {
                RouteInfo::Reachable {
                    path,
                    path_cost,
                    prices,
                } => {
                    if route.as_ref() != Some(path) {
                        *route = Some(path.clone());
                        selected += 1;
                        events.push(TraceEvent::RouteSelected {
                            node,
                            dest,
                            stage,
                            hops: path.len() as u32,
                            path_cost: cost_raw(*path_cost),
                            cause,
                            effect,
                        });
                    }
                    // Transit nodes are path[1..len-1], in path order —
                    // the same order the price array uses.
                    let transits = path.get(1..path.len().saturating_sub(1)).unwrap_or(&[]);
                    let priced = transits.iter().zip(prices);
                    traced.reserve(priced.len().saturating_sub(traced.len()));
                    for (index, (entry, price)) in priced.enumerate() {
                        let (k, new) = (entry.node.raw(), cost_raw(*price));
                        if let Some(old) = relax(traced, index, k, new) {
                            events.push(price_relaxed(k, old, new));
                        }
                    }
                }
                RouteInfo::PriceDelta { entries, .. } => {
                    // A delta re-states the retained path and patches price
                    // cells. The shadow route maps each price index `i` to
                    // transit node `path[i + 1]`; a delta only ever follows
                    // a full advertisement over the same session, so the
                    // shadow is present — if it is not (defensive), the
                    // cells cannot be attributed and the ad is skipped.
                    let Some(route) = route.as_ref() else {
                        continue;
                    };
                    for &(index, price) in entries {
                        let Some(transit) = route.get(usize::from(index) + 1) else {
                            continue;
                        };
                        let (k, new) = (transit.node.raw(), cost_raw(price));
                        if let Some(old) = relax(traced, usize::from(index), k, new) {
                            events.push(price_relaxed(k, old, new));
                        }
                    }
                }
                RouteInfo::Withdrawn => {
                    *route = None;
                    withdrawn += 1;
                    events.push(TraceEvent::Withdrawn {
                        node,
                        dest,
                        stage,
                        cause,
                        effect,
                    });
                }
            }
        }
        let relaxed = events.len() as u64 - selected - withdrawn;
        self.routes_selected.add(selected);
        self.routes_withdrawn.add(withdrawn);
        self.price_relaxations.add(relaxed);
        self.telemetry.record_all(events);
    }

    /// The telemetry handle this tracer records through.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// The synchronous engine's bundled instruments: the tracer plus cached
/// traffic counter handles, held as `Option` inside the engine and taken
/// out for the duration of each run loop.
#[derive(Debug)]
pub(crate) struct RunInstruments {
    pub(crate) tracer: UpdateTracer,
    pub(crate) updates_sent: Counter,
    pub(crate) messages: Counter,
    pub(crate) entries: Counter,
    pub(crate) bytes: Counter,
}

impl RunInstruments {
    /// Instruments for an `n`-node engine recording through `telemetry`.
    pub(crate) fn new(telemetry: &Telemetry, n: usize) -> Self {
        RunInstruments {
            tracer: UpdateTracer::with_node_count(telemetry, n),
            updates_sent: telemetry.counter(metric::UPDATES_SENT),
            messages: telemetry.counter(metric::MESSAGES),
            entries: telemetry.counter(metric::ENTRIES),
            bytes: telemetry.counter(metric::BYTES),
        }
    }

    /// Accounts one broadcast: the update's events plus its per-link
    /// traffic.
    pub(crate) fn on_broadcast(
        &mut self,
        update: &Update,
        stage: u64,
        messages: usize,
        entries: usize,
        bytes: usize,
    ) {
        self.updates_sent.inc();
        self.messages.add(messages as u64);
        self.entries.add(entries as u64);
        self.bytes.add(bytes as u64);
        self.tracer.observe_update(update, stage);
    }

    /// Accounts a session-establishment unicast (full table): traffic only,
    /// no events — a full table re-states unchanged routes, which the
    /// tracer's change semantics must not misreport as reselections.
    pub(crate) fn on_unicast(&mut self, messages: usize, entries: usize, bytes: usize) {
        self.messages.add(messages as u64);
        self.entries.add(entries as u64);
        self.bytes.add(bytes as u64);
    }

    pub(crate) fn telemetry(&self) -> &Telemetry {
        self.tracer.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{PathEntry, RouteAdvertisement};
    use bgpvcg_netgraph::AsId;

    fn entry(raw: u32, cost: u64) -> PathEntry {
        PathEntry {
            node: AsId::new(raw),
            cost: Cost::new(cost),
        }
    }

    fn priced_update(prices: Vec<Cost>, id: u64, cause: u64) -> Update {
        Update {
            from: AsId::new(0),
            sender_costs: Vec::new(),
            advertisements: vec![RouteAdvertisement {
                destination: AsId::new(3),
                info: RouteInfo::Reachable {
                    path: vec![entry(0, 1), entry(1, 2), entry(2, 1), entry(3, 4)].into(),
                    path_cost: Cost::new(3),
                    prices,
                },
            }],
            id,
            causes: vec![cause],
        }
    }

    #[test]
    fn price_changes_diff_against_infinity_then_previous_value() {
        let (telemetry, ring) = Telemetry::ring(64);
        let mut tracer = UpdateTracer::new(&telemetry);
        tracer.observe_update(&priced_update(vec![Cost::new(5), Cost::INFINITE], 1, 0), 1);
        // Second advertisement relaxes the ∞ entry and lowers the first.
        tracer.observe_update(&priced_update(vec![Cost::new(4), Cost::new(7)], 2, 1), 2);
        // Re-advertising identical prices is silent on the price stream.
        tracer.observe_update(&priced_update(vec![Cost::new(4), Cost::new(7)], 3, 2), 3);
        let relaxations: Vec<_> = ring
            .events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::PriceRelaxed { .. }))
            .collect();
        assert_eq!(
            relaxations,
            vec![
                TraceEvent::PriceRelaxed {
                    node: 0,
                    dest: 3,
                    k: 1,
                    stage: 1,
                    old: INFINITE,
                    new: 5,
                    cause: 0,
                    effect: 1
                },
                TraceEvent::PriceRelaxed {
                    node: 0,
                    dest: 3,
                    k: 1,
                    stage: 2,
                    old: 5,
                    new: 4,
                    cause: 1,
                    effect: 2
                },
                TraceEvent::PriceRelaxed {
                    node: 0,
                    dest: 3,
                    k: 2,
                    stage: 2,
                    old: INFINITE,
                    new: 7,
                    cause: 1,
                    effect: 2
                },
            ],
            "∞ entries never trace; finite changes trace once each"
        );
        assert_eq!(telemetry.snapshot().counters[metric::PRICE_RELAXATIONS], 3);
        // The path never changed, so only the first ad selects a route —
        // the later two were price-only re-advertisements.
        assert_eq!(telemetry.snapshot().counters[metric::ROUTES_SELECTED], 1);
    }

    #[test]
    fn withdrawals_trace_and_count() {
        let (telemetry, ring) = Telemetry::ring(8);
        let mut tracer = UpdateTracer::new(&telemetry);
        let update = Update {
            from: AsId::new(4),
            sender_costs: Vec::new(),
            advertisements: vec![RouteAdvertisement {
                destination: AsId::new(2),
                info: RouteInfo::Withdrawn,
            }],
            id: 6,
            causes: vec![5],
        };
        tracer.observe_update(&update, 9);
        assert_eq!(
            ring.events(),
            vec![TraceEvent::Withdrawn {
                node: 4,
                dest: 2,
                stage: 9,
                cause: 5,
                effect: 6
            }]
        );
        assert_eq!(telemetry.snapshot().counters[metric::ROUTES_WITHDRAWN], 1);
    }

    #[test]
    fn sized_tracer_never_allocates_by_id_value() {
        let (telemetry, ring) = Telemetry::ring(8);
        let mut tracer = UpdateTracer::with_node_count(&telemetry, 4);
        let mut update = priced_update(vec![Cost::new(5), Cost::new(6)], 1, 0);
        update.advertisements[0].destination = AsId::new(u32::MAX);
        tracer.observe_update(&update, 1);
        assert!(
            ring.events().is_empty(),
            "an ad for an AS >= n is not traced"
        );
        assert_eq!(tracer.shadow.len(), 4, "rows stop at the node count");
        assert!(tracer.shadow.iter().all(|row| row.len() <= 4));
        update.from = AsId::new(u32::MAX);
        tracer.observe_update(&update, 2);
        assert_eq!(tracer.shadow.len(), 4);
        // In-range advertisements still trace: one route, two prices.
        tracer.observe_update(&priced_update(vec![Cost::new(5), Cost::new(6)], 2, 1), 3);
        assert_eq!(ring.total_recorded(), 3);
    }

    #[test]
    fn cost_raw_maps_infinity_to_the_trace_sentinel() {
        assert_eq!(cost_raw(Cost::INFINITE), INFINITE);
        assert_eq!(cost_raw(Cost::new(17)), 17);
    }
}

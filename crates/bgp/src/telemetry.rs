//! Telemetry glue: turning protocol [`Update`]s into typed trace events
//! and shared-registry metrics.
//!
//! The one engine, `Engine<N, T>`, drives an [`UpdateTracer`] under both
//! transports: it watches every broadcast UPDATE and narrates it as
//! [`TraceEvent`]s — `RouteSelected` when an advertised path differs from
//! the one last traced for its `(node, destination)` pair, `Withdrawn` per
//! withdrawal, and `PriceRelaxed` per price entry as advertised (every
//! finite entry of a full row, every entry of a delta). A price update is
//! what a node advertises, so the tracer keeps no copy of advertised
//! prices: its only memory is the last path traced per pair, which names
//! a delta's transit nodes. The engine holds it inside one `Instruments`
//! bundle, which owns everything else that observes a run too: health
//! monitor, span profiler.

use crate::engine::kernel::Sent;
use crate::message::{PathEntry, RouteInfo, SharedPath, Update};
use bgpvcg_netgraph::Cost;
use bgpvcg_telemetry::{
    dense_cell, Clock, Counter, HealthConfig, HealthSink, SpanId, SpanProfiler, SystemClock,
    Telemetry, TraceEvent, TraceSink, INFINITE,
};
use std::sync::Arc;

/// Canonical metric names shared by the engines and every experiment
/// binary, so bundle `metrics.json` files are comparable across runs.
pub mod metric {
    /// UPDATE broadcasts (one per advertising node per change, not per
    /// link).
    pub const UPDATES_SENT: &str = "bgp_updates_sent_total";
    /// Messages delivered (one update crossing one link).
    pub const MESSAGES: &str = "bgp_messages_total";
    /// Routing-table entries carried by all delivered messages.
    pub const ENTRIES: &str = "bgp_entries_total";
    /// Encoded bytes of all delivered messages (the v2
    /// [`wire`](crate::wire) format, as `RunReport::bytes_v2`).
    pub const BYTES: &str = "bgp_bytes_total";
    /// Reachable-route advertisements (route newly selected or changed).
    pub const ROUTES_SELECTED: &str = "bgp_routes_selected_total";
    /// Withdrawal advertisements (routes flapped away).
    pub const ROUTES_WITHDRAWN: &str = "bgp_routes_withdrawn_total";
    /// Price entries advertised (one per `PriceRelaxed` event).
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

/// Narrates a stream of broadcast [`Update`]s as trace events and event
/// counters. One tracer observes one run; engines create it internally when
/// telemetry is attached.
#[derive(Debug)]
pub struct UpdateTracer {
    telemetry: Telemetry,
    /// Advertisements naming an AS at or beyond this index (the node
    /// count) are not traced.
    bound: usize,
    /// `routes[node][dest]`: the path `node` last advertised for `dest` (a
    /// pointer clone), `None` before its first advertisement or after a
    /// withdrawal. A node's row is allocated at its first advertisement.
    routes: Vec<Vec<Option<SharedPath>>>,
    /// One update's events, delivered to the sink in a single call.
    events: Vec<TraceEvent>,
    routes_selected: Counter,
    routes_withdrawn: Counter,
    price_relaxations: Counter,
}

impl UpdateTracer {
    /// Creates a tracer recording through `telemetry`'s sink and registry
    /// for an `n`-node network: an advertisement from or for an AS outside
    /// `0..n` is not traced, so no update can make the tracer allocate by
    /// the value of an id it carries.
    pub fn with_node_count(telemetry: &Telemetry, n: usize) -> Self {
        UpdateTracer {
            routes_selected: telemetry.counter(metric::ROUTES_SELECTED),
            routes_withdrawn: telemetry.counter(metric::ROUTES_WITHDRAWN),
            price_relaxations: telemetry.counter(metric::PRICE_RELAXATIONS),
            bound: n,
            routes: Vec::new(),
            events: Vec::new(),
            telemetry: telemetry.clone(),
        }
    }

    /// Narrates one broadcast UPDATE at the given stage (or async delivery
    /// sequence). Callers must only feed *change* advertisements (broadcast
    /// updates), not full-table session syncs. `RouteSelected` fires only
    /// when the advertised path (hops or costs) differs from the one last
    /// traced for the pair. `PriceRelaxed` names each price entry as it was
    /// advertised: every finite entry of a full row (an `∞` there relaxed
    /// nothing — prices start at `∞`), and every entry of a delta whose
    /// index names a transit node of the last traced path (a delta with no
    /// traced path is skipped). `Withdrawn` is unconditional — the protocol
    /// only withdraws previously-advertised routes.
    pub fn observe_update(&mut self, update: &Update, stage: u64) {
        let node = update.from.raw();
        let Some(row) = dense_cell(&mut self.routes, node, self.bound) else {
            return;
        };
        let events = &mut self.events;
        events.clear();
        let (mut selected, mut withdrawn) = (0u64, 0u64);
        for ad in &update.advertisements {
            let dest = ad.destination.raw();
            let Some(route) = dense_cell(row, dest, self.bound) else {
                continue;
            };
            let price_relaxed = |k: PathEntry, new: u64| TraceEvent::PriceRelaxed {
                node,
                dest,
                k: k.node.raw(),
                stage,
                new,
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
                        });
                    }
                    // The price array is aligned with the transit nodes.
                    for (k, price) in path.transit().zip(prices) {
                        if let Some(new) = price.finite() {
                            events.push(price_relaxed(k, new));
                        }
                    }
                }
                RouteInfo::PriceDelta { entries, .. } => {
                    // A delta re-states the retained path: price index `i`
                    // names its transit node `i`. It only ever follows a
                    // full advertisement over the same session; without a
                    // traced path (defensive) its entries name no one.
                    let Some(route) = route.as_ref() else {
                        continue;
                    };
                    // Indices ascend, so one walk of the path names them
                    // all; one that goes back starts the walk over.
                    let mut transit = route.transit().enumerate();
                    for &(index, price) in entries {
                        let at = usize::from(index);
                        let found = transit.find(|&(i, _)| i == at).or_else(|| {
                            transit = route.transit().enumerate();
                            transit.find(|&(i, _)| i == at)
                        });
                        if let Some((_, k)) = found {
                            events.push(price_relaxed(k, cost_raw(price)));
                        }
                    }
                }
                RouteInfo::Withdrawn => {
                    *route = None;
                    withdrawn += 1;
                    events.push(TraceEvent::Withdrawn { node, dest, stage });
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

/// Everything that observes one executor's runs, behind one value: the
/// parts a caller attached (base [`Telemetry`], health monitor, span
/// profiler) and what is derived from them — the tee feeding
/// every sink, the [`UpdateTracer`] recording through it, the cached
/// traffic counters, and the clock spans are stamped with. Every attach
/// rebuilds the derived state from the *parts*, so attach order does not
/// matter. With nothing attached every method is an `Option` check.
#[derive(Debug, Default)]
pub(crate) struct Instruments {
    /// Node count: sizes the tracer's and the health monitor's tables.
    n: usize,
    base: Option<Telemetry>,
    health: Option<Arc<HealthSink>>,
    profiler: Option<SpanProfiler>,
    /// The clock spans are stamped with: the attached telemetry's (so tests
    /// can script it), or a [`SystemClock`]. `Some` while a profiler is.
    clock: Option<Arc<dyn Clock>>,
    /// Records through the tee base → health monitor; `None` when no sink
    /// is attached.
    tracer: Option<UpdateTracer>,
    /// The `bgp_*` traffic counter handles, registered by the first
    /// accounted delivery — an executor that only
    /// [`trace`](Self::trace_update)s never creates them.
    traffic: Option<Traffic>,
    /// The update counter when traffic was last accounted.
    settled_seq: u64,
}

/// Cached handles of the four traffic counters.
#[derive(Debug)]
struct Traffic {
    updates_sent: Counter,
    messages: Counter,
    entries: Counter,
    bytes: Counter,
}

impl Instruments {
    /// Detached instruments for an `n`-node executor.
    pub(crate) fn new(n: usize) -> Self {
        Instruments {
            n,
            ..Instruments::default()
        }
    }

    /// Re-derives tee, tracer, counters and span clock from the parts.
    fn rebuild(&mut self) {
        let health = self
            .health
            .as_ref()
            .map(|h| Arc::clone(h) as Arc<dyn TraceSink>);
        let telemetry = match (&self.base, health) {
            (Some(base), Some(health)) => Some(base.tee(health)),
            (None, Some(health)) => Some(Telemetry::new(health)),
            (base, None) => base.clone(),
        };
        self.clock = self.profiler.as_ref().map(|_| match &telemetry {
            Some(telemetry) => telemetry.clock_handle(),
            None => Arc::new(SystemClock::new()),
        });
        self.tracer = telemetry.map(|t| UpdateTracer::with_node_count(&t, self.n));
        self.traffic = None;
    }

    pub(crate) fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.base = Some(telemetry.clone());
        self.rebuild();
    }

    pub(crate) fn attach_health(&mut self, config: HealthConfig) {
        self.health = Some(Arc::new(HealthSink::with_node_count(config, self.n)));
        self.rebuild();
    }

    pub(crate) fn attach_profiler(&mut self) {
        self.profiler = Some(SpanProfiler::engine());
        self.rebuild();
    }

    pub(crate) fn health_sink(&self) -> Option<&Arc<HealthSink>> {
        self.health.as_ref()
    }

    pub(crate) fn profiler(&self) -> Option<&SpanProfiler> {
        self.profiler.as_ref()
    }

    pub(crate) fn take_profiler(&mut self) -> Option<SpanProfiler> {
        self.clock = None;
        self.profiler.take()
    }

    /// The handle every attached sink is fed through, if any is attached.
    pub(crate) fn telemetry(&self) -> Option<&Telemetry> {
        self.tracer.as_ref().map(UpdateTracer::telemetry)
    }

    /// Opens span `id` on the attached profiler.
    pub(crate) fn enter(&mut self, id: SpanId) {
        if let (Some(profiler), Some(clock)) = (self.profiler.as_mut(), self.clock.as_ref()) {
            profiler.enter(id, clock.now_nanos());
        }
    }

    /// Closes the innermost open span.
    pub(crate) fn exit(&mut self) {
        if let (Some(profiler), Some(clock)) = (self.profiler.as_mut(), self.clock.as_ref()) {
            profiler.exit(clock.now_nanos());
        }
    }

    pub(crate) fn record(&self, event: &TraceEvent) {
        if let Some(telemetry) = self.telemetry() {
            telemetry.record(event);
        }
    }

    /// Narrates one broadcast; its traffic is accounted apart, where the
    /// transport counts it.
    pub(crate) fn trace_update(&mut self, update: &Update, stage: u64) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.observe_update(update, stage);
        }
    }

    /// Adds the updates stamped since the last call (`update_seq` is the
    /// update counter) and the deliveries they — and any
    /// session-establishment full tables, which are traffic but not
    /// updates — made to the traffic counters, registering them first if
    /// this is the first accounted delivery since the last attach.
    pub(crate) fn account(&mut self, update_seq: u64, sent: &Sent) {
        let updates = update_seq - std::mem::replace(&mut self.settled_seq, update_seq);
        let Some(tracer) = self.tracer.as_ref() else {
            return;
        };
        if updates == 0 && sent.messages == 0 {
            return;
        }
        let telemetry = tracer.telemetry();
        let traffic = self.traffic.get_or_insert_with(|| Traffic {
            updates_sent: telemetry.counter(metric::UPDATES_SENT),
            messages: telemetry.counter(metric::MESSAGES),
            entries: telemetry.counter(metric::ENTRIES),
            bytes: telemetry.counter(metric::BYTES),
        });
        traffic.updates_sent.add(updates);
        traffic.messages.add(sent.messages as u64);
        traffic.entries.add(sent.entries as u64);
        traffic.bytes.add(sent.bytes_v2 as u64);
    }

    /// Ends a run: the closing `Quiescent` carrying `messages` (`None` for
    /// a run cut off by its stage limit), the health findings fired since
    /// the previous run as `HealthVerdict`s, the profiler's cumulative
    /// per-span totals as `SpanSummary`s, then a flush.
    pub(crate) fn finish(&self, stage: u64, messages: Option<u64>) {
        let Some(telemetry) = self.telemetry() else {
            return;
        };
        if let Some(messages) = messages {
            telemetry.record(&TraceEvent::Quiescent { stage, messages });
        }
        for finding in self.health.iter().flat_map(|h| h.drain_new_findings()) {
            telemetry.record(&finding.to_event());
        }
        for event in self.profiler.iter().flat_map(|p| p.summary_events(stage)) {
            telemetry.record(&event);
        }
        telemetry.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RouteAdvertisement;
    use bgpvcg_netgraph::AsId;

    fn entry(raw: u32, cost: u64) -> PathEntry {
        PathEntry {
            node: AsId::new(raw),
            cost: Cost::new(cost),
        }
    }

    fn priced_update(prices: Vec<Cost>) -> Update {
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
            id: 0,
        }
    }

    #[test]
    fn sized_tracer_never_allocates_by_id_value() {
        let (telemetry, ring) = Telemetry::ring(8);
        let mut tracer = UpdateTracer::with_node_count(&telemetry, 4);
        let mut update = priced_update(vec![Cost::new(5), Cost::new(6)]);
        update.advertisements[0].destination = AsId::new(u32::MAX);
        tracer.observe_update(&update, 1);
        assert!(
            ring.events().is_empty(),
            "an ad for an AS >= n is not traced"
        );
        assert_eq!(tracer.routes.len(), 4, "rows stop at the node count");
        assert!(tracer.routes.iter().all(|row| row.len() <= 4));
        update.from = AsId::new(u32::MAX);
        tracer.observe_update(&update, 2);
        assert_eq!(tracer.routes.len(), 4);
        // In-range advertisements still trace: one route, two prices.
        tracer.observe_update(&priced_update(vec![Cost::new(5), Cost::new(6)]), 3);
        assert_eq!(ring.total_recorded(), 3);
    }

    #[test]
    fn cost_raw_maps_infinity_to_the_trace_sentinel() {
        assert_eq!(cost_raw(Cost::INFINITE), INFINITE);
        assert_eq!(cost_raw(Cost::new(17)), 17);
    }
}

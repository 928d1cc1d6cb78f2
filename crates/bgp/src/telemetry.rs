//! Telemetry glue: turning protocol [`Update`]s into typed trace events
//! and shared-registry metrics.
//!
//! All three executors drive the same [`UpdateTracer`]: it watches every
//! broadcast UPDATE and narrates it as [`TraceEvent`]s — `RouteSelected` /
//! `Withdrawn` per advertisement, and `PriceRelaxed` per price-entry change,
//! diffed against a shadow copy of the last value traced per
//! `(node, destination, transit)` cell (absent cells read as `∞`, matching
//! the paper's "prices start at ∞ and relax downward"). They hold it inside
//! one `Instruments` bundle, which owns everything else that observes a run
//! too: flight recorder, health monitor, span profiler.

use crate::message::{RouteInfo, SharedPath, Update};
use bgpvcg_netgraph::Cost;
use bgpvcg_telemetry::flight::{self, FlightRecorder, StateSnapshot as FlightSnapshot};
use bgpvcg_telemetry::profile::span;
use bgpvcg_telemetry::{
    dense_cell, Clock, Counter, HealthConfig, HealthSink, SpanId, SpanProfiler, SystemClock,
    Telemetry, TraceEvent, TraceSink, INFINITE,
};
use std::path::Path;
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

/// Everything that observes one executor's runs, behind one value: the
/// parts a caller attached (base [`Telemetry`], flight recorder, health
/// monitor, span profiler) and what is derived from them — the tee feeding
/// every sink, the [`UpdateTracer`] recording through it, the cached
/// traffic counters, and the clock spans are stamped with. Every attach
/// rebuilds the derived state from the *parts*, so attach order does not
/// matter. With nothing attached every method is an `Option` check.
#[derive(Debug, Default)]
pub(crate) struct Instruments {
    /// Node count: sizes the tracer's and the health monitor's tables.
    n: usize,
    base: Option<Telemetry>,
    flight: Option<FlightRecorder>,
    health: Option<Arc<HealthSink>>,
    profiler: Option<SpanProfiler>,
    /// The clock spans are stamped with: the attached telemetry's (so tests
    /// can script it), or a [`SystemClock`]. `Some` while a profiler is.
    clock: Option<Arc<dyn Clock>>,
    /// Records through the tee base → flight ring → health monitor; `None`
    /// when no sink is attached.
    tracer: Option<UpdateTracer>,
    /// The `bgp_*` traffic counter handles, registered by the first
    /// accounted delivery — an executor that only
    /// [`trace`](Self::trace_update)s never creates them.
    traffic: Option<Traffic>,
    /// Whether the one-shot health-stall post-mortem has been written.
    stall_dumped: bool,
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
            .iter()
            .map(|h| Arc::clone(h) as Arc<dyn TraceSink>);
        let extras = self.flight.iter().map(FlightRecorder::sink).chain(health);
        let telemetry = extras.fold(self.base.clone(), |tee, sink| {
            Some(match tee {
                Some(telemetry) => telemetry.tee(sink),
                None => Telemetry::new(sink),
            })
        });
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

    pub(crate) fn attach_flight_recorder(&mut self, path: &Path, capacity: usize) {
        self.flight = Some(FlightRecorder::new(path.to_path_buf(), capacity));
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

    pub(crate) fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
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

    /// Adds `updates` broadcasts and the deliveries they (and any
    /// session-establishment full tables, which are traffic but not
    /// updates) made to the traffic counters, registering them first if
    /// this is the first accounted delivery since the last attach.
    pub(crate) fn account(&mut self, updates: u64, messages: usize, entries: usize, bytes: usize) {
        let Some(tracer) = self.tracer.as_ref() else {
            return;
        };
        let telemetry = tracer.telemetry();
        let traffic = self.traffic.get_or_insert_with(|| Traffic {
            updates_sent: telemetry.counter(metric::UPDATES_SENT),
            messages: telemetry.counter(metric::MESSAGES),
            entries: telemetry.counter(metric::ENTRIES),
            bytes: telemetry.counter(metric::BYTES),
        });
        traffic.updates_sent.add(updates);
        traffic.messages.add(messages as u64);
        traffic.entries.add(entries as u64);
        traffic.bytes.add(bytes as u64);
    }

    /// Polls the health monitor's stall verdict — it folded the stage's
    /// events as they were recorded, sitting in the tee — and at the first
    /// stall writes the one-shot [`flight::REASON_HEALTH_STALL`]
    /// post-mortem: the fired findings as snapshots plus the executor's
    /// `summary` counters. That arms the recorder the moment divergence is
    /// detected, long before a stage-limit abort would bury the cause.
    pub(crate) fn poll_stall(&mut self, stage: u64, summary: &[(&str, u64)]) {
        self.enter(span::HEALTH_FOLD);
        if !self.stall_dumped && self.health.as_ref().is_some_and(|h| h.stalled()) {
            self.stall_dumped = true;
            if let (Some(recorder), Some(health)) = (&self.flight, &self.health) {
                let findings = health.findings();
                let snapshots: Vec<FlightSnapshot> = findings
                    .iter()
                    .take(64)
                    .map(|f| FlightSnapshot {
                        node: f.node,
                        fields: vec![
                            ("detector", u64::from(f.detector)),
                            ("stage", f.stage),
                            ("dest", u64::from(f.dest)),
                            ("count", f.count),
                            ("threshold", f.threshold),
                        ],
                    })
                    .collect();
                let mut fields = vec![("findings", findings.len() as u64)];
                fields.extend_from_slice(summary);
                let _ = recorder.dump(flight::REASON_HEALTH_STALL, stage, &fields, &snapshots);
            }
        }
        self.exit();
    }

    /// Writes the post-mortem of a run that hit its stage budget — unless
    /// the health-stall dump already fired: that one is the richer artifact
    /// and must not be overwritten. Best-effort: the recorder is advisory
    /// and must not take a failing run further down, so I/O errors are
    /// swallowed.
    pub(crate) fn dump_abort(
        &self,
        reason: &str,
        stage: u64,
        summary: &[(&str, u64)],
        snapshots: impl FnOnce() -> Vec<FlightSnapshot>,
    ) {
        if let Some(recorder) = self.flight.as_ref().filter(|_| !self.stall_dumped) {
            let _ = recorder.dump(reason, stage, summary, &snapshots());
        }
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

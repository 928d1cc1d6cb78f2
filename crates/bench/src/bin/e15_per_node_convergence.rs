//! E15 — Lemma 2 at its true granularity: per-node convergence times.
//!
//! The paper's Lemma 2 is finer than the `max(d, d′)` corollary: for each
//! source `i`, destination `j`, and transit node `k`, "after the first
//! `d_i = max{|P(c; i, j)|, |P_k(c; i, j)|}` stages, `i` knows the correct
//! path `P(c; i, j)` and the correct price `p^k_ij`". This experiment runs
//! the pricing protocol with the telemetry tracer attached and reads the
//! last-change stage of every `(i, j, k)` price cell (and every `(i, j)`
//! route) straight off the structured event stream — the tracer emits
//! `PriceRelaxed` / `RouteSelected` only when the advertised value actually
//! changed, so the last event per cell *is* its stabilization stage. Tens of
//! thousands of individual instances of Lemma 2, not one aggregate.
//!
//! Measurement note: this reads *advertised* stabilization (what neighbors
//! can observe), which is what Lemma 2's "i knows the correct price" means
//! on the wire. A cell whose internal table blips while the destination is
//! temporarily advertised via a different path counts as stable from its
//! last advertised change — a handful of entries therefore show one stage
//! more slack than the old internal-table sampling did; the bound check
//! itself is unaffected.
//!
//! Regenerate with: `cargo run --release -p bgpvcg-bench --bin e15_per_node_convergence`
//! Optional: `--obs-out DIR` (trace and metrics; see `bgpvcg_bench::obs`).

use bgpvcg_bench::families::Family;
use bgpvcg_bench::obs::ObsConfig;
use bgpvcg_bench::table::Table;
use bgpvcg_core::protocol;
use bgpvcg_lcp::avoiding::AvoidanceTable;
use bgpvcg_lcp::AllPairsLcp;
use bgpvcg_telemetry::{RingBufferSink, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    let obs = ObsConfig::from_args();
    println!("E15 — Lemma 2 per-entry: stabilization stage <= max(|P(i,j)|, |P_k(i,j)|)\n");
    let mut table = Table::new([
        "family",
        "n",
        "entries checked",
        "within per-entry bound",
        "tight entries",
        "mean slack (stages)",
    ]);
    let mut all_ok = true;
    for family in Family::ALL {
        for &n in &[16usize, 32] {
            let g = family.build(n, 71);
            let lcp = AllPairsLcp::compute(&g);
            let avoidance = AvoidanceTable::compute_fast(&g, &lcp);

            // Tee the run's event stream into a ring buffer: the shared
            // telemetry (and any bundle trace) observes everything, and
            // the ring is folded below into last-change stages.
            let ring = Arc::new(RingBufferSink::new(1 << 21));
            let ring_tel = obs.telemetry().tee(Arc::clone(&ring) as Arc<dyn TraceSink>);
            let mut engine = protocol::build_sync_engine(&g).expect("valid graph");
            engine.attach_telemetry(&ring_tel);
            let report = engine.run_to_convergence();
            assert!(report.converged, "{} n={n}", family.name());
            // last stage at which i's advertised price p^k_ij changed
            let mut price_last: BTreeMap<(u32, u32, u32), usize> = BTreeMap::new();
            // last stage at which i's advertised route to j changed
            let mut route_last: BTreeMap<(u32, u32), usize> = BTreeMap::new();
            for event in ring.events() {
                match event {
                    TraceEvent::PriceRelaxed {
                        node,
                        dest,
                        k,
                        stage,
                        ..
                    } => {
                        price_last.insert((node, dest, k), stage as usize);
                    }
                    TraceEvent::RouteSelected {
                        node, dest, stage, ..
                    }
                    | TraceEvent::Withdrawn {
                        node, dest, stage, ..
                    } => {
                        route_last.insert((node, dest), stage as usize);
                    }
                    _ => {}
                }
            }
            obs.telemetry().flush();

            // Check every entry against its own Lemma-2 bound.
            let mut checked = 0usize;
            let mut within = 0usize;
            let mut tight = 0usize;
            let mut slack_sum = 0usize;
            for i in g.nodes() {
                for j in g.nodes() {
                    if i == j {
                        continue;
                    }
                    let route = lcp.route(i, j).expect("connected");
                    let lcp_hops = route.hops();
                    for &k in route.transit_nodes() {
                        let avoid_hops = avoidance.get(i, j, k).expect("biconnected").hops;
                        let bound = lcp_hops.max(avoid_hops);
                        let stabilized = price_last[&(i.raw(), j.raw(), k.raw())];
                        checked += 1;
                        if stabilized <= bound {
                            within += 1;
                            slack_sum += bound - stabilized;
                            if stabilized == bound {
                                tight += 1;
                            }
                        }
                    }
                    // Routes stabilize within |P(i,j)| stages.
                    let route_stable = route_last[&(i.raw(), j.raw())];
                    assert!(
                        route_stable <= lcp_hops,
                        "{}: route {i}->{j} stabilized at stage {route_stable} > |P| = {lcp_hops}",
                        family.name()
                    );
                }
            }
            all_ok &= checked == within;
            table.row([
                family.name().to_string(),
                n.to_string(),
                checked.to_string(),
                within.to_string(),
                tight.to_string(),
                format!("{:.2}", slack_sum as f64 / checked.max(1) as f64),
            ]);
        }
    }
    println!("{table}");
    println!(
        "Paper claim (Lemma 2): after d_i = max(|P(c;i,j)|, |P_k(c;i,j)|) stages, node i knows \
         the correct path and price — checked here entry by entry."
    );
    println!(
        "\nVERDICT: {}",
        if all_ok {
            "every (i, j, k) price entry stabilized within its own Lemma-2 bound"
        } else {
            "SOME ENTRY EXCEEDED ITS BOUND"
        }
    );
    obs.finish();
    assert!(all_ok);
}

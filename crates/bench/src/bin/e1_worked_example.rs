//! E1 — The paper's worked example (Fig. 1, Fig. 2, Sect. 4).
//!
//! Reproduces every number the paper derives on its six-AS example: the
//! selected LCPs, the tree `T(Z)` of Fig. 2, the payments `D = 3`, `B = 4`
//! for `X→Z`, and the overcharged payment `D = 9` for `Y→Z` — computed both
//! centrally (Theorem 1) and by the distributed BGP extension (Theorem 2).
//!
//! Regenerate with: `cargo run -p bgpvcg-bench --bin e1_worked_example`

use bgpvcg_bench::table::Table;
use bgpvcg_core::{protocol, vcg};
use bgpvcg_lcp::shortest_tree;
use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
use bgpvcg_netgraph::{AsId, Cost};

const NAMES: [&str; 6] = ["X", "A", "Z", "D", "B", "Y"];

fn name(k: AsId) -> &'static str {
    NAMES[k.index()]
}

fn main() {
    println!("E1 — worked example of Sect. 4 (Fig. 1 graph, Fig. 2 tree)\n");
    let g = fig1();

    let reference = vcg::compute(&g).expect("Fig. 1 is biconnected");
    let run = protocol::run_sync(&g).expect("Fig. 1 is biconnected");
    assert_eq!(
        run.outcome, reference,
        "Theorem 2: protocol computes VCG prices"
    );

    println!("Fig. 2 — the tree T(Z) selected by lowest-cost routing:");
    let t = shortest_tree(&g, Fig1::Z);
    let mut tree_table = Table::new(["node", "parent in T(Z)", "LCP to Z", "cost"]);
    for k in g.nodes() {
        if k == Fig1::Z {
            continue;
        }
        let parent = t.parent(k).map_or("-".to_string(), |p| name(p).to_string());
        let path: Vec<&str> = t
            .route(k)
            .unwrap()
            .nodes()
            .iter()
            .map(|x| name(*x))
            .collect();
        tree_table.row([
            name(k).to_string(),
            parent,
            path.join(" "),
            t.cost(k).to_string(),
        ]);
    }
    println!("{tree_table}");

    println!("Sect. 4 payments (paper value vs centralized vs distributed):");
    let mut pay = Table::new([
        "packet",
        "transit node",
        "paper",
        "centralized",
        "distributed",
    ]);
    let cases = [
        (Fig1::X, Fig1::Z, Fig1::D, 3u64),
        (Fig1::X, Fig1::Z, Fig1::B, 4),
        (Fig1::Y, Fig1::Z, Fig1::D, 9),
    ];
    let mut all_match = true;
    for (i, j, k, paper) in cases {
        let central = reference.price(i, j, k).unwrap();
        let distributed = run.outcome.price(i, j, k).unwrap();
        all_match &= central == Cost::new(paper) && distributed == Cost::new(paper);
        pay.row([
            format!("{}→{}", name(i), name(j)),
            name(k).to_string(),
            paper.to_string(),
            central.to_string(),
            distributed.to_string(),
        ]);
    }
    println!("{pay}");

    println!(
        "Protocol converged in {} stages ({} messages, {} bytes).",
        run.report.stages, run.report.messages, run.report.bytes_v2
    );
    println!(
        "\nVERDICT: {}",
        if all_match {
            "all worked-example payments reproduced exactly"
        } else {
            "MISMATCH against the paper"
        }
    );
    assert!(all_match);
}

//! E2 — Theorem 1: strategyproofness and the zero-payment normalization.
//!
//! Sweeps unilateral cost lies across every agent of every graph family and
//! reports the number of profitable deviations found (the theorem predicts
//! zero), alongside the two structural properties that pin the mechanism
//! down: prices are at least declared costs on-path, and nodes carrying no
//! transit traffic are paid nothing.
//!
//! Regenerate with: `cargo run -p bgpvcg-bench --bin e2_strategyproofness`

use bgpvcg_bench::families::Family;
use bgpvcg_bench::table::Table;
use bgpvcg_core::{accounting::PaymentLedger, strategy, vcg};
use bgpvcg_netgraph::TrafficMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("E2 — Theorem 1: no unilateral lie about transit cost is ever profitable\n");
    let n = 12; // deviation sweeps recompute the mechanism per lie: keep instances small
    let lies_per_agent = 5;
    let mut table = Table::new([
        "family",
        "agents",
        "lies tested",
        "profitable lies",
        "max regret",
        "p >= c on path",
        "0 pay off path",
    ]);

    let mut total_lies = 0usize;
    let mut total_profitable = 0usize;
    for family in Family::ALL {
        let g = family.build(n, 7);
        let traffic = TrafficMatrix::uniform(n, 1);
        let mut rng = StdRng::seed_from_u64(1000 + n as u64);
        let outcomes = strategy::sweep_deviations(&g, &traffic, lies_per_agent, 15, &mut rng)
            .expect("family graphs satisfy the preconditions");
        let profitable = outcomes.iter().filter(|d| d.profitable()).count();
        let max_regret = outcomes.iter().map(|d| d.regret()).max().unwrap_or(0);

        // Structural checks on the truthful outcome.
        let truthful = vcg::compute(&g).unwrap();
        let individually_rational = truthful
            .pairs()
            .all(|(_, _, pair)| pair.prices().all(|(k, p)| p >= g.cost(k)));
        let ledger = PaymentLedger::settle(&truthful, &traffic).expect("converged outcome settles");
        let zero_pay_off_path = g
            .nodes()
            .filter(|&k| ledger.packets_carried(k) == 0)
            .all(|k| ledger.payment(k) == 0);

        total_lies += outcomes.len();
        total_profitable += profitable;
        table.row([
            family.name().to_string(),
            n.to_string(),
            outcomes.len().to_string(),
            profitable.to_string(),
            max_regret.to_string(),
            individually_rational.to_string(),
            zero_pay_off_path.to_string(),
        ]);
    }
    println!("{table}");
    println!("Paper claim: strategyproof — profitable lies must number exactly 0.");
    println!(
        "\nVERDICT: {total_profitable} profitable lies out of {total_lies} tested — {}",
        if total_profitable == 0 {
            "Theorem 1 reproduced"
        } else {
            "VIOLATION"
        }
    );
    assert_eq!(total_profitable, 0);
}

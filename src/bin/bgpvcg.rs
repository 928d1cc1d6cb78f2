//! `bgpvcg` — command-line driver for the BGP-VCG mechanism.
//!
//! A small CLI so the library can be exercised without writing code:
//!
//! ```text
//! bgpvcg fig1
//! bgpvcg simulate  --family barabasi-albert --nodes 64 --seed 7 [--engine async]
//! bgpvcg deviate   --family hierarchy --nodes 24 --seed 1 --agent 3 --declare 9
//! bgpvcg diameters --family waxman --nodes 48 --seed 2
//! ```
//!
//! Argument parsing is hand-rolled (the project's dependency policy admits
//! no CLI crates) and unit-tested below.

use bgp_vcg::bgp::FaultPlan;
use bgp_vcg::core::accounting::PaymentLedger;
use bgp_vcg::core::overcharge::OverchargeReport;
use bgp_vcg::core::strategy;
use bgp_vcg::lcp::{diameter, AllPairsLcp};
use bgp_vcg::netgraph::generators::structured::{fig1, Fig1};
use bgp_vcg::netgraph::generators::{
    barabasi_albert, erdos_renyi, hierarchy, random_costs, waxman, HierarchyConfig, WaxmanConfig,
};
use bgp_vcg::{protocol, vcg, AsGraph, AsId, Cost, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// Stage budget of `simulate --engine async`: the plan's delays end at
/// stage 64, and reconvergence after that is bounded by the topology.
const ASYNC_MAX_STAGES: u64 = 10_000;

const USAGE: &str = "\
bgpvcg — strategyproof lowest-cost interdomain routing (PODC 2002)

USAGE:
    bgpvcg fig1
        Run the paper's Fig. 1 worked example end to end.
    bgpvcg simulate --family <F> --nodes <N> [--seed <S>] [--engine sync|async]
                    [--trace stages]
        Converge the pricing protocol on a generated topology and report
        stages, traffic, diameters, payments, and overcharging; with
        --trace stages, print per-stage progress; with --engine async, run
        it over sessions whose frames a seeded plan delays (FIFO per link,
        interleaving across links drawn from the seed).
    bgpvcg deviate --family <F> --nodes <N> --agent <K> --declare <C> [--seed <S>]
        Evaluate one strategic deviation: agent K declares cost C.
    bgpvcg diameters --family <F> --nodes <N> [--seed <S>]
        Print d, d', and the convergence bound max(d, d').
    bgpvcg dot --family <F> --nodes <N> [--seed <S>] [--route <I>,<J>]
        Emit the topology in Graphviz DOT (optionally highlighting the
        LCP between two ASs) for `dot -Tsvg` rendering.
    bgpvcg metrics --family <F> --nodes <N> [--seed <S>]
        Print the topology's structural signature (degrees, clustering,
        assortativity) — the numbers behind the Internet-likeness claim.
    bgpvcg audit --family <F> --nodes <N> [--seed <S>]
        Converge the pricing protocol, then replay-audit every AS against
        its neighborhood (Sect. 7's open problem).
    bgpvcg help
        Show this message.

FAMILIES:
    ring | erdos-renyi | barabasi-albert | waxman | hierarchy
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Fig1,
    Simulate {
        family: String,
        nodes: usize,
        seed: u64,
        asynchronous: bool,
        trace: bool,
    },
    Deviate {
        family: String,
        nodes: usize,
        seed: u64,
        agent: u32,
        declare: u64,
    },
    Diameters {
        family: String,
        nodes: usize,
        seed: u64,
    },
    Dot {
        family: String,
        nodes: usize,
        seed: u64,
        route: Option<(u32, u32)>,
    },
    Metrics {
        family: String,
        nodes: usize,
        seed: u64,
    },
    Audit {
        family: String,
        nodes: usize,
        seed: u64,
    },
    Help,
}

/// Extracts `--key value` pairs for a verb that accepts the flags `keys`;
/// returns an error naming the first unknown, repeated or value-less flag.
fn parse_flags(args: &[String], keys: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument '{flag}' (flags start with --)"
            ));
        };
        if !keys.contains(&key) {
            let known: Vec<String> = keys.iter().map(|k| format!("--{k}")).collect();
            return Err(format!(
                "unknown flag --{key} (this command accepts {})",
                known.join(", ")
            ));
        }
        if pairs.iter().any(|(k, _)| k == key) {
            return Err(format!("flag --{key} is given more than once"));
        }
        let Some(value) = iter.next() else {
            return Err(format!("flag --{key} is missing a value"));
        };
        pairs.push((key.to_string(), value.clone()));
    }
    Ok(pairs)
}

fn flag<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// The value of a required integer flag, parsed at its field's width so an
/// out-of-range value is an error rather than a silent wrap.
fn required<T: std::str::FromStr>(pairs: &[(String, String)], key: &str) -> Result<T, String> {
    let value = flag(pairs, key).ok_or_else(|| format!("missing required flag --{key}"))?;
    value
        .parse()
        .map_err(|_| format!("--{key} must be a non-negative integer in range, not '{value}'"))
}

fn parse_command(args: &[String]) -> Result<Command, String> {
    let Some(verb) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match verb.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "fig1" => {
            if rest.is_empty() {
                Ok(Command::Fig1)
            } else {
                Err("fig1 takes no arguments".to_string())
            }
        }
        "simulate" => {
            let pairs = parse_flags(rest, &["family", "nodes", "seed", "engine", "trace"])?;
            let engine = flag(&pairs, "engine").unwrap_or("sync");
            if engine != "sync" && engine != "async" {
                return Err("--engine must be 'sync' or 'async'".to_string());
            }
            let trace = match flag(&pairs, "trace") {
                None => false,
                Some("stages") => true,
                Some(other) => return Err(format!("--trace supports 'stages', not '{other}'")),
            };
            if trace && engine == "async" {
                return Err("--trace requires the sync engine".to_string());
            }
            Ok(Command::Simulate {
                family: flag(&pairs, "family")
                    .ok_or("missing required flag --family")?
                    .to_string(),
                nodes: required(&pairs, "nodes")?,
                seed: flag(&pairs, "seed")
                    .unwrap_or("1")
                    .parse()
                    .map_err(|_| "--seed must be an integer")?,
                asynchronous: engine == "async",
                trace,
            })
        }
        "deviate" => {
            let pairs = parse_flags(rest, &["family", "nodes", "seed", "agent", "declare"])?;
            Ok(Command::Deviate {
                family: flag(&pairs, "family")
                    .ok_or("missing required flag --family")?
                    .to_string(),
                nodes: required(&pairs, "nodes")?,
                seed: flag(&pairs, "seed")
                    .unwrap_or("1")
                    .parse()
                    .map_err(|_| "--seed must be an integer")?,
                agent: required(&pairs, "agent")?,
                declare: match required(&pairs, "declare")? {
                    u64::MAX => return Err("--declare must be below u64::MAX".to_string()),
                    declare => declare,
                },
            })
        }
        "diameters" => {
            let pairs = parse_flags(rest, &["family", "nodes", "seed"])?;
            Ok(Command::Diameters {
                family: flag(&pairs, "family")
                    .ok_or("missing required flag --family")?
                    .to_string(),
                nodes: required(&pairs, "nodes")?,
                seed: flag(&pairs, "seed")
                    .unwrap_or("1")
                    .parse()
                    .map_err(|_| "--seed must be an integer")?,
            })
        }
        "metrics" | "audit" => {
            let pairs = parse_flags(rest, &["family", "nodes", "seed"])?;
            let family = flag(&pairs, "family")
                .ok_or("missing required flag --family")?
                .to_string();
            let nodes = required(&pairs, "nodes")?;
            let seed = flag(&pairs, "seed")
                .unwrap_or("1")
                .parse()
                .map_err(|_| "--seed must be an integer")?;
            Ok(if verb == "metrics" {
                Command::Metrics {
                    family,
                    nodes,
                    seed,
                }
            } else {
                Command::Audit {
                    family,
                    nodes,
                    seed,
                }
            })
        }
        "dot" => {
            let pairs = parse_flags(rest, &["family", "nodes", "seed", "route"])?;
            let route = match flag(&pairs, "route") {
                None => None,
                Some(spec) => {
                    let parts: Vec<&str> = spec.split(',').collect();
                    let [i, j] = parts.as_slice() else {
                        return Err("--route must be '<I>,<J>'".to_string());
                    };
                    let parse = |s: &str| {
                        s.trim()
                            .parse::<u32>()
                            .map_err(|_| format!("--route component '{s}' is not an AS number"))
                    };
                    Some((parse(i)?, parse(j)?))
                }
            };
            Ok(Command::Dot {
                family: flag(&pairs, "family")
                    .ok_or("missing required flag --family")?
                    .to_string(),
                nodes: required(&pairs, "nodes")?,
                seed: flag(&pairs, "seed")
                    .unwrap_or("1")
                    .parse()
                    .map_err(|_| "--seed must be an integer")?,
                route,
            })
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Builds a named topology family (mirrors `bgpvcg-bench`'s families; kept
/// here so the CLI has no dependency on the bench crate).
fn build_family(name: &str, n: usize, seed: u64) -> Result<AsGraph, String> {
    if n < 8 {
        return Err("--nodes must be at least 8".to_string());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = match name {
        "ring" => bgp_vcg::netgraph::generators::structured::ring(n, Cost::new(2)),
        "erdos-renyi" => {
            let costs = random_costs(n, 1, 10, &mut rng);
            erdos_renyi(costs, (5.0 / n as f64).min(1.0), &mut rng)
        }
        "barabasi-albert" => {
            let costs = random_costs(n, 1, 10, &mut rng);
            barabasi_albert(costs, 2, &mut rng)
        }
        "waxman" => {
            let costs = random_costs(n, 1, 10, &mut rng);
            waxman(costs, WaxmanConfig::default(), &mut rng)
        }
        "hierarchy" => {
            let core = (n / 8).clamp(3, 12);
            hierarchy(
                HierarchyConfig {
                    core_size: core,
                    stub_count: n - core,
                    core_cost: (1, 3),
                    stub_cost: (4, 10),
                },
                &mut rng,
            )
        }
        other => return Err(format!("unknown family '{other}' (see `bgpvcg help`)")),
    };
    Ok(graph)
}

fn run_fig1() -> Result<(), String> {
    let g = fig1();
    let run = protocol::run_sync(&g).map_err(|e| e.to_string())?;
    let reference = vcg::compute(&g).map_err(|e| e.to_string())?;
    assert_eq!(run.outcome, reference);
    println!(
        "Fig. 1: converged in {} stages, {} messages; distributed == centralized VCG.",
        run.report.stages, run.report.messages
    );
    let d = run.outcome.price(Fig1::X, Fig1::Z, Fig1::D).unwrap();
    let b = run.outcome.price(Fig1::X, Fig1::Z, Fig1::B).unwrap();
    let y = run.outcome.price(Fig1::Y, Fig1::Z, Fig1::D).unwrap();
    println!("X->Z: D paid {d} (paper: 3), B paid {b} (paper: 4); Y->Z: D paid {y} (paper: 9).");
    Ok(())
}

fn run_simulate(
    family: &str,
    n: usize,
    seed: u64,
    asynchronous: bool,
    trace: bool,
) -> Result<(), String> {
    let g = build_family(family, n, seed)?;
    println!(
        "{family} topology: {} ASs, {} links (seed {seed}).",
        g.node_count(),
        g.link_count()
    );
    let lcp = AllPairsLcp::compute(&g);
    let d = diameter::lcp_hop_diameter(&lcp);
    let dprime = diameter::avoiding_hop_diameter(&g, &lcp);
    println!(
        "d = {d}, d' = {dprime}, convergence bound max(d, d') = {}.",
        d.max(dprime)
    );

    let outcome = if asynchronous {
        let plan = FaultPlan::asynchronous(seed);
        let (outcome, report) =
            protocol::run_chaos(&g, plan, ASYNC_MAX_STAGES).map_err(|e| e.to_string())?;
        println!(
            "Asynchronous engine (link interleaving drawn from seed {seed}): {} frames, {} delayed, quiescent after {} stages.",
            report.messages, report.frames_delayed, report.stages
        );
        outcome
    } else if trace {
        let mut engine = protocol::build_sync_engine(&g).map_err(|e| e.to_string())?;
        let report = engine.run_to_convergence_traced(|t, _| println!("  {t}"));
        println!(
            "Synchronous engine: {} stages, {} messages, {} KiB.",
            report.stages,
            report.messages,
            report.bytes_v2 / 1024
        );
        let nodes: Vec<_> = engine.into_nodes();
        protocol::outcome_from_nodes(&nodes).map_err(|e| e.to_string())?
    } else {
        let run = protocol::run_sync(&g).map_err(|e| e.to_string())?;
        println!(
            "Synchronous engine: {} stages, {} messages, {} KiB.",
            run.report.stages,
            run.report.messages,
            run.report.bytes_v2 / 1024
        );
        run.outcome
    };
    let reference = vcg::compute(&g).map_err(|e| e.to_string())?;
    assert_eq!(outcome, reference, "protocol must compute the VCG prices");
    println!("Distributed prices verified against the centralized Theorem-1 computation.");

    let traffic = TrafficMatrix::uniform(n, 1);
    let ledger = PaymentLedger::settle(&outcome, &traffic).map_err(|e| e.to_string())?;
    let mut earners: Vec<(AsId, u128)> = g.nodes().map(|k| (k, ledger.payment(k))).collect();
    earners.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
    println!("Top transit earners under uniform traffic:");
    for (k, p) in earners.iter().take(5) {
        println!(
            "  {k}: paid {p} for {} transit packets",
            ledger.packets_carried(*k)
        );
    }
    let report = OverchargeReport::analyze(&outcome);
    let (pay, cost) = report.totals();
    println!(
        "Overcharging: payments {pay} vs true costs {cost} (max pair ratio {:.2}).",
        report.max_ratio().unwrap_or(f64::NAN)
    );
    Ok(())
}

fn run_deviate(family: &str, n: usize, seed: u64, agent: u32, declare: u64) -> Result<(), String> {
    let g = build_family(family, n, seed)?;
    let k = AsId::new(agent);
    if !g.contains_node(k) {
        return Err(format!("agent {agent} out of range (0..{})", n - 1));
    }
    let traffic = TrafficMatrix::uniform(n, 1);
    let dev = strategy::deviate(&g, k, Cost::new(declare), &traffic).map_err(|e| e.to_string())?;
    println!(
        "{k} (true cost {}): truthful utility {} on {} transit packets.",
        g.cost(k),
        dev.truthful.utility,
        dev.truthful.packets_carried
    );
    println!(
        "Declaring {declare}: utility {} on {} transit packets ({}).",
        dev.deviant.utility,
        dev.deviant.packets_carried,
        if dev.profitable() {
            "PROFITABLE — impossible if Theorem 1 holds"
        } else if dev.regret() == 0 {
            "no gain"
        } else {
            "a loss"
        }
    );
    if dev.profitable() {
        return Err("strategyproofness violated — this is a bug".to_string());
    }
    Ok(())
}

fn run_diameters(family: &str, n: usize, seed: u64) -> Result<(), String> {
    let g = build_family(family, n, seed)?;
    let lcp = AllPairsLcp::compute(&g);
    let d = diameter::lcp_hop_diameter(&lcp);
    let dprime = diameter::avoiding_hop_diameter(&g, &lcp);
    println!(
        "{family} (n={n}, seed={seed}): d = {d}, d' = {dprime}, max(d, d') = {}",
        d.max(dprime)
    );
    Ok(())
}

fn run_metrics(family: &str, n: usize, seed: u64) -> Result<(), String> {
    use bgp_vcg::netgraph::metrics;
    let g = build_family(family, n, seed)?;
    let stats = metrics::degree_stats(&g);
    println!("{family} (n={n}, seed={seed}): {} links", g.link_count());
    println!(
        "  degrees: min {} / mean {:.1} / max {} (hub dominance {:.1})",
        stats.min, stats.mean, stats.max, stats.hub_dominance
    );
    println!("  stub fraction (degree <= 3): {:.2}", stats.stub_fraction);
    println!(
        "  clustering coefficient: {:.3}",
        metrics::clustering_coefficient(&g)
    );
    println!(
        "  degree assortativity: {:.2}",
        metrics::degree_assortativity(&g)
    );
    Ok(())
}

fn run_audit(family: &str, n: usize, seed: u64) -> Result<(), String> {
    use bgp_vcg::core::audit;
    let g = build_family(family, n, seed)?;
    let mut engine = protocol::build_sync_engine(&g).map_err(|e| e.to_string())?;
    let report = engine.run_to_convergence();
    println!(
        "{family} (n={n}, seed={seed}): pricing protocol converged in {} stages.",
        report.stages
    );
    let nodes: Vec<_> = engine.into_nodes();
    let findings = audit::audit_network(&g, &nodes);
    if findings.is_empty() {
        println!("Audit: every AS's advertisements match a replay of the algorithm (0 findings).");
        Ok(())
    } else {
        for f in &findings {
            println!("  FLAGGED: {f}");
        }
        Err(format!(
            "{} audit findings on a supposedly honest run",
            findings.len()
        ))
    }
}

fn run_dot(family: &str, n: usize, seed: u64, route: Option<(u32, u32)>) -> Result<(), String> {
    let g = build_family(family, n, seed)?;
    let highlight: Vec<AsId> = match route {
        None => Vec::new(),
        Some((i, j)) => {
            let (i, j) = (AsId::new(i), AsId::new(j));
            if !g.contains_node(i) || !g.contains_node(j) {
                return Err("--route names an unknown AS".to_string());
            }
            let tree = bgp_vcg::lcp::shortest_tree(&g, j);
            tree.route(i)
                .map(|r| r.nodes().to_vec())
                .ok_or("no route between the given ASs")?
        }
    };
    print!("{}", bgp_vcg::netgraph::dot::to_dot(&g, &highlight));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_command(&args) {
        Ok(c) => c,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Fig1 => run_fig1(),
        Command::Simulate {
            family,
            nodes,
            seed,
            asynchronous,
            trace,
        } => run_simulate(&family, nodes, seed, asynchronous, trace),
        Command::Deviate {
            family,
            nodes,
            seed,
            agent,
            declare,
        } => run_deviate(&family, nodes, seed, agent, declare),
        Command::Diameters {
            family,
            nodes,
            seed,
        } => run_diameters(&family, nodes, seed),
        Command::Dot {
            family,
            nodes,
            seed,
            route,
        } => run_dot(&family, nodes, seed, route),
        Command::Metrics {
            family,
            nodes,
            seed,
        } => run_metrics(&family, nodes, seed),
        Command::Audit {
            family,
            nodes,
            seed,
        } => run_audit(&family, nodes, seed),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse_command(&[]).unwrap(), Command::Help);
        assert_eq!(parse_command(&strings(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_command(&strings(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn fig1_parses() {
        assert_eq!(parse_command(&strings(&["fig1"])).unwrap(), Command::Fig1);
        assert!(parse_command(&strings(&["fig1", "extra"])).is_err());
    }

    #[test]
    fn simulate_parses_with_defaults() {
        let cmd =
            parse_command(&strings(&["simulate", "--family", "ring", "--nodes", "16"])).unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                family: "ring".into(),
                nodes: 16,
                seed: 1,
                asynchronous: false,
                trace: false
            }
        );
    }

    #[test]
    fn simulate_parses_async_engine() {
        let cmd = parse_command(&strings(&[
            "simulate", "--family", "waxman", "--nodes", "24", "--seed", "9", "--engine", "async",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                family: "waxman".into(),
                nodes: 24,
                seed: 9,
                asynchronous: true,
                trace: false
            }
        );
    }

    #[test]
    fn simulate_rejects_bad_engine() {
        assert!(parse_command(&strings(&[
            "simulate", "--family", "ring", "--nodes", "16", "--engine", "warp",
        ]))
        .is_err());
    }

    #[test]
    fn deviate_requires_agent_and_declare() {
        assert!(
            parse_command(&strings(&["deviate", "--family", "ring", "--nodes", "16"])).is_err()
        );
        let cmd = parse_command(&strings(&[
            "deviate",
            "--family",
            "ring",
            "--nodes",
            "16",
            "--agent",
            "3",
            "--declare",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Deviate {
                family: "ring".into(),
                nodes: 16,
                seed: 1,
                agent: 3,
                declare: 7
            }
        );
    }

    #[test]
    fn deviate_rejects_an_agent_beyond_u32() {
        // 2^32 + 3 must not wrap round to AS 3.
        let err = parse_command(&strings(&[
            "deviate",
            "--family",
            "ring",
            "--nodes",
            "16",
            "--agent",
            "4294967299",
            "--declare",
            "7",
        ]))
        .unwrap_err();
        assert!(err.contains("--agent"), "{err}");
    }

    #[test]
    fn deviate_rejects_the_infinite_sentinel_as_a_declaration() {
        // u64::MAX is Cost's reserved infinity; Cost::new panics on it.
        let err = parse_command(&strings(&[
            "deviate",
            "--family",
            "ring",
            "--nodes",
            "16",
            "--agent",
            "3",
            "--declare",
            "18446744073709551615",
        ]))
        .unwrap_err();
        assert!(err.contains("--declare"), "{err}");
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = parse_command(&strings(&["frobnicate"])).unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn flags_must_have_values() {
        let err = parse_command(&strings(&["diameters", "--family"])).unwrap_err();
        assert!(err.contains("missing a value"));
    }

    #[test]
    fn an_unknown_flag_is_rejected_by_name() {
        // A typo must not silently run with the default seed.
        let err = parse_command(&strings(&[
            "simulate", "--family", "ring", "--nodes", "16", "--sed", "5",
        ]))
        .unwrap_err();
        assert!(err.contains("--sed"), "{err}");
        // A flag of another verb is unknown here too.
        let err = parse_command(&strings(&[
            "diameters",
            "--family",
            "ring",
            "--nodes",
            "16",
            "--agent",
            "3",
        ]))
        .unwrap_err();
        assert!(err.contains("--agent"), "{err}");
    }

    #[test]
    fn a_repeated_flag_is_rejected_by_name() {
        // `--seed 5 --seed 9` must not silently pick one of the two.
        let err = parse_command(&strings(&[
            "simulate", "--family", "ring", "--nodes", "16", "--seed", "5", "--seed", "9",
        ]))
        .unwrap_err();
        assert!(
            err.contains("--seed") && err.contains("more than once"),
            "{err}"
        );
    }

    #[test]
    fn non_flag_argument_is_rejected() {
        let err = parse_command(&strings(&["diameters", "family", "ring"])).unwrap_err();
        assert!(err.contains("unexpected argument"));
    }

    #[test]
    fn dot_parses_with_and_without_route() {
        let cmd = parse_command(&strings(&["dot", "--family", "ring", "--nodes", "12"])).unwrap();
        assert_eq!(
            cmd,
            Command::Dot {
                family: "ring".into(),
                nodes: 12,
                seed: 1,
                route: None
            }
        );
        let cmd = parse_command(&strings(&[
            "dot", "--family", "ring", "--nodes", "12", "--route", "0,5",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Dot {
                family: "ring".into(),
                nodes: 12,
                seed: 1,
                route: Some((0, 5))
            }
        );
        assert!(parse_command(&strings(&[
            "dot", "--family", "ring", "--nodes", "12", "--route", "zero,5",
        ]))
        .is_err());
    }

    #[test]
    fn metrics_and_audit_parse() {
        let cmd =
            parse_command(&strings(&["metrics", "--family", "ring", "--nodes", "16"])).unwrap();
        assert_eq!(
            cmd,
            Command::Metrics {
                family: "ring".into(),
                nodes: 16,
                seed: 1
            }
        );
        let cmd = parse_command(&strings(&[
            "audit", "--family", "waxman", "--nodes", "12", "--seed", "4",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Audit {
                family: "waxman".into(),
                nodes: 12,
                seed: 4
            }
        );
        assert!(parse_command(&strings(&["metrics", "--nodes", "16"])).is_err());
    }

    #[test]
    fn build_family_rejects_unknown_and_small() {
        assert!(build_family("nope", 16, 1).is_err());
        assert!(build_family("ring", 4, 1).is_err());
        assert!(build_family("ring", 16, 1).is_ok());
    }

    #[test]
    fn all_cli_families_build() {
        for family in [
            "ring",
            "erdos-renyi",
            "barabasi-albert",
            "waxman",
            "hierarchy",
        ] {
            let g = build_family(family, 16, 2).unwrap();
            assert!(g.is_biconnected(), "{family}");
        }
    }
}

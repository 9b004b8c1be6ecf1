//! Rent's-rule "window" circuit generator.
//!
//! Nodes are laid out on a line whose order encodes the implicit design
//! hierarchy. Each net draws a *span* from a truncated Pareto distribution
//! with tail index `1 − p` (where `p` is the target Rent exponent), places
//! a window of that span uniformly on the line, and picks its pins inside
//! the window. Small spans dominate, so most nets are local; the heavy tail
//! reproduces the `T ∝ g^p` boundary-pin scaling of real netlists, which is
//! what makes min-cut partitioning behave realistically.

use crate::builder::HypergraphBuilder;
use crate::graph::Hypergraph;
use crate::ids::NodeId;
use crate::rng::StdRng;

/// Parameters of the window generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConfig {
    /// Circuit name recorded on the generated hypergraph.
    pub name: String,
    /// Number of interior nodes.
    pub nodes: usize,
    /// Number of primary terminals.
    pub terminals: usize,
    /// Nets per node (real netlists: ≈ 1.0–1.4).
    pub net_ratio: f64,
    /// Target Rent exponent in `(0, 1)`; ~0.65 matches MCNC-class logic.
    pub rent_exponent: f64,
    /// Maximum interior pins on a net.
    pub max_net_degree: usize,
    /// Probability that a net has exactly two pins (the rest of the degree
    /// distribution is geometric above two).
    pub two_pin_fraction: f64,
    /// Node size distribution: every node has size 1 unless this is > 0, in
    /// which case sizes are `1 + Geometric(extra_size_prob)` capped at 8.
    pub extra_size_prob: f64,
}

impl WindowConfig {
    /// A configuration producing a realistic logic-netlist shape with the
    /// given node and terminal counts.
    #[must_use]
    pub fn new(name: impl Into<String>, nodes: usize, terminals: usize) -> Self {
        WindowConfig {
            name: name.into(),
            nodes,
            terminals,
            net_ratio: 1.2,
            rent_exponent: 0.65,
            max_net_degree: 16,
            two_pin_fraction: 0.6,
            extra_size_prob: 0.0,
        }
    }
}

/// Generates a circuit from `config`, deterministically from `seed`.
///
/// # Panics
///
/// Panics if `config.nodes == 0`, if `rent_exponent` is outside `(0, 1)`,
/// or if `max_net_degree < 2`.
#[must_use]
pub fn window_circuit(config: &WindowConfig, seed: u64) -> Hypergraph {
    assert!(config.nodes > 0, "window generator needs at least one node");
    assert!(
        config.rent_exponent > 0.0 && config.rent_exponent < 1.0,
        "rent exponent must be in (0, 1)"
    );
    assert!(config.max_net_degree >= 2, "nets need at least two pins");

    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = HypergraphBuilder::named(config.name.clone());

    for i in 0..config.nodes {
        let size = if config.extra_size_prob > 0.0 {
            1 + sample_geometric(&mut rng, config.extra_size_prob).min(7) as u32
        } else {
            1
        };
        builder.add_node(format!("x{i}"), size);
    }

    let n = config.nodes;
    let net_count = ((n as f64 * config.net_ratio).round() as usize).max(1);
    let mut net_ids = Vec::with_capacity(net_count);
    for e in 0..net_count {
        let degree = sample_degree(&mut rng, config).min(n);
        let span = sample_span(&mut rng, config.rent_exponent, degree, n);
        let start = if n > span { rng.gen_range(0..=n - span) } else { 0 };
        let pins = pick_pins_in_window(&mut rng, start, span, degree);
        let id =
            builder.add_net(format!("e{e}"), pins).expect("window pins are valid distinct nodes");
        net_ids.push(id);
    }

    // Attach terminals to distinct nets spread across the order, so the
    // external I/Os are not concentrated in one region (real pads connect
    // all over the floorplan).
    let t = config.terminals.min(net_ids.len());
    let mut chosen = rng.sample_indices(net_ids.len(), t);
    chosen.sort_unstable();
    for (i, net_idx) in chosen.into_iter().enumerate() {
        builder
            .add_terminal(format!("io{i}"), net_ids[net_idx])
            .expect("net id came from this builder");
    }

    builder.finish().expect("generated netlist is structurally valid")
}

/// Samples a net degree: two pins with probability `two_pin_fraction`,
/// otherwise `3 + Geometric(0.5)` capped at `max_net_degree`.
fn sample_degree(rng: &mut StdRng, config: &WindowConfig) -> usize {
    if rng.gen_bool(config.two_pin_fraction.clamp(0.0, 1.0)) {
        2
    } else {
        (3 + sample_geometric(rng, 0.5)).min(config.max_net_degree)
    }
}

/// Samples from Geometric(p) starting at 0 (number of failures).
fn sample_geometric(rng: &mut StdRng, p: f64) -> usize {
    let mut k = 0usize;
    while k < 32 && !rng.gen_bool(p.clamp(1e-6, 1.0)) {
        k += 1;
    }
    k
}

/// Samples a net span from a truncated Pareto with
/// `P(span > L) ∝ L^(p − 1)`, at least `degree` and at most `n`.
fn sample_span(rng: &mut StdRng, p: f64, degree: usize, n: usize) -> usize {
    let min_span = degree.max(2) as f64;
    let u: f64 = rng.gen_range(1e-9..1.0);
    // Inverse CDF of Pareto with tail exponent (1 − p).
    let span = min_span * u.powf(-1.0 / (1.0 - p));
    // A one-node circuit has no span of two.
    (span.round() as usize).clamp(degree.max(2).min(n), n)
}

/// Picks `degree` distinct node indices in `[start, start + span)`.
fn pick_pins_in_window(rng: &mut StdRng, start: usize, span: usize, degree: usize) -> Vec<NodeId> {
    let window = span.max(degree);
    let picks = rng.sample_indices(window, degree);
    picks.into_iter().map(|offset| NodeId::from_index(start + offset)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{rent_exponent, CircuitStats};

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = WindowConfig::new("t", 200, 16);
        let a = window_circuit(&cfg, 42);
        let b = window_circuit(&cfg, 42);
        assert_eq!(a.net_count(), b.net_count());
        for (na, nb) in a.net_ids().zip(b.net_ids()) {
            assert_eq!(a.pins(na), b.pins(nb));
        }
        for (ta, tb) in a.terminal_ids().zip(b.terminal_ids()) {
            assert_eq!(a.terminal_net(ta), b.terminal_net(tb));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WindowConfig::new("t", 200, 16);
        let a = window_circuit(&cfg, 1);
        let b = window_circuit(&cfg, 2);
        let differs = a.net_ids().zip(b.net_ids()).any(|(na, nb)| a.pins(na) != b.pins(nb));
        assert!(differs);
    }

    #[test]
    fn respects_requested_counts() {
        let cfg = WindowConfig::new("t", 500, 40);
        let g = window_circuit(&cfg, 7);
        assert_eq!(g.node_count(), 500);
        assert_eq!(g.terminal_count(), 40);
        assert_eq!(g.total_size(), 500); // unit sizes by default
        assert_eq!(g.net_count(), 600); // 1.2 × 500
    }

    #[test]
    fn net_degrees_within_bounds() {
        let cfg = WindowConfig::new("t", 300, 10);
        let g = window_circuit(&cfg, 3);
        for net in g.net_ids() {
            let d = g.pins(net).len();
            assert!((2..=cfg.max_net_degree).contains(&d));
        }
    }

    #[test]
    fn two_pin_nets_dominate() {
        let cfg = WindowConfig::new("t", 1000, 10);
        let g = window_circuit(&cfg, 11);
        let two = g.net_ids().filter(|&e| g.pins(e).len() == 2).count();
        let frac = two as f64 / g.net_count() as f64;
        assert!(frac > 0.45 && frac < 0.75, "two-pin fraction {frac}");
    }

    #[test]
    fn rent_exponent_is_realistic() {
        let cfg = WindowConfig::new("t", 2000, 64);
        let g = window_circuit(&cfg, 5);
        let p = rent_exponent(&g).expect("graph large enough");
        assert!((0.35..0.95).contains(&p), "estimated rent exponent {p} out of realistic band");
    }

    #[test]
    fn terminals_attach_to_distinct_nets() {
        let cfg = WindowConfig::new("t", 100, 30);
        let g = window_circuit(&cfg, 9);
        let mut nets: Vec<_> = g.terminal_ids().map(|t| g.terminal_net(t)).collect();
        nets.sort_unstable();
        nets.dedup();
        assert_eq!(nets.len(), 30);
    }

    #[test]
    fn extra_size_prob_produces_varied_sizes() {
        let mut cfg = WindowConfig::new("t", 300, 8);
        cfg.extra_size_prob = 0.5;
        let g = window_circuit(&cfg, 13);
        assert!(g.total_size() > 300);
        assert!(g.node_ids().all(|n| (1..=8).contains(&g.node_size(n))));
    }

    #[test]
    fn stats_smoke() {
        let cfg = WindowConfig::new("t", 400, 24);
        let g = window_circuit(&cfg, 17);
        let s = CircuitStats::of(&g);
        assert!(s.mean_net_degree >= 2.0);
        assert!(s.terminal_net_fraction > 0.0);
    }

    #[test]
    fn one_node_circuit_builds() {
        let g = window_circuit(&WindowConfig::new("t", 1, 2), 3);
        assert_eq!(g.node_count(), 1);
        assert!(g.net_ids().all(|e| g.pins(e).len() == 1));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let cfg = WindowConfig::new("t", 0, 0);
        let _ = window_circuit(&cfg, 0);
    }
}

//! Graph-fingerprint contracts.
//!
//! Two properties anchor the memo and checkpoint keys:
//!
//! * **Separation** — a 10k-sample corpus of structurally distinct
//!   graphs produces 10k distinct fingerprints. A 128-bit hash cannot
//!   collide by chance at this scale, so any collision is a
//!   construction bug (a hash that ignores sizes, wiring, or names).
//! * **Id order** — the same content inserted in another order gets
//!   other ids, which every stored assignment depends on, so it hashes
//!   differently.

use std::collections::HashSet;

use fpart_hypergraph::gen::{rent_circuit, window_circuit, RentConfig, WindowConfig};
use fpart_hypergraph::{fingerprint_graph, Fingerprint, Hypergraph, HypergraphBuilder, NodeId};

/// At least 10k structurally distinct graphs, zero fingerprint collisions.
/// Three families stress different parts of the hash: node sizes alone,
/// wiring alone, and whole generated circuits.
#[test]
fn ten_thousand_distinct_graphs_never_collide() {
    let mut seen: HashSet<Fingerprint> = HashSet::new();
    let mut check = |graph: &Hypergraph, what: &str| {
        assert!(seen.insert(fingerprint_graph(graph)), "fingerprint collision in family {what}");
    };

    // Family 1: fixed wiring, node sizes enumerate 0..4000 in base 10
    // — only the sizes separate these graphs.
    for i in 0u32..4000 {
        let mut b = HypergraphBuilder::named("sizes");
        let digits = [i % 10, (i / 10) % 10, (i / 100) % 10, (i / 1000) % 10];
        let ids: Vec<NodeId> =
            digits.iter().enumerate().map(|(j, d)| b.add_node(format!("n{j}"), d + 1)).collect();
        b.add_net("e0", [ids[0], ids[1]]).unwrap();
        b.add_net("e1", [ids[2], ids[3]]).unwrap();
        check(&b.finish().unwrap(), "sizes");
    }

    // Family 2: fixed sizes, wiring enumerates all 4096 subsets of 12
    // candidate two-pin nets over 8 nodes — only the nets separate
    // these graphs.
    let pairs: [(usize, usize); 12] = [
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
        (2, 3),
        (4, 5),
        (4, 6),
        (4, 7),
        (5, 6),
        (5, 7),
        (6, 7),
    ];
    for mask in 0u32..4096 {
        let mut b = HypergraphBuilder::named("wires");
        let ids: Vec<NodeId> = (0..8).map(|j| b.add_node(format!("n{j}"), 1)).collect();
        for (j, &(x, y)) in pairs.iter().enumerate() {
            if mask & (1 << j) != 0 {
                b.add_net(format!("e{j}"), [ids[x], ids[y]]).unwrap();
            }
        }
        check(&b.finish().unwrap(), "wires");
    }

    // Family 3: 2000 whole generated circuits across sizes and seeds.
    for i in 0u64..1000 {
        let nodes = 40 + (i % 50) as usize;
        let seed = i / 50;
        check(&window_circuit(&WindowConfig::new("corpus", nodes, 8), seed), "window");
        check(&rent_circuit(&RentConfig::new("corpus", nodes, 10), seed), "rent");
    }

    assert!(seen.len() >= 10_000, "corpus too small: {}", seen.len());
}

/// The same content inserted in another node order is another input:
/// the ids differ, so the fingerprint does too.
#[test]
fn insertion_order_moves_the_fingerprint() {
    let mut fwd = HypergraphBuilder::named("ord");
    let a = fwd.add_node("a", 1);
    let b = fwd.add_node("b", 2);
    fwd.add_net("e", [a, b]).unwrap();
    let fwd = fwd.finish().unwrap();

    let mut rev = HypergraphBuilder::named("ord");
    let b2 = rev.add_node("b", 2);
    let a2 = rev.add_node("a", 1);
    rev.add_net("e", [a2, b2]).unwrap();
    let rev = rev.finish().unwrap();

    assert_ne!(
        fingerprint_graph(&fwd),
        fingerprint_graph(&rev),
        "the fingerprint must pin the id assignment"
    );
}

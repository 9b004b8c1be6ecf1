//! The one hypergraph hash: a 128-bit fingerprint of the netlist exactly
//! as the partitioner reads it.
//!
//! [`fingerprint_graph`] makes one O(pins) pass that chains, through the
//! order-sensitive [`Fingerprint::fold_u64`] /
//! [`fold_str`](Fingerprint::fold_str), the circuit name, every node's
//! name and size in id order, and every net's name, pins (as node ids,
//! in stored order) and pad names. Every algorithm reads the graph by
//! id — assignments, coarsening maps and gain buckets are id-indexed,
//! and pin order sets the order of gain updates — so two graphs hash
//! equal only when they present the same input: permuting the nodes,
//! the nets, or the pins inside a net moves the hash. An edited graph is
//! simply hashed again.
//!
//! The same fold chain composes run keys (graph fingerprint +
//! constraints + config + seed) for `fpart-core`'s checkpoint and
//! memoization layers.

use std::fmt;

use crate::rng::splitmix64;
use crate::Hypergraph;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// A 128-bit fingerprint built by order-sensitive chaining (see the
/// module docs). `Fingerprint::default()` is the start of every chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fingerprint {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Fingerprint {
    /// Order-sensitive chaining: folds one `u64` into the fingerprint,
    /// producing a new fingerprint. It is *not* commutative —
    /// `a.fold_u64(x).fold_u64(y)` differs from
    /// `a.fold_u64(y).fold_u64(x)` — which is exactly what graph hashes
    /// and run keys (graph + constraints + config + seed, in a fixed
    /// order) need.
    #[must_use]
    pub fn fold_u64(self, value: u64) -> Fingerprint {
        let mut state = self.hi ^ value.wrapping_mul(FNV_PRIME);
        let hi = splitmix64(&mut state);
        let mut state = self.lo ^ hi ^ value.rotate_left(32);
        let lo = splitmix64(&mut state);
        Fingerprint { hi, lo }
    }

    /// Order-sensitive chaining over a byte string (length-prefixed, so
    /// `"ab" + "c"` and `"a" + "bc"` fold differently).
    #[must_use]
    pub fn fold_bytes(self, bytes: &[u8]) -> Fingerprint {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.fold_u64(bytes.len() as u64).fold_u64(h)
    }

    /// Order-sensitive chaining over a string (see
    /// [`Fingerprint::fold_bytes`]).
    #[must_use]
    pub fn fold_str(self, text: &str) -> Fingerprint {
        self.fold_bytes(text.as_bytes())
    }

    /// Collapses the fingerprint to 64 bits (for compact storage such
    /// as the checkpoint header).
    #[must_use]
    pub fn to_u64(self) -> u64 {
        self.hi ^ self.lo.rotate_left(31)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Hashes a graph in one O(pins) pass: the circuit name, the node and
/// net counts, each node's name and size in id order, then each net's
/// name, pin ids in stored order and pad names (module docs).
#[must_use]
pub fn fingerprint_graph(graph: &Hypergraph) -> Fingerprint {
    let mut fp = Fingerprint::default()
        .fold_str(graph.name())
        .fold_u64(graph.node_count() as u64)
        .fold_u64(graph.net_count() as u64);
    for node in graph.node_ids() {
        fp = fp.fold_str(graph.node_name(node)).fold_u64(u64::from(graph.node_size(node)));
    }
    for net in graph.net_ids() {
        let pins = graph.pins(net);
        fp = fp.fold_str(graph.net_name(net)).fold_u64(pins.len() as u64);
        for &pin in pins {
            fp = fp.fold_u64(pin.index() as u64);
        }
        let terminals = graph.net_terminals(net);
        fp = fp.fold_u64(terminals.len() as u64);
        for &terminal in terminals {
            fp = fp.fold_str(graph.terminal_name(terminal));
        }
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn triangle(name: &str) -> Hypergraph {
        let mut b = HypergraphBuilder::named(name);
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 3);
        let n0 = b.add_net("n0", [a, c]).unwrap();
        b.add_net("n1", [c, d]).unwrap();
        b.add_terminal("t0", n0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        let g = triangle("t");
        assert_eq!(fingerprint_graph(&g), fingerprint_graph(&g.clone()));

        // A different circuit name, node size, pin set, or terminal
        // each moves the hash.
        assert_ne!(fingerprint_graph(&g), fingerprint_graph(&triangle("u")));

        let mut b = HypergraphBuilder::named("t");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 4); // resized
        let n0 = b.add_net("n0", [a, c]).unwrap();
        b.add_net("n1", [c, d]).unwrap();
        b.add_terminal("t0", n0).unwrap();
        assert_ne!(fingerprint_graph(&g), fingerprint_graph(&b.finish().unwrap()));

        let mut b = HypergraphBuilder::named("t");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 3);
        let n0 = b.add_net("n0", [a, c, d]).unwrap(); // extra pin
        b.add_net("n1", [c, d]).unwrap();
        b.add_terminal("t0", n0).unwrap();
        assert_ne!(fingerprint_graph(&g), fingerprint_graph(&b.finish().unwrap()));

        let mut b = HypergraphBuilder::named("t");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 3);
        b.add_net("n0", [a, c]).unwrap();
        b.add_net("n1", [c, d]).unwrap();
        // no terminal
        assert_ne!(fingerprint_graph(&g), fingerprint_graph(&b.finish().unwrap()));

        let mut b = HypergraphBuilder::named("t");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 3);
        let n0 = b.add_net("n0", [a, c]).unwrap();
        b.add_net("n1", [c, d]).unwrap();
        b.add_terminal("t1", n0).unwrap(); // renamed pad
        assert_ne!(fingerprint_graph(&g), fingerprint_graph(&b.finish().unwrap()));
    }

    #[test]
    fn net_order_permutation_moves_the_fingerprint() {
        let g = triangle("t");
        // Same nets inserted in the opposite order: the net ids differ,
        // so the partitioner reads a different input.
        let mut b = HypergraphBuilder::named("t");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 3);
        b.add_net("n1", [c, d]).unwrap();
        let n0 = b.add_net("n0", [a, c]).unwrap();
        b.add_terminal("t0", n0).unwrap();
        let permuted = b.finish().unwrap();
        assert_ne!(fingerprint_graph(&g), fingerprint_graph(&permuted));
    }

    #[test]
    fn swapping_two_pins_inside_a_net_moves_the_fingerprint() {
        let mut b = HypergraphBuilder::named("t");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 3);
        let n0 = b.add_net("n0", [c, a]).unwrap(); // a and c swapped
        b.add_net("n1", [c, d]).unwrap();
        b.add_terminal("t0", n0).unwrap();
        let swapped = b.finish().unwrap();
        assert_ne!(fingerprint_graph(&triangle("t")), fingerprint_graph(&swapped));
    }

    #[test]
    fn fold_is_order_sensitive_and_deterministic() {
        let base = fingerprint_graph(&triangle("t"));
        assert_eq!(base.fold_u64(1).fold_u64(2), base.fold_u64(1).fold_u64(2));
        assert_ne!(base.fold_u64(1).fold_u64(2), base.fold_u64(2).fold_u64(1));
        assert_ne!(base.fold_str("ab").fold_str("c"), base.fold_str("a").fold_str("bc"));
        assert_ne!(base.fold_u64(0), base);
        assert_ne!(Fingerprint::default().fold_u64(0), Fingerprint::default());
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let text = format!("{}", Fingerprint { hi: 0xA, lo: 0xB });
        assert_eq!(text.len(), 32);
        assert_eq!(text, "000000000000000a000000000000000b");
    }
}

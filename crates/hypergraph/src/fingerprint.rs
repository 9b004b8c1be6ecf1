//! Zobrist-style incremental hypergraph fingerprinting.
//!
//! A [`Fingerprint`] is a 128-bit hash of a named hypergraph built the
//! way transposition tables hash board positions: every structural
//! element — a node with its size, a (net, pin) incidence, a net's
//! presence, a (terminal, net) attachment — contributes one
//! pseudo-random 128-bit *token* derived from its stable **names** via
//! the workspace [`crate::rng::splitmix64`] generator, and
//! the graph fingerprint is the XOR of every token (plus the circuit
//! name's token). XOR composition makes the hash:
//!
//! * **order-insensitive where the graph is** — permuting net insertion
//!   order or pin order inside a net does not change which tokens are
//!   present, so structurally identical netlists hash equal;
//! * **incrementally maintainable in O(edit)** — adding or removing an
//!   element XORs its token in or out, which is how
//!   [`apply_script`](crate::edit::apply_script) produces the
//!   fingerprint of an edited graph without rehashing it
//!   (see [`EditApplied::fingerprint_delta`](crate::edit::EditApplied));
//! * **name-keyed, not id-keyed** — `apply_script` rebuilds the graph
//!   and reassigns dense ids, so tokens derive from names, which are
//!   stable across rebuilds.
//!
//! Where the graph *is* order-sensitive — node/net ids are assigned in
//! insertion order and index every downstream artifact (assignments,
//! coarsening maps) — XOR composition deliberately does not see the
//! difference. Callers that cache id-indexed artifacts validate hits
//! with [`order_checksum`], a cheap O(|X|+|E|) sequence hash over the
//! names in id order, so a permuted twin of a cached graph reads as a
//! miss instead of silently cross-hitting.
//!
//! [`Fingerprint::fold_u64`] / [`fold_bytes`](Fingerprint::fold_bytes)
//! provide *order-sensitive* chaining on top, for composing run keys
//! (graph fingerprint + constraints + config + seed) the way
//! `fpart-core`'s checkpoint and memoization layers need.

use std::fmt;

use crate::rng::splitmix64;
use crate::Hypergraph;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Domain tags keep the token classes disjoint: a node named `"a"`, a
/// net named `"a"`, and a terminal named `"a"` derive unrelated tokens.
const TAG_NAME: u64 = 0x5ca1_ab1e_0000_0001;
const TAG_NODE: u64 = 0x5ca1_ab1e_0000_0002;
const TAG_PIN: u64 = 0x5ca1_ab1e_0000_0003;
const TAG_NET: u64 = 0x5ca1_ab1e_0000_0004;
const TAG_TERMINAL: u64 = 0x5ca1_ab1e_0000_0005;

/// A 128-bit zobrist-style hypergraph fingerprint (see the module
/// docs). The zero fingerprint is the identity of XOR composition — it
/// doubles as the *delta* accumulator of an edit script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fingerprint {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Fingerprint {
    /// The identity element of XOR composition (an empty delta).
    pub const ZERO: Fingerprint = Fingerprint { hi: 0, lo: 0 };

    /// Whether this is the zero fingerprint / empty delta.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.hi == 0 && self.lo == 0
    }

    /// Order-sensitive chaining: folds one `u64` into the fingerprint,
    /// producing a new fingerprint. Unlike XOR composition this is
    /// *not* commutative — `a.fold_u64(x).fold_u64(y)` differs from
    /// `a.fold_u64(y).fold_u64(x)` — which is exactly what run keys
    /// (graph + constraints + config + seed, in a fixed order) need.
    #[must_use]
    pub fn fold_u64(self, value: u64) -> Fingerprint {
        let mut state = self.hi ^ value.wrapping_mul(FNV_PRIME) ^ TAG_NAME.rotate_left(17);
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

impl std::ops::BitXor for Fingerprint {
    type Output = Fingerprint;

    fn bitxor(self, rhs: Fingerprint) -> Fingerprint {
        Fingerprint { hi: self.hi ^ rhs.hi, lo: self.lo ^ rhs.lo }
    }
}

impl std::ops::BitXorAssign for Fingerprint {
    fn bitxor_assign(&mut self, rhs: Fingerprint) {
        self.hi ^= rhs.hi;
        self.lo ^= rhs.lo;
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// FNV-1a over length-prefixed parts, so adjacent parts cannot alias
/// (`("ab", "c")` hashes differently from `("a", "bc")`).
fn hash_parts(parts: &[&[u8]]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part);
    }
    h
}

/// Expands a domain-tagged name hash into a 128-bit token via the
/// workspace splitmix64 stream — the zobrist "random table", generated
/// lazily from stable identity instead of dense indexes.
fn token(tag: u64, parts: &[&[u8]]) -> Fingerprint {
    let mut state = hash_parts(parts) ^ tag;
    let hi = splitmix64(&mut state);
    let lo = splitmix64(&mut state);
    Fingerprint { hi, lo }
}

/// Token of the circuit name.
pub(crate) fn name_token(name: &str) -> Fingerprint {
    token(TAG_NAME, &[name.as_bytes()])
}

/// Token of an interior node: its name *and* size, so a resize swaps
/// tokens rather than going unseen.
pub(crate) fn node_token(name: &str, size: u32) -> Fingerprint {
    token(TAG_NODE, &[name.as_bytes(), &u64::from(size).to_le_bytes()])
}

/// Token of one (net, pin) incidence.
pub(crate) fn pin_token(net: &str, node: &str) -> Fingerprint {
    token(TAG_PIN, &[net.as_bytes(), node.as_bytes()])
}

/// Token of a net's presence.
pub(crate) fn net_token(name: &str) -> Fingerprint {
    token(TAG_NET, &[name.as_bytes()])
}

/// Token of one (terminal, net) attachment.
pub(crate) fn terminal_token(terminal: &str, net: &str) -> Fingerprint {
    token(TAG_TERMINAL, &[terminal.as_bytes(), net.as_bytes()])
}

/// Computes the fingerprint of a graph from scratch in O(pins):
/// the XOR of every element token (module docs). This is the reference
/// the incremental path is checked against; compute it once at load and
/// maintain it through [`apply_script`](crate::edit::apply_script).
#[must_use]
pub fn fingerprint_graph(graph: &Hypergraph) -> Fingerprint {
    let mut fp = name_token(graph.name());
    for node in graph.node_ids() {
        fp ^= node_token(graph.node_name(node), graph.node_size(node));
    }
    for net in graph.net_ids() {
        let net_name = graph.net_name(net);
        fp ^= net_token(net_name);
        for &pin in graph.pins(net) {
            fp ^= pin_token(net_name, graph.node_name(pin));
        }
        for &terminal in graph.net_terminals(net) {
            fp ^= terminal_token(graph.terminal_name(terminal), net_name);
        }
    }
    fp
}

/// Order validator for fingerprint-keyed caches of **id-indexed**
/// artifacts: a sequence hash of the node and net names in id order.
/// Two graphs with equal [`fingerprint_graph`] but different insertion
/// order (so different id assignment) get different checksums; cache
/// layers compare it on a hit before trusting id-indexed payloads.
/// O(|X| + |E|), cheap relative to anything worth caching.
#[must_use]
pub fn order_checksum(graph: &Hypergraph) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for node in graph.node_ids() {
        let name = graph.node_name(node);
        eat(&(name.len() as u64).to_le_bytes());
        eat(name.as_bytes());
    }
    eat(&u64::MAX.to_le_bytes());
    for net in graph.net_ids() {
        let name = graph.net_name(net);
        eat(&(name.len() as u64).to_le_bytes());
        eat(name.as_bytes());
    }
    h
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
    }

    #[test]
    fn net_order_permutation_keeps_fingerprint_but_moves_order_checksum() {
        let g = triangle("t");
        // Same structure, nets inserted in the opposite order: ids
        // differ, element set does not.
        let mut b = HypergraphBuilder::named("t");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 3);
        b.add_net("n1", [c, d]).unwrap();
        let n0 = b.add_net("n0", [a, c]).unwrap();
        b.add_terminal("t0", n0).unwrap();
        let permuted = b.finish().unwrap();
        assert_eq!(fingerprint_graph(&g), fingerprint_graph(&permuted));
        assert_ne!(order_checksum(&g), order_checksum(&permuted));
    }

    #[test]
    fn pin_order_inside_a_net_is_irrelevant_everywhere() {
        let mut b = HypergraphBuilder::named("t");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 3);
        let n0 = b.add_net("n0", [c, a]).unwrap();
        b.add_net("n1", [d, c]).unwrap();
        b.add_terminal("t0", n0).unwrap();
        let swapped = b.finish().unwrap();
        let g = triangle("t");
        assert_eq!(fingerprint_graph(&g), fingerprint_graph(&swapped));
        assert_eq!(order_checksum(&g), order_checksum(&swapped));
    }

    #[test]
    fn fold_is_order_sensitive_and_deterministic() {
        let base = fingerprint_graph(&triangle("t"));
        assert_eq!(base.fold_u64(1).fold_u64(2), base.fold_u64(1).fold_u64(2));
        assert_ne!(base.fold_u64(1).fold_u64(2), base.fold_u64(2).fold_u64(1));
        assert_ne!(base.fold_str("ab").fold_str("c"), base.fold_str("a").fold_str("bc"));
        assert_ne!(base.fold_u64(0), base);
        assert_ne!(Fingerprint::ZERO.fold_u64(0), Fingerprint::ZERO);
    }

    #[test]
    fn token_classes_are_domain_separated() {
        assert_ne!(net_token("a"), name_token("a"));
        assert_ne!(pin_token("a", "b"), terminal_token("a", "b"));
        assert_ne!(pin_token("a", "b"), pin_token("b", "a"));
        assert_ne!(node_token("a", 1), node_token("a", 2));
        // Length-prefixing: ("ab", "c") vs ("a", "bc").
        assert_ne!(pin_token("ab", "c"), pin_token("a", "bc"));
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let text = format!("{}", Fingerprint { hi: 0xA, lo: 0xB });
        assert_eq!(text.len(), 32);
        assert_eq!(text, "000000000000000a000000000000000b");
        assert!(Fingerprint::ZERO.is_zero());
        assert!(!node_token("x", 1).is_zero());
    }
}

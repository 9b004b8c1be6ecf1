//! Validated construction of [`Hypergraph`] instances.

use std::collections::HashSet;

use crate::error::BuildError;
use crate::graph::{Hypergraph, NameTable};
use crate::ids::{NetId, NodeId, TerminalId};

/// Builder for [`Hypergraph`].
///
/// Nodes, nets, and terminals are appended in order; ids are dense indices
/// in insertion order. [`HypergraphBuilder::finish`] performs final
/// validation and freezes the graph.
///
/// # Example
///
/// ```
/// use fpart_hypergraph::HypergraphBuilder;
///
/// # fn main() -> Result<(), fpart_hypergraph::BuildError> {
/// let mut b = HypergraphBuilder::named("adder");
/// let s = b.add_node("sum", 1);
/// let c = b.add_node("carry", 1);
/// let n = b.add_net("out", [s, c])?;
/// b.add_terminal("pad_out", n)?;
/// let graph = b.finish()?;
/// assert_eq!(graph.name(), "adder");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HypergraphBuilder {
    name: String,
    node_names: NameTable,
    node_sizes: Vec<u32>,
    net_names: NameTable,
    /// The nets' pin CSR as [`Hypergraph`] keeps it: net `i`'s pins are
    /// `net_pins[net_pin_offsets[i]..net_pin_offsets[i + 1]]`.
    net_pin_offsets: Vec<u32>,
    net_pins: Vec<NodeId>,
    /// Per node, the number of the `add_net` call that last listed it:
    /// a pin already stamped with the current call's is a duplicate.
    pin_stamps: Vec<u32>,
    stamp: u32,
    terminal_names: NameTable,
    terminal_nets: Vec<NetId>,
    check_duplicate_names: bool,
}

impl Default for HypergraphBuilder {
    fn default() -> Self {
        HypergraphBuilder {
            name: String::new(),
            node_names: NameTable::default(),
            node_sizes: Vec::new(),
            net_names: NameTable::default(),
            net_pin_offsets: vec![0],
            net_pins: Vec::new(),
            pin_stamps: Vec::new(),
            stamp: 0,
            terminal_names: NameTable::default(),
            terminal_nets: Vec::new(),
            check_duplicate_names: false,
        }
    }
}

impl HypergraphBuilder {
    /// Creates an empty builder for an unnamed circuit.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder for a circuit with the given name.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Self::default() }
    }

    /// Sets or replaces the circuit name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Enables rejection of duplicate node/net/terminal names at
    /// [`Self::finish`] time. Disabled by default because synthetic
    /// generators produce guaranteed-unique names and the check is `O(n)`
    /// extra memory.
    #[must_use]
    pub fn check_duplicate_names(mut self, check: bool) -> Self {
        self.check_duplicate_names = check;
        self
    }

    /// Returns the number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_sizes.len()
    }

    /// Returns the number of nets added so far.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Returns the number of terminals added so far.
    #[must_use]
    pub fn terminal_count(&self) -> usize {
        self.terminal_nets.len()
    }

    /// Adds an interior node with the given size and returns its id.
    ///
    /// A size of zero is tolerated here and rejected at [`Self::finish`],
    /// so that callers may build nodes before sizes are known.
    pub fn add_node(&mut self, name: impl AsRef<str>, size: u32) -> NodeId {
        let id = NodeId::from_index(self.node_sizes.len());
        self.node_names.push(name.as_ref());
        self.node_sizes.push(size);
        self.pin_stamps.push(0);
        id
    }

    /// Overrides the size of an already-added node.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not created by this builder.
    pub fn set_node_size(&mut self, node: NodeId, size: u32) {
        self.node_sizes[node.index()] = size;
    }

    /// Adds a net over the given interior pins and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownNode`] if a pin id is out of range,
    /// [`BuildError::DuplicatePin`] if a node appears twice, and
    /// [`BuildError::EmptyNet`] if `pins` is empty.
    pub fn add_net(
        &mut self,
        name: impl AsRef<str>,
        pins: impl IntoIterator<Item = NodeId>,
    ) -> Result<NetId, BuildError> {
        let name = name.as_ref();
        // A fresh stamp per call; on wrap-around every old stamp is
        // cleared so none can match a later call's.
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.pin_stamps.fill(0);
            self.stamp = 1;
        }
        let start = self.net_pins.len();
        for p in pins {
            let error = match self.pin_stamps.get_mut(p.index()) {
                None => BuildError::UnknownNode { node: p.index(), net: name.to_owned() },
                Some(stamp) if *stamp == self.stamp => {
                    BuildError::DuplicatePin { net: name.to_owned(), node: p.index() }
                }
                Some(stamp) => {
                    *stamp = self.stamp;
                    self.net_pins.push(p);
                    continue;
                }
            };
            self.net_pins.truncate(start);
            return Err(error);
        }
        if self.net_pins.len() == start {
            return Err(BuildError::EmptyNet { net: name.to_owned() });
        }
        let id = NetId::from_index(self.net_names.len());
        self.net_names.push(name);
        let end = u32::try_from(self.net_pins.len()).expect("pin count fits u32 CSR offsets");
        self.net_pin_offsets.push(end);
        Ok(id)
    }

    /// Adds a primary terminal attached to `net` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownNet`] if `net` is out of range.
    pub fn add_terminal(
        &mut self,
        name: impl AsRef<str>,
        net: NetId,
    ) -> Result<TerminalId, BuildError> {
        let name = name.as_ref();
        if net.index() >= self.net_names.len() {
            return Err(BuildError::UnknownNet { net: net.index(), terminal: name.to_owned() });
        }
        let id = TerminalId::from_index(self.terminal_nets.len());
        self.terminal_names.push(name);
        self.terminal_nets.push(net);
        Ok(id)
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ZeroSizeNode`] for any node of size zero, and
    /// [`BuildError::DuplicateName`] if duplicate-name checking was enabled
    /// and any two entities of the same kind share a name.
    pub fn finish(self) -> Result<Hypergraph, BuildError> {
        if let Some(i) = self.node_sizes.iter().position(|&s| s == 0) {
            return Err(BuildError::ZeroSizeNode { node: self.node_names.get(i).to_owned() });
        }
        if self.check_duplicate_names {
            for names in [&self.node_names, &self.net_names, &self.terminal_names] {
                let mut seen = HashSet::with_capacity(names.len());
                for n in names.iter() {
                    if !seen.insert(n) {
                        return Err(BuildError::DuplicateName { name: n.to_owned() });
                    }
                }
            }
        }
        Ok(Hypergraph::from_parts(
            self.name,
            self.node_names,
            self.node_sizes,
            self.net_names,
            (self.net_pin_offsets, self.net_pins),
            self.terminal_names,
            self.terminal_nets,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_net() {
        let mut b = HypergraphBuilder::new();
        let err = b.add_net("n", []).unwrap_err();
        assert!(matches!(err, BuildError::EmptyNet { .. }));
    }

    #[test]
    fn rejects_unknown_pin() {
        let mut b = HypergraphBuilder::new();
        let _ = b.add_node("a", 1);
        let err = b.add_net("n", [NodeId::from_index(5)]).unwrap_err();
        assert!(matches!(err, BuildError::UnknownNode { node: 5, .. }));
    }

    #[test]
    fn rejects_duplicate_pin() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_node("a", 1);
        let err = b.add_net("n", [a, a]).unwrap_err();
        assert!(matches!(err, BuildError::DuplicatePin { .. }));
    }

    /// Builds `first` and `second` after four nodes, with the calls of
    /// `failing` in between when asked to.
    fn with_failed_calls(fail: bool) -> Hypergraph {
        let mut b = HypergraphBuilder::named("retry");
        let v: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("v{i}"), i + 1)).collect();
        b.add_net("first", [v[0], v[1]]).unwrap();
        if fail {
            let err = b.add_net("dup", [v[1], v[2], v[1]]).unwrap_err();
            assert!(matches!(err, BuildError::DuplicatePin { node: 1, .. }));
        }
        b.add_net("second", [v[1], v[2]]).unwrap();
        if fail {
            let err = b.add_net("unknown", [v[2], v[3], NodeId::from_index(9)]).unwrap_err();
            assert!(matches!(err, BuildError::UnknownNode { node: 9, .. }));
        }
        let third = b.add_net("third", [v[2], v[3]]).unwrap();
        if fail {
            let err = b.add_net("empty", []).unwrap_err();
            assert!(matches!(err, BuildError::EmptyNet { .. }));
        }
        b.add_net("fourth", [v[3], v[0], v[1], v[2]]).unwrap();
        b.add_terminal("pad", third).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn a_failed_add_net_leaves_no_stale_pin_or_stamp() {
        // Each failed call stamps some of its pins before it fails; the
        // next call over the same pins must still succeed, and the graph
        // must equal one whose builder never saw the failed calls.
        let clean = with_failed_calls(false);
        let retried = with_failed_calls(true);
        assert_eq!(retried.net_count(), 4);
        assert_eq!(crate::io::netlist_to_string(&retried), crate::io::netlist_to_string(&clean));
        assert_eq!(crate::fingerprint_graph(&retried), crate::fingerprint_graph(&clean));
        for v in clean.node_ids() {
            assert_eq!(retried.nets(v), clean.nets(v));
        }
    }

    #[test]
    fn rejects_unknown_net_for_terminal() {
        let mut b = HypergraphBuilder::new();
        let err = b.add_terminal("t", NetId::from_index(0)).unwrap_err();
        assert!(matches!(err, BuildError::UnknownNet { .. }));
    }

    #[test]
    fn rejects_zero_size_node_at_finish() {
        let mut b = HypergraphBuilder::new();
        let _ = b.add_node("a", 0);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, BuildError::ZeroSizeNode { .. }));
    }

    #[test]
    fn set_node_size_repairs_zero() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_node("a", 0);
        b.set_node_size(a, 4);
        let h = b.finish().unwrap();
        assert_eq!(h.node_size(a), 4);
    }

    #[test]
    fn duplicate_name_check_is_opt_in() {
        let mut b = HypergraphBuilder::new();
        let _ = b.add_node("a", 1);
        let _ = b.add_node("a", 1);
        assert!(b.clone().finish().is_ok());
        let strict = b.check_duplicate_names(true);
        assert!(matches!(strict.finish().unwrap_err(), BuildError::DuplicateName { .. }));
    }

    #[test]
    fn csr_layout_matches_insertion_order() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 1);
        let d = b.add_node("d", 1);
        let n0 = b.add_net("n0", [a, d]).unwrap();
        let n1 = b.add_net("n1", [d, c]).unwrap();
        let h = b.finish().unwrap();
        assert_eq!(h.pins(n0), [a, d]);
        assert_eq!(h.pins(n1), [d, c]);
        // node→net lists are ordered by net id because nets fill in order
        assert_eq!(h.nets(d), [n0, n1]);
    }

    #[test]
    fn empty_graph_is_valid() {
        let h = HypergraphBuilder::new().finish().unwrap();
        assert_eq!(h.node_count(), 0);
        assert_eq!(h.net_count(), 0);
        assert_eq!(h.total_size(), 0);
        assert_eq!(h.max_node_degree(), 0);
        assert_eq!(h.max_net_degree(), 0);
    }

    #[test]
    fn counts_track_additions() {
        let mut b = HypergraphBuilder::new();
        assert_eq!((b.node_count(), b.net_count(), b.terminal_count()), (0, 0, 0));
        let a = b.add_node("a", 1);
        let n = b.add_net("n", [a]).unwrap();
        b.add_terminal("t", n).unwrap();
        assert_eq!((b.node_count(), b.net_count(), b.terminal_count()), (1, 1, 1));
    }
}

//! Validated construction of [`Hypergraph`] instances.

use std::collections::HashSet;

use crate::error::BuildError;
use crate::graph::Hypergraph;
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
#[derive(Debug, Clone, Default)]
pub struct HypergraphBuilder {
    name: String,
    node_names: Vec<String>,
    node_sizes: Vec<u32>,
    net_names: Vec<String>,
    net_pins: Vec<Vec<NodeId>>,
    terminal_names: Vec<String>,
    terminal_nets: Vec<NetId>,
    check_duplicate_names: bool,
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
        self.net_pins.len()
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
    pub fn add_node(&mut self, name: impl Into<String>, size: u32) -> NodeId {
        let id = NodeId::from_index(self.node_names.len());
        self.node_names.push(name.into());
        self.node_sizes.push(size);
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
        name: impl Into<String>,
        pins: impl IntoIterator<Item = NodeId>,
    ) -> Result<NetId, BuildError> {
        let name = name.into();
        let pins: Vec<NodeId> = pins.into_iter().collect();
        if pins.is_empty() {
            return Err(BuildError::EmptyNet { net: name });
        }
        let mut seen = HashSet::with_capacity(pins.len());
        for &p in &pins {
            if p.index() >= self.node_names.len() {
                return Err(BuildError::UnknownNode { node: p.index(), net: name });
            }
            if !seen.insert(p) {
                return Err(BuildError::DuplicatePin { net: name, node: p.index() });
            }
        }
        let id = NetId::from_index(self.net_names.len());
        self.net_names.push(name);
        self.net_pins.push(pins);
        Ok(id)
    }

    /// Adds a primary terminal attached to `net` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownNet`] if `net` is out of range.
    pub fn add_terminal(
        &mut self,
        name: impl Into<String>,
        net: NetId,
    ) -> Result<TerminalId, BuildError> {
        let name = name.into();
        if net.index() >= self.net_names.len() {
            return Err(BuildError::UnknownNet { net: net.index(), terminal: name });
        }
        let id = TerminalId::from_index(self.terminal_names.len());
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
            return Err(BuildError::ZeroSizeNode { node: self.node_names[i].clone() });
        }
        if self.check_duplicate_names {
            for names in [&self.node_names, &self.net_names, &self.terminal_names] {
                let mut seen = HashSet::with_capacity(names.len());
                for n in names {
                    if !seen.insert(n.as_str()) {
                        return Err(BuildError::DuplicateName { name: n.clone() });
                    }
                }
            }
        }

        let mut net_pin_offsets = Vec::with_capacity(self.net_pins.len() + 1);
        net_pin_offsets.push(0u32);
        let mut net_pins = Vec::new();
        for pins in &self.net_pins {
            net_pins.extend_from_slice(pins);
            net_pin_offsets.push(net_pins.len() as u32);
        }
        Ok(Hypergraph::from_parts(
            self.name,
            self.node_names,
            self.node_sizes,
            self.net_names,
            (net_pin_offsets, net_pins),
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

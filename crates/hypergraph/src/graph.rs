//! The immutable hypergraph netlist.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use crate::ids::{NetId, NodeId, TerminalId};

/// Names in id order, kept as one text buffer and the end offset of each
/// name in it, so a table of any size is two allocations and copying a
/// run of consecutive names is one slice copy. No algorithm reads names;
/// they are identity for I/O and edit scripts.
///
/// Offsets are `usize`, the buffer's own length type: the most text a
/// table can hold under [`crate::ParseLimits::default`] (10 M names of
/// 1 KiB) overflows `u32` but not a 64-bit `usize`.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    text: String,
    ends: Vec<usize>,
}

impl NameTable {
    /// An empty table with room for `names` names of `bytes` bytes in all.
    pub(crate) fn with_capacity(names: usize, bytes: usize) -> Self {
        NameTable { text: String::with_capacity(bytes), ends: Vec::with_capacity(names) }
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Total bytes of text held.
    pub(crate) fn text_len(&self) -> usize {
        self.text.len()
    }

    fn span(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    /// The name with id `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn get(&self, i: usize) -> &str {
        &self.text[self.span(i)]
    }

    /// The names in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    pub(crate) fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len());
    }

    /// Appends the name `args` formats, writing it straight into the
    /// buffer.
    pub(crate) fn push_fmt(&mut self, args: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(&mut self.text, args).expect("writing to a String cannot fail");
        self.ends.push(self.text.len());
    }

    /// Appends the names of `src` with the given ids, in order, copying
    /// each run of consecutive ids with one slice copy.
    pub(crate) fn extend_from(&mut self, src: &NameTable, ids: impl IntoIterator<Item = usize>) {
        let mut run = 0..0;
        for id in ids {
            if run.is_empty() || run.end != id {
                self.copy_run(src, std::mem::replace(&mut run, id..id));
            }
            run.end += 1;
        }
        self.copy_run(src, run);
    }

    fn copy_run(&mut self, src: &NameTable, ids: Range<usize>) {
        if ids.is_empty() {
            return;
        }
        let from = src.span(ids.start).start;
        let base = self.text.len();
        self.text.push_str(&src.text[from..src.ends[ids.end - 1]]);
        self.ends.extend(src.ends[ids].iter().map(|&end| end - from + base));
    }

    /// Heap bytes in use: the text plus one offset per name.
    pub(crate) fn approx_bytes(&self) -> u64 {
        (self.text.len() + std::mem::size_of_val(self.ends.as_slice())) as u64
    }
}

/// An immutable circuit hypergraph `H = ({X, Y}, E)`.
///
/// * `X` — interior nodes (logic cells or clusters), each with a positive
///   size in target-technology cells;
/// * `Y` — primary terminals (the circuit's external I/Os), each attached to
///   exactly one net;
/// * `E` — nets (hyperedges) over interior nodes.
///
/// The structure is stored in flat compressed adjacency (net → pins and
/// node → incident nets), which is what the FM/Sanchis gain-update inner
/// loops iterate over. Construct instances with
/// [`HypergraphBuilder`](crate::HypergraphBuilder); the graph itself is
/// immutable so partitioners can share it freely.
///
/// # Example
///
/// ```
/// use fpart_hypergraph::HypergraphBuilder;
///
/// # fn main() -> Result<(), fpart_hypergraph::BuildError> {
/// let mut b = HypergraphBuilder::new();
/// let a = b.add_node("a", 1);
/// let c = b.add_node("c", 3);
/// let n = b.add_net("n", [a, c])?;
/// let h = b.finish()?;
/// assert_eq!(h.pins(n), [a, c]);
/// assert_eq!(h.nets(c), [n]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Hypergraph {
    pub(crate) node_names: NameTable,
    pub(crate) node_sizes: Vec<u32>,
    pub(crate) net_names: NameTable,
    /// CSR offsets into `net_pins`; length `net_count() + 1`.
    pub(crate) net_pin_offsets: Vec<u32>,
    pub(crate) net_pins: Vec<NodeId>,
    /// CSR offsets into `node_nets`; length `node_count() + 1`.
    pub(crate) node_net_offsets: Vec<u32>,
    pub(crate) node_nets: Vec<NetId>,
    pub(crate) terminal_names: NameTable,
    pub(crate) terminal_nets: Vec<NetId>,
    /// CSR offsets into `net_terminals`; length `net_count() + 1`.
    pub(crate) net_terminal_offsets: Vec<u32>,
    pub(crate) net_terminals: Vec<TerminalId>,
    pub(crate) total_size: u64,
    pub(crate) name: String,
}

impl Hypergraph {
    /// Freezes a netlist given as named nodes, nets as a pin CSR
    /// (`net_pins.0` offsets into `net_pins.1`) and terminals with their
    /// nets. The node→net and net→terminal adjacency is derived here, by
    /// counting sorts, so every node lists its nets and every net its
    /// terminals in id order. The caller has checked the parts: pins
    /// and terminal nets in range, no empty net, no zero size.
    pub(crate) fn from_parts(
        name: String,
        node_names: NameTable,
        node_sizes: Vec<u32>,
        net_names: NameTable,
        (net_pin_offsets, net_pins): (Vec<u32>, Vec<NodeId>),
        terminal_names: NameTable,
        terminal_nets: Vec<NetId>,
    ) -> Hypergraph {
        // node -> nets CSR
        let n = node_sizes.len();
        let mut node_net_offsets = vec![0u32; n + 1];
        for p in &net_pins {
            node_net_offsets[p.index() + 1] += 1;
        }
        for i in 0..n {
            node_net_offsets[i + 1] += node_net_offsets[i];
        }
        let mut cursor: Vec<u32> = node_net_offsets[..n].to_vec();
        let mut node_nets = vec![NetId::from_index(0); net_pins.len()];
        for (e, span) in net_pin_offsets.windows(2).enumerate() {
            for p in &net_pins[span[0] as usize..span[1] as usize] {
                let c = &mut cursor[p.index()];
                node_nets[*c as usize] = NetId::from_index(e);
                *c += 1;
            }
        }

        // net -> terminals CSR
        let e = net_names.len();
        let mut net_terminal_offsets = vec![0u32; e + 1];
        for t in &terminal_nets {
            net_terminal_offsets[t.index() + 1] += 1;
        }
        for i in 0..e {
            net_terminal_offsets[i + 1] += net_terminal_offsets[i];
        }
        let mut cursor: Vec<u32> = net_terminal_offsets[..e].to_vec();
        let mut net_terminals = vec![TerminalId::from_index(0); terminal_nets.len()];
        for (t, net) in terminal_nets.iter().enumerate() {
            let c = &mut cursor[net.index()];
            net_terminals[*c as usize] = TerminalId::from_index(t);
            *c += 1;
        }

        let total_size = node_sizes.iter().map(|&s| u64::from(s)).sum();
        Hypergraph {
            node_names,
            node_sizes,
            net_names,
            net_pin_offsets,
            net_pins,
            node_net_offsets,
            node_nets,
            terminal_names,
            terminal_nets,
            net_terminal_offsets,
            net_terminals,
            total_size,
            name,
        }
    }

    /// Returns the circuit name (empty if none was set).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of interior nodes `|X|`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_sizes.len()
    }

    /// Returns the number of nets `|E|`.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Returns the number of primary terminals `|Y|`.
    #[must_use]
    pub fn terminal_count(&self) -> usize {
        self.terminal_nets.len()
    }

    /// Returns the total circuit size `S₀ = Σ S(xᵢ)`.
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.total_size
    }

    /// Estimated heap footprint of this graph in bytes: the flat
    /// adjacency arrays plus the name tables (text plus one offset per
    /// name). Used by memory budgets to bound hierarchy construction; an
    /// estimate, not an allocator measurement.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        fn slice<T>(v: &[T]) -> u64 {
            std::mem::size_of_val(v) as u64
        }
        self.node_names.approx_bytes()
            + self.net_names.approx_bytes()
            + self.terminal_names.approx_bytes()
            + self.name.len() as u64
            + slice(&self.node_sizes)
            + slice(&self.net_pin_offsets)
            + slice(&self.net_pins)
            + slice(&self.node_net_offsets)
            + slice(&self.node_nets)
            + slice(&self.terminal_nets)
            + slice(&self.net_terminal_offsets)
            + slice(&self.net_terminals)
    }

    /// Returns the size `S(x)` of an interior node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn node_size(&self, node: NodeId) -> u32 {
        self.node_sizes[node.index()]
    }

    /// Returns the name of an interior node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this graph.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        self.node_names.get(node.index())
    }

    /// Returns the name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for this graph.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        self.net_names.get(net.index())
    }

    /// Returns the name of a terminal.
    ///
    /// # Panics
    ///
    /// Panics if `terminal` is out of range for this graph.
    #[must_use]
    pub fn terminal_name(&self, terminal: TerminalId) -> &str {
        self.terminal_names.get(terminal.index())
    }

    /// Returns the interior-node pins of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn pins(&self, net: NetId) -> &[NodeId] {
        let i = net.index();
        let lo = self.net_pin_offsets[i] as usize;
        let hi = self.net_pin_offsets[i + 1] as usize;
        &self.net_pins[lo..hi]
    }

    /// Returns the nets incident to an interior node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn nets(&self, node: NodeId) -> &[NetId] {
        let i = node.index();
        let lo = self.node_net_offsets[i] as usize;
        let hi = self.node_net_offsets[i + 1] as usize;
        &self.node_nets[lo..hi]
    }

    /// Returns the terminals attached to a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn net_terminals(&self, net: NetId) -> &[TerminalId] {
        let i = net.index();
        let lo = self.net_terminal_offsets[i] as usize;
        let hi = self.net_terminal_offsets[i + 1] as usize;
        &self.net_terminals[lo..hi]
    }

    /// Returns the number of terminals attached to a net without
    /// materializing the slice.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn net_terminal_count(&self, net: NetId) -> usize {
        self.net_terminals(net).len()
    }

    /// Returns `true` if the net is attached to at least one primary
    /// terminal. Such nets always require an I/O block on every device they
    /// touch, regardless of how the interior nodes are partitioned.
    #[inline]
    #[must_use]
    pub fn net_has_terminal(&self, net: NetId) -> bool {
        self.net_terminal_count(net) > 0
    }

    /// Returns the net a terminal is attached to.
    ///
    /// # Panics
    ///
    /// Panics if `terminal` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn terminal_net(&self, terminal: TerminalId) -> NetId {
        self.terminal_nets[terminal.index()]
    }

    /// Iterates over all interior node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl ExactSizeIterator<Item = NetId> + Clone {
        (0..self.net_count()).map(NetId::from_index)
    }

    /// Iterates over all terminal ids.
    pub fn terminal_ids(&self) -> impl ExactSizeIterator<Item = TerminalId> + Clone {
        (0..self.terminal_count()).map(TerminalId::from_index)
    }

    /// Returns the maximum number of nets incident to any single node.
    ///
    /// FM gain values are bounded by this quantity, so gain-bucket arrays
    /// are dimensioned from it.
    #[must_use]
    pub fn max_node_degree(&self) -> usize {
        (0..self.node_count())
            .map(|i| self.node_net_offsets[i + 1] as usize - self.node_net_offsets[i] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Returns the maximum number of interior pins on any single net.
    #[must_use]
    pub fn max_net_degree(&self) -> usize {
        (0..self.net_count())
            .map(|i| self.net_pin_offsets[i + 1] as usize - self.net_pin_offsets[i] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Returns the total number of (net, node) pin pairs.
    #[must_use]
    pub fn pin_count(&self) -> usize {
        self.net_pins.len()
    }

    /// Looks up an interior node by name.
    ///
    /// This is a linear scan intended for tests and small examples; index
    /// the names yourself if you need repeated lookups.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_names.iter().position(|n| n == name).map(NodeId::from_index)
    }

    /// Looks up a net by name (linear scan; see [`Self::find_node`]).
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.iter().position(|n| n == name).map(NetId::from_index)
    }

    /// Builds a name → node index for repeated lookups.
    #[must_use]
    pub fn node_index_by_name(&self) -> HashMap<&str, NodeId> {
        self.node_names.iter().enumerate().map(|(i, n)| (n, NodeId::from_index(i))).collect()
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hypergraph")
            .field("name", &self.name)
            .field("nodes", &self.node_count())
            .field("nets", &self.net_count())
            .field("terminals", &self.terminal_count())
            .field("pins", &self.pin_count())
            .field("total_size", &self.total_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::HypergraphBuilder;

    fn tiny() -> crate::Hypergraph {
        let mut b = HypergraphBuilder::named("tiny");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 3);
        let n0 = b.add_net("n0", [a, c]).unwrap();
        let _n1 = b.add_net("n1", [a, c, d]).unwrap();
        b.add_terminal("t0", n0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn counts_and_sizes() {
        let h = tiny();
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.net_count(), 2);
        assert_eq!(h.terminal_count(), 1);
        assert_eq!(h.total_size(), 6);
        assert_eq!(h.pin_count(), 5);
        assert_eq!(h.name(), "tiny");
    }

    #[test]
    fn adjacency_is_consistent_both_ways() {
        let h = tiny();
        for net in h.net_ids() {
            for &pin in h.pins(net) {
                assert!(h.nets(pin).contains(&net));
            }
        }
        for node in h.node_ids() {
            for &net in h.nets(node) {
                assert!(h.pins(net).contains(&node));
            }
        }
    }

    #[test]
    fn terminals_attach_to_their_net() {
        let h = tiny();
        let t = h.terminal_ids().next().unwrap();
        let net = h.terminal_net(t);
        assert!(h.net_has_terminal(net));
        assert_eq!(h.net_terminals(net), [t]);
        assert_eq!(h.terminal_name(t), "t0");
    }

    #[test]
    fn degrees() {
        let h = tiny();
        assert_eq!(h.max_node_degree(), 2); // a and c are on two nets
        assert_eq!(h.max_net_degree(), 3); // n1 has three pins
    }

    #[test]
    fn name_lookups() {
        let h = tiny();
        assert_eq!(h.find_node("d").map(|n| n.index()), Some(2));
        assert_eq!(h.find_node("zz"), None);
        assert!(h.find_net("n1").is_some());
        let idx = h.node_index_by_name();
        assert_eq!(idx["a"].index(), 0);
    }

    #[test]
    fn empty_multibyte_and_repeated_names_round_trip() {
        use crate::ids::{NetId, NodeId, TerminalId};
        use crate::{apply_script, io, BuildError, EditOp, EditScript, HypergraphBuilder};

        let names = ["", "ü", "日本語", "ü", "a", ""];
        let mut b = HypergraphBuilder::named("名前");
        let v: Vec<NodeId> = names.iter().map(|name| b.add_node(*name, 1)).collect();
        let e0 = b.add_net("", [v[0], v[1]]).unwrap();
        let e1 = b.add_net("네트", [v[2], v[3], v[4]]).unwrap();
        let e2 = b.add_net("네트", [v[5], v[0]]).unwrap();
        b.add_terminal("", e0).unwrap();
        b.add_terminal("ピン", e1).unwrap();
        let h = b.finish().unwrap();

        let node_names: Vec<&str> = h.node_ids().map(|v| h.node_name(v)).collect();
        assert_eq!(node_names, names);
        assert_eq!([h.net_name(e0), h.net_name(e1), h.net_name(e2)], ["", "네트", "네트"]);
        let pads: Vec<&str> = h.terminal_ids().map(|t| h.terminal_name(t)).collect();
        assert_eq!(pads, ["", "ピン"]);
        // A linear lookup finds the first of repeated names, the index
        // keeps the last.
        assert_eq!(h.find_node(""), Some(v[0]));
        assert_eq!(h.find_node("ü"), Some(v[1]));
        assert_eq!(h.find_node("日本"), None);
        assert_eq!(h.find_net("네트"), Some(e1));
        let index = h.node_index_by_name();
        assert_eq!(index.len(), 4);
        assert_eq!((index[""], index["ü"], index["日本語"]), (v[5], v[3], v[2]));

        // Edits resolve a repeated name to its last occurrence and keep
        // the survivors' names in order around the removed ones.
        let script = EditScript::new(vec![
            EditOp::RemoveNode { name: "日本語".into() },
            EditOp::RemoveNode { name: "ü".into() },
            EditOp::AddNode { name: "é".into(), size: 2 },
            EditOp::ConnectPin { net: "".into(), node: "é".into() },
            EditOp::AddNet { name: "ß".into(), pins: vec!["é".into(), "a".into()] },
            EditOp::ConnectPin { net: "네트".into(), node: "é".into() },
        ]);
        let edited = apply_script(&h, &script).unwrap().graph;
        let node_names: Vec<&str> = edited.node_ids().map(|v| edited.node_name(v)).collect();
        assert_eq!(node_names, ["", "ü", "a", "", "é"]);
        let nets: Vec<(&str, usize)> =
            edited.net_ids().map(|e| (edited.net_name(e), edited.pins(e).len())).collect();
        assert_eq!(nets, [("", 3), ("네트", 1), ("네트", 3), ("ß", 2)]);
        assert_eq!(edited.terminal_name(TerminalId::from_index(1)), "ピン");
        assert_eq!(edited.terminal_net(TerminalId::from_index(1)), NetId::from_index(1));
        assert_eq!(edited.node_index_by_name()[""], NodeId::from_index(3));

        // The text format separates names by whitespace and rejects a
        // repeated name, so it carries the multi-byte names, not the
        // empty or repeated ones.
        let mut b = HypergraphBuilder::named("名前");
        let v: Vec<NodeId> = ["ü", "日本語", "ß"].iter().map(|name| b.add_node(*name, 2)).collect();
        let e = b.add_net("네트", [v[2], v[0], v[1]]).unwrap();
        b.add_terminal("ピン", e).unwrap();
        let h = b.finish().unwrap();
        let text = io::netlist_to_string(&h);
        let parsed = io::parse_netlist(&text).unwrap();
        assert_eq!(io::netlist_to_string(&parsed), text);
        assert_eq!(crate::fingerprint_graph(&parsed), crate::fingerprint_graph(&h));
        assert_eq!(parsed.find_node("ß"), Some(v[2]));
        let repeated = format!("{text}node ü 1\n");
        assert!(matches!(
            io::parse_netlist(&repeated),
            Err(crate::ParseNetlistError::Build(BuildError::DuplicateName { .. }))
        ));
    }

    #[test]
    fn debug_is_nonempty() {
        let h = tiny();
        let s = format!("{h:?}");
        assert!(s.contains("Hypergraph"));
        assert!(s.contains("tiny"));
    }

    #[test]
    fn graph_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Hypergraph>();
    }
}

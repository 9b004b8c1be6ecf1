//! Inter-device interconnect analysis.
//!
//! A multi-FPGA partition is only implementable if the board can route
//! the signals between the devices; this module computes the
//! block-to-block connection matrix (how many nets each device pair
//! shares) and the broadcast nets spanning three or more devices — the
//! quantities a board designer reads off a partition before committing
//! to it.

use std::fmt;

use fpart_hypergraph::Hypergraph;

/// Inter-block connectivity of a finished partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterconnectReport {
    /// Number of blocks `k`.
    pub blocks: usize,
    /// Upper-triangular pair matrix: `pairs[i][j - i - 1]` = nets shared
    /// by blocks `i < j` (only those two, or those two among others).
    pair_nets: Vec<Vec<usize>>,
    /// Nets spanning exactly two devices.
    pub two_point_nets: usize,
    /// Nets spanning three or more devices (need multi-point routing).
    pub multi_point_nets: usize,
    /// The widest net's device span.
    pub max_span: usize,
}

impl InterconnectReport {
    /// Computes the report for a `k`-way assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not cover the graph or references a
    /// block `≥ k`.
    ///
    /// # Example
    ///
    /// ```
    /// use fpart_core::{partition, FpartConfig, InterconnectReport};
    /// use fpart_device::Device;
    /// use fpart_hypergraph::gen::{window_circuit, WindowConfig};
    ///
    /// # fn main() -> Result<(), fpart_core::PartitionError> {
    /// let circuit = window_circuit(&WindowConfig::new("demo", 200, 16), 1);
    /// let outcome = partition(&circuit, Device::XC3020.constraints(0.9), &FpartConfig::default())?;
    /// let report = InterconnectReport::new(&circuit, &outcome.assignment, outcome.device_count);
    /// assert_eq!(report.two_point_nets + report.multi_point_nets, outcome.cut);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn new(graph: &Hypergraph, assignment: &[u32], k: usize) -> Self {
        assert_eq!(assignment.len(), graph.node_count(), "assignment must cover the graph");
        assert!(assignment.iter().all(|&b| (b as usize) < k), "assignment references a block >= k");
        let mut pair_nets: Vec<Vec<usize>> = (0..k).map(|i| vec![0usize; k - i - 1]).collect();
        let mut two_point = 0usize;
        let mut multi_point = 0usize;
        let mut max_span = 0usize;
        let mut touched: Vec<u32> = Vec::new();
        for net in graph.net_ids() {
            touched.clear();
            for &pin in graph.pins(net) {
                let b = assignment[pin.index()];
                if !touched.contains(&b) {
                    touched.push(b);
                }
            }
            let span = touched.len();
            if span < 2 {
                continue;
            }
            max_span = max_span.max(span);
            if span == 2 {
                two_point += 1;
            } else {
                multi_point += 1;
            }
            touched.sort_unstable();
            for i in 0..touched.len() {
                for j in (i + 1)..touched.len() {
                    let (a, b) = (touched[i] as usize, touched[j] as usize);
                    pair_nets[a][b - a - 1] += 1;
                }
            }
        }
        InterconnectReport {
            blocks: k,
            pair_nets,
            two_point_nets: two_point,
            multi_point_nets: multi_point,
            max_span,
        }
    }

    /// Nets shared by the (unordered) device pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    #[must_use]
    pub fn between(&self, a: usize, b: usize) -> usize {
        assert_ne!(a, b, "a device pair needs two distinct devices");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.pair_nets[lo][hi - lo - 1]
    }

    /// The device pair sharing the most nets (the board's widest cable),
    /// or `None` for partitions with fewer than two blocks or no cut.
    #[must_use]
    pub fn widest_pair(&self) -> Option<(usize, usize, usize)> {
        let mut best: Option<(usize, usize, usize)> = None;
        for i in 0..self.blocks {
            for j in (i + 1)..self.blocks {
                let n = self.between(i, j);
                if n > 0 && best.is_none_or(|(_, _, bn)| n > bn) {
                    best = Some((i, j, n));
                }
            }
        }
        best
    }
}

impl fmt::Display for InterconnectReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} blocks; {} two-point nets, {} multi-point nets (max span {})",
            self.blocks, self.two_point_nets, self.multi_point_nets, self.max_span
        )?;
        match self.widest_pair() {
            Some((a, b, n)) => write!(f, "widest device pair: {a} <-> {b} ({n} nets)"),
            None => write!(f, "no inter-device nets"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::HypergraphBuilder;

    fn three_block_sample() -> (Hypergraph, Vec<u32>) {
        let mut b = HypergraphBuilder::new();
        let n: Vec<_> = (0..6).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        b.add_net("ab", [n[0], n[2]]).unwrap(); // blocks 0-1
        b.add_net("ab2", [n[1], n[3]]).unwrap(); // blocks 0-1
        b.add_net("bc", [n[2], n[4]]).unwrap(); // blocks 1-2
        b.add_net("abc", [n[0], n[3], n[5]]).unwrap(); // all three
        b.add_net("internal", [n[0], n[1]]).unwrap(); // inside 0
        let g = b.finish().unwrap();
        (g, vec![0, 0, 1, 1, 2, 2])
    }

    #[test]
    fn counts_pairs_and_spans() {
        let (g, assignment) = three_block_sample();
        let r = InterconnectReport::new(&g, &assignment, 3);
        assert_eq!(r.two_point_nets, 3);
        assert_eq!(r.multi_point_nets, 1);
        assert_eq!(r.max_span, 3);
        assert_eq!(r.between(0, 1), 3); // ab, ab2, abc
        assert_eq!(r.between(1, 2), 2); // bc, abc
        assert_eq!(r.between(0, 2), 1); // abc
        assert_eq!(r.between(2, 0), 1); // symmetric
        assert_eq!(r.widest_pair(), Some((0, 1, 3)));
    }

    #[test]
    fn display_mentions_widest_pair() {
        let (g, assignment) = three_block_sample();
        let r = InterconnectReport::new(&g, &assignment, 3);
        let text = r.to_string();
        assert!(text.contains("0 <-> 1"));
        assert!(text.contains("multi-point"));
    }

    #[test]
    fn single_block_has_no_interconnect() {
        let (g, _) = three_block_sample();
        let r = InterconnectReport::new(&g, &[0; 6], 1);
        assert_eq!(r.two_point_nets, 0);
        assert_eq!(r.widest_pair(), None);
    }

    #[test]
    fn matches_partition_cut() {
        use fpart_hypergraph::gen::{window_circuit, WindowConfig};
        let g = window_circuit(&WindowConfig::new("w", 200, 16), 9);
        let constraints = fpart_device::Device::XC3020.constraints(0.9);
        let outcome =
            crate::partition(&g, constraints, &crate::FpartConfig::default()).expect("runs");
        let r = InterconnectReport::new(&g, &outcome.assignment, outcome.device_count);
        assert_eq!(r.two_point_nets + r.multi_point_nets, outcome.cut);
    }
}

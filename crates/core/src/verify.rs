//! Independent partition verification.
//!
//! Recomputes every metric from scratch — no shared code with the
//! incremental [`crate::PartitionState`] bookkeeping — and reports violations
//! in a structured form. Used by the CLI's `verify` subcommand, the test
//! suite, and anyone consuming assignments produced outside this crate.

use std::fmt;

use fpart_device::DeviceConstraints;
use fpart_hypergraph::Hypergraph;

/// A single verification finding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// The assignment's length does not match the graph.
    WrongLength {
        /// Nodes in the graph.
        expected: usize,
        /// Entries in the assignment.
        actual: usize,
    },
    /// An assignment entry references a block ≥ the declared count.
    BlockOutOfRange {
        /// Offending node index.
        node: usize,
        /// The referenced block.
        block: u32,
    },
    /// A block exceeds the device size limit.
    OverSize {
        /// Block index.
        block: usize,
        /// Its total size.
        size: u64,
        /// The limit.
        s_max: u64,
    },
    /// A block exceeds the device terminal limit.
    OverTerminals {
        /// Block index.
        block: usize,
        /// Its terminal count.
        terminals: usize,
        /// The limit.
        t_max: usize,
    },
    /// A declared block holds no cells.
    EmptyBlock {
        /// Block index.
        block: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::WrongLength { expected, actual } => {
                write!(f, "assignment covers {actual} nodes, graph has {expected}")
            }
            Violation::BlockOutOfRange { node, block } => {
                write!(f, "node {node} assigned to out-of-range block {block}")
            }
            Violation::OverSize { block, size, s_max } => {
                write!(f, "block {block} holds {size} cells, limit {s_max}")
            }
            Violation::OverTerminals { block, terminals, t_max } => {
                write!(f, "block {block} needs {terminals} IOBs, limit {t_max}")
            }
            Violation::EmptyBlock { block } => write!(f, "block {block} is empty"),
        }
    }
}

/// Result of verifying an assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verification {
    /// All violations found (empty = the partition is valid and feasible).
    pub violations: Vec<Violation>,
    /// Independently recomputed cut (nets spanning > 1 block).
    pub cut: usize,
    /// Independently recomputed per-block sizes.
    pub sizes: Vec<u64>,
    /// Independently recomputed per-block terminal counts.
    pub terminals: Vec<usize>,
}

impl Verification {
    /// `true` when the partition is structurally valid and feasible.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verifies a `k`-way assignment of `graph` against `constraints`,
/// recomputing all quantities from first principles.
#[must_use]
pub fn verify_assignment(
    graph: &Hypergraph,
    assignment: &[u32],
    k: usize,
    constraints: DeviceConstraints,
) -> Verification {
    let mut violations = Vec::new();
    if assignment.len() != graph.node_count() {
        violations.push(Violation::WrongLength {
            expected: graph.node_count(),
            actual: assignment.len(),
        });
        return Verification { violations, cut: 0, sizes: Vec::new(), terminals: Vec::new() };
    }
    for (node, &block) in assignment.iter().enumerate() {
        if block as usize >= k {
            violations.push(Violation::BlockOutOfRange { node, block });
        }
    }
    if !violations.is_empty() {
        return Verification { violations, cut: 0, sizes: Vec::new(), terminals: Vec::new() };
    }

    let mut sizes = vec![0u64; k];
    for node in graph.node_ids() {
        sizes[assignment[node.index()] as usize] += u64::from(graph.node_size(node));
    }

    // Terminals per block: distinct nets that touch the block and either
    // span more than one block or carry a primary terminal. A net's
    // distinct blocks are those whose stamp is not yet the net's index.
    let mut terminals = vec![0usize; k];
    let mut stamps = vec![usize::MAX; k];
    let mut blocks: Vec<usize> = Vec::new();
    let mut cut = 0usize;
    for net in graph.net_ids() {
        blocks.clear();
        for p in graph.pins(net) {
            let b = assignment[p.index()] as usize;
            if stamps[b] != net.index() {
                stamps[b] = net.index();
                blocks.push(b);
            }
        }
        if blocks.len() > 1 {
            cut += 1;
        }
        let exposed = blocks.len() > 1 || graph.net_has_terminal(net);
        if exposed {
            for &b in &blocks {
                terminals[b] += 1;
            }
        }
    }

    for block in 0..k {
        if sizes[block] == 0 {
            violations.push(Violation::EmptyBlock { block });
            continue;
        }
        if !constraints.fits_size(sizes[block]) {
            violations.push(Violation::OverSize {
                block,
                size: sizes[block],
                s_max: constraints.s_max,
            });
        }
        if !constraints.fits_terminals(terminals[block]) {
            violations.push(Violation::OverTerminals {
                block,
                terminals: terminals[block],
                t_max: constraints.t_max,
            });
        }
    }

    Verification { violations, cut, sizes, terminals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::PartitionState;
    use crate::{partition, FpartConfig};
    use fpart_device::Device;
    use fpart_hypergraph::gen::{window_circuit, WindowConfig};
    use fpart_hypergraph::rng::StdRng;
    use fpart_hypergraph::{HypergraphBuilder, NodeId};
    use proptest::prelude::*;

    #[test]
    fn fpart_outcome_verifies_clean() {
        let g = window_circuit(&WindowConfig::new("w", 250, 20), 3);
        let constraints = Device::XC3020.constraints(0.9);
        let outcome = partition(&g, constraints, &FpartConfig::default()).expect("runs");
        let v = verify_assignment(&g, &outcome.assignment, outcome.device_count, constraints);
        assert!(v.is_feasible(), "violations: {:?}", v.violations);
        assert_eq!(v.cut, outcome.cut);
        for (b, report) in outcome.blocks.iter().enumerate() {
            assert_eq!(v.sizes[b], report.size);
            assert_eq!(v.terminals[b], report.terminals);
        }
    }

    #[test]
    fn verifier_agrees_with_partition_state() {
        let g = window_circuit(&WindowConfig::new("w", 120, 10), 7);
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 4).collect();
        let state = PartitionState::from_assignment(&g, assignment.clone(), 4);
        let v = verify_assignment(&g, &assignment, 4, DeviceConstraints::new(1000, 1000));
        assert_eq!(v.cut, state.cut_count());
        for b in 0..4 {
            assert_eq!(v.sizes[b], state.block_size(b), "block {b} size");
            assert_eq!(v.terminals[b], state.block_terminals(b), "block {b} terminals");
        }
    }

    #[test]
    fn detects_wrong_length() {
        let g = window_circuit(&WindowConfig::new("w", 10, 2), 1);
        let v = verify_assignment(&g, &[0, 0], 1, DeviceConstraints::new(10, 10));
        assert!(matches!(v.violations[0], Violation::WrongLength { .. }));
    }

    #[test]
    fn detects_out_of_range_block() {
        let g = window_circuit(&WindowConfig::new("w", 4, 1), 1);
        let v = verify_assignment(&g, &[0, 0, 7, 0], 2, DeviceConstraints::new(10, 10));
        assert!(v
            .violations
            .iter()
            .any(|x| matches!(x, Violation::BlockOutOfRange { node: 2, block: 7 })));
    }

    #[test]
    fn detects_constraint_violations_and_empty_blocks() {
        let mut b = HypergraphBuilder::new();
        let x = b.add_node("x", 9);
        let y = b.add_node("y", 1);
        let e = b.add_net("e", [x, y]).unwrap();
        b.add_terminal("t", e).unwrap();
        let g = b.finish().unwrap();
        // Block 0 holds everything (size 10 > 5), block 1 empty.
        let v = verify_assignment(&g, &[0, 0], 2, DeviceConstraints::new(5, 0));
        assert!(v.violations.iter().any(|x| matches!(x, Violation::OverSize { block: 0, .. })));
        assert!(v
            .violations
            .iter()
            .any(|x| matches!(x, Violation::OverTerminals { block: 0, .. })));
        assert!(v.violations.iter().any(|x| matches!(x, Violation::EmptyBlock { block: 1 })));
    }

    /// The plainest recount of a valid-length, in-range assignment: each
    /// net's blocks sorted and deduplicated, each limit compared
    /// directly, findings listed block by block.
    fn naive_recount(
        graph: &Hypergraph,
        assignment: &[u32],
        k: usize,
        constraints: DeviceConstraints,
    ) -> Verification {
        let mut sizes = vec![0u64; k];
        for (v, &block) in assignment.iter().enumerate() {
            sizes[block as usize] += u64::from(graph.node_size(NodeId::from_index(v)));
        }
        let mut terminals = vec![0usize; k];
        let mut cut = 0;
        for net in graph.net_ids() {
            let mut blocks: Vec<u32> =
                graph.pins(net).iter().map(|p| assignment[p.index()]).collect();
            blocks.sort_unstable();
            blocks.dedup();
            if blocks.len() > 1 {
                cut += 1;
            }
            if blocks.len() > 1 || !graph.net_terminals(net).is_empty() {
                for block in blocks {
                    terminals[block as usize] += 1;
                }
            }
        }
        let mut violations = Vec::new();
        for block in 0..k {
            if sizes[block] == 0 {
                violations.push(Violation::EmptyBlock { block });
                continue;
            }
            if sizes[block] > constraints.s_max {
                violations.push(Violation::OverSize {
                    block,
                    size: sizes[block],
                    s_max: constraints.s_max,
                });
            }
            if terminals[block] > constraints.t_max {
                violations.push(Violation::OverTerminals {
                    block,
                    terminals: terminals[block],
                    t_max: constraints.t_max,
                });
            }
        }
        Verification { violations, cut, sizes, terminals }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `verify_assignment` equals the naive recount on random
        /// circuits and random assignments of up to a few hundred
        /// blocks. The cells go into the first `used` blocks only, so
        /// the rest are empty, and the small limits make oversize and
        /// over-terminal blocks common.
        #[test]
        fn verification_matches_a_naive_recount(
            nodes in 2usize..160,
            pads in 0usize..24,
            seed in any::<u64>(),
            k in 1usize..300,
            used in any::<u64>(),
            s_max in 1u64..40,
            t_max in 0usize..16,
        ) {
            let mut cfg = WindowConfig::new("oracle", nodes, pads);
            cfg.extra_size_prob = 0.3;
            let g = window_circuit(&cfg, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ used);
            let used = 1 + used % k as u64;
            let assignment: Vec<u32> =
                g.node_ids().map(|_| rng.bounded_u64(used) as u32).collect();
            let constraints = DeviceConstraints::new(s_max, t_max);
            prop_assert_eq!(
                verify_assignment(&g, &assignment, k, constraints),
                naive_recount(&g, &assignment, k, constraints)
            );
        }
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::OverSize { block: 3, size: 99, s_max: 57 };
        assert_eq!(v.to_string(), "block 3 holds 99 cells, limit 57");
    }
}

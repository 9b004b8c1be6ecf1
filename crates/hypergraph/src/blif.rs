//! BLIF (Berkeley Logic Interchange Format) subset reader.
//!
//! The MCNC benchmarks of the paper's era circulated as BLIF; this
//! module converts the structural subset — `.model`, `.inputs`,
//! `.outputs`, `.names`, `.latch`, `.end` — into a circuit
//! [`Hypergraph`]:
//!
//! * every `.names` (LUT) and `.latch` becomes an interior node of size 1
//!   (one CLB-ish cell per logic function, the granularity of the paper's
//!   mapped netlists);
//! * every signal becomes a net connecting its driver and consumers;
//! * `.inputs` / `.outputs` become primary terminals on their signals.
//!
//! Logic content (the PLA cover lines after `.names`) is parsed and
//! discarded — partitioning only sees structure. Unsupported constructs
//! (`.subckt`, multiple models) are reported as errors rather than
//! silently ignored.

use std::collections::HashMap;
use std::io::Read;

use crate::builder::HypergraphBuilder;
use crate::error::ParseNetlistError;
use crate::graph::Hypergraph;
use crate::ids::NodeId;
use crate::limits::{LineReader, ParseLimits};

/// Parses a structural BLIF model into a hypergraph, enforcing
/// [`ParseLimits::default`].
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on unsupported constructs, undeclared
/// signals used as latch inputs, exceeded limits, or structural
/// validation failure.
pub fn read_blif<R: Read>(reader: R) -> Result<Hypergraph, ParseNetlistError> {
    read_blif_limited(reader, &ParseLimits::default())
}

/// Parses a structural BLIF model with explicit resource limits.
///
/// Line length is checked on physical source lines; signal-name length
/// and element/pin counts are checked on logical (continuation-joined)
/// lines, reporting the line where the logical line started.
///
/// # Errors
///
/// See [`read_blif`].
pub fn read_blif_limited<R: Read>(
    reader: R,
    limits: &ParseLimits,
) -> Result<Hypergraph, ParseNetlistError> {
    // Collect logical lines (BLIF continues lines with a trailing `\`).
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    let mut lines = LineReader::new(reader, limits);
    while let Some((line_no, line)) = lines.next_line()? {
        let without_comment = match line.find('#') {
            Some(pos) => &line[..pos],
            None => line,
        };
        let trimmed = without_comment.trim_end();
        let (continued, content) = match trimmed.strip_suffix('\\') {
            Some(rest) => (true, rest.trim_end()),
            None => (false, trimmed),
        };
        match pending.take() {
            Some((no, mut acc)) => {
                acc.push(' ');
                acc.push_str(content.trim_start());
                if continued {
                    pending = Some((no, acc));
                } else {
                    logical.push((no, acc));
                }
            }
            None => {
                if continued {
                    pending = Some((line_no, content.to_owned()));
                } else if !content.trim().is_empty() {
                    logical.push((line_no, content.to_owned()));
                }
            }
        }
    }
    if let Some((no, acc)) = pending {
        logical.push((no, acc));
    }

    let mut model_name = String::new();
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    /// One logic element: the node's output signal and input signals.
    struct Element {
        output: String,
        inputs: Vec<String>,
        latch: bool,
    }
    let mut elements: Vec<Element> = Vec::new();
    let mut seen_model = false;
    let mut pin_total = 0usize;

    let mut i = 0usize;
    while i < logical.len() {
        let (line_no, line) = &logical[i];
        let line_no = *line_no;
        let fields = crate::limits::fields_with_columns(line);
        let mut fields = fields.into_iter();
        let Some((_, keyword)) = fields.next() else {
            i += 1;
            continue;
        };
        match keyword {
            ".model" => {
                if seen_model {
                    return Err(ParseNetlistError::UnknownRecord {
                        line: line_no,
                        keyword: ".model (multiple models are not supported)".to_owned(),
                    });
                }
                seen_model = true;
                model_name = match fields.next() {
                    Some((col, name)) => {
                        limits.check_name(line_no, col, name)?;
                        name.to_owned()
                    }
                    None => "blif".to_owned(),
                };
                i += 1;
            }
            ".inputs" => {
                for (col, name) in fields {
                    limits.check_name(line_no, col, name)?;
                    inputs.push(name.to_owned());
                }
                i += 1;
            }
            ".outputs" => {
                for (col, name) in fields {
                    limits.check_name(line_no, col, name)?;
                    outputs.push(name.to_owned());
                }
                i += 1;
            }
            ".names" => {
                let mut signals: Vec<String> = Vec::new();
                for (col, name) in fields {
                    limits.check_name(line_no, col, name)?;
                    if pin_total >= limits.max_pins {
                        return Err(ParseNetlistError::LimitExceeded {
                            line: line_no,
                            column: col,
                            what: "pin count",
                            limit: limits.max_pins,
                        });
                    }
                    pin_total += 1;
                    signals.push(name.to_owned());
                }
                let Some((output, input_signals)) = signals.split_last() else {
                    return Err(ParseNetlistError::MalformedRecord {
                        line: line_no,
                        expected: ".names <inputs…> <output>",
                    });
                };
                if elements.len() >= limits.max_nodes {
                    return Err(ParseNetlistError::LimitExceeded {
                        line: line_no,
                        column: 1,
                        what: "node count",
                        limit: limits.max_nodes,
                    });
                }
                elements.push(Element {
                    output: output.clone(),
                    inputs: input_signals.to_vec(),
                    latch: false,
                });
                // Skip the PLA cover lines (rows of 01- and output bits).
                i += 1;
                while i < logical.len() {
                    let body = logical[i].1.trim_start();
                    if body.starts_with('.') {
                        break;
                    }
                    i += 1;
                }
            }
            ".latch" => {
                let signals: Vec<(usize, &str)> = fields.collect();
                if signals.len() < 2 {
                    return Err(ParseNetlistError::MalformedRecord {
                        line: line_no,
                        expected: ".latch <input> <output> [type control] [init]",
                    });
                }
                for &(col, name) in &signals[..2] {
                    limits.check_name(line_no, col, name)?;
                }
                if elements.len() >= limits.max_nodes {
                    return Err(ParseNetlistError::LimitExceeded {
                        line: line_no,
                        column: 1,
                        what: "node count",
                        limit: limits.max_nodes,
                    });
                }
                pin_total += 2;
                elements.push(Element {
                    output: signals[1].1.to_owned(),
                    inputs: vec![signals[0].1.to_owned()],
                    latch: true,
                });
                i += 1;
            }
            ".end" => {
                i += 1;
            }
            other => {
                return Err(ParseNetlistError::UnknownRecord {
                    line: line_no,
                    keyword: other.to_owned(),
                });
            }
        }
    }

    // Build: one node per element; one net per signal with consumers.
    // Strict duplicate-name checking: a signal listed twice in
    // `.inputs`/`.outputs` is an input error, not two identical pads.
    let mut builder = HypergraphBuilder::named(model_name).check_duplicate_names(true);
    let mut driver_of: HashMap<&str, NodeId> = HashMap::new();
    let mut nodes = Vec::with_capacity(elements.len());
    for (idx, element) in elements.iter().enumerate() {
        let kind = if element.latch { "lat" } else { "lut" };
        let node = builder.add_node(format!("{kind}_{}_{idx}", element.output), 1);
        nodes.push(node);
        driver_of.insert(element.output.as_str(), node);
    }

    // Consumers per signal.
    let mut consumers: HashMap<&str, Vec<NodeId>> = HashMap::new();
    for (idx, element) in elements.iter().enumerate() {
        for input in &element.inputs {
            consumers.entry(input.as_str()).or_default().push(nodes[idx]);
        }
    }

    // Nets: every signal that has a driver or is a primary input, with
    // its pins (driver + consumers, deduplicated).
    let mut net_of: HashMap<&str, crate::ids::NetId> = HashMap::new();
    let mut signals: Vec<&str> = driver_of.keys().copied().collect();
    for input in &inputs {
        if !driver_of.contains_key(input.as_str()) {
            signals.push(input.as_str());
        }
    }
    signals.sort_unstable();
    for signal in signals {
        let mut pins: Vec<NodeId> = Vec::new();
        if let Some(&driver) = driver_of.get(signal) {
            pins.push(driver);
        }
        for &consumer in consumers.get(signal).map(Vec::as_slice).unwrap_or(&[]) {
            if !pins.contains(&consumer) {
                pins.push(consumer);
            }
        }
        if pins.is_empty() {
            continue; // dangling primary input
        }
        let net = builder.add_net(format!("n_{signal}"), pins)?;
        net_of.insert(signal, net);
    }

    for input in &inputs {
        if let Some(&net) = net_of.get(input.as_str()) {
            builder.add_terminal(format!("pi_{input}"), net)?;
        }
    }
    for output in &outputs {
        if let Some(&net) = net_of.get(output.as_str()) {
            builder.add_terminal(format!("po_{output}"), net)?;
        }
    }
    Ok(builder.finish()?)
}

/// Parses BLIF from a string slice.
///
/// # Errors
///
/// See [`read_blif`].
pub fn parse_blif(text: &str) -> Result<Hypergraph, ParseNetlistError> {
    read_blif(text.as_bytes())
}

/// Parses BLIF from a string slice with explicit resource limits.
///
/// # Errors
///
/// See [`read_blif_limited`].
pub fn parse_blif_limited(
    text: &str,
    limits: &ParseLimits,
) -> Result<Hypergraph, ParseNetlistError> {
    read_blif_limited(text.as_bytes(), limits)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL_ADDER: &str = "\
# a full adder
.model adder
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
";

    #[test]
    fn parses_full_adder() {
        let g = parse_blif(FULL_ADDER).unwrap();
        assert_eq!(g.name(), "adder");
        assert_eq!(g.node_count(), 2); // two .names
                                       // nets: a, b, cin (no driver, consumers only), sum, cout
        assert_eq!(g.net_count(), 5);
        // terminals: 3 inputs + 2 outputs
        assert_eq!(g.terminal_count(), 5);
    }

    #[test]
    fn latch_becomes_a_node() {
        let text = "\
.model seq
.inputs d clk
.outputs q
.latch d q re clk 0
.end
";
        let g = parse_blif(text).unwrap();
        assert_eq!(g.node_count(), 1);
        let node = g.node_ids().next().unwrap();
        assert!(g.node_name(node).starts_with("lat_"));
        // nets: d (pi → latch), q (latch → po). The latch control (clk)
        // is treated as a global clock and carries no partitioning pins,
        // so its dangling primary input is dropped.
        assert_eq!(g.net_count(), 2);
        assert_eq!(g.terminal_count(), 2);
    }

    #[test]
    fn continuation_lines_are_joined() {
        let text = "\
.model c
.inputs a \\
b
.outputs y
.names a b y
11 1
.end
";
        let g = parse_blif(text).unwrap();
        assert_eq!(g.terminal_count(), 3);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn unsupported_construct_is_an_error() {
        let text = ".model c\n.subckt foo a=b\n.end\n";
        let err = parse_blif(text).unwrap_err();
        assert!(matches!(err, ParseNetlistError::UnknownRecord { .. }));
    }

    #[test]
    fn multiple_models_rejected() {
        let text = ".model a\n.end\n.model b\n.end\n";
        let err = parse_blif(text).unwrap_err();
        assert!(matches!(err, ParseNetlistError::UnknownRecord { .. }));
    }

    #[test]
    fn fanout_nets_connect_driver_and_consumers() {
        let text = "\
.model f
.inputs a
.outputs y z
.names a m
1 1
.names m y
1 1
.names m z
1 1
.end
";
        let g = parse_blif(text).unwrap();
        assert_eq!(g.node_count(), 3);
        let m_net = g.find_net("n_m").unwrap();
        assert_eq!(g.pins(m_net).len(), 3); // driver + two consumers
    }

    #[test]
    fn constant_names_without_inputs() {
        // `.names y` followed by a cover defines a constant driver.
        let text = ".model k\n.outputs y\n.names y\n1\n.end\n";
        let g = parse_blif(text).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.net_count(), 1);
        assert_eq!(g.terminal_count(), 1);
    }

    #[test]
    fn element_count_limit_is_typed() {
        let limits = ParseLimits { max_nodes: 1, ..ParseLimits::unlimited() };
        let err = parse_blif_limited(FULL_ADDER, &limits).unwrap_err();
        assert!(matches!(
            err,
            ParseNetlistError::LimitExceeded { line: 10, column: 1, what: "node count", limit: 1 }
        ));
    }

    #[test]
    fn signal_name_length_limit_is_typed() {
        let limits = ParseLimits { max_name_len: 4, ..ParseLimits::unlimited() };
        let err =
            parse_blif_limited(".model m\n.inputs verylongsignal\n.end\n", &limits).unwrap_err();
        assert!(matches!(
            err,
            ParseNetlistError::LimitExceeded { line: 2, column: 9, what: "name length", limit: 4 }
        ));
    }

    #[test]
    fn adjacency_is_consistent_after_blif_parse() {
        let g = parse_blif(FULL_ADDER).unwrap();
        for net in g.net_ids() {
            for &pin in g.pins(net) {
                assert!(g.nets(pin).contains(&net));
            }
        }
    }
}

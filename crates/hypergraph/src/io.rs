//! Line-oriented text format (`.fhg`) for circuit hypergraphs.
//!
//! The format is deliberately simple so benchmark netlists can be stored in
//! version control and diffed:
//!
//! ```text
//! # comment
//! circuit s5378
//! node u17 1
//! node u18 2
//! net n1 u17 u18
//! terminal pad3 n1
//! ```
//!
//! Records may appear in any order as long as every name is declared before
//! it is referenced. Blank lines and `#` comments are ignored.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;

use crate::builder::HypergraphBuilder;
use crate::error::ParseNetlistError;
use crate::graph::Hypergraph;
use crate::ids::{NetId, NodeId};
use crate::limits::{fields_with_columns, LineReader, ParseLimits};

/// Parses a netlist from any reader (pass `&mut reader` if you need the
/// reader back afterwards), enforcing [`ParseLimits::default`].
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on malformed records, undeclared names,
/// exceeded limits, or structural validation failure.
pub fn read_netlist<R: Read>(reader: R) -> Result<Hypergraph, ParseNetlistError> {
    read_netlist_limited(reader, &ParseLimits::default())
}

/// Parses a netlist from any reader with explicit resource limits.
///
/// Every count and length the parser allocates in proportion to is checked
/// against `limits` *before* the allocation happens, so hostile input fails
/// with a typed error instead of exhausting memory.
///
/// # Errors
///
/// See [`read_netlist`].
pub fn read_netlist_limited<R: Read>(
    reader: R,
    limits: &ParseLimits,
) -> Result<Hypergraph, ParseNetlistError> {
    // Files carry user-written names: a duplicate `node` record would
    // silently shadow the first in the name lookup below, so the strict
    // builder check is always on here (generators keep it off).
    let mut builder = HypergraphBuilder::new().check_duplicate_names(true);
    let mut nodes: HashMap<String, NodeId> = HashMap::new();
    let mut nets: HashMap<String, NetId> = HashMap::new();
    let mut pin_total = 0usize;

    let mut lines = LineReader::new(reader, limits);
    while let Some((line_no, line)) = lines.next_line()? {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields = fields_with_columns(line);
        let mut fields = fields.into_iter();
        let (_, keyword) = fields.next().expect("non-empty line has a first field");
        match keyword {
            "circuit" => {
                let (col, name) = fields.next().ok_or(ParseNetlistError::MalformedRecord {
                    line: line_no,
                    expected: "`circuit <name>`",
                })?;
                limits.check_name(line_no, col, name)?;
                builder.set_name(name);
            }
            "node" => {
                let name = fields.next();
                let size = fields.next().and_then(|(_, s)| s.parse::<u32>().ok());
                let (Some((col, name)), Some(size)) = (name, size) else {
                    return Err(ParseNetlistError::MalformedRecord {
                        line: line_no,
                        expected: "`node <name> <size>`",
                    });
                };
                limits.check_name(line_no, col, name)?;
                if nodes.len() >= limits.max_nodes {
                    return Err(ParseNetlistError::LimitExceeded {
                        line: line_no,
                        column: 1,
                        what: "node count",
                        limit: limits.max_nodes,
                    });
                }
                let id = builder.add_node(name, size);
                nodes.insert(name.to_owned(), id);
            }
            "net" => {
                let (col, name) = fields.next().ok_or(ParseNetlistError::MalformedRecord {
                    line: line_no,
                    expected: "`net <name> <node>...`",
                })?;
                limits.check_name(line_no, col, name)?;
                if nets.len() >= limits.max_nets {
                    return Err(ParseNetlistError::LimitExceeded {
                        line: line_no,
                        column: 1,
                        what: "net count",
                        limit: limits.max_nets,
                    });
                }
                let mut pins = Vec::new();
                for (col, pin) in fields {
                    if pin_total >= limits.max_pins {
                        return Err(ParseNetlistError::LimitExceeded {
                            line: line_no,
                            column: col,
                            what: "pin count",
                            limit: limits.max_pins,
                        });
                    }
                    let id = nodes.get(pin).ok_or_else(|| ParseNetlistError::UnknownName {
                        line: line_no,
                        name: pin.to_owned(),
                    })?;
                    pins.push(*id);
                    pin_total += 1;
                }
                let id = builder.add_net(name, pins)?;
                nets.insert(name.to_owned(), id);
            }
            "terminal" => {
                let name = fields.next();
                let net = fields.next();
                let (Some((col, name)), Some((_, net))) = (name, net) else {
                    return Err(ParseNetlistError::MalformedRecord {
                        line: line_no,
                        expected: "`terminal <name> <net>`",
                    });
                };
                limits.check_name(line_no, col, name)?;
                let net_id = nets.get(net).ok_or_else(|| ParseNetlistError::UnknownName {
                    line: line_no,
                    name: net.to_owned(),
                })?;
                builder.add_terminal(name, *net_id)?;
            }
            other => {
                return Err(ParseNetlistError::UnknownRecord {
                    line: line_no,
                    keyword: other.to_owned(),
                });
            }
        }
    }
    Ok(builder.finish()?)
}

/// Reads the netlist file at `path` under `limits`, choosing the reader
/// by extension: `.hgr` is hMETIS, `.blif` is BLIF and anything else is
/// `.fhg`.
///
/// # Errors
///
/// Returns a human-readable message naming `path` when the file cannot
/// be opened or does not parse.
pub fn read_netlist_path(path: &Path, limits: &ParseLimits) -> Result<Hypergraph, String> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let ext = |name: &str| path.extension().is_some_and(|e| e.eq_ignore_ascii_case(name));
    let parsed = if ext("hgr") {
        crate::hmetis::read_hmetis_limited(file, limits)
    } else if ext("blif") {
        crate::blif::read_blif_limited(file, limits)
    } else {
        read_netlist_limited(file, limits)
    };
    parsed.map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses a netlist from a string slice.
///
/// # Errors
///
/// See [`read_netlist`].
pub fn parse_netlist(text: &str) -> Result<Hypergraph, ParseNetlistError> {
    read_netlist(text.as_bytes())
}

/// Parses a netlist from a string slice with explicit resource limits.
///
/// # Errors
///
/// See [`read_netlist_limited`].
pub fn parse_netlist_limited(
    text: &str,
    limits: &ParseLimits,
) -> Result<Hypergraph, ParseNetlistError> {
    read_netlist_limited(text.as_bytes(), limits)
}

/// Writes a netlist in `.fhg` format (pass `&mut writer` if you need the
/// writer back afterwards).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_netlist<W: Write>(mut writer: W, graph: &Hypergraph) -> std::io::Result<()> {
    if !graph.name().is_empty() {
        writeln!(writer, "circuit {}", graph.name())?;
    }
    for node in graph.node_ids() {
        writeln!(writer, "node {} {}", graph.node_name(node), graph.node_size(node))?;
    }
    for net in graph.net_ids() {
        write!(writer, "net {}", graph.net_name(net))?;
        for &pin in graph.pins(net) {
            write!(writer, " {}", graph.node_name(pin))?;
        }
        writeln!(writer)?;
    }
    for terminal in graph.terminal_ids() {
        writeln!(
            writer,
            "terminal {} {}",
            graph.terminal_name(terminal),
            graph.net_name(graph.terminal_net(terminal))
        )?;
    }
    Ok(())
}

/// Serializes a netlist to a `.fhg` string.
#[must_use]
pub fn netlist_to_string(graph: &Hypergraph) -> String {
    let mut out = Vec::new();
    write_netlist(&mut out, graph).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect(".fhg output is always UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# tiny sample
circuit demo
node a 1
node b 2
node c 1
net n1 a b
net n2 b c
terminal in0 n1
terminal out0 n2
";

    #[test]
    fn parse_sample() {
        let h = parse_netlist(SAMPLE).unwrap();
        assert_eq!(h.name(), "demo");
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.net_count(), 2);
        assert_eq!(h.terminal_count(), 2);
        assert_eq!(h.total_size(), 4);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let h = parse_netlist(SAMPLE).unwrap();
        let text = netlist_to_string(&h);
        let h2 = parse_netlist(&text).unwrap();
        assert_eq!(h2.node_count(), h.node_count());
        assert_eq!(h2.net_count(), h.net_count());
        assert_eq!(h2.terminal_count(), h.terminal_count());
        assert_eq!(h2.total_size(), h.total_size());
        for (a, b) in h.net_ids().zip(h2.net_ids()) {
            assert_eq!(h.pins(a), h2.pins(b));
        }
    }

    #[test]
    fn rejects_unknown_keyword() {
        let err = parse_netlist("frobnicate x").unwrap_err();
        assert!(matches!(err, ParseNetlistError::UnknownRecord { line: 1, .. }));
    }

    #[test]
    fn rejects_undeclared_pin() {
        let err = parse_netlist("net n1 ghost").unwrap_err();
        assert!(matches!(err, ParseNetlistError::UnknownName { .. }));
    }

    #[test]
    fn rejects_malformed_node() {
        let err = parse_netlist("node a notanumber").unwrap_err();
        assert!(matches!(err, ParseNetlistError::MalformedRecord { .. }));
    }

    #[test]
    fn rejects_undeclared_terminal_net() {
        let err = parse_netlist("terminal t ghostnet").unwrap_err();
        assert!(matches!(err, ParseNetlistError::UnknownName { .. }));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let h = parse_netlist("\n# hi\n\nnode a 1\nnet n a\n").unwrap();
        assert_eq!(h.node_count(), 1);
    }

    #[test]
    fn node_count_limit_is_typed_with_location() {
        let limits = ParseLimits { max_nodes: 2, ..ParseLimits::unlimited() };
        let err = parse_netlist_limited("node a 1\nnode b 1\nnode c 1\nnet n a b c\n", &limits)
            .unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::LimitExceeded { line: 3, column: 1, what: "node count", limit: 2 }
        );
    }

    #[test]
    fn pin_count_limit_names_the_offending_column() {
        let limits = ParseLimits { max_pins: 2, ..ParseLimits::unlimited() };
        let err = parse_netlist_limited("node a 1\nnode b 1\nnode c 1\nnet n a b c\n", &limits)
            .unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::LimitExceeded { line: 4, column: 11, what: "pin count", limit: 2 }
        );
    }

    #[test]
    fn name_length_limit_applies_to_all_records() {
        let limits = ParseLimits { max_name_len: 3, ..ParseLimits::unlimited() };
        let err = parse_netlist_limited("node abcd 1\n", &limits).unwrap_err();
        assert!(matches!(
            err,
            ParseNetlistError::LimitExceeded { line: 1, column: 6, what: "name length", .. }
        ));
    }

    #[test]
    fn line_length_limit_rejects_before_parsing() {
        let limits = ParseLimits { max_line_len: 10, ..ParseLimits::unlimited() };
        let err = parse_netlist_limited("# this comment is quite long\n", &limits).unwrap_err();
        assert!(matches!(
            err,
            ParseNetlistError::LimitExceeded { line: 1, what: "line length", .. }
        ));
    }
}

//! hMETIS `.hgr` hypergraph format support.
//!
//! The hMETIS format is the de-facto interchange format of the
//! partitioning literature:
//!
//! ```text
//! % optional comments
//! <#hyperedges> <#vertices> [fmt]
//! <hyperedge lines: 1-based vertex indices, weight first when fmt ∈ {1, 11}>
//! <vertex weight lines when fmt ∈ {10, 11}>
//! ```
//!
//! Mapping to [`Hypergraph`]: vertices become interior nodes `v1…vn`
//! (vertex weights become node sizes; unweighted vertices get size 1),
//! hyperedges become nets `e0…`. Hyperedge weights are parsed and
//! discarded — the FPGA partitioning model of this crate has no weighted
//! nets — and the format carries no primary-terminal information, so
//! read circuits have no terminals (attach them afterwards with a
//! builder if needed).

use std::collections::HashMap;
use std::io::{Read, Write};

use crate::builder::HypergraphBuilder;
use crate::error::ParseNetlistError;
use crate::graph::Hypergraph;
use crate::ids::NodeId;
use crate::limits::{fields_with_columns, LineReader, ParseLimits};

/// Parses the field at `(column, text)` as a number, reporting the exact
/// location on failure.
fn parse_field<T: std::str::FromStr>(
    line: usize,
    field: (usize, &str),
    expected: &'static str,
) -> Result<T, ParseNetlistError> {
    let (column, text) = field;
    text.parse().map_err(|_| ParseNetlistError::InvalidToken {
        line,
        column,
        expected,
        found: text.to_owned(),
    })
}

/// Parses an hMETIS `.hgr` hypergraph from any reader.
///
/// Every rejection names the exact source location: bad tokens carry
/// line *and* column, truncated files point past the last line read
/// (not back at the header), and non-UTF-8 bytes are a typed error
/// instead of silently dropped lines.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on malformed headers, vertex indices out
/// of range, truncated or trailing content, non-UTF-8 bytes, or
/// structural validation failure.
pub fn read_hmetis<R: Read>(reader: R) -> Result<Hypergraph, ParseNetlistError> {
    read_hmetis_limited(reader, &ParseLimits::default())
}

/// Parses an hMETIS `.hgr` hypergraph with explicit resource limits.
///
/// The header's edge/vertex counts are validated against `limits`
/// *before* any table is allocated: a forged `1 99999999999` header is a
/// typed [`ParseNetlistError::LimitExceeded`] pointing at the header
/// token, not a multi-gigabyte allocation.
///
/// # Errors
///
/// See [`read_hmetis`].
pub fn read_hmetis_limited<R: Read>(
    reader: R,
    limits: &ParseLimits,
) -> Result<Hypergraph, ParseNetlistError> {
    // Collect the trimmed, non-comment data lines up front, remembering
    // each one's source line and where the file ends, so later errors
    // can always point at a real location.
    let mut data: Vec<(usize, String)> = Vec::new();
    let mut end_line = 1usize;
    let mut lines = LineReader::new(reader, limits);
    while let Some((no, line)) = lines.next_line()? {
        end_line = no;
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('%') {
            // Keep the untrimmed text: columns in errors must match the
            // original file, leading whitespace included.
            data.push((no, line.to_owned()));
        }
    }
    let mut records = data.iter().map(|(no, line)| (*no, line.as_str()));

    let (header_line_no, header) = records.next().ok_or(ParseNetlistError::UnexpectedEnd {
        line: end_line,
        expected: "hMETIS header `<edges> <vertices> [fmt]`",
    })?;
    let header_fields = fields_with_columns(header);
    let count_field = |at: usize, expected: &'static str| {
        header_fields
            .get(at)
            .copied()
            .ok_or(ParseNetlistError::MalformedRecord { line: header_line_no, expected })
    };
    let edge_field = count_field(0, "hyperedge count")?;
    let edges: usize = parse_field(header_line_no, edge_field, "hyperedge count")?;
    let vertex_field = count_field(1, "vertex count")?;
    let vertices: usize = parse_field(header_line_no, vertex_field, "vertex count")?;
    // Validate the declared sizes before the node/net tables are
    // allocated — the header is the one place a few bytes of hostile
    // input can demand gigabytes.
    if edges > limits.max_nets {
        return Err(ParseNetlistError::LimitExceeded {
            line: header_line_no,
            column: edge_field.0,
            what: "net count",
            limit: limits.max_nets,
        });
    }
    if vertices > limits.max_nodes {
        return Err(ParseNetlistError::LimitExceeded {
            line: header_line_no,
            column: vertex_field.0,
            what: "node count",
            limit: limits.max_nodes,
        });
    }
    let fmt: u32 = match header_fields.get(2).copied() {
        None => 0,
        Some(field) => {
            let fmt = parse_field(header_line_no, field, "fmt of 0, 1, 10, or 11")?;
            if ![0, 1, 10, 11].contains(&fmt) {
                return Err(ParseNetlistError::InvalidToken {
                    line: header_line_no,
                    column: field.0,
                    expected: "fmt of 0, 1, 10, or 11",
                    found: field.1.to_owned(),
                });
            }
            fmt
        }
    };
    if let Some(&(column, extra)) = header_fields.get(3) {
        return Err(ParseNetlistError::InvalidToken {
            line: header_line_no,
            column,
            expected: "end of header after `<edges> <vertices> [fmt]`",
            found: extra.to_owned(),
        });
    }
    let edge_weights = fmt == 1 || fmt == 11;
    let vertex_weights = fmt == 10 || fmt == 11;

    let mut builder = HypergraphBuilder::new();
    let nodes: Vec<NodeId> = (1..=vertices).map(|i| builder.add_node(format!("v{i}"), 1)).collect();
    let mut pin_total = 0usize;

    for e in 0..edges {
        let (no, line) = records.next().ok_or(ParseNetlistError::UnexpectedEnd {
            line: end_line,
            expected: "one line per hyperedge",
        })?;
        let fields = fields_with_columns(line);
        let pin_fields = if edge_weights {
            // Weight parsed and discarded (unweighted partitioning model).
            let weight = fields.first().copied().ok_or(ParseNetlistError::MalformedRecord {
                line: no,
                expected: "hyperedge weight",
            })?;
            let _: u64 = parse_field(no, weight, "hyperedge weight")?;
            &fields[1..]
        } else {
            &fields[..]
        };
        let mut pins = Vec::new();
        for &field in pin_fields {
            if pin_total >= limits.max_pins {
                return Err(ParseNetlistError::LimitExceeded {
                    line: no,
                    column: field.0,
                    what: "pin count",
                    limit: limits.max_pins,
                });
            }
            pin_total += 1;
            let idx: usize = parse_field(no, field, "1-based vertex index")?;
            if idx == 0 || idx > vertices {
                return Err(ParseNetlistError::UnknownName { line: no, name: field.1.to_owned() });
            }
            let node = nodes[idx - 1];
            if !pins.contains(&node) {
                pins.push(node);
            }
        }
        builder.add_net(format!("e{e}"), pins)?;
    }

    if vertex_weights {
        for &node in &nodes {
            let (no, line) = records.next().ok_or(ParseNetlistError::UnexpectedEnd {
                line: end_line,
                expected: "one weight line per vertex",
            })?;
            let fields = fields_with_columns(line);
            let field = fields.first().copied().ok_or(ParseNetlistError::MalformedRecord {
                line: no,
                expected: "vertex weight",
            })?;
            let weight: u32 = parse_field(no, field, "vertex weight")?;
            if let Some(&(column, extra)) = fields.get(1) {
                return Err(ParseNetlistError::InvalidToken {
                    line: no,
                    column,
                    expected: "a single vertex weight per line",
                    found: extra.to_owned(),
                });
            }
            builder.set_node_size(node, weight);
        }
    }

    if let Some((no, _)) = records.next() {
        return Err(ParseNetlistError::MalformedRecord {
            line: no,
            expected: "end of file after the last record",
        });
    }

    Ok(builder.finish()?)
}

/// Parses an hMETIS `.hgr` hypergraph from a string slice.
///
/// # Errors
///
/// See [`read_hmetis`].
pub fn parse_hmetis(text: &str) -> Result<Hypergraph, ParseNetlistError> {
    read_hmetis(text.as_bytes())
}

/// Parses an hMETIS `.hgr` hypergraph from a string slice with explicit
/// resource limits.
///
/// # Errors
///
/// See [`read_hmetis_limited`].
pub fn parse_hmetis_limited(
    text: &str,
    limits: &ParseLimits,
) -> Result<Hypergraph, ParseNetlistError> {
    read_hmetis_limited(text.as_bytes(), limits)
}

/// Writes a hypergraph in hMETIS `.hgr` format (pass `&mut writer` to
/// keep the writer).
///
/// Vertex weights are emitted (fmt 10) when any node size differs
/// from 1; terminals are not representable in the format and a comment
/// records how many were dropped.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_hmetis<W: Write>(mut writer: W, graph: &Hypergraph) -> std::io::Result<()> {
    let weighted = graph.node_ids().any(|v| graph.node_size(v) != 1);
    if graph.terminal_count() > 0 {
        writeln!(
            writer,
            "% {} primary terminals not representable in hMETIS format",
            graph.terminal_count()
        )?;
    }
    writeln!(
        writer,
        "{} {}{}",
        graph.net_count(),
        graph.node_count(),
        if weighted { " 10" } else { "" }
    )?;
    for net in graph.net_ids() {
        let pins: Vec<String> =
            graph.pins(net).iter().map(|p| (p.index() + 1).to_string()).collect();
        writeln!(writer, "{}", pins.join(" "))?;
    }
    if weighted {
        for node in graph.node_ids() {
            writeln!(writer, "{}", graph.node_size(node))?;
        }
    }
    Ok(())
}

/// Serializes a hypergraph to an hMETIS `.hgr` string.
#[must_use]
pub fn hmetis_to_string(graph: &Hypergraph) -> String {
    let mut out = Vec::new();
    write_hmetis(&mut out, graph).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect(".hgr output is always UTF-8")
}

/// Indexes node names of the `v<i>` convention back to 1-based vertex
/// numbers (useful when correlating with external hMETIS tools).
#[must_use]
pub fn vertex_numbers(graph: &Hypergraph) -> HashMap<NodeId, usize> {
    graph.node_ids().map(|v| (v, v.index() + 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = "\
% a 4-vertex, 3-edge example
3 4
1 2
2 3 4
1 4
";

    #[test]
    fn parse_unweighted() {
        let g = parse_hmetis(SIMPLE).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.net_count(), 3);
        assert_eq!(g.total_size(), 4);
        assert_eq!(g.node_name(NodeId::from_index(0)), "v1");
        assert_eq!(g.pins(crate::NetId::from_index(1)).len(), 3);
    }

    #[test]
    fn parse_edge_weights_discarded() {
        let text = "2 3 1\n7 1 2\n9 2 3\n";
        let g = parse_hmetis(text).unwrap();
        assert_eq!(g.net_count(), 2);
        assert_eq!(g.pins(crate::NetId::from_index(0)).len(), 2);
    }

    #[test]
    fn parse_vertex_weights() {
        let text = "1 3 10\n1 2 3\n5\n6\n7\n";
        let g = parse_hmetis(text).unwrap();
        assert_eq!(g.total_size(), 18);
        assert_eq!(g.node_size(NodeId::from_index(2)), 7);
    }

    #[test]
    fn parse_both_weights() {
        let text = "1 2 11\n4 1 2\n3\n9\n";
        let g = parse_hmetis(text).unwrap();
        assert_eq!(g.total_size(), 12);
        assert_eq!(g.net_count(), 1);
    }

    #[test]
    fn rejects_bad_fmt() {
        let err = parse_hmetis("1 2 7\n1 2\n").unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::InvalidToken {
                line: 1,
                column: 5,
                expected: "fmt of 0, 1, 10, or 11",
                found: "7".into(),
            }
        );
    }

    #[test]
    fn rejects_out_of_range_vertex() {
        let err = parse_hmetis("1 2\n1 5\n").unwrap_err();
        assert_eq!(err, ParseNetlistError::UnknownName { line: 2, name: "5".into() });
    }

    #[test]
    fn rejects_missing_edge_lines_at_end_of_file() {
        // A truncated file is reported where it ends, not back at the
        // header.
        let err = parse_hmetis("3 4\n1 2\n").unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::UnexpectedEnd { line: 2, expected: "one line per hyperedge" }
        );
    }

    #[test]
    fn rejects_non_numeric_vertex_with_column() {
        let err = parse_hmetis("1 4\n1 2 x4\n").unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::InvalidToken {
                line: 2,
                column: 5,
                expected: "1-based vertex index",
                found: "x4".into(),
            }
        );
    }

    #[test]
    fn column_accounts_for_leading_and_repeated_whitespace() {
        // Columns are counted on the original line, tabs and runs of
        // spaces included.
        let err = parse_hmetis("1 2\n  1\t \tbad\n").unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::InvalidToken {
                line: 2,
                column: 7,
                expected: "1-based vertex index",
                found: "bad".into(),
            }
        );
    }

    #[test]
    fn rejects_trailing_data_lines() {
        let err = parse_hmetis("1 2\n1 2\n1 2\n").unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::MalformedRecord {
                line: 3,
                expected: "end of file after the last record",
            }
        );
    }

    #[test]
    fn rejects_non_utf8_bytes() {
        let err = read_hmetis(&b"1 2\n1 \xff2\n"[..]).unwrap_err();
        assert_eq!(err, ParseNetlistError::NotUtf8 { line: 2 });
    }

    #[test]
    fn rejects_empty_input_at_line_one() {
        let err = parse_hmetis("").unwrap_err();
        assert!(matches!(err, ParseNetlistError::UnexpectedEnd { line: 1, .. }));
    }

    #[test]
    fn duplicate_pins_are_collapsed() {
        // Some emitters list a vertex twice on one edge.
        let g = parse_hmetis("1 3\n1 2 2 3\n").unwrap();
        assert_eq!(g.pins(crate::NetId::from_index(0)).len(), 3);
    }

    #[test]
    fn roundtrip_unweighted() {
        let g = parse_hmetis(SIMPLE).unwrap();
        let text = hmetis_to_string(&g);
        let g2 = parse_hmetis(&text).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.net_count(), g2.net_count());
        for (a, b) in g.net_ids().zip(g2.net_ids()) {
            assert_eq!(g.pins(a), g2.pins(b));
        }
    }

    #[test]
    fn roundtrip_weighted() {
        let text = "1 3 10\n1 2 3\n5\n6\n7\n";
        let g = parse_hmetis(text).unwrap();
        let g2 = parse_hmetis(&hmetis_to_string(&g)).unwrap();
        assert_eq!(g2.total_size(), 18);
    }

    #[test]
    fn generated_circuit_exports_and_reimports() {
        use crate::gen::{window_circuit, WindowConfig};
        let g = window_circuit(&WindowConfig::new("w", 80, 8), 3);
        let text = hmetis_to_string(&g);
        assert!(text.starts_with("% 8 primary terminals"));
        let g2 = parse_hmetis(&text).unwrap();
        assert_eq!(g2.node_count(), 80);
        assert_eq!(g2.net_count(), g.net_count());
        assert_eq!(g2.terminal_count(), 0); // dropped, by format
    }

    #[test]
    fn vertex_number_map() {
        let g = parse_hmetis(SIMPLE).unwrap();
        let map = vertex_numbers(&g);
        assert_eq!(map[&NodeId::from_index(3)], 4);
    }

    #[test]
    fn hostile_header_rejected_before_allocation() {
        // A forged vertex count must fail fast with a typed error, not
        // pre-allocate a table sized by the attacker.
        let err = parse_hmetis("1 99999999999\n1\n").unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::LimitExceeded {
                line: 1,
                column: 3,
                what: "node count",
                limit: ParseLimits::default().max_nodes,
            }
        );
        let limits = ParseLimits { max_nets: 4, ..ParseLimits::unlimited() };
        let err = parse_hmetis_limited("50 2\n1 2\n", &limits).unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::LimitExceeded { line: 1, column: 1, what: "net count", limit: 4 }
        );
    }

    #[test]
    fn pin_limit_points_at_the_first_excess_pin() {
        let limits = ParseLimits { max_pins: 3, ..ParseLimits::unlimited() };
        let err = parse_hmetis_limited("2 4\n1 2\n3 4\n", &limits).unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::LimitExceeded { line: 3, column: 3, what: "pin count", limit: 3 }
        );
    }
}

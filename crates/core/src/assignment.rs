//! Assignment-file I/O: the plain `node_name block` interchange format
//! the `fpart` CLI emits and verifies. Library users get the same
//! round-trip without reimplementing the parsing.
//!
//! ```text
//! # comments and blank lines are ignored
//! u17 0
//! u18 2
//! ```
//!
//! [`write_assignment_versioned`] prepends a versioned header so
//! downstream flows (the ECO repair loop in particular) can check what
//! they are loading:
//!
//! ```text
//! #%fpart-assignment v1 blocks 3
//! u17 0
//! u18 2
//! ```
//!
//! The header rides on a `#` comment line, so the versioned form stays
//! readable by any legacy `node block` consumer; [`read_assignment`]
//! detects it, validates the version, and cross-checks the declared
//! block count against the body.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use fpart_hypergraph::Hypergraph;

/// An error while reading an assignment file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReadAssignmentError {
    /// A line was not `node block`.
    MalformedLine {
        /// 1-based line number.
        line: usize,
    },
    /// A block id is not below the graph's node count (a dense
    /// assignment never has more blocks than nodes).
    BlockOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending block id.
        block: u32,
        /// The graph's node count, which every block id must stay below.
        limit: usize,
    },
    /// A named node does not exist in the graph.
    UnknownNode {
        /// 1-based line number.
        line: usize,
        /// The unresolved name.
        name: String,
    },
    /// A node of the graph has no line in the file.
    MissingNode {
        /// Name of the uncovered node.
        name: String,
    },
    /// The reader failed or produced non-UTF-8 data.
    Io {
        /// 1-based line number where reading failed.
        line: usize,
    },
    /// The versioned header declares a format version this build does
    /// not understand.
    UnsupportedVersion {
        /// The declared version.
        version: u32,
    },
    /// The versioned header's declared block count disagrees with the
    /// body (1 + the largest block index seen).
    BlockCountMismatch {
        /// Block count the header declares.
        declared: usize,
        /// Block count the body implies.
        found: usize,
    },
    /// The `#%fpart-assignment` header line is present but malformed.
    MalformedHeader {
        /// 1-based line number of the header (always 1).
        line: usize,
    },
}

impl fmt::Display for ReadAssignmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadAssignmentError::MalformedLine { line } => {
                write!(f, "line {line}: expected `node block`")
            }
            ReadAssignmentError::BlockOutOfRange { line, block, limit } => {
                write!(
                    f,
                    "line {line}: block {block} is out of range (the graph has {limit} nodes)"
                )
            }
            ReadAssignmentError::UnknownNode { line, name } => {
                write!(f, "line {line}: unknown node `{name}`")
            }
            ReadAssignmentError::MissingNode { name } => {
                write!(f, "node `{name}` has no assignment")
            }
            ReadAssignmentError::Io { line } => write!(f, "line {line}: read failed"),
            ReadAssignmentError::UnsupportedVersion { version } => {
                write!(f, "unsupported assignment format version {version} (this build reads v{ASSIGNMENT_FORMAT_VERSION})")
            }
            ReadAssignmentError::BlockCountMismatch { declared, found } => {
                write!(f, "header declares {declared} blocks but the body implies {found}")
            }
            ReadAssignmentError::MalformedHeader { line } => {
                write!(f, "line {line}: malformed `#%fpart-assignment` header")
            }
        }
    }
}

impl Error for ReadAssignmentError {}

/// Current version of the versioned assignment header.
pub const ASSIGNMENT_FORMAT_VERSION: u32 = 1;

/// Magic prefix of the versioned assignment header line.
const ASSIGNMENT_MAGIC: &str = "#%fpart-assignment";

/// Writes an assignment with the versioned header
/// (`#%fpart-assignment v1 blocks <k>` followed by `node block` lines).
/// The header is a comment to legacy readers, so the output is still a
/// valid plain assignment file.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Panics
///
/// Panics if `assignment.len() != graph.node_count()` or a block index
/// is not below `blocks`.
pub fn write_assignment_versioned<W: Write>(
    mut writer: W,
    graph: &Hypergraph,
    assignment: &[u32],
    blocks: usize,
) -> std::io::Result<()> {
    assert!(
        assignment.iter().all(|&b| (b as usize) < blocks.max(1)),
        "every block index must be below the declared block count"
    );
    writeln!(writer, "{ASSIGNMENT_MAGIC} v{ASSIGNMENT_FORMAT_VERSION} blocks {blocks}")?;
    write_assignment(writer, graph, assignment)
}

/// Parses the `#%fpart-assignment v<N> blocks <k>` header; `None` when
/// the line is not a header at all.
fn parse_header(line: &str) -> Option<Result<(u32, usize), ReadAssignmentError>> {
    let rest = line.strip_prefix(ASSIGNMENT_MAGIC)?;
    let malformed = Err(ReadAssignmentError::MalformedHeader { line: 1 });
    let mut fields = rest.split_whitespace();
    let (Some(version), Some(kw), Some(blocks), None) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Some(malformed);
    };
    if kw != "blocks" {
        return Some(malformed);
    }
    let Some(version) = version.strip_prefix('v').and_then(|v| v.parse::<u32>().ok()) else {
        return Some(malformed);
    };
    let Ok(blocks) = blocks.parse::<usize>() else {
        return Some(malformed);
    };
    Some(Ok((version, blocks)))
}

/// Writes an assignment as `node_name block` lines (pass `&mut writer`
/// to keep the writer).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Panics
///
/// Panics if `assignment.len() != graph.node_count()`.
pub fn write_assignment<W: Write>(
    mut writer: W,
    graph: &Hypergraph,
    assignment: &[u32],
) -> std::io::Result<()> {
    assert_eq!(assignment.len(), graph.node_count(), "assignment must cover the graph");
    for node in graph.node_ids() {
        writeln!(writer, "{} {}", graph.node_name(node), assignment[node.index()])?;
    }
    Ok(())
}

/// Reads an assignment, resolving node names against `graph`. Both the
/// plain format and the versioned-header format are accepted; a header
/// is validated (version, declared block count vs the body).
///
/// Returns the per-node block vector and the block count (1 + the
/// largest block index seen).
///
/// # Errors
///
/// Returns [`ReadAssignmentError`] on malformed lines, unknown names,
/// block ids not below the node count, nodes left unassigned, or a
/// bad/mismatching versioned header.
pub fn read_assignment<R: Read>(
    reader: R,
    graph: &Hypergraph,
) -> Result<(Vec<u32>, usize), ReadAssignmentError> {
    let index = graph.node_index_by_name();
    let mut assignment = vec![u32::MAX; graph.node_count()];
    let mut k = 0usize;
    let mut declared: Option<usize> = None;
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|_| ReadAssignmentError::Io { line: line_no })?;
        let line = line.trim();
        if line_no == 1 {
            if let Some(header) = parse_header(line) {
                let (version, blocks) = header?;
                if version != ASSIGNMENT_FORMAT_VERSION {
                    return Err(ReadAssignmentError::UnsupportedVersion { version });
                }
                declared = Some(blocks);
                continue;
            }
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(name), Some(block)) = (fields.next(), fields.next()) else {
            return Err(ReadAssignmentError::MalformedLine { line: line_no });
        };
        let node = index.get(name).ok_or_else(|| ReadAssignmentError::UnknownNode {
            line: line_no,
            name: name.to_owned(),
        })?;
        let block: u32 =
            block.parse().map_err(|_| ReadAssignmentError::MalformedLine { line: line_no })?;
        if block as usize >= graph.node_count() {
            return Err(ReadAssignmentError::BlockOutOfRange {
                line: line_no,
                block,
                limit: graph.node_count(),
            });
        }
        assignment[node.index()] = block;
        k = k.max(block as usize + 1);
    }
    if let Some(missing) = graph.node_ids().find(|v| assignment[v.index()] == u32::MAX) {
        return Err(ReadAssignmentError::MissingNode { name: graph.node_name(missing).to_owned() });
    }
    if let Some(declared) = declared {
        if declared != k {
            return Err(ReadAssignmentError::BlockCountMismatch { declared, found: k });
        }
    }
    Ok((assignment, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::HypergraphBuilder;

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        b.add_net("e", [x, y]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip() {
        let g = sample();
        let mut text = Vec::new();
        write_assignment(&mut text, &g, &[1, 0]).unwrap();
        let (assignment, k) = read_assignment(text.as_slice(), &g).unwrap();
        assert_eq!(assignment, vec![1, 0]);
        assert_eq!(k, 2);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let g = sample();
        let text = "# header\n\nx 0\ny 0\n";
        let (assignment, k) = read_assignment(text.as_bytes(), &g).unwrap();
        assert_eq!(assignment, vec![0, 0]);
        assert_eq!(k, 1);
    }

    #[test]
    fn unknown_node_rejected() {
        let g = sample();
        let err = read_assignment("z 0\n".as_bytes(), &g).unwrap_err();
        assert!(matches!(err, ReadAssignmentError::UnknownNode { .. }));
    }

    #[test]
    fn missing_node_rejected() {
        let g = sample();
        let err = read_assignment("x 0\n".as_bytes(), &g).unwrap_err();
        assert!(matches!(err, ReadAssignmentError::MissingNode { .. }));
    }

    #[test]
    fn versioned_roundtrip() {
        let g = sample();
        let mut text = Vec::new();
        write_assignment_versioned(&mut text, &g, &[1, 0], 2).unwrap();
        let first = std::str::from_utf8(&text).unwrap().lines().next().unwrap().to_owned();
        assert_eq!(first, "#%fpart-assignment v1 blocks 2");
        let (assignment, k) = read_assignment(text.as_slice(), &g).unwrap();
        assert_eq!(assignment, vec![1, 0]);
        assert_eq!(k, 2);
    }

    #[test]
    fn unsupported_version_rejected() {
        let g = sample();
        let err = read_assignment("#%fpart-assignment v99 blocks 1\nx 0\ny 0\n".as_bytes(), &g)
            .unwrap_err();
        assert_eq!(err, ReadAssignmentError::UnsupportedVersion { version: 99 });
    }

    #[test]
    fn block_count_mismatch_rejected() {
        let g = sample();
        let err = read_assignment("#%fpart-assignment v1 blocks 3\nx 0\ny 1\n".as_bytes(), &g)
            .unwrap_err();
        assert_eq!(err, ReadAssignmentError::BlockCountMismatch { declared: 3, found: 2 });
    }

    #[test]
    fn malformed_header_rejected() {
        let g = sample();
        for bad in [
            "#%fpart-assignment\nx 0\ny 0\n",
            "#%fpart-assignment v1 blocks\nx 0\ny 0\n",
            "#%fpart-assignment one blocks 2\nx 0\ny 0\n",
            "#%fpart-assignment v1 cells 2\nx 0\ny 0\n",
        ] {
            let err = read_assignment(bad.as_bytes(), &g).unwrap_err();
            assert_eq!(err, ReadAssignmentError::MalformedHeader { line: 1 }, "input: {bad:?}");
        }
    }

    #[test]
    fn header_after_line_one_is_a_plain_comment() {
        let g = sample();
        let text = "# preamble\n#%fpart-assignment v99 blocks 7\nx 0\ny 0\n";
        let (assignment, k) = read_assignment(text.as_bytes(), &g).unwrap();
        assert_eq!(assignment, vec![0, 0]);
        assert_eq!(k, 1);
    }

    #[test]
    fn malformed_line_rejected() {
        let g = sample();
        let err = read_assignment("x notanumber\n".as_bytes(), &g).unwrap_err();
        assert!(matches!(err, ReadAssignmentError::MalformedLine { line: 1 }));
        let err = read_assignment("loner\n".as_bytes(), &g).unwrap_err();
        assert!(matches!(err, ReadAssignmentError::MalformedLine { line: 1 }));
    }

    #[test]
    fn out_of_range_block_rejected() {
        let g = sample();
        // u32::MAX doubles as the missing-node sentinel; a huge id would
        // size a per-block table. Both are typed, line-numbered errors.
        for block in [2, 4_000_000_000, u32::MAX] {
            let text = format!("y 0\nx {block}\n");
            let err = read_assignment(text.as_bytes(), &g).unwrap_err();
            assert_eq!(err, ReadAssignmentError::BlockOutOfRange { line: 2, block, limit: 2 });
            assert!(err.to_string().starts_with("line 2: block"), "{err}");
        }
    }
}

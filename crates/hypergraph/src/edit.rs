//! Netlist edit scripts: typed edit operations, a JSON-Lines
//! serialization, and [`apply_script`] — the substrate of incremental
//! (ECO) repartitioning.
//!
//! Real FPGA flows repartition near-identical designs on every design
//! spin; shipping the *difference* as a script of [`EditOp`]s lets the
//! partitioner repair an existing solution instead of rebuilding it.
//! A script is a sequence of operations applied in order:
//!
//! ```text
//! {"op": "add_node", "name": "u901", "size": 2}
//! {"op": "add_net", "name": "n_eco", "pins": ["u901", "u17"]}
//! {"op": "remove_node", "name": "u44"}
//! {"op": "resize_node", "name": "u12", "size": 3}
//! {"op": "connect_pin", "net": "n3", "node": "u901"}
//! {"op": "disconnect_pin", "net": "n3", "name_does_not_matter": ...}
//! ```
//!
//! One JSON object per line, parsed by a dependency-free scanner that
//! reports **typed errors with exact line and column** — the same
//! contract as the `.fhg`/`.hgr`/BLIF parsers ([`crate::ParseNetlistError`]):
//! the CLI prints these verbatim, so locations are part of the format.
//!
//! [`apply_script`] produces the edited [`Hypergraph`] plus the
//! old→new [`NodeId`] mapping an ECO driver needs to carry surviving
//! block assignments over. Semantics worth knowing:
//!
//! * removing a node disconnects it everywhere; a net left with **no
//!   pins** is removed too (with its terminals) — an empty net has no
//!   meaning to any algorithm;
//! * surviving nodes keep their relative order (new nodes append), so
//!   the mapping is monotonic on survivors;
//! * every reference is validated against the *current* state of the
//!   edited netlist, and a dangling or duplicate reference is a typed
//!   [`ApplyEditError`] carrying the script line of the offending op.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

use crate::graph::{Hypergraph, NameTable};
use crate::ids::{NetId, NodeId};
use crate::limits::{LineError, LineReader};

/// One netlist edit operation. All references are by name, the stable
/// identity across netlist revisions (ids are dense and shift on every
/// edit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// Adds an interior node. The size must be positive.
    AddNode {
        /// Name of the new node (must not clash with a live node).
        name: String,
        /// Its size in logic cells.
        size: u32,
    },
    /// Removes a node and disconnects it from every net; nets left
    /// without pins are removed too (with their terminals).
    RemoveNode {
        /// Name of the node to remove.
        name: String,
    },
    /// Changes a node's size. The new size must be positive.
    ResizeNode {
        /// Name of the node to resize.
        name: String,
        /// The new size.
        size: u32,
    },
    /// Adds a net over the named pins (at least one, no duplicates).
    AddNet {
        /// Name of the new net (must not clash with a live net).
        name: String,
        /// Names of the interior nodes it connects.
        pins: Vec<String>,
    },
    /// Removes a net and its terminals.
    RemoveNet {
        /// Name of the net to remove.
        name: String,
    },
    /// Adds an existing node as a pin of an existing net.
    ConnectPin {
        /// Name of the net.
        net: String,
        /// Name of the node to connect.
        node: String,
    },
    /// Removes a pin from a net; a net left without pins is removed
    /// (with its terminals).
    DisconnectPin {
        /// Name of the net.
        net: String,
        /// Name of the node to disconnect.
        node: String,
    },
}

impl EditOp {
    /// The stable `snake_case` name of this operation in the JSON-Lines
    /// form.
    #[must_use]
    pub fn op_name(&self) -> &'static str {
        match self {
            EditOp::AddNode { .. } => "add_node",
            EditOp::RemoveNode { .. } => "remove_node",
            EditOp::ResizeNode { .. } => "resize_node",
            EditOp::AddNet { .. } => "add_net",
            EditOp::RemoveNet { .. } => "remove_net",
            EditOp::ConnectPin { .. } => "connect_pin",
            EditOp::DisconnectPin { .. } => "disconnect_pin",
        }
    }
}

/// One parsed operation with the script line it came from, so
/// application errors can point back at the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedOp {
    /// 1-based line number in the script file.
    pub line: usize,
    /// The operation.
    pub op: EditOp,
}

/// An ordered netlist edit script — the unit [`apply_script`] consumes
/// and the JSON-Lines reader/writer round-trips.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditScript {
    /// The operations, in application order.
    pub ops: Vec<ScriptedOp>,
}

/// An error while parsing the JSON-Lines edit-script format. Every
/// variant carries the 1-based line; token-level variants also carry
/// the 1-based column (in characters) where the offending token starts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseEditError {
    /// A token was present but not what the grammar requires there.
    InvalidToken {
        /// 1-based line number.
        line: usize,
        /// 1-based column (in characters) where the token starts.
        column: usize,
        /// Description of what was expected.
        expected: &'static str,
        /// The offending token text.
        found: String,
    },
    /// The line ended while the object was still open (truncated).
    UnexpectedEnd {
        /// 1-based line number.
        line: usize,
        /// Description of what was still expected.
        expected: &'static str,
    },
    /// The `op` field named no known operation.
    UnknownOp {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the op value.
        column: usize,
        /// The unrecognized operation name.
        op: String,
    },
    /// A field does not belong to the line's operation (or appeared
    /// twice).
    UnknownField {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the field name.
        column: usize,
        /// The offending field name.
        field: String,
    },
    /// A required field of the operation is absent.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// The operation missing it.
        op: String,
        /// The absent field.
        field: &'static str,
    },
    /// A line contained bytes that are not valid UTF-8.
    NotUtf8 {
        /// 1-based line number.
        line: usize,
    },
    /// The reader failed before the line could be inspected.
    Io {
        /// 1-based line number where reading failed.
        line: usize,
    },
    /// The script asked for more resources than the configured
    /// [`crate::ParseLimits`] allow.
    LimitExceeded {
        /// 1-based line number.
        line: usize,
        /// 1-based column (in characters) of the offending token.
        column: usize,
        /// Which limit was exceeded (e.g. `"name length"`).
        what: &'static str,
        /// The configured maximum.
        limit: usize,
    },
}

impl fmt::Display for ParseEditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseEditError::InvalidToken { line, column, expected, found } => {
                write!(f, "line {line}, column {column}: expected {expected}, found `{found}`")
            }
            ParseEditError::UnexpectedEnd { line, expected } => {
                write!(f, "line {line}: line ended but {expected} was still expected")
            }
            ParseEditError::UnknownOp { line, column, op } => {
                write!(f, "line {line}, column {column}: unknown edit operation `{op}`")
            }
            ParseEditError::UnknownField { line, column, field } => {
                write!(f, "line {line}, column {column}: unexpected field `{field}`")
            }
            ParseEditError::MissingField { line, op, field } => {
                write!(f, "line {line}: operation `{op}` is missing field `{field}`")
            }
            ParseEditError::NotUtf8 { line } => write!(f, "line {line}: not valid UTF-8"),
            ParseEditError::Io { line } => write!(f, "line {line}: read failed"),
            ParseEditError::LimitExceeded { line, column, what, limit } => {
                write!(f, "line {line}, column {column}: {what} exceeds limit of {limit}")
            }
        }
    }
}

impl Error for ParseEditError {}

impl From<LineError> for ParseEditError {
    fn from(e: LineError) -> Self {
        match e {
            LineError::TooLong { line, limit } => ParseEditError::LimitExceeded {
                line,
                column: limit.saturating_add(1),
                what: "line length",
                limit,
            },
            LineError::NotUtf8 { line } => ParseEditError::NotUtf8 { line },
            LineError::Read { line } => ParseEditError::Io { line },
        }
    }
}

/// An error while applying an [`EditScript`] to a [`Hypergraph`].
/// Every reference is validated against the current state of the
/// edited netlist; the `line` is the script line of the offending op.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ApplyEditError {
    /// An op referenced a node that does not exist (never did, or was
    /// removed earlier in the script).
    UnknownNode {
        /// Script line of the offending op.
        line: usize,
        /// The dangling node name.
        name: String,
    },
    /// An op referenced a net that does not exist.
    UnknownNet {
        /// Script line of the offending op.
        line: usize,
        /// The dangling net name.
        name: String,
    },
    /// `add_node` would duplicate a live node name.
    DuplicateNode {
        /// Script line of the offending op.
        line: usize,
        /// The clashing name.
        name: String,
    },
    /// `add_net` would duplicate a live net name.
    DuplicateNet {
        /// Script line of the offending op.
        line: usize,
        /// The clashing name.
        name: String,
    },
    /// `connect_pin` (or an `add_net` pin list) names a node that is
    /// already a pin of the net.
    DuplicatePin {
        /// Script line of the offending op.
        line: usize,
        /// The net.
        net: String,
        /// The node listed twice.
        node: String,
    },
    /// `disconnect_pin` names a node that is not a pin of the net.
    MissingPin {
        /// Script line of the offending op.
        line: usize,
        /// The net.
        net: String,
        /// The node that is not connected.
        node: String,
    },
    /// `add_net` listed no pins.
    EmptyNet {
        /// Script line of the offending op.
        line: usize,
        /// Name of the net.
        net: String,
    },
    /// `add_node`/`resize_node` gave a zero size.
    ZeroSize {
        /// Script line of the offending op.
        line: usize,
        /// Name of the node.
        name: String,
    },
}

impl fmt::Display for ApplyEditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyEditError::UnknownNode { line, name } => {
                write!(f, "line {line}: reference to unknown node `{name}`")
            }
            ApplyEditError::UnknownNet { line, name } => {
                write!(f, "line {line}: reference to unknown net `{name}`")
            }
            ApplyEditError::DuplicateNode { line, name } => {
                write!(f, "line {line}: node `{name}` already exists")
            }
            ApplyEditError::DuplicateNet { line, name } => {
                write!(f, "line {line}: net `{name}` already exists")
            }
            ApplyEditError::DuplicatePin { line, net, node } => {
                write!(f, "line {line}: net `{net}` already has pin `{node}`")
            }
            ApplyEditError::MissingPin { line, net, node } => {
                write!(f, "line {line}: net `{net}` has no pin `{node}`")
            }
            ApplyEditError::EmptyNet { line, net } => {
                write!(f, "line {line}: net `{net}` has no pins")
            }
            ApplyEditError::ZeroSize { line, name } => {
                write!(f, "line {line}: node `{name}` would have size zero")
            }
        }
    }
}

impl Error for ApplyEditError {}

/// Result of [`apply_script`]: the edited graph plus the old→new node
/// mapping.
#[derive(Debug, Clone)]
pub struct EditApplied {
    /// The edited hypergraph.
    pub graph: Hypergraph,
    /// `node_map[old.index()]` is the node's id in the edited graph, or
    /// `None` when the script removed it. Monotonic on survivors (the
    /// relative order of surviving nodes is preserved; new nodes get
    /// the ids after the last survivor).
    pub node_map: Vec<Option<NodeId>>,
    /// Nodes the script added.
    pub added_nodes: usize,
    /// Nodes the script removed.
    pub removed_nodes: usize,
}

impl EditScript {
    /// Wraps plain operations, numbering them as lines `1..` (the shape
    /// a programmatically built script has after a JSONL round-trip).
    #[must_use]
    pub fn new(ops: Vec<EditOp>) -> Self {
        EditScript {
            ops: ops
                .into_iter()
                .enumerate()
                .map(|(i, op)| ScriptedOp { line: i + 1, op })
                .collect(),
        }
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Parses the JSON-Lines form. Blank lines and lines starting with
    /// `#` are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ParseEditError`] with exact line/column context.
    pub fn parse(text: &str) -> Result<Self, ParseEditError> {
        Self::parse_limited(text, &crate::ParseLimits::default())
    }

    /// Parses the JSON-Lines form with explicit resource limits: line
    /// length, name length (with the column of the offending token),
    /// and total op count (capped at `max_nodes + max_nets`).
    ///
    /// # Errors
    ///
    /// See [`EditScript::parse`]; limit violations are
    /// [`ParseEditError::LimitExceeded`].
    pub fn parse_limited(text: &str, limits: &crate::ParseLimits) -> Result<Self, ParseEditError> {
        Self::read_limited(text.as_bytes(), limits)
    }

    /// Reads the JSON-Lines form from any reader, reporting non-UTF-8
    /// bytes as a typed error with the line they occur on.
    ///
    /// # Errors
    ///
    /// Returns [`ParseEditError`]; I/O failures map to
    /// [`ParseEditError::Io`] with the line where reading stopped.
    pub fn read<R: Read>(reader: R) -> Result<Self, ParseEditError> {
        Self::read_limited(reader, &crate::ParseLimits::default())
    }

    /// Reads the JSON-Lines form from any reader with explicit resource
    /// limits. Lines are read one at a time, so a line past
    /// `max_line_len` is refused before the rest of it is read.
    ///
    /// # Errors
    ///
    /// See [`EditScript::read`] and [`EditScript::parse_limited`].
    pub fn read_limited<R: Read>(
        reader: R,
        limits: &crate::ParseLimits,
    ) -> Result<Self, ParseEditError> {
        let max_ops = limits.max_nodes.saturating_add(limits.max_nets);
        let mut lines = LineReader::new(reader, limits);
        let mut ops = Vec::new();
        while let Some((line_no, text)) = lines.next_line()? {
            if let Some(op) = parse_line_limited(text, line_no, limits)? {
                if ops.len() >= max_ops {
                    return Err(ParseEditError::LimitExceeded {
                        line: line_no,
                        column: 1,
                        what: "edit op count",
                        limit: max_ops,
                    });
                }
                ops.push(ScriptedOp { line: line_no, op });
            }
        }
        Ok(EditScript { ops })
    }

    /// Serializes as JSON Lines, one op per line (the exact form
    /// [`EditScript::parse`] reads back).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for scripted in &self.ops {
            write_op(&mut out, &scripted.op);
            out.push('\n');
        }
        out
    }

    /// Writes the JSON-Lines form (pass `&mut writer` to keep the
    /// writer).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        writer.write_all(self.to_jsonl().as_bytes())
    }
}

// ---------------------------------------------------------------------------
// JSON-Lines writer

fn write_json_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_op(out: &mut String, op: &EditOp) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"op\": \"{}\"", op.op_name());
    match op {
        EditOp::AddNode { name, size } | EditOp::ResizeNode { name, size } => {
            out.push_str(", \"name\": ");
            write_json_str(out, name);
            let _ = write!(out, ", \"size\": {size}");
        }
        EditOp::RemoveNode { name } | EditOp::RemoveNet { name } => {
            out.push_str(", \"name\": ");
            write_json_str(out, name);
        }
        EditOp::AddNet { name, pins } => {
            out.push_str(", \"name\": ");
            write_json_str(out, name);
            out.push_str(", \"pins\": [");
            for (i, pin) in pins.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_json_str(out, pin);
            }
            out.push(']');
        }
        EditOp::ConnectPin { net, node } | EditOp::DisconnectPin { net, node } => {
            out.push_str(", \"net\": ");
            write_json_str(out, net);
            out.push_str(", \"node\": ");
            write_json_str(out, node);
        }
    }
    out.push('}');
}

// ---------------------------------------------------------------------------
// JSON-Lines parser

/// One collected field of a line object: its starting column and value.
enum FieldValue {
    Str(String),
    Num(u32),
    Arr(Vec<String>),
}

struct Scanner {
    chars: Vec<char>,
    pos: usize,
    line: usize,
}

impl Scanner {
    fn new(text: &str, line: usize) -> Self {
        Scanner { chars: text.chars().collect(), pos: 0, line }
    }

    /// 1-based column of the next character.
    fn column(&self) -> usize {
        self.pos + 1
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    /// The run of characters a human would read as "the token here" —
    /// for error messages only.
    fn token_text(&self) -> String {
        let stop = |c: char| c.is_whitespace() || matches!(c, ',' | ':' | '}' | ']' | '{' | '[');
        self.chars[self.pos..].iter().take_while(|&&c| !stop(c)).take(32).collect()
    }

    fn expect_char(&mut self, want: char, expected: &'static str) -> Result<(), ParseEditError> {
        self.skip_ws();
        match self.peek() {
            Some(c) if c == want => {
                self.pos += 1;
                Ok(())
            }
            Some(c) => Err(ParseEditError::InvalidToken {
                line: self.line,
                column: self.column(),
                expected,
                found: if self.token_text().is_empty() { c.to_string() } else { self.token_text() },
            }),
            None => Err(ParseEditError::UnexpectedEnd { line: self.line, expected }),
        }
    }

    /// Parses a JSON string literal; returns (value, start column).
    fn parse_string(&mut self, expected: &'static str) -> Result<(String, usize), ParseEditError> {
        self.skip_ws();
        let start = self.column();
        match self.peek() {
            Some('"') => {}
            Some(_) => {
                return Err(ParseEditError::InvalidToken {
                    line: self.line,
                    column: start,
                    expected,
                    found: self.token_text(),
                })
            }
            None => return Err(ParseEditError::UnexpectedEnd { line: self.line, expected }),
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => {
                    return Err(ParseEditError::UnexpectedEnd {
                        line: self.line,
                        expected: "closing `\"`",
                    })
                }
                Some('"') => return Ok((out, start)),
                Some('\\') => {
                    let esc_col = self.column() - 1;
                    match self.bump() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('/') => out.push('/'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let Some(d) = self.bump().and_then(|c| c.to_digit(16)) else {
                                    return Err(ParseEditError::InvalidToken {
                                        line: self.line,
                                        column: esc_col,
                                        expected: "four hex digits after \\u",
                                        found: "\\u".into(),
                                    });
                                };
                                code = code * 16 + d;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        Some(c) => {
                            return Err(ParseEditError::InvalidToken {
                                line: self.line,
                                column: esc_col,
                                expected: "string escape",
                                found: format!("\\{c}"),
                            })
                        }
                        None => {
                            return Err(ParseEditError::UnexpectedEnd {
                                line: self.line,
                                expected: "string escape",
                            })
                        }
                    }
                }
                Some(c) => out.push(c),
            }
        }
    }

    /// Parses an unsigned integer token.
    fn parse_u32(&mut self, expected: &'static str) -> Result<u32, ParseEditError> {
        self.skip_ws();
        let start = self.column();
        if self.peek().is_none() {
            return Err(ParseEditError::UnexpectedEnd { line: self.line, expected });
        }
        let token = self.token_text();
        if token.is_empty() || !token.chars().all(|c| c.is_ascii_digit()) {
            return Err(ParseEditError::InvalidToken {
                line: self.line,
                column: start,
                expected,
                found: if token.is_empty() {
                    self.peek().map(|c| c.to_string()).unwrap_or_default()
                } else {
                    token
                },
            });
        }
        let value: u32 = token.parse().map_err(|_| ParseEditError::InvalidToken {
            line: self.line,
            column: start,
            expected,
            found: token.clone(),
        })?;
        self.pos += token.chars().count();
        Ok(value)
    }

    fn parse_string_array(&mut self) -> Result<Vec<String>, ParseEditError> {
        self.expect_char('[', "`[` opening the pin list")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            let (s, _) = self.parse_string("a quoted pin name")?;
            out.push(s);
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some(']') => return Ok(out),
                Some(_) => {
                    return Err(ParseEditError::InvalidToken {
                        line: self.line,
                        column: self.column() - 1,
                        expected: "`,` or `]` in the pin list",
                        found: self.chars[self.pos - 1].to_string(),
                    })
                }
                None => {
                    return Err(ParseEditError::UnexpectedEnd {
                        line: self.line,
                        expected: "`]` closing the pin list",
                    })
                }
            }
        }
    }
}

/// Parses one script line into an op; `Ok(None)` for blank and `#`
/// comment lines.
fn parse_line_limited(
    raw: &str,
    line: usize,
    limits: &crate::ParseLimits,
) -> Result<Option<EditOp>, ParseEditError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut s = Scanner::new(raw, line);
    s.expect_char('{', "`{` opening the operation object")?;

    let mut fields: Vec<(String, usize, FieldValue)> = Vec::new();
    loop {
        let (key, key_col) = s.parse_string("a quoted field name")?;
        s.expect_char(':', "`:` after the field name")?;
        let value = match key.as_str() {
            "op" | "name" | "net" | "node" => {
                let (v, col) = s.parse_string("a quoted string value")?;
                if v.len() > limits.max_name_len {
                    return Err(ParseEditError::LimitExceeded {
                        line,
                        column: col,
                        what: "name length",
                        limit: limits.max_name_len,
                    });
                }
                FieldValue::Str(v)
            }
            "size" => FieldValue::Num(s.parse_u32("an unsigned size")?),
            "pins" => {
                let pins = s.parse_string_array()?;
                for pin in &pins {
                    if pin.len() > limits.max_name_len {
                        return Err(ParseEditError::LimitExceeded {
                            line,
                            column: key_col,
                            what: "name length",
                            limit: limits.max_name_len,
                        });
                    }
                }
                FieldValue::Arr(pins)
            }
            _ => {
                return Err(ParseEditError::UnknownField { line, column: key_col, field: key });
            }
        };
        if fields.iter().any(|(k, _, _)| *k == key) {
            return Err(ParseEditError::UnknownField { line, column: key_col, field: key });
        }
        fields.push((key, key_col, value));
        s.skip_ws();
        match s.bump() {
            Some(',') => {}
            Some('}') => break,
            Some(c) => {
                return Err(ParseEditError::InvalidToken {
                    line,
                    column: s.column() - 1,
                    expected: "`,` or `}` in the operation object",
                    found: c.to_string(),
                })
            }
            None => {
                return Err(ParseEditError::UnexpectedEnd {
                    line,
                    expected: "`}` closing the operation object",
                })
            }
        }
    }
    s.skip_ws();
    if let Some(c) = s.peek() {
        return Err(ParseEditError::InvalidToken {
            line,
            column: s.column(),
            expected: "end of line after the operation object",
            found: c.to_string(),
        });
    }

    assemble_op(line, fields)
}

/// Validates the collected fields against the named op's shape.
#[allow(clippy::too_many_lines)]
fn assemble_op(
    line: usize,
    fields: Vec<(String, usize, FieldValue)>,
) -> Result<Option<EditOp>, ParseEditError> {
    let mut op: Option<(String, usize)> = None;
    let mut name: Option<String> = None;
    let mut size: Option<u32> = None;
    let mut pins: Option<Vec<String>> = None;
    let mut net: Option<String> = None;
    let mut node: Option<String> = None;
    let mut columns: HashMap<&'static str, usize> = HashMap::new();
    for (key, col, value) in fields {
        match (key.as_str(), value) {
            ("op", FieldValue::Str(v)) => {
                // parse_string returned the key's column; the value sits
                // after `": "`, but the key column is the stable anchor
                // users see, so record the value's approximate start.
                op = Some((v, col));
            }
            ("name", FieldValue::Str(v)) => {
                columns.insert("name", col);
                name = Some(v);
            }
            ("size", FieldValue::Num(v)) => {
                columns.insert("size", col);
                size = Some(v);
            }
            ("pins", FieldValue::Arr(v)) => {
                columns.insert("pins", col);
                pins = Some(v);
            }
            ("net", FieldValue::Str(v)) => {
                columns.insert("net", col);
                net = Some(v);
            }
            ("node", FieldValue::Str(v)) => {
                columns.insert("node", col);
                node = Some(v);
            }
            _ => unreachable!("field values are typed at parse time"),
        }
    }
    let Some((op_name, op_col)) = op else {
        return Err(ParseEditError::MissingField { line, op: "?".into(), field: "op" });
    };

    // Which fields each op allows; anything else present is an error.
    let allowed: &[&str] = match op_name.as_str() {
        "add_node" | "resize_node" => &["name", "size"],
        "remove_node" | "remove_net" => &["name"],
        "add_net" => &["name", "pins"],
        "connect_pin" | "disconnect_pin" => &["net", "node"],
        _ => return Err(ParseEditError::UnknownOp { line, column: op_col, op: op_name }),
    };
    for (field, col) in [
        ("name", columns.get("name")),
        ("size", columns.get("size")),
        ("pins", columns.get("pins")),
        ("net", columns.get("net")),
        ("node", columns.get("node")),
    ] {
        if let Some(&col) = col {
            if !allowed.contains(&field) {
                return Err(ParseEditError::UnknownField {
                    line,
                    column: col,
                    field: field.to_owned(),
                });
            }
        }
    }
    let require_name = |name: Option<String>| {
        name.ok_or(ParseEditError::MissingField { line, op: op_name.clone(), field: "name" })
    };
    let result = match op_name.as_str() {
        "add_node" => EditOp::AddNode {
            name: require_name(name)?,
            size: size.ok_or(ParseEditError::MissingField {
                line,
                op: op_name.clone(),
                field: "size",
            })?,
        },
        "remove_node" => EditOp::RemoveNode { name: require_name(name)? },
        "resize_node" => EditOp::ResizeNode {
            name: require_name(name)?,
            size: size.ok_or(ParseEditError::MissingField {
                line,
                op: op_name.clone(),
                field: "size",
            })?,
        },
        "add_net" => EditOp::AddNet {
            name: require_name(name)?,
            pins: pins.ok_or(ParseEditError::MissingField {
                line,
                op: op_name.clone(),
                field: "pins",
            })?,
        },
        "remove_net" => EditOp::RemoveNet { name: require_name(name)? },
        "connect_pin" | "disconnect_pin" => {
            let net = net.ok_or(ParseEditError::MissingField {
                line,
                op: op_name.clone(),
                field: "net",
            })?;
            let node = node.ok_or(ParseEditError::MissingField {
                line,
                op: op_name.clone(),
                field: "node",
            })?;
            if op_name == "connect_pin" {
                EditOp::ConnectPin { net, node }
            } else {
                EditOp::DisconnectPin { net, node }
            }
        }
        _ => unreachable!("unknown ops rejected above"),
    };
    Ok(Some(result))
}

// ---------------------------------------------------------------------------
// Application

/// Where a net's pins are while a script runs.
#[derive(Clone, Copy)]
enum NetPins {
    /// The input graph's pins: no op touched the net.
    Input,
    /// `Overlay::edited[i]`, the pins as the ops so far left them.
    Edited(usize),
    /// Removed, or emptied by the ops.
    Removed,
}

/// The input graph under a script: only what the ops change, keyed by
/// ids that extend the input's (each node or net the script adds takes
/// the next id past the input's and the earlier additions).
struct Overlay<'a> {
    graph: &'a Hypergraph,
    /// Live ids of the node and net names the script mentions.
    node_ids: HashMap<&'a str, usize>,
    net_ids: HashMap<&'a str, usize>,
    /// Names of the nodes and nets the script adds, by id past the
    /// input's, borrowed from the script. The input's are read from its
    /// name tables.
    added_node_names: Vec<&'a str>,
    added_net_names: Vec<&'a str>,
    node_alive: Vec<bool>,
    node_sizes: Vec<u32>,
    nets: Vec<NetPins>,
    edited: Vec<Vec<NodeId>>,
    /// Nets each node joined through the ops, beside its input nets.
    joined: HashMap<usize, Vec<usize>>,
    added_nodes: usize,
    removed_nodes: usize,
}

impl<'a> Overlay<'a> {
    /// Resolves every name the script mentions in one pass over the
    /// input's node and net names. A name the input repeats resolves to
    /// its last occurrence.
    fn new(graph: &'a Hypergraph, script: &'a EditScript) -> Self {
        const ABSENT: usize = usize::MAX;
        fn resolve(ids: &mut HashMap<&str, usize>, names: &NameTable) {
            for (i, name) in names.iter().enumerate() {
                if let Some(id) = ids.get_mut(name) {
                    *id = i;
                }
            }
            ids.retain(|_, id| *id != ABSENT);
        }
        let mut node_ids = HashMap::new();
        let mut net_ids = HashMap::new();
        for scripted in &script.ops {
            match &scripted.op {
                EditOp::AddNode { name, .. }
                | EditOp::RemoveNode { name }
                | EditOp::ResizeNode { name, .. } => {
                    node_ids.insert(name.as_str(), ABSENT);
                }
                EditOp::AddNet { name, pins } => {
                    net_ids.insert(name.as_str(), ABSENT);
                    node_ids.extend(pins.iter().map(|pin| (pin.as_str(), ABSENT)));
                }
                EditOp::RemoveNet { name } => {
                    net_ids.insert(name.as_str(), ABSENT);
                }
                EditOp::ConnectPin { net, node } | EditOp::DisconnectPin { net, node } => {
                    net_ids.insert(net.as_str(), ABSENT);
                    node_ids.insert(node.as_str(), ABSENT);
                }
            }
        }
        resolve(&mut node_ids, &graph.node_names);
        resolve(&mut net_ids, &graph.net_names);
        Overlay {
            graph,
            node_ids,
            net_ids,
            added_node_names: Vec::new(),
            added_net_names: Vec::new(),
            node_alive: vec![true; graph.node_count()],
            node_sizes: graph.node_sizes.clone(),
            nets: vec![NetPins::Input; graph.net_count()],
            edited: Vec::new(),
            joined: HashMap::new(),
            added_nodes: 0,
            removed_nodes: 0,
        }
    }

    fn node(&self, line: usize, name: &str) -> Result<usize, ApplyEditError> {
        let unknown = || ApplyEditError::UnknownNode { line, name: name.to_owned() };
        self.node_ids.get(name).copied().ok_or_else(unknown)
    }

    fn net(&self, line: usize, name: &str) -> Result<usize, ApplyEditError> {
        let unknown = || ApplyEditError::UnknownNet { line, name: name.to_owned() };
        self.net_ids.get(name).copied().ok_or_else(unknown)
    }

    /// The name of net `e`.
    fn net_name(&self, e: usize) -> &'a str {
        let graph = self.graph;
        match e.checked_sub(graph.net_count()) {
            None => graph.net_name(NetId::from_index(e)),
            Some(added) => self.added_net_names[added],
        }
    }

    /// The current pins of net `e` (none once removed).
    fn pins(&self, e: usize) -> &[NodeId] {
        match self.nets[e] {
            NetPins::Input => self.graph.pins(NetId::from_index(e)),
            NetPins::Edited(i) => &self.edited[i],
            NetPins::Removed => &[],
        }
    }

    /// The pins of live net `e`, copied out of the input on first edit.
    fn edit(&mut self, e: usize) -> &mut Vec<NodeId> {
        let i = match self.nets[e] {
            NetPins::Edited(i) => i,
            NetPins::Input => {
                let input = self.graph.pins(NetId::from_index(e));
                let mut pins = Vec::with_capacity(input.len() + 1);
                pins.extend_from_slice(input);
                self.edited.push(pins);
                self.nets[e] = NetPins::Edited(self.edited.len() - 1);
                self.edited.len() - 1
            }
            NetPins::Removed => unreachable!("only live nets have ids"),
        };
        &mut self.edited[i]
    }

    /// Removes pin `v` from net `e`, removing the net when it is left
    /// pinless.
    fn drop_pin(&mut self, e: usize, v: usize) {
        let pins = self.edit(e);
        pins.retain(|p| p.index() != v);
        if pins.is_empty() {
            self.nets[e] = NetPins::Removed;
            self.net_ids.remove(self.net_name(e));
        }
    }

    fn apply(&mut self, line: usize, op: &'a EditOp) -> Result<(), ApplyEditError> {
        match op {
            EditOp::AddNode { name, size } => {
                if self.node_ids.contains_key(name.as_str()) {
                    return Err(ApplyEditError::DuplicateNode { line, name: name.clone() });
                }
                if *size == 0 {
                    return Err(ApplyEditError::ZeroSize { line, name: name.clone() });
                }
                self.node_ids.insert(name, self.node_alive.len());
                self.added_node_names.push(name);
                self.node_alive.push(true);
                self.node_sizes.push(*size);
                self.added_nodes += 1;
            }
            EditOp::RemoveNode { name } => {
                let v = self.node(line, name)?;
                let graph = self.graph;
                let input =
                    if v < graph.node_count() { graph.nets(NodeId::from_index(v)) } else { &[] };
                let joined = self.joined.remove(&v).unwrap_or_default();
                for e in input.iter().map(|e| e.index()).chain(joined) {
                    if self.pins(e).contains(&NodeId::from_index(v)) {
                        self.drop_pin(e, v);
                    }
                }
                self.node_alive[v] = false;
                self.node_ids.remove(name.as_str());
                if v < graph.node_count() {
                    self.removed_nodes += 1;
                } else {
                    self.added_nodes -= 1;
                }
            }
            EditOp::ResizeNode { name, size } => {
                let v = self.node(line, name)?;
                if *size == 0 {
                    return Err(ApplyEditError::ZeroSize { line, name: name.clone() });
                }
                self.node_sizes[v] = *size;
            }
            EditOp::AddNet { name, pins } => {
                if self.net_ids.contains_key(name.as_str()) {
                    return Err(ApplyEditError::DuplicateNet { line, name: name.clone() });
                }
                if pins.is_empty() {
                    return Err(ApplyEditError::EmptyNet { line, net: name.clone() });
                }
                let mut resolved = Vec::with_capacity(pins.len());
                for pin in pins {
                    let v = NodeId::from_index(self.node(line, pin)?);
                    if resolved.contains(&v) {
                        return Err(ApplyEditError::DuplicatePin {
                            line,
                            net: name.clone(),
                            node: pin.clone(),
                        });
                    }
                    resolved.push(v);
                }
                let e = self.nets.len();
                for v in &resolved {
                    self.joined.entry(v.index()).or_default().push(e);
                }
                self.net_ids.insert(name, e);
                self.nets.push(NetPins::Edited(self.edited.len()));
                self.edited.push(resolved);
                self.added_net_names.push(name);
            }
            EditOp::RemoveNet { name } => {
                let e = self.net(line, name)?;
                self.nets[e] = NetPins::Removed;
                self.net_ids.remove(name.as_str());
            }
            EditOp::ConnectPin { net, node } => {
                let e = self.net(line, net)?;
                let v = self.node(line, node)?;
                if self.pins(e).contains(&NodeId::from_index(v)) {
                    return Err(ApplyEditError::DuplicatePin {
                        line,
                        net: net.clone(),
                        node: node.clone(),
                    });
                }
                self.edit(e).push(NodeId::from_index(v));
                self.joined.entry(v).or_default().push(e);
            }
            EditOp::DisconnectPin { net, node } => {
                let e = self.net(line, net)?;
                let v = self.node(line, node)?;
                if !self.pins(e).contains(&NodeId::from_index(v)) {
                    return Err(ApplyEditError::MissingPin {
                        line,
                        net: net.clone(),
                        node: node.clone(),
                    });
                }
                self.drop_pin(e, v);
            }
        }
        Ok(())
    }

    /// Writes the edited graph: survivors in id order, then additions.
    /// Each untouched net copies its input pin run with remapped ids,
    /// terminals follow their nets, net by net, and each run of
    /// surviving input names is one slice copy out of the input's tables.
    fn write(mut self) -> EditApplied {
        fn kept<T>(items: Vec<T>, alive: &[bool]) -> Vec<T> {
            items
                .into_iter()
                .zip(alive)
                .filter_map(|(item, &alive)| alive.then_some(item))
                .collect()
        }
        let graph = self.graph;
        let (input_nodes, input_nets) = (graph.node_count(), graph.net_count());
        let mut new_ids = Vec::with_capacity(self.node_alive.len());
        let mut live = 0;
        for &alive in &self.node_alive {
            new_ids.push(alive.then(|| NodeId::from_index(live)));
            live += usize::from(alive);
        }
        let alive = &self.node_alive;
        let node_sizes = kept(std::mem::take(&mut self.node_sizes), alive);
        let survivors = (0..input_nodes).filter(|&v| alive[v]);
        let added = self.added_node_names.iter().zip(&alive[input_nodes..]);
        let added = added.filter_map(|(&name, &alive)| alive.then_some(name));
        let node_names = edited_names(&graph.node_names, survivors, added, live);

        let is_live = |e: &usize| !matches!(self.nets[*e], NetPins::Removed);
        let live_nets = (0..self.nets.len()).filter(is_live).count();
        let survivors = (0..input_nets).filter(is_live);
        let added = (input_nets..self.nets.len()).filter(is_live).map(|e| self.net_name(e));
        let net_names = edited_names(&graph.net_names, survivors, added, live_nets);
        let mut offsets = Vec::with_capacity(live_nets + 1);
        offsets.push(0u32);
        let edited_pins: usize = self.edited.iter().map(Vec::len).sum();
        let mut net_pins = Vec::with_capacity(graph.pin_count() + edited_pins);
        let pads = graph.terminal_count();
        let mut terminal_names = NameTable::with_capacity(pads, graph.terminal_names.text_len());
        let mut terminal_nets = Vec::with_capacity(pads);
        for e in (0..self.nets.len()).filter(is_live) {
            let id = NetId::from_index(offsets.len() - 1);
            let pins = self.pins(e).iter();
            net_pins.extend(pins.map(|p| new_ids[p.index()].expect("live nets pin live nodes")));
            offsets.push(net_pins.len() as u32);
            if e < input_nets {
                let pads = graph.net_terminals(NetId::from_index(e));
                terminal_names.extend_from(&graph.terminal_names, pads.iter().map(|t| t.index()));
                terminal_nets.extend(pads.iter().map(|_| id));
            }
        }

        new_ids.truncate(input_nodes);
        EditApplied {
            graph: Hypergraph::from_parts(
                graph.name().to_owned(),
                node_names,
                node_sizes,
                net_names,
                (offsets, net_pins),
                terminal_names,
                terminal_nets,
            ),
            node_map: new_ids,
            added_nodes: self.added_nodes,
            removed_nodes: self.removed_nodes,
        }
    }
}

/// The `count` names of an edited table: `input`'s names with ids
/// `kept`, in order, each run of consecutive ids one slice copy, then
/// `added`.
fn edited_names<'s>(
    input: &NameTable,
    kept: impl Iterator<Item = usize>,
    added: impl Iterator<Item = &'s str> + Clone,
    count: usize,
) -> NameTable {
    let added_bytes: usize = added.clone().map(str::len).sum();
    let mut names = NameTable::with_capacity(count, input.text_len() + added_bytes);
    names.extend_from(input, kept);
    for name in added {
        names.push(name);
    }
    names
}

/// Applies a script to a graph, producing the edited graph and the
/// old→new node mapping.
///
/// Removing a node disconnects it from every net; nets left with no
/// pins are removed too, together with their terminals (an empty net
/// has no meaning to any algorithm). Surviving nodes keep their
/// relative order and new nodes append after them, so the mapping is
/// monotonic on survivors. Nets follow the same rule, and a net's pins
/// keep their order, with a connected pin appended last. Terminals are
/// renumbered net by net, in net order.
///
/// The ops run against an overlay of the input that holds only what
/// they change, and the edited graph is written out in one pass over
/// the input's arrays: the cost is that of copying the graph, not of
/// building it.
///
/// # Errors
///
/// Returns [`ApplyEditError`] with the script line of the first
/// offending op; the input graph is never modified (it is immutable).
pub fn apply_script(
    graph: &Hypergraph,
    script: &EditScript,
) -> Result<EditApplied, ApplyEditError> {
    let mut overlay = Overlay::new(graph, script);
    for scripted in &script.ops {
        overlay.apply(scripted.line, &scripted.op)?;
    }
    Ok(overlay.write())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{window_circuit, WindowConfig};
    use crate::ids::TerminalId;
    use crate::HypergraphBuilder;
    use proptest::prelude::*;

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::named("s");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 1);
        let n0 = b.add_net("n0", [a, c]).unwrap();
        let _n1 = b.add_net("n1", [c, d]).unwrap();
        b.add_terminal("t0", n0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn jsonl_round_trip_preserves_every_op() {
        let script = EditScript::new(vec![
            EditOp::AddNode { name: "x".into(), size: 3 },
            EditOp::RemoveNode { name: "a".into() },
            EditOp::ResizeNode { name: "c".into(), size: 5 },
            EditOp::AddNet { name: "nx".into(), pins: vec!["x".into(), "c".into()] },
            EditOp::RemoveNet { name: "n1".into() },
            EditOp::ConnectPin { net: "n0".into(), node: "d".into() },
            EditOp::DisconnectPin { net: "n0".into(), node: "c".into() },
        ]);
        let text = script.to_jsonl();
        let parsed = EditScript::parse(&text).unwrap();
        assert_eq!(parsed, script);
        // Reader sees the same thing byte-wise.
        let read = EditScript::read(text.as_bytes()).unwrap();
        assert_eq!(read, script);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# a comment\n\n{\"op\": \"remove_node\", \"name\": \"a\"}\n";
        let script = EditScript::parse(text).unwrap();
        assert_eq!(script.len(), 1);
        assert_eq!(script.ops[0].line, 3);
    }

    #[test]
    fn apply_add_and_remove_produce_a_monotonic_map() {
        let g = sample();
        let script = EditScript::new(vec![
            EditOp::RemoveNode { name: "c".into() },
            EditOp::AddNode { name: "x".into(), size: 4 },
            EditOp::AddNet { name: "nx".into(), pins: vec!["x".into(), "d".into()] },
        ]);
        let applied = apply_script(&g, &script).unwrap();
        assert_eq!(applied.added_nodes, 1);
        assert_eq!(applied.removed_nodes, 1);
        // a and d survive; c is gone; x appends.
        assert_eq!(applied.node_map.len(), 3);
        assert_eq!(applied.node_map[0], Some(NodeId::from_index(0)));
        assert_eq!(applied.node_map[1], None);
        assert_eq!(applied.node_map[2], Some(NodeId::from_index(1)));
        assert_eq!(applied.graph.node_count(), 3);
        assert_eq!(applied.graph.node_name(NodeId::from_index(2)), "x");
        // n0 lost c but keeps a (and its terminal); n1 lost c and d
        // remains, so it survives as a one-pin net... no: n1 = {c, d},
        // removing c leaves {d}, which is non-empty, so n1 survives.
        assert_eq!(applied.graph.net_count(), 3);
        assert_eq!(applied.graph.terminal_count(), 1);
    }

    #[test]
    fn removing_the_last_pin_removes_the_net_and_terminals() {
        let g = sample();
        let script = EditScript::new(vec![
            EditOp::RemoveNode { name: "a".into() },
            EditOp::RemoveNode { name: "c".into() },
        ]);
        let applied = apply_script(&g, &script).unwrap();
        // n0 = {a, c} loses both pins -> removed with terminal t0;
        // n1 = {c, d} keeps d.
        assert_eq!(applied.graph.net_count(), 1);
        assert_eq!(applied.graph.terminal_count(), 0);
        assert_eq!(applied.graph.net_name(NetId::from_index(0)), "n1");
    }

    #[test]
    fn empty_script_rebuilds_an_identical_graph() {
        let g = sample();
        let applied = apply_script(&g, &EditScript::default()).unwrap();
        assert_eq!(applied.graph.node_count(), g.node_count());
        assert_eq!(applied.graph.net_count(), g.net_count());
        assert_eq!(applied.graph.terminal_count(), g.terminal_count());
        for v in g.node_ids() {
            assert_eq!(applied.node_map[v.index()], Some(v));
            assert_eq!(applied.graph.node_name(v), g.node_name(v));
            assert_eq!(applied.graph.node_size(v), g.node_size(v));
        }
        for e in g.net_ids() {
            assert_eq!(applied.graph.pins(e), g.pins(e));
        }
    }

    #[test]
    fn dangling_references_carry_the_script_line() {
        let g = sample();
        let script = EditScript::parse(
            "{\"op\": \"remove_node\", \"name\": \"a\"}\n{\"op\": \"remove_node\", \"name\": \"zz\"}\n",
        )
        .unwrap();
        let err = apply_script(&g, &script).unwrap_err();
        assert_eq!(err, ApplyEditError::UnknownNode { line: 2, name: "zz".into() });
    }

    #[test]
    fn connect_disconnect_round_trip() {
        let g = sample();
        let script = EditScript::new(vec![
            EditOp::ConnectPin { net: "n1".into(), node: "a".into() },
            EditOp::DisconnectPin { net: "n1".into(), node: "a".into() },
        ]);
        let applied = apply_script(&g, &script).unwrap();
        assert_eq!(applied.graph.pins(NetId::from_index(1)), g.pins(NetId::from_index(1)));
    }

    #[test]
    fn escapes_survive_the_round_trip() {
        let script = EditScript::new(vec![EditOp::AddNode { name: "a\"b\\c\nd".into(), size: 1 }]);
        let parsed = EditScript::parse(&script.to_jsonl()).unwrap();
        assert_eq!(parsed.ops[0].op, script.ops[0].op);
    }

    /// An independent model of a netlist under edit, the oracle for
    /// [`apply_script`]. It keeps the order `apply_script` documents:
    /// survivors keep their order, additions come last, and pins stay
    /// in insertion order. Removing a node drops its pins, and a net
    /// left pinless (by node removal or disconnect) goes too, pads and
    /// all. Names that left the netlist may come back.
    struct Model {
        /// Live nodes: name, size, and id in the input graph (`None`
        /// for a node the script added).
        nodes: Vec<(String, u32, Option<usize>)>,
        /// Live nets: name, pin names, pad names.
        nets: Vec<(String, Vec<String>, Vec<String>)>,
        /// Names of removed nodes and nets, free for a later add.
        dead_nodes: Vec<String>,
        dead_nets: Vec<String>,
        fresh: usize,
    }

    impl Model {
        fn of(graph: &Hypergraph) -> Model {
            let nodes = graph
                .node_ids()
                .map(|v| (graph.node_name(v).to_owned(), graph.node_size(v), Some(v.index())));
            let nets = graph.net_ids().map(|e| {
                let pins = graph.pins(e).iter().map(|&v| graph.node_name(v).to_owned());
                let pads =
                    graph.net_terminals(e).iter().map(|&t| graph.terminal_name(t).to_owned());
                (graph.net_name(e).to_owned(), pins.collect(), pads.collect())
            });
            Model {
                nodes: nodes.collect(),
                nets: nets.collect(),
                dead_nodes: Vec::new(),
                dead_nets: Vec::new(),
                fresh: 0,
            }
        }

        fn drop_node(&mut self, name: &str) {
            self.nodes.retain(|(n, ..)| n != name);
            self.dead_nodes.push(name.to_owned());
            for (_, pins, _) in &mut self.nets {
                pins.retain(|p| p != name);
            }
            let (emptied, live) = std::mem::take(&mut self.nets)
                .into_iter()
                .partition::<Vec<_>, _>(|(_, pins, _)| pins.is_empty());
            self.nets = live;
            self.dead_nets.extend(emptied.into_iter().map(|(name, ..)| name));
        }

        /// A name for an added node or net: a dead one when `reuse` and
        /// there is one, else a fresh one.
        fn name(dead: &mut Vec<String>, fresh: &mut usize, prefix: &str, reuse: usize) -> String {
            if dead.is_empty() || reuse % 2 == 1 {
                *fresh += 1;
                return format!("{prefix}{fresh}");
            }
            dead.swap_remove(reuse / 2 % dead.len())
        }

        /// The model's netlist, built independently of [`apply_script`]:
        /// nodes and nets in model order, pads net by net.
        fn build(&self, name: &str) -> Hypergraph {
            let mut builder = HypergraphBuilder::named(name);
            let mut ids = HashMap::new();
            for (name, size, _) in &self.nodes {
                ids.insert(name.as_str(), builder.add_node(name.clone(), *size));
            }
            for (name, pins, pads) in &self.nets {
                let e =
                    builder.add_net(name.clone(), pins.iter().map(|p| ids[p.as_str()])).unwrap();
                for pad in pads {
                    builder.add_terminal(pad.clone(), e).unwrap();
                }
            }
            builder.finish().unwrap()
        }
    }

    /// Turns raw proptest entropy into a valid edit script and the model
    /// of its result: each tuple is (op selector, two index seeds, a
    /// size), resolved against the model, so every op is valid by
    /// construction. Choices that cannot apply (e.g. disconnect on an
    /// empty graph) fall through to an always-valid `add_node`. Adds
    /// reuse removed names about half the time.
    fn materialize(graph: &Hypergraph, raw: &[(u8, u16, u16, u32)]) -> (EditScript, Model) {
        let mut model = Model::of(graph);
        let mut ops = Vec::new();
        for &(choice, a, b, size) in raw {
            let (a, b) = (usize::from(a), usize::from(b));
            let op = match choice {
                1 if model.nodes.len() > 2 => {
                    let name = model.nodes[a % model.nodes.len()].0.clone();
                    model.drop_node(&name);
                    EditOp::RemoveNode { name }
                }
                2 if !model.nodes.is_empty() => {
                    let index = a % model.nodes.len();
                    model.nodes[index].1 = size;
                    EditOp::ResizeNode { name: model.nodes[index].0.clone(), size }
                }
                3 if !model.nodes.is_empty() => {
                    // 1-3 distinct pins drawn from a window of the node list.
                    let want = 1 + b % 3;
                    let mut pins = Vec::new();
                    for k in 0..model.nodes.len().min(want) {
                        pins.push(model.nodes[(a + k) % model.nodes.len()].0.clone());
                    }
                    pins.sort();
                    let name = Model::name(&mut model.dead_nets, &mut model.fresh, "pnet", b / 3);
                    model.nets.push((name.clone(), pins.clone(), Vec::new()));
                    EditOp::AddNet { name, pins }
                }
                4 if !model.nets.is_empty() => {
                    let (name, ..) = model.nets.remove(a % model.nets.len());
                    model.dead_nets.push(name.clone());
                    EditOp::RemoveNet { name }
                }
                5 if !model.nets.is_empty() && !model.nodes.is_empty() => {
                    let node = model.nodes[b % model.nodes.len()].0.clone();
                    let index = a % model.nets.len();
                    let (net, pins, _) = &mut model.nets[index];
                    if pins.contains(&node) {
                        continue; // already a pin; connect would be refused
                    }
                    pins.push(node.clone());
                    EditOp::ConnectPin { net: net.clone(), node }
                }
                6 if !model.nets.is_empty() => {
                    let index = a % model.nets.len();
                    let (net, pins, _) = &mut model.nets[index];
                    let net = net.clone();
                    let node = pins.remove(b % pins.len());
                    if pins.is_empty() {
                        model.nets.remove(index);
                        model.dead_nets.push(net.clone());
                    }
                    EditOp::DisconnectPin { net, node }
                }
                _ => {
                    let name = Model::name(&mut model.dead_nodes, &mut model.fresh, "pnode", b);
                    model.nodes.push((name.clone(), size, None));
                    EditOp::AddNode { name, size }
                }
            };
            ops.push(op);
        }
        (EditScript::new(ops), model)
    }

    /// `graph` with its pads re-added in reverse id order, plus a second
    /// pad on every third net, so terminal ids do not follow net order.
    fn scramble_pads(graph: &Hypergraph) -> Hypergraph {
        let mut builder = HypergraphBuilder::named(graph.name());
        for v in graph.node_ids() {
            builder.add_node(graph.node_name(v), graph.node_size(v));
        }
        for e in graph.net_ids() {
            builder.add_net(graph.net_name(e), graph.pins(e).iter().copied()).unwrap();
        }
        for t in (0..graph.terminal_count()).rev().map(TerminalId::from_index) {
            builder.add_terminal(graph.terminal_name(t), graph.terminal_net(t)).unwrap();
        }
        for e in (0..graph.net_count()).rev().step_by(3).map(NetId::from_index) {
            builder.add_terminal(format!("xp{}", e.index()), e).unwrap();
        }
        builder.finish().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any valid script yields the model's netlist, written out
        /// byte for byte the same (nodes and sizes, nets with their
        /// pins, pads in id order), with the same net list at every
        /// node, node map and add/remove counts.
        #[test]
        fn apply_script_matches_an_independent_model(
            nodes in 15usize..60,
            seed in 0u64..400,
            raw in proptest::collection::vec(
                (0u8..7, any::<u16>(), any::<u16>(), 1u32..9),
                0..32,
            ),
        ) {
            let graph = scramble_pads(&window_circuit(&WindowConfig::new("fpedit", nodes, 6), seed));
            let (script, model) = materialize(&graph, &raw);
            let applied = apply_script(&graph, &script).expect("materialize only emits valid ops");
            let edited = &applied.graph;

            let want = model.build(graph.name());
            prop_assert_eq!(crate::io::netlist_to_string(edited), crate::io::netlist_to_string(&want));
            for v in want.node_ids() {
                prop_assert_eq!(edited.nets(v), want.nets(v));
            }

            let mut node_map = vec![None; graph.node_count()];
            for (id, (_, _, old)) in model.nodes.iter().enumerate() {
                if let Some(old) = *old {
                    node_map[old] = Some(NodeId::from_index(id));
                }
            }
            prop_assert_eq!(&applied.node_map, &node_map);
            let added = model.nodes.iter().filter(|(_, _, old)| old.is_none()).count();
            let survivors = model.nodes.len() - added;
            prop_assert_eq!(
                (applied.added_nodes, applied.removed_nodes),
                (added, graph.node_count() - survivors)
            );
        }
    }
}

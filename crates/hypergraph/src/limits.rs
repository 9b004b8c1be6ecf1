//! Resource limits for untrusted netlist and edit-script input.
//!
//! The ROADMAP's daemon scale tier means the parsers must survive
//! hostile input: a forged hMETIS header like `1 99999999999` would
//! otherwise pre-allocate a hundred gigabytes of nodes before a single
//! record is validated, and an unbounded line or name can balloon the
//! name tables. [`ParseLimits`] bounds everything a reader allocates in
//! proportion to, *before* the allocation happens; every violation is a
//! typed error with exact line/column context
//! ([`crate::ParseNetlistError::LimitExceeded`] /
//! [`crate::edit::ParseEditError::LimitExceeded`]), never a panic or an
//! OOM kill.
//!
//! Each reader has a `*_limited` entry point taking a `&ParseLimits`;
//! the plain entry points delegate with [`ParseLimits::default`], so
//! even code that never heard of limits gets the sane defaults. Trusted
//! callers (in-process generators, tests of the parsers themselves) can
//! opt out with [`ParseLimits::unlimited`].

use std::io::{BufRead, BufReader, ErrorKind, Read};

use crate::error::ParseNetlistError;

/// Hard caps applied while parsing netlists (`.fhg`, `.hgr`, BLIF) and
/// edit scripts. All counts are totals per document; lengths are in
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum interior nodes a document may declare (hMETIS headers are
    /// checked *before* the node table is allocated).
    pub max_nodes: usize,
    /// Maximum nets/hyperedges a document may declare.
    pub max_nets: usize,
    /// Maximum total pins (net–node connections) across every net.
    pub max_pins: usize,
    /// Maximum length of one node/net/terminal name, in bytes.
    pub max_name_len: usize,
    /// Maximum length of one input line, in bytes.
    pub max_line_len: usize,
}

impl Default for ParseLimits {
    /// Defaults sized for the ROADMAP's million-cell tier with an order
    /// of magnitude of headroom: 10 M nodes/nets, 200 M pins, 1 KiB
    /// names, 1 MiB lines. A document within these bounds costs at most
    /// a few gigabytes fully built; anything larger must be requested
    /// explicitly (`--max-*` in the CLI).
    fn default() -> Self {
        ParseLimits {
            max_nodes: 10_000_000,
            max_nets: 10_000_000,
            max_pins: 200_000_000,
            max_name_len: 1024,
            max_line_len: 1 << 20,
        }
    }
}

impl ParseLimits {
    /// No limits at all (every cap at `usize::MAX`). For trusted
    /// in-process input only.
    #[must_use]
    pub fn unlimited() -> Self {
        ParseLimits {
            max_nodes: usize::MAX,
            max_nets: usize::MAX,
            max_pins: usize::MAX,
            max_name_len: usize::MAX,
            max_line_len: usize::MAX,
        }
    }

    /// Checks a name token (at 1-based `column`) against `max_name_len`.
    pub(crate) fn check_name(
        &self,
        line_no: usize,
        column: usize,
        name: &str,
    ) -> Result<(), ParseNetlistError> {
        if name.len() > self.max_name_len {
            return Err(ParseNetlistError::LimitExceeded {
                line: line_no,
                column,
                what: "name length",
                limit: self.max_name_len,
            });
        }
        Ok(())
    }
}

/// Reads the lines of a netlist through one reused buffer, refusing a
/// line longer than [`ParseLimits::max_line_len`] as soon as it passes
/// the limit, before the rest of it is read. It yields the lines
/// `BufRead::lines` yields: the newline is stripped, and a `\r` only
/// where it precedes the newline. A read error or a line that is not
/// UTF-8 is [`ParseNetlistError::NotUtf8`]; a line both too long and
/// not UTF-8 is refused as too long.
pub(crate) struct LineReader<R> {
    reader: BufReader<R>,
    buf: Vec<u8>,
    line_no: usize,
    max_len: usize,
}

impl<R: Read> LineReader<R> {
    pub(crate) fn new(reader: R, limits: &ParseLimits) -> Self {
        LineReader {
            reader: BufReader::new(reader),
            buf: Vec::new(),
            line_no: 0,
            max_len: limits.max_line_len,
        }
    }

    /// The next line and its 1-based number, or `None` at the end of
    /// the input.
    pub(crate) fn next_line(&mut self) -> Result<Option<(usize, &str)>, ParseNetlistError> {
        let line = self.line_no + 1;
        let too_long = ParseNetlistError::LimitExceeded {
            line,
            column: self.max_len.saturating_add(1),
            what: "line length",
            limit: self.max_len,
        };
        // One byte past the limit may still be a `\r` before the newline.
        let cap = self.max_len.saturating_add(1);
        self.buf.clear();
        let mut newline = false;
        while !newline {
            let chunk = match self.reader.fill_buf() {
                Ok([]) => break,
                Ok(chunk) => chunk,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(ParseNetlistError::NotUtf8 { line }),
            };
            let take = match chunk.iter().position(|&b| b == b'\n') {
                Some(at) => {
                    newline = true;
                    at
                }
                None => chunk.len(),
            };
            if self.buf.len() + take > cap {
                return Err(too_long);
            }
            self.buf.extend_from_slice(&chunk[..take]);
            self.reader.consume(take + usize::from(newline));
        }
        if !newline && self.buf.is_empty() {
            return Ok(None);
        }
        self.line_no = line;
        if newline && self.buf.last() == Some(&b'\r') {
            self.buf.pop();
        }
        if self.buf.len() > self.max_len {
            return Err(too_long);
        }
        match std::str::from_utf8(&self.buf) {
            Ok(text) => Ok(Some((line, text))),
            Err(_) => Err(ParseNetlistError::NotUtf8 { line }),
        }
    }
}

/// Whitespace-separated fields of `line`, each with the 1-based column
/// (counted in characters, matching what an editor displays) where the
/// field starts. Shared by every reader that reports column-exact
/// errors.
pub(crate) fn fields_with_columns(line: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut column = 0usize;
    let mut start: Option<(usize, usize)> = None; // (column, byte offset)
    for (byte, ch) in line.char_indices() {
        column += 1;
        if ch.is_whitespace() {
            if let Some((col, at)) = start.take() {
                out.push((col, &line[at..byte]));
            }
        } else if start.is_none() {
            start = Some((column, byte));
        }
    }
    if let Some((col, at)) = start {
        out.push((col, &line[at..]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_and_unlimited_is_unbounded() {
        let d = ParseLimits::default();
        assert!(d.max_nodes >= 1_000_000);
        assert!(d.max_name_len >= 64);
        let u = ParseLimits::unlimited();
        assert_eq!(u.max_pins, usize::MAX);
    }

    /// Every line `BufRead::lines` yields, read through a `LineReader`.
    fn read_all(text: &[u8], limits: &ParseLimits) -> Result<Vec<String>, ParseNetlistError> {
        let mut reader = LineReader::new(text, limits);
        let mut lines = Vec::new();
        while let Some((no, line)) = reader.next_line()? {
            assert_eq!(no, lines.len() + 1);
            lines.push(line.to_owned());
        }
        Ok(lines)
    }

    #[test]
    fn line_check_reports_limit_and_column() {
        let limits = ParseLimits { max_line_len: 8, ..ParseLimits::default() };
        assert_eq!(read_all(b"short\n12345678\r\n", &limits).unwrap(), ["short", "12345678"]);
        let err = read_all(b"a\nb\n123456789\nc\n", &limits).unwrap_err();
        assert_eq!(
            err,
            ParseNetlistError::LimitExceeded { line: 3, column: 9, what: "line length", limit: 8 }
        );
        // A `\r` that ends the input precedes no newline, so it counts.
        let err = read_all(b"12345678\r", &limits).unwrap_err();
        assert!(matches!(err, ParseNetlistError::LimitExceeded { line: 1, .. }));
    }

    #[test]
    fn line_reader_yields_what_lines_yields() {
        use std::io::BufRead as _;
        let unlimited = ParseLimits::unlimited();
        for text in [
            &b""[..],
            b"\n",
            b"a",
            b"a\n",
            b"a\r\nb\r",
            b"\r\n\r\r\n\n x \r y\r\n",
            b"no newline at the end\r",
        ] {
            let expected: Vec<String> = text.lines().map(Result::unwrap).collect();
            assert_eq!(read_all(text, &unlimited).unwrap(), expected, "{text:?}");
        }
        let err = read_all(b"ok\nnet n \xff\n", &unlimited).unwrap_err();
        assert_eq!(err, ParseNetlistError::NotUtf8 { line: 2 });
    }

    #[test]
    fn name_check_reports_column_of_the_name() {
        let limits = ParseLimits { max_name_len: 4, ..ParseLimits::default() };
        let err = limits.check_name(2, 6, "toolong").unwrap_err();
        assert!(matches!(
            err,
            ParseNetlistError::LimitExceeded { line: 2, column: 6, what: "name length", .. }
        ));
    }

    #[test]
    fn fields_with_columns_counts_characters() {
        let fields = fields_with_columns("  ab  cd");
        assert_eq!(fields, vec![(3, "ab"), (7, "cd")]);
    }
}

//! Table-driven corpus of malformed netlist files.
//!
//! Every entry is a small hostile input — truncated, inconsistent, or
//! plain binary garbage — paired with the *exact* error the parser must
//! produce. The point is that error locations (line, column) and
//! variants are part of the format contract: the CLI prints them
//! verbatim to users, so a refactor that shifts a line number or
//! collapses variants is a regression, not a cosmetic change.

use std::io::Read;

use fpart_hypergraph::blif::{parse_blif, read_blif, read_blif_limited};
use fpart_hypergraph::hmetis::{parse_hmetis, read_hmetis, read_hmetis_limited};
use fpart_hypergraph::io::{parse_netlist, read_netlist, read_netlist_limited};
use fpart_hypergraph::{
    BuildError, EditScript, Hypergraph, ParseEditError, ParseLimits, ParseNetlistError,
};

/// One corpus entry: a name (for failure messages), the raw input, and
/// the expected rejection.
struct Case {
    name: &'static str,
    parse: fn(&str) -> Result<(), ParseNetlistError>,
    input: &'static str,
    expected: ParseNetlistError,
}

fn hgr(input: &str) -> Result<(), ParseNetlistError> {
    parse_hmetis(input).map(|_| ())
}

fn fhg(input: &str) -> Result<(), ParseNetlistError> {
    parse_netlist(input).map(|_| ())
}

fn blif(input: &str) -> Result<(), ParseNetlistError> {
    parse_blif(input).map(|_| ())
}

fn corpus() -> Vec<Case> {
    vec![
        // --- hMETIS .hgr ---
        Case {
            name: "hgr: empty file",
            parse: hgr,
            input: "",
            expected: ParseNetlistError::UnexpectedEnd {
                line: 1,
                expected: "hMETIS header `<edges> <vertices> [fmt]`",
            },
        },
        Case {
            name: "hgr: comments only",
            parse: hgr,
            input: "% nothing\n% here\n",
            expected: ParseNetlistError::UnexpectedEnd {
                line: 2,
                expected: "hMETIS header `<edges> <vertices> [fmt]`",
            },
        },
        Case {
            name: "hgr: truncated header",
            parse: hgr,
            input: "3\n",
            expected: ParseNetlistError::MalformedRecord { line: 1, expected: "vertex count" },
        },
        Case {
            name: "hgr: non-numeric edge count",
            parse: hgr,
            input: "many 4\n1 2\n",
            expected: ParseNetlistError::InvalidToken {
                line: 1,
                column: 1,
                expected: "hyperedge count",
                found: "many".into(),
            },
        },
        Case {
            name: "hgr: unsupported fmt",
            parse: hgr,
            input: "1 2 99\n1 2\n",
            expected: ParseNetlistError::InvalidToken {
                line: 1,
                column: 5,
                expected: "fmt of 0, 1, 10, or 11",
                found: "99".into(),
            },
        },
        Case {
            name: "hgr: fewer edge lines than the header promises",
            parse: hgr,
            input: "% tiny\n2 3\n1 2\n",
            expected: ParseNetlistError::UnexpectedEnd {
                line: 3,
                expected: "one line per hyperedge",
            },
        },
        Case {
            name: "hgr: more edge lines than the header promises",
            parse: hgr,
            input: "1 3\n1 2\n2 3\n",
            expected: ParseNetlistError::MalformedRecord {
                line: 3,
                expected: "end of file after the last record",
            },
        },
        Case {
            name: "hgr: pin index past the vertex count",
            parse: hgr,
            input: "1 3\n1 7\n",
            expected: ParseNetlistError::UnknownName { line: 2, name: "7".into() },
        },
        Case {
            name: "hgr: pin index zero (format is 1-based)",
            parse: hgr,
            input: "1 3\n0 2\n",
            expected: ParseNetlistError::UnknownName { line: 2, name: "0".into() },
        },
        Case {
            name: "hgr: non-numeric pin with column",
            parse: hgr,
            input: "1 3\n1 2 vx\n",
            expected: ParseNetlistError::InvalidToken {
                line: 2,
                column: 5,
                expected: "1-based vertex index",
                found: "vx".into(),
            },
        },
        Case {
            name: "hgr: missing vertex weight lines (fmt 10)",
            parse: hgr,
            input: "1 2 10\n1 2\n3\n",
            expected: ParseNetlistError::UnexpectedEnd {
                line: 3,
                expected: "one weight line per vertex",
            },
        },
        Case {
            name: "hgr: zero vertex weight fails validation",
            parse: hgr,
            input: "1 2 10\n1 2\n1\n0\n",
            expected: ParseNetlistError::Build(BuildError::ZeroSizeNode { node: "v2".into() }),
        },
        Case {
            name: "hgr: empty net (no pins under fmt 1)",
            parse: hgr,
            input: "1 2 1\n5\n",
            expected: ParseNetlistError::Build(BuildError::EmptyNet { net: "e0".into() }),
        },
        // --- .fhg ---
        Case {
            name: "fhg: unknown record keyword",
            parse: fhg,
            input: "circuit c\nwire w a b\n",
            expected: ParseNetlistError::UnknownRecord { line: 2, keyword: "wire".into() },
        },
        Case {
            name: "fhg: node without a size",
            parse: fhg,
            input: "circuit c\nnode a\n",
            expected: ParseNetlistError::MalformedRecord {
                line: 2,
                expected: "`node <name> <size>`",
            },
        },
        Case {
            name: "fhg: net referencing an undeclared cell",
            parse: fhg,
            input: "node a 1\nnet n1 a ghost\n",
            expected: ParseNetlistError::UnknownName { line: 2, name: "ghost".into() },
        },
        Case {
            name: "fhg: duplicate cell name",
            parse: fhg,
            input: "node a 1\nnode a 2\nnet n a\n",
            expected: ParseNetlistError::Build(BuildError::DuplicateName { name: "a".into() }),
        },
        Case {
            name: "fhg: zero-size cell",
            parse: fhg,
            input: "node a 0\nnet n a\n",
            expected: ParseNetlistError::Build(BuildError::ZeroSizeNode { node: "a".into() }),
        },
        Case {
            name: "fhg: terminal on an undeclared net",
            parse: fhg,
            input: "node a 1\nnet n a\nterminal p ghost\n",
            expected: ParseNetlistError::UnknownName { line: 3, name: "ghost".into() },
        },
        // --- BLIF ---
        Case {
            name: "blif: unsupported construct",
            parse: blif,
            input: ".model c\n.subckt foo a=b\n.end\n",
            expected: ParseNetlistError::UnknownRecord { line: 2, keyword: ".subckt".into() },
        },
        Case {
            name: "blif: bare .names without signals",
            parse: blif,
            input: ".model c\n.names\n.end\n",
            expected: ParseNetlistError::MalformedRecord {
                line: 2,
                expected: ".names <inputs…> <output>",
            },
        },
        Case {
            name: "blif: .latch missing its output",
            parse: blif,
            input: ".model c\n.latch d\n.end\n",
            expected: ParseNetlistError::MalformedRecord {
                line: 2,
                expected: ".latch <input> <output> [type control] [init]",
            },
        },
    ]
}

#[test]
fn corpus_is_rejected_with_exact_errors() {
    let corpus = corpus();
    assert!(corpus.len() >= 15, "corpus should stay comprehensive");
    for case in &corpus {
        match (case.parse)(case.input) {
            Ok(()) => panic!("{}: parser accepted malformed input", case.name),
            Err(err) => assert_eq!(err, case.expected, "{}", case.name),
        }
    }
}

/// Non-UTF8 inputs can't be expressed as `&str` cases; cover the byte
/// paths directly for both line-oriented readers.
#[test]
fn non_utf8_bytes_are_a_typed_error_with_a_line_number() {
    let err = read_hmetis(&b"1 2\n\xc3\x28 1\n"[..]).unwrap_err();
    assert_eq!(err, ParseNetlistError::NotUtf8 { line: 2 });

    let err = read_netlist(&b"node a 1\nnet n \xff\n"[..]).unwrap_err();
    assert_eq!(err, ParseNetlistError::NotUtf8 { line: 2 });

    let err = read_blif(&b".model c\n.inputs \x80\n.end\n"[..]).unwrap_err();
    assert_eq!(err, ParseNetlistError::NotUtf8 { line: 2 });
}

/// Every corpus error message renders with location context and no
/// debug formatting — these strings reach CLI users verbatim.
#[test]
fn corpus_errors_display_with_location_context() {
    for case in &corpus() {
        let err = (case.parse)(case.input).unwrap_err();
        let text = err.to_string();
        match err {
            ParseNetlistError::Build(_) => {
                assert!(text.starts_with("netlist validation failed:"), "{}: {text}", case.name);
            }
            _ => assert!(text.starts_with("line "), "{}: {text}", case.name),
        }
        assert!(!text.contains("Error"), "{}: looks like debug output: {text}", case.name);
    }
}

/// A source of `left` bytes with no newline among them, counting the
/// bytes it has served.
struct Newlineless {
    left: usize,
    served: usize,
}

impl Read for Newlineless {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.left);
        buf[..n].fill(b'x');
        self.left -= n;
        self.served += n;
        Ok(n)
    }
}

/// A line longer than `max_line_len` is refused once it passes the
/// limit, not after the whole of it has been read into memory: each
/// reader stops a 64 MiB line with no newline within its first MiB.
#[test]
fn an_endless_line_is_refused_before_it_is_read() {
    type Reader = fn(&mut Newlineless, &ParseLimits) -> Result<Hypergraph, ParseNetlistError>;
    let readers: [(&str, Reader); 3] = [
        (".fhg", |r, l| read_netlist_limited(r, l)),
        ("hMETIS", |r, l| read_hmetis_limited(r, l)),
        ("BLIF", |r, l| read_blif_limited(r, l)),
    ];
    let limits = ParseLimits { max_line_len: 16, ..ParseLimits::default() };
    let refused =
        ParseNetlistError::LimitExceeded { line: 1, column: 17, what: "line length", limit: 16 };
    for (format, read) in readers {
        let mut source = Newlineless { left: 64 << 20, served: 0 };
        assert_eq!(read(&mut source, &limits).unwrap_err(), refused, "{format}");
        assert!(
            source.served < 1 << 20,
            "the {format} reader read {} bytes of a line it refuses at 16",
            source.served
        );
    }
}

/// The edit-script reader stops an endless line the same way, whether
/// it reads a stream or parses text.
#[test]
fn an_endless_edit_line_is_refused_before_it_is_read() {
    let limits = ParseLimits { max_line_len: 16, ..ParseLimits::default() };
    let refused =
        ParseEditError::LimitExceeded { line: 1, column: 17, what: "line length", limit: 16 };
    let mut source = Newlineless { left: 64 << 20, served: 0 };
    assert_eq!(EditScript::read_limited(&mut source, &limits).unwrap_err(), refused);
    assert!(
        source.served < 1 << 20,
        "the edit-script reader read {} bytes of a line it refuses at 16",
        source.served
    );
    let text = "x".repeat(64);
    assert_eq!(EditScript::parse_limited(&text, &limits).unwrap_err(), refused);
}

//! Table-driven corpus of malformed edit scripts.
//!
//! Mirrors `parser_robustness.rs`: every entry is a hostile input —
//! unknown ops, dangling references, duplicate adds, truncated lines,
//! non-UTF-8 bytes — paired with the *exact* typed error the edit-script
//! machinery must produce. Error locations (line, column) are part of
//! the format contract: the CLI prints them verbatim, so a refactor that
//! shifts a line number is a regression, not a cosmetic change.

use fpart_hypergraph::{
    apply_script, ApplyEditError, EditScript, Hypergraph, HypergraphBuilder, ParseEditError,
};

/// One parse-corpus entry: a name (for failure messages), the raw
/// input, and the expected rejection.
struct ParseCase {
    name: &'static str,
    input: &'static str,
    expected: ParseEditError,
}

fn parse_corpus() -> Vec<ParseCase> {
    vec![
        ParseCase {
            name: "not an object at all",
            input: "not json\n",
            expected: ParseEditError::InvalidToken {
                line: 1,
                column: 1,
                expected: "`{` opening the operation object",
                found: "not".into(),
            },
        },
        ParseCase {
            name: "unknown op name",
            input: "{\"op\": \"explode\", \"name\": \"x\"}\n",
            expected: ParseEditError::UnknownOp { line: 1, column: 2, op: "explode".into() },
        },
        ParseCase {
            name: "add_node without size",
            input: "{\"op\": \"add_node\", \"name\": \"x\"}\n",
            expected: ParseEditError::MissingField {
                line: 1,
                op: "add_node".into(),
                field: "size",
            },
        },
        ParseCase {
            name: "add_node without name",
            input: "{\"op\": \"add_node\", \"size\": 2}\n",
            expected: ParseEditError::MissingField {
                line: 1,
                op: "add_node".into(),
                field: "name",
            },
        },
        ParseCase {
            name: "no op field",
            input: "{\"name\": \"x\", \"size\": 2}\n",
            expected: ParseEditError::MissingField { line: 1, op: "?".into(), field: "op" },
        },
        ParseCase {
            name: "size is not a number",
            input: "{\"op\": \"add_node\", \"name\": \"x\", \"size\": \"two\"}\n",
            expected: ParseEditError::InvalidToken {
                line: 1,
                column: 41,
                expected: "an unsigned size",
                found: "\"two\"".into(),
            },
        },
        ParseCase {
            name: "field foreign to the op",
            input: "{\"op\": \"remove_node\", \"name\": \"x\", \"size\": 2}\n",
            expected: ParseEditError::UnknownField { line: 1, column: 36, field: "size".into() },
        },
        ParseCase {
            name: "duplicate field",
            input: "{\"op\": \"remove_net\", \"name\": \"a\", \"name\": \"b\"}\n",
            expected: ParseEditError::UnknownField { line: 1, column: 35, field: "name".into() },
        },
        ParseCase {
            name: "field no op knows",
            input: "{\"op\": \"add_node\", \"weight\": 2}\n",
            expected: ParseEditError::UnknownField { line: 1, column: 20, field: "weight".into() },
        },
        ParseCase {
            name: "truncated pin list",
            input: "{\"op\": \"add_net\", \"name\": \"n\", \"pins\": [\"a\", \"b\"\n",
            expected: ParseEditError::UnexpectedEnd {
                line: 1,
                expected: "`]` closing the pin list",
            },
        },
        ParseCase {
            name: "truncated string",
            input: "{\"op\": \"remove_node\", \"name\": \"x\n",
            expected: ParseEditError::UnexpectedEnd { line: 1, expected: "closing `\"`" },
        },
        ParseCase {
            name: "truncated object",
            input: "{\"op\": \"remove_node\", \"name\": \"x\"\n",
            expected: ParseEditError::UnexpectedEnd {
                line: 1,
                expected: "`}` closing the operation object",
            },
        },
        ParseCase {
            name: "trailing junk after the object",
            input: "{\"op\": \"remove_node\", \"name\": \"x\"} extra\n",
            expected: ParseEditError::InvalidToken {
                line: 1,
                column: 36,
                expected: "end of line after the operation object",
                found: "e".into(),
            },
        },
        ParseCase {
            name: "missing colon",
            input: "{\"op\" \"add_node\"}\n",
            expected: ParseEditError::InvalidToken {
                line: 1,
                column: 7,
                expected: "`:` after the field name",
                found: "\"add_node\"".into(),
            },
        },
        ParseCase {
            name: "bad string escape",
            input: "{\"op\": \"remove_node\", \"name\": \"a\\qb\"}\n",
            expected: ParseEditError::InvalidToken {
                line: 1,
                column: 33,
                expected: "string escape",
                found: "\\q".into(),
            },
        },
        ParseCase {
            name: "error location past comments and blanks",
            input: "# eco spin 7\n\n{\"op\": \"grow\", \"name\": \"x\"}\n",
            expected: ParseEditError::UnknownOp { line: 3, column: 2, op: "grow".into() },
        },
    ]
}

#[test]
fn every_malformed_script_is_rejected_with_an_exact_location() {
    for case in parse_corpus() {
        let got = EditScript::parse(case.input).expect_err(case.name);
        assert_eq!(got, case.expected, "case `{}`", case.name);
        // The same input through the byte reader hits the same error.
        let via_read = EditScript::read(case.input.as_bytes()).expect_err(case.name);
        assert_eq!(via_read, case.expected, "case `{}` via read", case.name);
    }
}

#[test]
fn non_utf8_bytes_name_the_line() {
    let bytes: &[u8] = b"{\"op\": \"remove_node\", \"name\": \"x\"}\n\xff\xfe\n";
    let err = EditScript::read(bytes).unwrap_err();
    assert_eq!(err, ParseEditError::NotUtf8 { line: 2 });
    // Non-UTF-8 on the first line too.
    let err = EditScript::read(&b"\xc3\x28\n"[..]).unwrap_err();
    assert_eq!(err, ParseEditError::NotUtf8 { line: 1 });
}

#[test]
fn parse_errors_render_with_line_and_column() {
    let err = EditScript::parse("{\"op\": \"explode\", \"name\": \"x\"}\n").unwrap_err();
    assert_eq!(err.to_string(), "line 1, column 2: unknown edit operation `explode`");
    let err = EditScript::parse("nope\n").unwrap_err();
    assert_eq!(
        err.to_string(),
        "line 1, column 1: expected `{` opening the operation object, found `nope`"
    );
}

/// Fixture for apply errors: nodes a, b, c; nets n0 = {a, b} (with a
/// terminal), n1 = {b, c}.
fn fixture() -> Hypergraph {
    let mut builder = HypergraphBuilder::named("fix");
    let a = builder.add_node("a", 1);
    let b = builder.add_node("b", 1);
    let c = builder.add_node("c", 1);
    let n0 = builder.add_net("n0", [a, b]).unwrap();
    builder.add_net("n1", [b, c]).unwrap();
    builder.add_terminal("t0", n0).unwrap();
    builder.finish().unwrap()
}

/// One apply-corpus entry: the script (JSONL text) and the expected
/// typed rejection, which must carry the script line of the bad op.
struct ApplyCase {
    name: &'static str,
    script: &'static str,
    expected: ApplyEditError,
}

fn apply_corpus() -> Vec<ApplyCase> {
    vec![
        ApplyCase {
            name: "remove of a node that never existed",
            script: "{\"op\": \"remove_node\", \"name\": \"zz\"}\n",
            expected: ApplyEditError::UnknownNode { line: 1, name: "zz".into() },
        },
        ApplyCase {
            name: "dangling node after an earlier removal",
            script: "{\"op\": \"remove_node\", \"name\": \"a\"}\n\
                     {\"op\": \"resize_node\", \"name\": \"a\", \"size\": 2}\n",
            expected: ApplyEditError::UnknownNode { line: 2, name: "a".into() },
        },
        ApplyCase {
            name: "dangling net",
            script: "{\"op\": \"connect_pin\", \"net\": \"nope\", \"node\": \"a\"}\n",
            expected: ApplyEditError::UnknownNet { line: 1, name: "nope".into() },
        },
        ApplyCase {
            name: "duplicate node add",
            script: "{\"op\": \"add_node\", \"name\": \"a\", \"size\": 1}\n",
            expected: ApplyEditError::DuplicateNode { line: 1, name: "a".into() },
        },
        ApplyCase {
            name: "duplicate net add",
            script: "{\"op\": \"add_net\", \"name\": \"n0\", \"pins\": [\"a\"]}\n",
            expected: ApplyEditError::DuplicateNet { line: 1, name: "n0".into() },
        },
        ApplyCase {
            name: "connecting an existing pin",
            script: "{\"op\": \"connect_pin\", \"net\": \"n0\", \"node\": \"a\"}\n",
            expected: ApplyEditError::DuplicatePin { line: 1, net: "n0".into(), node: "a".into() },
        },
        ApplyCase {
            name: "duplicate pin inside add_net",
            script: "{\"op\": \"add_net\", \"name\": \"nx\", \"pins\": [\"a\", \"a\"]}\n",
            expected: ApplyEditError::DuplicatePin { line: 1, net: "nx".into(), node: "a".into() },
        },
        ApplyCase {
            name: "disconnecting a pin the net does not have",
            script: "{\"op\": \"disconnect_pin\", \"net\": \"n0\", \"node\": \"c\"}\n",
            expected: ApplyEditError::MissingPin { line: 1, net: "n0".into(), node: "c".into() },
        },
        ApplyCase {
            name: "empty pin list",
            script: "{\"op\": \"add_net\", \"name\": \"nx\", \"pins\": []}\n",
            expected: ApplyEditError::EmptyNet { line: 1, net: "nx".into() },
        },
        ApplyCase {
            name: "zero-size add",
            script: "{\"op\": \"add_node\", \"name\": \"x\", \"size\": 0}\n",
            expected: ApplyEditError::ZeroSize { line: 1, name: "x".into() },
        },
        ApplyCase {
            name: "zero-size resize",
            script: "{\"op\": \"resize_node\", \"name\": \"a\", \"size\": 0}\n",
            expected: ApplyEditError::ZeroSize { line: 1, name: "a".into() },
        },
        // The script's own earlier ops decide the cases below: each name
        // resolves in the input, but no longer by the offending line.
        ApplyCase {
            name: "connecting to a net that node removals emptied",
            script: "{\"op\": \"remove_node\", \"name\": \"a\"}\n\
                     {\"op\": \"remove_node\", \"name\": \"b\"}\n\
                     {\"op\": \"connect_pin\", \"net\": \"n0\", \"node\": \"c\"}\n",
            expected: ApplyEditError::UnknownNet { line: 3, name: "n0".into() },
        },
        ApplyCase {
            name: "adding a node the script itself added",
            script: "{\"op\": \"add_node\", \"name\": \"x\", \"size\": 1}\n\
                     {\"op\": \"add_node\", \"name\": \"x\", \"size\": 2}\n",
            expected: ApplyEditError::DuplicateNode { line: 2, name: "x".into() },
        },
        ApplyCase {
            name: "disconnecting from a removed net",
            script: "{\"op\": \"remove_net\", \"name\": \"n1\"}\n\
                     {\"op\": \"disconnect_pin\", \"net\": \"n1\", \"node\": \"b\"}\n",
            expected: ApplyEditError::UnknownNet { line: 2, name: "n1".into() },
        },
        ApplyCase {
            name: "disconnecting a removed node from a surviving net",
            script: "{\"op\": \"remove_node\", \"name\": \"b\"}\n\
                     {\"op\": \"disconnect_pin\", \"net\": \"n0\", \"node\": \"b\"}\n",
            expected: ApplyEditError::UnknownNode { line: 2, name: "b".into() },
        },
    ]
}

#[test]
fn every_bad_apply_is_rejected_with_the_script_line() {
    let graph = fixture();
    for case in apply_corpus() {
        let script = EditScript::parse(case.script).expect(case.name);
        let got = apply_script(&graph, &script).expect_err(case.name);
        assert_eq!(got, case.expected, "case `{}`", case.name);
    }
}

#[test]
fn apply_errors_render_the_script_line() {
    let graph = fixture();
    let script =
        EditScript::parse("# spin\n{\"op\": \"remove_node\", \"name\": \"zz\"}\n").unwrap();
    let err = apply_script(&graph, &script).unwrap_err();
    assert_eq!(err.to_string(), "line 2: reference to unknown node `zz`");
}

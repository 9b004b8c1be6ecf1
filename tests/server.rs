//! Protocol-level tests of the sessionful partition server.
//!
//! Covers the PR-9 acceptance gates: a protocol `partition` is
//! bit-identical to the library search with the same seed/config,
//! cancelling an in-flight run yields a verifiable degraded/cancelled
//! outcome, and a corpus of malformed requests produces typed error
//! replies without ever dropping the connection.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::path::PathBuf;

use fpart_core::server::protocol;
use fpart_core::{
    partition_multilevel_restarts_observed, verify_assignment, Counter, FpartConfig, Json,
    MultilevelConfig, Server, ServerConfig,
};
use fpart_device::DeviceConstraints;
use fpart_hypergraph::gen::{rent_circuit, window_circuit, RentConfig, WindowConfig};
use fpart_hypergraph::Hypergraph;

use proptest::prelude::*;

fn write_netlist(name: &str, graph: &Hypergraph) -> PathBuf {
    let dir = std::env::temp_dir().join("fpart_server_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.fhg"));
    let file = std::fs::File::create(&path).unwrap();
    fpart_hypergraph::io::write_netlist(file, graph).unwrap();
    path
}

fn parse_lines(out: &[u8]) -> Vec<Json> {
    String::from_utf8(out.to_vec())
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad reply line `{l}`: {e}")))
        .collect()
}

fn final_reply<'a>(replies: &'a [Json], id: &str) -> &'a Json {
    replies
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some(id) && r.get("ok").is_some())
        .unwrap_or_else(|| panic!("no final reply for id {id}"))
}

fn assignment_of(result: &Json) -> Vec<u32> {
    result
        .get("assignment")
        .and_then(Json::as_array)
        .expect("result carries the assignment")
        .iter()
        .map(|v| u32::try_from(v.as_u64().unwrap()).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A protocol `partition` returns exactly what the library's
    /// restarts search returns for the same seed, restarts, and thread
    /// budget — streamed progress included (restarts == 1 path) — and
    /// reports the same counters as the search's totals.
    #[test]
    fn protocol_partition_matches_library(
        nodes in 60usize..160,
        seed in 0u64..1000,
        restarts in 1usize..3,
        threads in 1usize..3,
        progress in any::<bool>(),
    ) {
        let graph = window_circuit(&WindowConfig::new("prop", nodes, 8), 11);
        let constraints = DeviceConstraints::new(40, 24);
        let path = write_netlist(&format!("prop_{nodes}_{seed}_{restarts}"), &graph);

        let server = Server::new(ServerConfig { threads, ..ServerConfig::default() });
        let mut out = Vec::new();
        server.handle(
            &format!(
                "{{\"id\": \"l\", \"cmd\": \"load\", \"session\": \"s\", \"path\": {}, \
                 \"s_max\": 40, \"t_max\": 24}}",
                protocol::json_string(path.to_str().unwrap())
            ),
            &mut out,
        );
        server.handle(
            &format!(
                "{{\"id\": \"p\", \"cmd\": \"partition\", \"session\": \"s\", \"seed\": {seed}, \
                 \"restarts\": {restarts}, \"threads\": {threads}, \"assignment\": true, \
                 \"progress\": {progress}}}"
            ),
            &mut out,
        );
        let replies = parse_lines(&out);
        let result = final_reply(&replies, "p").get("result").unwrap();

        let cfg = FpartConfig { seed, ..FpartConfig::default() };
        let report = partition_multilevel_restarts_observed(
            &graph,
            constraints,
            &cfg,
            &MultilevelConfig::default(),
            restarts,
            threads,
        )
        .unwrap();
        let expected = &report.outcome;

        prop_assert_eq!(assignment_of(result), expected.assignment.clone());
        prop_assert_eq!(result.get("cut").unwrap().as_u64().unwrap() as usize, expected.cut);
        prop_assert_eq!(
            result.get("devices").unwrap().as_u64().unwrap() as usize,
            expected.device_count
        );
        prop_assert_eq!(
            result.get("completion").unwrap().as_str().unwrap(),
            expected.completion.as_str()
        );
        let counters = result.get("counters").unwrap();
        for counter in [Counter::Runs, Counter::Passes, Counter::MovesApplied] {
            prop_assert_eq!(
                counters.get(counter.name()).and_then(Json::as_u64),
                Some(report.totals.get(counter)),
                "{}", counter.name()
            );
        }
    }
}

/// A loaded session serves from memory: with its netlist file deleted,
/// a `partition` request still succeeds and matches the library run,
/// so no request pays for a parse.
#[test]
fn partition_after_the_netlist_file_is_deleted_serves_from_the_session() {
    let graph = window_circuit(&WindowConfig::new("deleted", 120, 8), 4);
    let path = write_netlist("deleted", &graph);
    let server = Server::new(ServerConfig { threads: 1, ..ServerConfig::default() });
    let mut out = Vec::new();
    server.handle(
        &format!(
            "{{\"id\": \"l\", \"cmd\": \"load\", \"session\": \"s\", \"path\": {}, \
             \"s_max\": 40, \"t_max\": 24}}",
            protocol::json_string(path.to_str().unwrap())
        ),
        &mut out,
    );
    std::fs::remove_file(&path).unwrap();
    server.handle(
        "{\"id\": \"p\", \"cmd\": \"partition\", \"session\": \"s\", \"seed\": 5, \
         \"threads\": 1, \"assignment\": true}",
        &mut out,
    );
    let replies = parse_lines(&out);
    assert_eq!(final_reply(&replies, "l").get("ok"), Some(&Json::Bool(true)));
    let reply = final_reply(&replies, "p");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");

    let cfg = FpartConfig { seed: 5, ..FpartConfig::default() };
    let ml = MultilevelConfig::default();
    let expected = partition_multilevel_restarts_observed(
        &graph,
        DeviceConstraints::new(40, 24),
        &cfg,
        &ml,
        1,
        1,
    )
    .unwrap()
    .outcome;
    let result = reply.get("result").unwrap();
    assert_eq!(assignment_of(result), expected.assignment);
    assert_eq!(result.get("cut").and_then(Json::as_u64), Some(expected.cut as u64));
}

/// A reseeded `partition` on an unchanged session is a memo hit: the
/// default V-cycle reads no driver seed, so the second request replays
/// the first one's result without running a single pass.
#[test]
fn reseeded_partition_on_an_unchanged_session_is_a_memo_hit() {
    let graph = window_circuit(&WindowConfig::new("reseed", 150, 8), 6);
    let path = write_netlist("reseed", &graph);
    let server = Server::new(ServerConfig { threads: 1, ..ServerConfig::default() });
    let mut out = Vec::new();
    server.handle(
        &format!(
            "{{\"id\": \"l\", \"cmd\": \"load\", \"session\": \"s\", \"path\": {}, \
             \"s_max\": 40, \"t_max\": 24}}",
            protocol::json_string(path.to_str().unwrap())
        ),
        &mut out,
    );
    for (id, seed) in [("p1", 1), ("p2", 2)] {
        server.handle(
            &format!(
                "{{\"id\": \"{id}\", \"cmd\": \"partition\", \"session\": \"s\", \
                 \"seed\": {seed}, \"threads\": 1, \"assignment\": true}}"
            ),
            &mut out,
        );
    }
    let replies = parse_lines(&out);
    let result = |id: &str| {
        let reply = final_reply(&replies, id);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        reply.get("result").unwrap()
    };
    let passes =
        |id: &str| result(id).get("counters").unwrap().get("passes").and_then(Json::as_u64);
    assert!(passes("p1").unwrap() > 0, "the first request searches");
    assert_eq!(passes("p2"), Some(0), "the reseeded request replays the memo");
    assert_eq!(assignment_of(result("p2")), assignment_of(result("p1")));
    for field in ["cut", "devices"] {
        assert_eq!(result("p2").get(field), result("p1").get(field), "{field}");
    }
}

/// Cancelling an in-flight request stops it cooperatively and the
/// early outcome is still a verifiable partition of the session's
/// graph.
#[test]
fn cancel_mid_run_yields_verifiable_outcome() {
    let graph = rent_circuit(&RentConfig::new("cancel", 4000, 200), 3);
    let constraints = DeviceConstraints::new(250, 90);
    let path = write_netlist("cancel", &graph);

    let socket = std::env::temp_dir().join("fpart_server_it").join("cancel.sock");
    let server = Server::new(ServerConfig::default());
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_unix(&socket));
        let mut stream = loop {
            match std::os::unix::net::UnixStream::connect(&socket) {
                Ok(stream) => break stream,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // hello banner
        assert!(line.contains("\"hello\""), "{line}");

        writeln!(
            stream,
            "{{\"id\": \"l\", \"cmd\": \"load\", \"session\": \"s\", \"path\": {}, \
             \"s_max\": 250, \"t_max\": 90}}",
            protocol::json_string(path.to_str().unwrap())
        )
        .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\": true"), "{line}");

        // A many-restart run long enough for the cancel to land while
        // it is in flight.
        writeln!(
            stream,
            "{{\"id\": \"run\", \"cmd\": \"partition\", \"session\": \"s\", \
             \"restarts\": 16, \"assignment\": true}}"
        )
        .unwrap();
        writeln!(stream, "{{\"id\": \"c\", \"cmd\": \"cancel\", \"target\": \"run\"}}").unwrap();

        // The cancel reply comes back inline (the run holds the
        // worker); then the cancelled run's own final reply.
        let mut cancel_reply = None;
        let mut run_reply = None;
        while run_reply.is_none() {
            line.clear();
            reader.read_line(&mut line).unwrap();
            let doc = Json::parse(line.trim()).unwrap();
            match doc.get("id").and_then(Json::as_str) {
                Some("c") => cancel_reply = Some(doc),
                Some("run") if doc.get("ok").is_some() => run_reply = Some(doc),
                _ => {}
            }
        }
        let cancel_reply = cancel_reply.unwrap();
        assert_eq!(
            cancel_reply.get("result").unwrap().get("cancelled"),
            Some(&Json::Bool(true)),
            "cancel must find the in-flight run"
        );
        let result = run_reply.as_ref().unwrap().get("result").unwrap();
        let completion = result.get("completion").unwrap().as_str().unwrap();
        assert!(
            completion == "cancelled" || completion == "degraded",
            "cancelled run must not report a natural finish, got {completion}"
        );
        // The early outcome is still a complete, valid assignment.
        let assignment = assignment_of(result);
        let blocks = result.get("devices").unwrap().as_u64().unwrap() as usize;
        let verification = verify_assignment(&graph, &assignment, blocks, constraints);
        assert_eq!(assignment.len(), graph.node_count());
        assert!(
            verification.violations.iter().all(|v| !matches!(
                v,
                fpart_core::Violation::WrongLength { .. }
                    | fpart_core::Violation::BlockOutOfRange { .. }
            )),
            "cancelled outcome must still be structurally sound: {:?}",
            verification.violations
        );

        writeln!(stream, "{{\"id\": \"q\", \"cmd\": \"shutdown\"}}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"shutdown\": true"), "{line}");
        handle.join().unwrap().unwrap();
    });
}

/// The malformed-request corpus: every hostile line gets a typed error
/// reply with the right code, and the connection keeps serving
/// afterwards (the final valid request succeeds). `handle` decodes a
/// line as `serve` does, so it answers each line with the same code.
#[test]
fn malformed_requests_get_typed_errors_and_never_disconnect() {
    let graph = window_circuit(&WindowConfig::new("mal", 80, 8), 5);
    let path = write_netlist("malformed", &graph);
    let load = format!(
        "{{\"id\": \"ok-load\", \"cmd\": \"load\", \"session\": \"s\", \"path\": {}, \
         \"s_max\": 40, \"t_max\": 24}}",
        protocol::json_string(path.to_str().unwrap())
    );

    let limits = fpart_hypergraph::ParseLimits { max_line_len: 512, ..Default::default() };
    let oversized =
        format!("{{\"id\": \"big\", \"cmd\": \"query\", \"pad\": \"{}\"}}", "x".repeat(600));
    let script = [
        "this is not json",                                               // parse_error
        "[1, 2, 3]",                                  // bad_request (not an object)
        "{\"cmd\": \"query\"}",                       // bad_request (no id)
        "{\"id\": \"u\", \"cmd\": \"transmogrify\"}", // unknown_command
        "{\"id\": \"w\", \"cmd\": \"partition\", \"session\": \"nope\"}", // unknown_session
        "{\"id\": \"e\", \"cmd\": \"eco\", \"session\": \"s\"}", // bad_request (no edits)
        "{\"id\": \"r\", \"cmd\": \"partition\", \"session\": \"s\", \"restarts\": 0}",
        &oversized, // line_too_long
        &load,      // valid
        "{\"id\": \"ok-run\", \"cmd\": \"partition\", \"session\": \"s\", \"seed\": 1}",
        "{\"id\": \"bye\", \"cmd\": \"shutdown\"}",
    ];

    let server = Server::new(ServerConfig { limits, ..ServerConfig::default() });
    let mut out = Vec::new();
    server.serve(Cursor::new(script.join("\n")), &mut out).unwrap();
    let replies = parse_lines(&out);

    let code_of = |idx: usize| {
        replies[idx].get("error").and_then(|e| e.get("code")).and_then(Json::as_str).unwrap()
    };
    assert!(replies[0].get("event").and_then(Json::as_str) == Some("hello"));
    assert_eq!(code_of(1), "parse_error");
    assert_eq!(code_of(2), "bad_request");
    assert_eq!(code_of(3), "bad_request");
    assert_eq!(code_of(4), "unknown_command");
    assert_eq!(code_of(5), "unknown_session");
    assert_eq!(code_of(6), "bad_request");
    assert_eq!(code_of(7), "bad_request");
    assert_eq!(code_of(8), "line_too_long");
    // The connection survived all of it: load + partition + shutdown
    // all succeeded.
    assert_eq!(final_reply(&replies, "ok-load").get("ok"), Some(&Json::Bool(true)));
    assert_eq!(final_reply(&replies, "ok-run").get("ok"), Some(&Json::Bool(true)));
    assert_eq!(final_reply(&replies, "bye").get("ok"), Some(&Json::Bool(true)));

    // `serve` answers the lines up to the load in order; the run and
    // the shutdown by id. The oversized line never reaches `handle`:
    // `serve` refuses it while reading.
    let code = |reply: &Json| reply.get("error").and_then(|e| e.get("code")).cloned();
    let handled = Server::new(ServerConfig { limits, ..ServerConfig::default() });
    for (i, line) in script.iter().enumerate().filter(|(_, line)| **line != oversized) {
        let served = match i {
            9 => final_reply(&replies, "ok-run"),
            10 => final_reply(&replies, "bye"),
            _ => &replies[i + 1],
        };
        let mut out = Vec::new();
        handled.handle(line, &mut out);
        let reply = parse_lines(&out);
        assert_eq!(reply.len(), 1, "{line}");
        assert_eq!(code(&reply[0]), code(served), "{line}");
        assert_eq!(reply[0].get("id"), served.get("id"), "{line}");
    }
}

/// Pipelined duplicate `partition` requests each run in turn, and the
/// memo answers the repeats: the default V-cycle reads no driver seed,
/// so both the byte-identical `p2` and the reseeded `p3` replay `p1`'s
/// memoized restarts without a pass and return its result.
#[test]
fn identical_pipelined_partitions_replay_from_the_memo() {
    let graph = rent_circuit(&RentConfig::new("dedup", 2000, 120), 5);
    let path = write_netlist("dedup", &graph);
    let socket = std::env::temp_dir().join("fpart_server_it").join("dedup.sock");
    let server = Server::new(ServerConfig::default());
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_unix(&socket));
        let mut stream = loop {
            match std::os::unix::net::UnixStream::connect(&socket) {
                Ok(stream) => break stream,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // hello banner
        writeln!(
            stream,
            "{{\"id\": \"l\", \"cmd\": \"load\", \"session\": \"s\", \"path\": {}, \
             \"s_max\": 150, \"t_max\": 60}}",
            protocol::json_string(path.to_str().unwrap())
        )
        .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\": true"), "{line}");

        // Two byte-identical submits plus one that differs only in its
        // seed, sent back-to-back: p2 and p3 queue behind p1.
        let run = |id: &str, seed: u64| {
            format!(
                "{{\"id\": \"{id}\", \"cmd\": \"partition\", \"session\": \"s\", \
                 \"seed\": {seed}, \"restarts\": 2, \"assignment\": true}}"
            )
        };
        writeln!(stream, "{}", run("p1", 7)).unwrap();
        writeln!(stream, "{}", run("p2", 7)).unwrap();
        writeln!(stream, "{}", run("p3", 8)).unwrap();

        let mut finals: std::collections::HashMap<String, Json> = std::collections::HashMap::new();
        while finals.len() < 3 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            let doc = Json::parse(line.trim()).unwrap();
            if doc.get("ok").is_some() {
                let id = doc.get("id").and_then(Json::as_str).unwrap().to_owned();
                finals.insert(id, doc);
            }
        }
        let result = |id: &str| finals[id].get("result").unwrap();
        let passes =
            |id: &str| result(id).get("counters").unwrap().get("passes").and_then(Json::as_u64);
        for id in ["p1", "p2", "p3"] {
            assert_eq!(finals[id].get("ok"), Some(&Json::Bool(true)), "{id}");
            assert_eq!(result(id).get("coalesced"), None, "{id}: no reply is coalesced");
        }
        assert!(passes("p1").unwrap() > 0, "the first request searches");
        for id in ["p2", "p3"] {
            assert_eq!(passes(id), Some(0), "{id} replays p1's memoized restarts");
            assert_eq!(assignment_of(result(id)), assignment_of(result("p1")), "{id}");
            for field in ["cut", "devices"] {
                assert_eq!(result(id).get(field), result("p1").get(field), "{id}: {field}");
            }
        }

        // Every request ran, so the session counts three.
        writeln!(stream, "{{\"id\": \"q\", \"cmd\": \"query\", \"session\": \"s\"}}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let q = Json::parse(line.trim()).unwrap();
        let qr = q.get("result").unwrap();
        assert_eq!(qr.get("requests").and_then(Json::as_u64), Some(3));
        let counters = qr.get("counters").unwrap();
        assert_eq!(counters.get("server_requests").and_then(Json::as_u64), Some(3));
        assert_eq!(counters.get("server_coalesced"), None);
        let fp = qr.get("fingerprint").and_then(Json::as_str).unwrap();
        assert_eq!(fp.len(), 32, "128-bit session fingerprint rendered as hex: {fp}");

        writeln!(stream, "{{\"id\": \"bye\", \"cmd\": \"shutdown\"}}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"shutdown\": true"), "{line}");
        handle.join().unwrap().unwrap();
    });
}

/// Folded in from the old `deep_json_test.rs`: pathologically nested
/// input is a *typed* depth error, not a stack overflow — standalone
/// and over the wire (where it surfaces as a `parse_error` reply).
#[test]
fn deep_nesting_is_a_typed_error_not_a_crash() {
    let line = "[".repeat(400_000);
    let err = fpart_core::Json::parse(&line).unwrap_err();
    assert!(
        matches!(err, fpart_core::JsonParseError::TooDeep { limit: 128, .. }),
        "expected a typed depth error, got {err}"
    );

    let server = Server::new(ServerConfig::default());
    let mut out = Vec::new();
    let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
    server.handle(&deep, &mut out);
    let replies = parse_lines(&out);
    assert_eq!(
        replies[0].get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("parse_error")
    );
    let message =
        replies[0].get("error").and_then(|e| e.get("message")).and_then(Json::as_str).unwrap();
    assert!(message.contains("128"), "depth limit named in the reply: {message}");
}

/// The eco flow over the protocol: partition, edit, repair; the
/// session's graph advances to the edited netlist.
#[test]
fn eco_round_trip_updates_the_session() {
    let graph = window_circuit(&WindowConfig::new("eco", 120, 8), 9);
    let path = write_netlist("eco", &graph);
    let server = Server::new(ServerConfig::default());
    let mut out = Vec::new();
    server.handle(
        &format!(
            "{{\"id\": \"1\", \"cmd\": \"load\", \"session\": \"s\", \"path\": {}, \
             \"s_max\": 40, \"t_max\": 24}}",
            protocol::json_string(path.to_str().unwrap())
        ),
        &mut out,
    );
    // Eco before any partition: typed error.
    server.handle(
        "{\"id\": \"early\", \"cmd\": \"eco\", \"session\": \"s\", \
         \"edits\": \"{\\\"op\\\": \\\"add_node\\\", \\\"name\\\": \\\"island\\\", \\\"size\\\": 1}\"}",
        &mut out,
    );
    server.handle(
        "{\"id\": \"2\", \"cmd\": \"partition\", \"session\": \"s\", \"seed\": 2}",
        &mut out,
    );
    // An island node edit is name-independent of the generated circuit.
    server.handle(
        "{\"id\": \"3\", \"cmd\": \"eco\", \"session\": \"s\", \
         \"edits\": \"{\\\"op\\\": \\\"add_node\\\", \\\"name\\\": \\\"island\\\", \\\"size\\\": 1}\"}",
        &mut out,
    );
    server.handle("{\"id\": \"4\", \"cmd\": \"query\", \"session\": \"s\"}", &mut out);
    let replies = parse_lines(&out);
    assert_eq!(
        final_reply(&replies, "early")
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("no_assignment")
    );
    let eco = final_reply(&replies, "3").get("result").unwrap();
    assert_eq!(eco.get("added_nodes").unwrap().as_u64(), Some(1));
    assert_eq!(eco.get("nodes").unwrap().as_u64(), Some(121));
    let q = final_reply(&replies, "4").get("result").unwrap();
    assert_eq!(q.get("nodes").unwrap().as_u64(), Some(121), "session graph advances");
    assert_eq!(q.get("requests").unwrap().as_u64(), Some(2));
}

/// An `eco` whose edits come from a file reads them through the
/// server's parse limits: a valid script applies, a line past
/// `max_line_len` is refused as too long, and a path that opens but
/// cannot be read is named with its OS reason.
#[test]
fn eco_edits_path_is_read_within_the_parse_limits() {
    let graph = window_circuit(&WindowConfig::new("eco_path", 120, 8), 9);
    let path = write_netlist("eco_path", &graph);
    let dir = path.parent().unwrap();
    let valid = dir.join("eco_path_valid.jsonl");
    std::fs::write(&valid, "{\"op\": \"add_node\", \"name\": \"island\", \"size\": 1}\n").unwrap();
    let long = dir.join("eco_path_long.jsonl");
    std::fs::write(&long, format!("{{\"op\": \"add_node\", \"name\": \"{}\"}}\n", "x".repeat(600)))
        .unwrap();
    let limits = fpart_hypergraph::ParseLimits { max_line_len: 512, ..Default::default() };
    let server = Server::new(ServerConfig { limits, ..ServerConfig::default() });
    let mut out = Vec::new();
    server.handle(
        &format!(
            "{{\"id\": \"load\", \"cmd\": \"load\", \"session\": \"s\", \"path\": {}, \
             \"s_max\": 40, \"t_max\": 24}}",
            protocol::json_string(path.to_str().unwrap())
        ),
        &mut out,
    );
    server.handle("{\"id\": \"run\", \"cmd\": \"partition\", \"session\": \"s\"}", &mut out);
    for (id, edits) in [("valid", valid.as_path()), ("long", long.as_path()), ("dir", dir)] {
        server.handle(
            &format!(
                "{{\"id\": \"{id}\", \"cmd\": \"eco\", \"session\": \"s\", \"edits_path\": {}}}",
                protocol::json_string(edits.to_str().unwrap())
            ),
            &mut out,
        );
    }
    let replies = parse_lines(&out);
    let eco = final_reply(&replies, "valid").get("result").unwrap();
    assert_eq!(eco.get("added_nodes").unwrap().as_u64(), Some(1));
    let error = |id: &str| {
        let e = final_reply(&replies, id).get("error").unwrap();
        let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_owned();
        (field("code"), field("message"))
    };
    assert_eq!(
        error("long"),
        (
            "bad_request".to_owned(),
            "bad edit script: line 1, column 513: line length exceeds limit of 512".to_owned()
        )
    );
    let (code, message) = error("dir");
    assert_eq!(code, "bad_request");
    assert!(message.starts_with(&format!("cannot read edits {}: ", dir.display())), "{message}");
}

/// Queue backpressure: submits beyond the session's bounded queue are
/// refused with `busy`, parked ones are acknowledged with `queued`,
/// and every accepted request still gets its final reply.
#[test]
fn bounded_queue_reports_busy_and_queued() {
    let graph = rent_circuit(&RentConfig::new("queue", 2500, 150), 8);
    let path = write_netlist("queue", &graph);
    let load = format!(
        "{{\"id\": \"l\", \"cmd\": \"load\", \"session\": \"s\", \"path\": {}, \
         \"s_max\": 200, \"t_max\": 80}}",
        protocol::json_string(path.to_str().unwrap())
    );
    // Queue capacity 2: the first run occupies the worker (or its
    // buffer slot), the second parks with a `queued` ack, and the
    // burst after that bounces with `busy`. The runs are read faster
    // than the first one searches, so the queue fills whatever their
    // seeds.
    let mut script = vec![load];
    for i in 0..6 {
        script.push(format!(
            "{{\"id\": \"r{i}\", \"cmd\": \"partition\", \"session\": \"s\", \
             \"seed\": {i}, \"restarts\": 4}}"
        ));
    }
    script.push("{\"id\": \"bye\", \"cmd\": \"shutdown\"}".to_owned());

    let server = Server::new(ServerConfig { queue_capacity: 2, ..ServerConfig::default() });
    let mut out = Vec::new();
    server.serve(Cursor::new(script.join("\n")), &mut out).unwrap();
    let replies = parse_lines(&out);

    let busy = replies
        .iter()
        .filter(|r| {
            r.get("error").and_then(|e| e.get("code")).and_then(Json::as_str) == Some("busy")
        })
        .count();
    let queued =
        replies.iter().filter(|r| r.get("event").and_then(Json::as_str) == Some("queued")).count();
    assert!(busy >= 1, "an overflowing submit must be refused: {replies:?}");
    assert!(queued >= 1, "a parked submit must be acknowledged: {replies:?}");
    // Every non-busy run got a final reply.
    let finals = replies
        .iter()
        .filter(|r| {
            r.get("ok") == Some(&Json::Bool(true))
                && r.get("id").and_then(Json::as_str).is_some_and(|id| id.starts_with('r'))
        })
        .count();
    assert_eq!(finals + busy, 6, "accepted + refused must cover all submits");
}
